"""Every function the bench tracer wraps still exists under its traced name.

`bench/tracing.py` patches the library by (module, attribute); a rename or a
deletion in `src/` would only show when the bench runs with tracing on.  A
traced name must also be the one the library calls: a devissage that went
through a private copy of the level split would read zero calls.
"""
import importlib
import importlib.util
import os
import random

from helpers import random_rank1_extension
from sl2rat import k0
from sl2rat.extension import ext_build

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("sl2rat_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for _, modname, attr in tracing.TRACED:
        home = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = vars(getattr(home, cls_name, object)).get(meth)
        else:
            found = getattr(home, attr, None)
        if not callable(found):
            missing.append(f"{modname}.{attr}")
    assert tracing.TRACED
    assert missing == []


def test_devissage_level_split_and_filtration_are_traced():
    ext = ext_build(random_rank1_extension(random.Random(7)))
    tracer = _tracing().Tracer()
    with tracer.installed():
        k0.devissage(ext)
    counts = tracer.per_name()
    assert counts["k0.devissage"][0] == 1
    assert counts["rep.level_decompose"][0] > 0
    assert counts["rep.filtration"][0] > 0
