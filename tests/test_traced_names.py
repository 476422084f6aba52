"""Every function the bench tracer wraps still exists under its traced name.

`bench/tracing.py` patches the library by (module, attribute); a rename or a
deletion in `src/` would only show when the bench runs with tracing on.
"""
import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("sl2rat_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
