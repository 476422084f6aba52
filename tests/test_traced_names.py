"""Every function the bench tracer wraps still exists under its traced name.

`bench/tracing.py` patches the library by (module, attribute); a rename or a
deletion in `src/` would only show when the bench runs with tracing on.  A
traced name must also be the one the library calls: a devissage that went
through a private copy of the level split would read zero calls.
"""
import importlib
import importlib.util
import io
import json
import os
import random
import sys

from helpers import random_rank1_extension
from sl2rat import cli, hyper, k0
from sl2rat.extension import ext_build
from sl2rat.matrix import Mat
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc

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


def test_mat_eliminations_go_through_the_traced_rref_and_hyper_does_not():
    """`matrix.rref` counts every `Mat` elimination and no `Fraction` one.

    `Mat.kernel`, `solve` and `inverse` share the row reduction with
    `hyper`'s polynomial solutions; only the `Mat` callers enter `Mat.rref`.
    """
    z = RatFunc.variable()
    m = Mat([[z, 1], [1, z + 1]])
    calls = {
        "kernel": lambda: Mat([[1, z, z + 1], [z, z * z, 1]]).kernel(),
        "solve": lambda: m.solve(Mat.column([1, z])),
        "inverse": lambda: m.inverse(),
        # (z + 1) y(z) - z y(z + 1) = 0 has the solution y = z
        "poly_solutions": lambda: hyper.poly_solutions([Poly((1, 1)), Poly((0, -1))]),
    }
    counts = {}
    for name, call in calls.items():
        tracer = _tracing().Tracer()
        with tracer.installed():
            result = call()
        assert result
        counts[name] = tracer.per_name()["matrix.rref"][0]
    assert counts == {"kernel": 1, "solve": 1, "inverse": 1, "poly_solutions": 0}


def test_factored_parse_reaches_the_traced_factor_poly(monkeypatch, capsys):
    """The per-operand path calls `factor.factor_poly` through the module attribute, so `factor` counts it.

    Each distinct operand of degree 3 or more is one call; lower degrees take
    the closed form.  The CLI parses a factored field through the traced
    `parse_ratfunc`, so `parser` counts it too.
    """
    r = "(z^3 + z + 1)^2*(z + 1)*(z^2 + 1)/((z^3 - 2)*(z^3 + z + 1)*(z - 1))"
    requests = {
        ("pic", "normalize"): ({"level": "0", "r": r}, 2),  # z^3 + z + 1 and z^3 - 2
        ("solve-add",): ({"s": r}, 2),  # the denominator's operands z^3 - 2 and z^3 + z + 1
        ("solve-mult",): ({"f": f"({r})*(z^3 - 2)"}, 1),  # z^3 - 2 cancels before factoring
    }
    for argv, (doc, calls) in requests.items():
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        tracer = _tracing().Tracer()
        with tracer.installed():
            assert cli.execute(list(argv)) == 0
        capsys.readouterr()
        counts = tracer.per_name()
        assert (counts["parser"][0], counts["factor"][0]) == (1, calls), argv
