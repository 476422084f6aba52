"""The package namespace resolves lazily, and a CLI request imports only what it runs.

`sl2rat/__init__.py` re-exports the library's names through a module
`__getattr__` (PEP 562), and each CLI command imports its modules when it
runs.  The import-graph tests start fresh interpreters, since a module that
any earlier test imported stays in this process's `sys.modules`.
"""
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import sl2rat
import sl2rat.picard

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# home module -> every name the package re-exported when it imported them all eagerly
PUBLIC = {
    "errors": [
        "CyclicVectorNotFound", "InvalidExtensionData", "LevelMismatch", "LevelOutsideBaseField",
        "NonConstantMinpoly", "NotARepresentation", "NotCasimir", "NotInvariant", "NotPolynomial",
        "ParseError", "PiMuIrreducible", "SingularMatrix", "SingularOperator", "Sl2RatError",
        "ZeroDenominator",
    ],
    "extension": ["ExtDatum", "exponent_of", "ext_build", "ext_class_equal", "ext_is_casimir", "solve_add_diff"],
    "factor": ["factor_poly", "monic_divisors", "squarefree_decomposition"],
    "k0": [
        "DevissageTree", "FactorKey", "K0Class", "OpaqueKey", "Rank1Key", "composition_factors",
        "devissage", "find_rank1_quotient", "find_rank1_sub", "k0_add", "k0_dim", "k0_eq", "k0_neg",
    ],
    "matrix": ["Mat", "mat_from_strings"],
    "monoidal": ["dual", "internal_hom", "tensor", "unit"],
    "parser": ["parse_poly", "parse_ratfunc"],
    "picard": [
        "IsoResult", "PicInvariant", "iso_rank1", "level_of", "pic_identity", "pic_inverse",
        "pic_invariant", "pic_mul", "section", "solve_mult_diff",
    ],
    "poly": ["Poly", "format_poly", "pi_mu", "poly_gcd", "poly_lcm"],
    "ratfunc": ["RatFunc", "format_ratfunc", "leading_ratio", "pochhammer", "shift_ratfunc"],
    "rep": [
        "Filtration", "LevelComponent", "PolynomialRep", "RationalRep", "canonical_filtration",
        "casimir_from_L1", "casimir_level", "casimir_matrix", "casimir_minpoly", "classify_rank1",
        "commutation_residual", "conjugate", "cyclic_orbit", "direct_sum", "is_casimir",
        "level_decompose", "level_shift", "make_rep", "poly_rank1", "quotient_by_invariant_subspace",
        "rank1", "rationalize", "restrict_to_invariant_subspace", "validate",
    ],
    "shifts": ["ShiftClass", "canonical_shift_rep", "shift_offset"],
}
# a star import also binds each library submodule, as it did when the package imported them all
SUBMODULES = [*PUBLIC, "hyper"]


def _loaded_after(code: str) -> set:
    """The `sl2rat` submodules a fresh interpreter holds after running `code`."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('sl2rat.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _request(argv, doc) -> str:
    """Code that runs one CLI request through `sl2rat.cli.execute`, its output swallowed."""
    return (
        "import sl2rat.cli\n"
        f"sys.stdin = io.StringIO({json.dumps(doc)!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert sl2rat.cli.execute({argv!r}) == 0\n"
    )


HEAVY = {"rep", "matrix", "k0", "hyper", "extension", "monoidal"}


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import sl2rat") == set()


def test_importing_the_cli_loads_no_computing_layer():
    loaded = _loaded_after("import sl2rat.cli")
    assert loaded.isdisjoint(HEAVY | {"picard", "poly"}), loaded


def test_pic_normalize_loads_neither_modules_nor_matrices():
    loaded = _loaded_after(_request(["pic", "normalize"], {"level": "0", "r": "2*(z - 1/2)/(z + 3/2)"}))
    assert "picard" in loaded
    assert loaded.isdisjoint(HEAVY), loaded


def test_devissage_loads_neither_monoidal_nor_extension():
    with open(os.path.join(HERE, "data", "devissage_ext.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    loaded = _loaded_after(_request(["devissage"], doc))
    assert {"k0", "hyper", "rep"} <= loaded
    assert loaded.isdisjoint({"monoidal", "extension"}), loaded


def test_every_public_name_resolves_to_its_home_object():
    wrong = []
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"sl2rat.{home}")
        for name in names:
            namespace = {}
            exec(f"from sl2rat import {name}", namespace)
            if namespace[name] is not getattr(module, name):
                wrong.append(name)
    assert wrong == []


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from sl2rat import *", namespace)
    del namespace["__builtins__"]
    expected = {name for names in PUBLIC.values() for name in names} | set(SUBMODULES)
    assert set(namespace) == expected
    assert set(sl2rat.__all__) == expected
    assert expected <= set(dir(sl2rat))


def test_readme_library_quick_start_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sl2rat.no_such_name


def test_names_are_read_from_the_home_module_on_every_access(monkeypatch):
    original = sl2rat.picard.pic_invariant
    patched = object()
    monkeypatch.setattr(sl2rat.picard, "pic_invariant", patched)
    assert sl2rat.pic_invariant is patched
    monkeypatch.undo()
    assert sl2rat.pic_invariant is original
