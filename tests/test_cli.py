"""Byte-exact golden tests for every CLI subcommand, including error paths.

Golden files are produced by tests/make_goldens.py; regenerate them only
when an output format change is intended and review the diff.
"""
import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLD = os.path.join(HERE, "goldens")

with open(os.path.join(GOLD, "manifest.json"), "r", encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


def run_cli(argv, input_path=None, stdin_text=None, timeout=None):
    cmd = [sys.executable, "-m", "sl2rat.cli", *argv]
    if input_path is not None:
        cmd += ["--input", input_path]
    return subprocess.run(cmd, capture_output=True, text=True, input=stdin_text, timeout=timeout)


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden(case):
    in_path = os.path.join(DATA, f"{case['name']}.json")
    with open(os.path.join(GOLD, f"{case['name']}.out"), "r", encoding="utf-8") as fh:
        expected = fh.read()
    proc = run_cli(case["argv"], input_path=in_path)
    assert proc.returncode == case["exit"], proc.stderr
    assert proc.stdout == expected


def test_every_subcommand_has_a_golden():
    covered = {tuple(c["argv"][:2]) if c["argv"][0] in ("pic", "ext") else (c["argv"][0],) for c in MANIFEST}
    expected = {
        ("validate",), ("casimir",), ("minpoly",), ("levels",), ("filtration",),
        ("devissage",), ("tensor",), ("hom",), ("dual",), ("iso",),
        ("classify-rank1",), ("rationalize",), ("solve-add",), ("solve-mult",),
        ("orbit",),
        ("pic", "normalize"), ("pic", "mul"), ("pic", "inv"),
        ("ext", "build"), ("ext", "casimir"), ("ext", "class-eq"),
    }
    assert expected <= covered


def test_error_paths_covered():
    error_cases = [c for c in MANIFEST if c["exit"] == 1]
    kinds = set()
    for c in error_cases:
        with open(os.path.join(GOLD, f"{c['name']}.out"), "r", encoding="utf-8") as fh:
            kinds.add(json.loads(fh.read())["error"]["type"])
    assert {"NotARepresentation", "ZeroDenominator", "ParseError",
            "InputError", "InvalidExtensionData", "LevelOutsideBaseField"} <= kinds


def test_usage_errors_exit_2():
    proc = run_cli(["not-a-command"])
    assert proc.returncode == 2
    assert proc.stdout == "" and "usage" in proc.stderr

    proc = run_cli(["pic", "not-an-action"])
    assert proc.returncode == 2

    proc = run_cli(["minpoly"], input_path=os.path.join(DATA, "no_such_file.json"))
    assert proc.returncode == 2
    assert "cannot read input" in proc.stderr


def test_stdin_input():
    with open(os.path.join(DATA, "minpoly.json"), "r", encoding="utf-8") as fh:
        doc = fh.read()
    proc = run_cli(["minpoly"], stdin_text=doc)
    assert proc.returncode == 0
    assert proc.stdout == '{"minpoly":"t^2 - t"}\n'


def test_repeat_runs_are_byte_identical():
    in_path = os.path.join(DATA, "devissage_ext.json")
    outs = {run_cli(["devissage", "--seed", "0"], input_path=in_path).stdout for _ in range(3)}
    assert len(outs) == 1


REP = {"dim": 1, "L1": [["1"]], "Lm1": [["z^2 - z"]]}

# one document per subcommand with a field of the wrong JSON type
MALFORMED = [
    (["validate"], {"dim": 1, "L1": 5, "Lm1": [["1"]]}),
    (["casimir"], {"dim": 1, "L1": [[1]], "Lm1": [["1"]]}),
    (["minpoly"], {**REP, "dim": True}),
    (["levels"], {**REP, "dim": "1"}),
    (["filtration"], {**REP, "Lm1": ["z^2 - z"]}),
    (["devissage"], {**REP, "dim": 1.0}),
    (["tensor"], {"first": REP, "second": {**REP, "L1": [[None]]}}),
    (["hom"], {"first": {**REP, "Lm1": "z^2 - z"}, "second": REP}),
    (["dual"], {**REP, "Lm1": {"0": "z^2 - z"}}),
    (["iso"], {"first": REP, "second": {**REP, "dim": False}}),
    (["classify-rank1"], {**REP, "L1": [[["1"]]]}),
    (["rationalize"], {"dim": 1, "L1": [["z^2 + z"]], "Lm1": [[1]]}),
    (["solve-add"], {"s": 5}),
    (["solve-mult"], {"f": ["z"]}),
    (["orbit"], {"level": "0", "r": "1", "m": True}),
    (["pic", "normalize"], {"level": "1", "r": 5}),
    (["pic", "mul"], {"first": {"level": "1", "r": "z"}, "second": {"level": "1", "r": None}}),
    (["pic", "inv"], {"level": "2", "r": {"num": "z"}}),
    (["ext", "build"], {"left": REP, "right": REP, "B1": [[0]], "T": [["1"]]}),
    (["ext", "casimir"], {"left": REP, "right": REP, "B1": [["0"]], "T": "1"}),
    (["ext", "class-eq"], {"level": "0", "r1": "1", "r2": "1", "b1": 1, "b2": "1/z", "T1": "0", "T2": "0"}),
]


# documents of the right JSON types but the wrong shape
MISSHAPEN = [
    ("validate empty matrix", ["validate"], {"dim": 0, "L1": [], "Lm1": []}),
    ("validate empty row", ["validate"], {"dim": 1, "L1": [[]], "Lm1": [["1"]]}),
    ("levels ragged rows", ["levels"], {"dim": 2, "L1": [["1", "0"], ["1"]], "Lm1": [["1", "0"], ["0", "1"]]}),
    ("validate L1 not dim x dim", ["validate"], {"dim": 1, "L1": [["1", "2"]], "Lm1": [["1"]]}),
    ("dual Lm1 not dim x dim", ["dual"], {"dim": 1, "L1": [["1"]], "Lm1": [["z^2 - z", "0"]]}),
    ("ext build B1 not left x right", ["ext", "build"], {"left": REP, "right": REP, "B1": [["0", "0"]], "T": [["0"]]}),
    ("ext casimir T not left x right", ["ext", "casimir"], {"left": REP, "right": REP, "B1": [["0"]], "T": [["0"], ["0"]]}),
]
CASES = [(" ".join(argv), argv, doc) for argv, doc in MALFORMED] + MISSHAPEN


@pytest.mark.parametrize("argv,doc", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_document_is_an_input_error(argv, doc):
    proc = run_cli(argv, stdin_text=json.dumps(doc))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"


def test_rationalize_checks_the_declared_dim():
    proc = run_cli(["rationalize"], stdin_text=json.dumps({"dim": 3, "L1": [["z^2 + z"]], "Lm1": [["1"]]}))
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout == '{"error":{"message":"declared dim disagrees with the matrices","type":"InputError"}}\n'


def test_deeply_nested_json_is_an_input_error():
    proc = run_cli(["validate"], stdin_text="[" * 100000 + "]" * 100000)
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"


def test_power_past_the_degree_bound_is_a_parse_error():
    doc = json.dumps({"level": "0", "r": "(z+1)^3000/(z-1)^3000"})
    start = time.perf_counter()
    proc = run_cli(["pic", "normalize"], stdin_text=doc)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
    assert elapsed < 1.0  # the power is refused before it is computed


@pytest.mark.parametrize("r,position", [
    ("3^20000000", 2),                       # ran 35 s, then an untyped ValueError at output
    ("2^100000", 2),                         # an untyped ValueError at once
    ("(z - 1)*(1/7)^4000", 14),
    ("z + " + "9" * 5000, 4),                # int() refuses a literal past 4,300 digits
    ("z^" + "1" * 5000, 2),
])
def test_oversized_power_or_literal_is_a_parse_error(r, position):
    start = time.perf_counter()
    proc = run_cli(["pic", "normalize"], stdin_text=json.dumps({"level": "0", "r": r}))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ParseError" and error["position"] == position
    assert elapsed < 1.0  # refused before any power is computed


def test_powers_and_literals_within_the_bounds_still_parse():
    doc = {"level": "0", "r": "(z - 1)*2^10000/" + "3" * 1000}
    proc = run_cli(["pic", "normalize"], stdin_text=json.dumps(doc))
    assert proc.returncode == 0 and proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["classes"] == [["z", 1]]
    assert out["lead"] == f"{2 ** 10000}/{'3' * 1000}"
    # a product of two powers that reaches the coefficient bound exactly
    proc = run_cli(["pic", "normalize"], stdin_text=json.dumps({"level": "0", "r": "2^5000*2^5000"}))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["lead"] == str(2 ** 10000)


CLASS_EQ = {"level": "0", "r1": "1", "r2": "1", "b1": "1/(z - 3)", "b2": "1/z", "T1": "0", "T2": "0"}


@pytest.mark.parametrize("argv,doc", [
    (["pic", "normalize"], '{"level": "1e20000000", "r": "z"}'),  # ran 26 s, then an untyped ValueError
    (["pic", "normalize"], '{"level": "1e5000", "r": "z"}'),
    (["pic", "normalize"], '{"level": "1e-5000", "r": "z"}'),
    (["pic", "normalize"], '{"level": "%s", "r": "z"}' % ("9" * 5000)),
    (["pic", "normalize"], '{"level": %s, "r": "z"}' % ("9" * 5000)),  # past int's digit limit in JSON
    (["ext", "class-eq"], json.dumps({**CLASS_EQ, "T1": "1e5000"})),
], ids=["exp-20000000", "exp-5000", "exp-minus-5000", "digits-5000", "json-int-5000", "class-eq-T1"])
def test_oversized_level_is_an_input_error(argv, doc):
    start = time.perf_counter()
    proc = run_cli(argv, stdin_text=doc)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"
    assert elapsed < 1.0  # refused before Fraction builds the number


@pytest.mark.parametrize("level,printed", [
    ("-7/2", "-7/2"), ("0.25", "1/4"), (0.25, "1/4"), (7, "7"), ("1e1000", str(10 ** 1000)),
    ("2.5e-3", "1/400"), ("9" * 1000, "9" * 1000),
])
def test_levels_within_the_bounds_still_parse(level, printed):
    proc = run_cli(["pic", "normalize"], stdin_text=json.dumps({"level": level, "r": "z"}))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["level"] == printed


@pytest.mark.parametrize("r,position", [
    ("2^10000*2^10000", 7),                  # both used to end in an untyped ValueError when printed
    ("*".join(["9" * 1000] * 5), 3002),      # refused at the third product
    ("2^5000*2^5000 + 2^10000", 14),
], ids=["power-product", "five-literals", "sum"])
def test_oversized_product_or_sum_is_a_parse_error(r, position):
    proc = run_cli(["pic", "normalize"], stdin_text=json.dumps({"level": "0", "r": r}))
    assert proc.returncode == 1 and proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ParseError" and error["position"] == position


@pytest.mark.parametrize("r,m,message", [
    ("z + 1/2", 2000, "degree"),  # ran 6 s, then an untyped ValueError
    ("z + 1/2", 20000, "degree"),
    ("z + 1/2", 10 ** 9, "degree"),
    ("z + 1/2", -10 ** 9, "degree"),
    ("1", 10 ** 9, "degree"),  # a constant still forms |m| products
    ("z + 1/2", -500, "coefficients"),
    ("2^5000*z", 2, "coefficients"),
], ids=["2000", "20000", "1e9", "minus-1e9", "constant-1e9", "minus-500-bits", "wide-square"])
def test_oversized_orbit_is_an_input_error(r, m, message):
    start = time.perf_counter()
    proc = run_cli(["orbit"], stdin_text=json.dumps({"level": "0", "r": r, "m": m}), timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError" and message in error["message"]
    assert elapsed < 2.0  # refused before any product is formed


def test_orbit_with_a_long_negative_index_runs():
    # the orbit bounds admit m = -400 (degree 800); one reduction per factor took 29 s
    proc = run_cli(["orbit"], stdin_text=json.dumps({"level": "0", "r": "z + 1/2", "m": -400}), timeout=20)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "coefficient" in json.loads(proc.stdout)


@pytest.mark.parametrize("argv,doc", [
    (["orbit"], {"level": "0", "r": "0", "m": 3}),
    (["pic", "normalize"], {"level": "0", "r": "0"}),
    (["pic", "mul"], {"first": {"level": "1", "r": "z"}, "second": {"level": "1", "r": "0"}}),
    (["pic", "inv"], {"level": "2", "r": "z - z"}),
    (["ext", "class-eq"], {**CLASS_EQ, "r1": "0"}),
    (["ext", "class-eq"], {**CLASS_EQ, "r2": "0*z"}),
    (["solve-mult"], {"f": "0"}),
], ids=["orbit", "pic-normalize", "pic-mul", "pic-inv", "class-eq-r1", "class-eq-r2", "solve-mult"])
def test_zero_function_is_an_input_error(argv, doc):
    # each used to print {"type":"ValueError"}
    proc = run_cli(argv, stdin_text=json.dumps(doc))
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"


def _orbit_oracle(r_text, m, level):
    """The orbit coefficient from sympy: prod r(z+j), or 1/prod xi(z+j) with xi = r/pi_mu(z+1)."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    r = sympy.sympify(r_text.replace("^", "**"), locals={"z": z})
    if m >= 0:
        return sympy.prod([r.subs(z, z + j) for j in range(m)])
    xi = r / ((z + 1) * z - sympy.Rational(level))
    return 1 / sympy.prod([xi.subs(z, z + j) for j in range(m, 0)])


@pytest.mark.parametrize("r,m", [("z + 1/2", 50), ("z + 1/2", -50), ("3", 1000), ("z^4 - 7/3*z + 2", -3)])
def test_orbits_within_the_bounds_still_run(r, m):
    sympy = pytest.importorskip("sympy")
    proc = run_cli(["orbit"], stdin_text=json.dumps({"level": "2", "r": r, "m": m}))
    assert proc.returncode == 0 and proc.stderr == ""
    got = sympy.sympify(json.loads(proc.stdout)["coefficient"].replace("^", "**"))
    assert sympy.simplify(got - _orbit_oracle(r, m, 2)) == 0


def test_generated_orbit_requests_stay_within_the_bounds():
    # the benchmark's rank-1 round asks for orbits with |m| <= 3 and r of degree <= 4
    spec = importlib.util.spec_from_file_location("sl2rat_bench_gen", os.path.join(os.path.dirname(HERE), "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    from sl2rat.cli import _orbit

    rng = random.Random(5)
    requests = [req for _ in range(25) for req in gen.cli_round(rng) if req.argv == ("orbit",)]
    assert len(requests) == 50
    for req in requests:
        assert "coefficient" in _orbit(json.loads(req.doc), None)
