"""The benchmark's own tests: tiny runs pass, checkers catch corruption, traces repeat.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sl2rat.k0 import K0Class  # noqa: E402
from sl2rat.matrix import Mat  # noqa: E402
from sl2rat.poly import Poly  # noqa: E402
from sl2rat.rep import RationalRep, level_decompose  # noqa: E402

SEED = 7


def _tiny_loop(wl, rounds: int = 1) -> run.Loop:
    loop = run.Loop(wl, wl.setup(SEED, ROOT, rounds))
    loop.run(rounds=rounds)
    return loop


def _first_output(wl, want=lambda item: True):
    loop = run.Loop(wl, wl.setup(SEED, ROOT, 1))
    item = next(i for i in loop.pool if want(i))
    return item, wl.op(item)


def _not_a_module(rep) -> RationalRep:
    """rep with its lowering matrix doubled: the commutation identity fails."""
    return RationalRep(rep.dim, Mat([[e * 2 for e in row] for row in rep.A.data]), rep.B)


def test_tiny_run_of_each_workload_has_no_failed_op():
    for wl in workloads.WORKLOADS.values():
        loop = _tiny_loop(wl)
        assert len(loop.latencies) == loop.round_size > 0
        assert loop.check() == [], wl.name


def test_repeated_inputs_are_compared_with_the_first_output():
    loop = _tiny_loop(workloads.DEVISSAGE, rounds=1)
    loop.run(rounds=1)
    assert len(loop.latencies) == 2 * loop.round_size and loop.differs == []
    loop.first[0] = run.Raised("corrupted")
    assert any(line.startswith("op 0 ") for line in loop.check())


def test_devissage_check_rejects_a_dropped_k0_entry():
    case, out = _first_output(workloads.DEVISSAGE)
    assert checks.check_devissage(case, out) == []
    W, cls, tree, left, right = out
    dropped = K0Class(cls.entries[1:])
    assert checks.check_devissage(case, (W, dropped, tree, left, right))


def test_devissage_check_rejects_a_wrong_picard_invariant():
    case, out = _first_output(workloads.DEVISSAGE)
    W, cls, tree, left, right = out
    (key, n), = left.entries
    inv = key.invariant
    wrong = dataclasses.replace(key, invariant=dataclasses.replace(inv, lead=inv.lead * 2))
    assert checks.check_devissage(case, (W, cls, tree, K0Class(((wrong, n),)), right))


def test_devissage_check_rejects_a_wrong_tree_and_a_broken_module():
    case, out = _first_output(workloads.DEVISSAGE, lambda c: not c.datum.T.is_zero())
    assert checks.check_devissage(case, out) == []
    W, cls, tree, left, right = out
    comp, = tree.components
    one_step = dataclasses.replace(tree, components=(dataclasses.replace(comp, steps=comp.steps[:1]),))
    assert checks.check_devissage(case, (W, cls, one_step, left, right))
    assert checks.check_devissage(case, (_not_a_module(W), cls, tree, left, right))


def test_casimir_check_rejects_a_wrong_minimal_polynomial():
    module, out = _first_output(workloads.CORPUS, lambda m: m.dim >= 2)
    assert checks.check_casimir(module, out) == []
    validated, mp, comps, filts = out
    for wrong in (Poly(mp.coeffs[:-1] + (mp.coeffs[-1] * 2,)), mp * Poly((-5, 1)), Poly((mp.coeffs[0] + 1,) + mp.coeffs[1:])):
        assert checks.check_casimir(module, (validated, wrong, comps, filts)), wrong


def test_casimir_check_rejects_a_wrong_level():
    module, out = _first_output(workloads.CORPUS, lambda m: m.dim >= 2)
    validated, mp, comps, filts = out
    shifted = [dataclasses.replace(c, level=c.level + 1) for c in comps]
    assert checks.check_casimir(module, (validated, mp, shifted, filts))


def test_casimir_check_rejects_a_dropped_filtration_step():
    module, out = _first_output(workloads.CORPUS, lambda m: max(c.exponent for c in level_decompose(m)) >= 2)
    assert checks.check_casimir(module, out) == []
    validated, mp, comps, filts = out
    i = next(i for i, f in enumerate(filts) if len(f.steps) >= 2)
    for steps in (filts[i].steps[1:], filts[i].steps[:-1]):
        dropped = list(filts)
        dropped[i] = dataclasses.replace(filts[i], steps=steps)
        assert checks.check_casimir(module, (validated, mp, comps, dropped))


def test_casimir_check_rejects_modules_that_break_commutation():
    module, out = _first_output(workloads.CORPUS, lambda m: m.dim >= 2)
    validated, mp, comps, filts = out
    broken = [dataclasses.replace(comps[0], rep=_not_a_module(comps[0].rep))] + comps[1:]
    assert checks.check_casimir(module, (validated, mp, broken, filts))
    bad = _not_a_module(module)
    assert any("commutation" in p for p in checks.check_casimir(bad, (bad, mp, comps, filts)))


def test_cli_check_rejects_a_wrong_intertwiner():
    req, (code, stdout) = _first_output(
        workloads.CLI, lambda r: r.name == "iso" and '"isomorphic":true' in workloads.CLI.op(r)[1]
    )
    assert checks.check_cli(req, (code, stdout)) == []
    t = json.loads(stdout)["intertwiner"]
    for wrong in (f"({t})*(z + 7)", f"({t})/(z^2 + 1)"):  # a scalar multiple would still be right
        bad = json.dumps({"intertwiner": wrong, "isomorphic": True}, sort_keys=True, separators=(",", ":"))
        assert checks.check_cli(req, (code, bad + "\n")), wrong


def test_cli_check_rejects_wrong_negative_answers():
    wl = workloads.CLI
    pool = run.Loop(wl, wl.setup(SEED, ROOT, 1)).pool
    flipped = 0
    for req in pool:
        if req.golden is not None or req.name not in ("solve-add", "solve-mult"):
            continue
        code, stdout = wl.op(req)
        resp = json.loads(stdout)
        if not resp["solvable"]:
            continue
        lie = json.dumps({"solvable": False}) + "\n"
        assert checks.check_cli(req, (code, lie)), req.doc
        flipped += 1
    assert flipped >= 2


def _cli_case(name: str, want=lambda doc, resp: True):
    """The first generated request of a kind for which want(document, response) holds."""
    wl = workloads.CLI
    for req in run.Loop(wl, wl.setup(SEED, ROOT, 3)).pool:
        if req.golden is None and req.name == name:
            code, stdout = wl.op(req)
            if want(json.loads(req.doc), json.loads(stdout)):
                assert checks.check_cli(req, (code, stdout)) == []
                return req, code, json.loads(stdout)
    raise AssertionError(f"no {name} request with the wanted response")


def _rejected(req, code, resp) -> bool:
    return bool(checks.check_cli(req, (code, json.dumps(resp, sort_keys=True) + "\n")))


def test_cli_check_rejects_false_non_isomorphic_answers():
    req, code, resp = _cli_case("iso", lambda doc, r: r["isomorphic"])
    assert _rejected(req, code, {"isomorphic": False, "reason": "InvariantMismatch"})
    assert _rejected(req, code, {"isomorphic": False, "reason": "LevelMismatch"})


def test_cli_check_rejects_wrong_picard_invariants():
    for name in ("pic-normalize", "pic-mul"):
        req, code, resp = _cli_case(name, lambda doc, r: r["classes"])
        (p, m), *rest = resp["classes"]
        for wrong in (
            dict(resp, lead=str(Fraction(resp["lead"]) * 2)),
            dict(resp, classes=[[p, m + 1]] + rest),
            dict(resp, classes=rest),
        ):
            assert _rejected(req, code, wrong), (name, wrong)


def test_cli_check_rejects_a_wrong_classification():
    req, code, resp = _cli_case("classify-rank1", lambda doc, r: r["kinds"])
    kind = resp["kinds"][0]
    other = next(k for k in ("I", "II", "III", "IV") if k not in {x["kind"] for x in resp["kinds"]})
    for kinds in (
        [dict(kind, gamma=str(Fraction(kind["gamma"]) * 2))] + resp["kinds"][1:],
        [dict(kind, kind=other)] + resp["kinds"][1:],
        [],
    ):
        assert _rejected(req, code, dict(resp, kinds=kinds)), kinds


def test_cli_check_rejects_a_flipped_class_equality():
    for result in ("Equal", "NotEqual"):
        req, code, resp = _cli_case("ext-class-eq", lambda doc, r: r["result"] == result)
        flipped = "NotEqual" if result == "Equal" else "Equal"
        assert _rejected(req, code, {"result": flipped})


def test_cli_check_rejects_a_changed_orbit_coefficient():
    for positive in (True, False):
        req, code, resp = _cli_case("orbit", lambda doc, r: (doc["m"] >= 0) == positive)
        assert _rejected(req, code, {"coefficient": f"({resp['coefficient']})*(z + 1)"})


def test_cli_op_returns_the_exit_code_of_a_rejected_argv():
    req = gen.CliRequest("iso", ("iso", "--no-such-flag"), "{}", 0)
    code, stdout = workloads.CLI.op(req)
    assert code == 2 and checks.check_cli(req, (code, stdout))


def test_cli_check_rejects_a_changed_golden_byte():
    req, (code, stdout) = _first_output(workloads.CLI, lambda r: r.golden is not None and r.expected_exit == 0)
    assert checks.check_cli(req, (code, stdout)) == []
    assert checks.check_cli(req, (code, stdout.replace("\n", " \n")))
    assert checks.check_cli(req, (1, stdout))


def test_independent_invariant_and_summability():
    K, z = checks._field()
    lead, classes = checks.sp_invariant(2 * (z - Fraction(1, 2)) / (z + Fraction(3, 2)))
    assert lead == 2 and classes == {}
    assert checks.sp_summable(1 / (z * (z + 1)))
    assert not checks.sp_summable(1 / z)
    assert not checks.sp_summable(1 / (z ** 2 + 1) - 1 / ((z + 1) ** 2 + 2))


def _traced_counts(wl):
    loop = run.Loop(wl, wl.setup(SEED, ROOT, 1))
    tracer = tracing.Tracer()
    with tracer.installed():
        loop.run(rounds=1, tracer=tracer)
    assert loop.check() == []
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


def test_traced_counts_repeat_in_process_and_tracing_is_removed():
    for wl in workloads.WORKLOADS.values():
        first = _traced_counts(wl)
        assert first == _traced_counts(wl), wl.name
        assert first["rep.validate.calls"] > 0
    import sl2rat.poly

    assert not hasattr(sl2rat.poly.Poly.__mul__, "__wrapped__")
    assert not hasattr(sl2rat.poly.poly_gcd, "__wrapped__")


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "rank1_cli", "--seed", str(SEED), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_untraced_run_prints_every_end_to_end_metric():
    result = _run("--seconds", "0.1", "--trace", "0")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_traced_processes_with_one_seed_give_identical_counts():
    def counts():
        result = _run("--trace", "1")
        assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}

    first = counts()
    assert first["cli.execute.calls"] > 0 and first["factor.calls"] > 0
    assert first == counts()


def test_run_refuses_a_directory_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank1_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
