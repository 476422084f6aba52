"""Acceptance criteria, one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Everything is deterministic: fixed seeds, fixed grids.
"""
import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from helpers import build_corpus, random_nonzero_ratfunc
from oracle import oracle_add, oracle_mult
from sl2rat.cli import execute
from sl2rat.extension import ExtDatum, ext_build, ext_class_equal, solve_add_diff
from sl2rat.k0 import OpaqueKey, Rank1Key, devissage, find_rank1_quotient, find_rank1_sub, k0_add
from sl2rat.matrix import Mat
from sl2rat.monoidal import dual, tensor
from sl2rat.picard import (
    iso_rank1,
    level_of,
    pic_identity,
    pic_inverse,
    pic_invariant,
    pic_mul,
    section,
    solve_mult_diff,
)
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import (
    canonical_filtration,
    casimir_from_L1,
    casimir_level,
    casimir_minpoly,
    classify_rank1,
    conjugate,
    direct_sum,
    level_decompose,
    poly_rank1,
    rank1,
    rationalize,
    validate,
)
from sl2rat.factor import factor_poly

Z = RatFunc.variable()
HERE = os.path.dirname(os.path.abspath(__file__))

CORPUS = build_corpus(seed=20240, count=200)


def report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def test_criterion_1_casimir_minpoly_constancy():
    """Minimal polynomials of Casimir operators are constant-coefficient, always."""
    assert len(CORPUS) >= 200
    assert all(1 <= rep.dim <= 4 for rep in CORPUS)
    failures = 0
    for rep in CORPUS:
        validate(rep)
        mp = casimir_minpoly(rep)  # raises NonConstantMinpoly on any failure
        assert 1 <= mp.degree <= rep.dim
    report(1, f"{len(CORPUS)} reps (dims 1-4), zero non-constant minimal polynomials")


def test_criterion_2_level_decomposition_round_trip():
    checked = 0
    for rep in CORPUS:
        mp = casimir_minpoly(rep)
        _, facs = factor_poly(mp)
        mult_by_level = {-f.coefficient(0): m for f, m in facs if f.degree == 1}
        comps = level_decompose(rep)
        assert sum(c.rep.dim for c in comps) == rep.dim
        assert {c.level: c.exponent for c in comps} == mult_by_level
        U = comps[0].basis
        for c in comps[1:]:
            U = U.hstack(c.basis)
        rebuilt = conjugate(rep, U.inverse())
        expected = comps[0].rep
        for c in comps[1:]:
            expected = direct_sum(expected, c.rep)
        assert rebuilt == expected
        checked += 1
    report(2, f"{checked} reps: dims add, exponents match multiplicities, exact reassembly")


def test_criterion_3_canonical_filtration():
    components = 0
    for rep in CORPUS:
        for comp in level_decompose(rep):
            filt = canonical_filtration(comp)
            assert filt.length == comp.exponent
            dims = filt.quotient_dims()
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            assert sum(dims) == comp.rep.dim
            for step in filt.steps:
                assert casimir_level(step.quotient) == comp.level
            components += 1
    report(3, f"{components} generalized components: Casimir quotients, non-increasing dims")


def test_criterion_4_devissage_additivity():
    levels = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 4), Fraction(1, 2)]
    rng = random.Random(31415)
    built_total = 0
    nontrivial_T = 0
    for mu in levels:
        for _ in range(100):
            datum = _random_extension_at_level(rng, mu)
            w = ext_build(datum)
            total, tree = devissage(w)
            left, _ = devissage(datum.left)
            right, _ = devissage(datum.right)
            assert total == k0_add(left, right)
            if not datum.T.is_zero():
                assert len(tree.components) == 1
                assert len(tree.components[0].steps) == 2
                nontrivial_T += 1
            built_total += 1
    assert nontrivial_T > 50
    report(4, f"{built_total} extensions over 5 levels: [W]=[W']+[W''], T!=0 gives filtration length 2")


def _random_extension_at_level(rng: random.Random, mu: Fraction) -> ExtDatum:
    left = rank1(mu, random_nonzero_ratfunc(rng))
    if rng.random() < 0.5:
        right = rank1(mu, random_nonzero_ratfunc(rng))
    else:
        root = Fraction(rng.randint(-2, 2))
        shift = rng.randint(1, 2)
        right = rank1(mu, left.B[0, 0] * (Z - root) / (Z - root - shift))
    b1 = random_nonzero_ratfunc(rng) if rng.random() < 0.8 else RatFunc.zero()
    iso = iso_rank1(right, left)
    if iso.intertwiner is not None and rng.random() < 0.5:
        T = Mat([[RatFunc.constant(rng.choice([1, 2, -1])) * iso.intertwiner]])
    else:
        T = Mat([[0]])
    return ExtDatum(left, right, Mat([[b1]]), T)


def test_criterion_5_rank1_trichotomy():
    rng = random.Random(27182)
    agreements = 0
    for _ in range(200):
        mu = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
        r1 = random_nonzero_ratfunc(rng, 2)
        if rng.random() < 0.5:
            # nudge towards isomorphic pairs with shift-trivial factors
            r2 = r1
            for _ in range(rng.randint(1, 2)):
                root = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                k = rng.randint(1, 3)
                r2 = r2 * (Z - root) / (Z - root - k)
        else:
            r2 = random_nonzero_ratfunc(rng, 2)
        a, b = rank1(mu, r1), rank1(mu, r2)
        inv_equal = pic_invariant(mu, r1) == pic_invariant(mu, r2)
        t_direct = solve_mult_diff(r2 / r1)
        res = iso_rank1(a, b)
        assert inv_equal == (t_direct is not None) == (res.intertwiner is not None)
        if res.intertwiner is not None:
            t = res.intertwiner
            assert r2 * t.shifted(1) == t * r1
        agreements += 1
    report(5, f"{agreements} pairs: invariants, intertwiners and mult-solver agree; witnesses exact")


def test_criterion_6_picard_group_laws():
    rng = random.Random(16180)
    invs = []
    for _ in range(100):
        mu = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        invs.append(pic_invariant(mu, random_nonzero_ratfunc(rng, 3)))
    e = pic_identity()
    for a in invs:
        assert pic_mul(a, e) == a == pic_mul(e, a)
        assert pic_mul(a, pic_inverse(a)) == e
    for a, b in zip(invs, invs[1:]):
        assert pic_mul(a, b) == pic_mul(b, a)
        assert level_of(pic_mul(a, b)) == level_of(a) + level_of(b)
    for a, b, c in zip(invs, invs[1:], invs[2:]):
        assert pic_mul(pic_mul(a, b), c) == pic_mul(a, pic_mul(b, c))
    for a in invs[:20]:
        assert level_of(section(level_of(a))) == level_of(a)
    # dual inverts; tensor maps to pic_mul
    for _ in range(25):
        mu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        nu = Fraction(rng.randint(-2, 2))
        w1 = rank1(mu, random_nonzero_ratfunc(rng))
        w2 = rank1(nu, random_nonzero_ratfunc(rng))
        i1 = pic_invariant(mu, w1.B[0, 0])
        i2 = pic_invariant(nu, w2.B[0, 0])
        d = dual(w1)
        assert pic_invariant(casimir_level(d), d.B[0, 0]) == pic_inverse(i1)
        t = tensor(w1, w2)
        assert pic_invariant(casimir_level(t), t.B[0, 0]) == pic_mul(i1, i2)
    report(6, "100 invariants: abelian group laws, split level map, dual/tensor compatibility")


ADD_DENS = ["z", "z - 1", "z - 1/2", "z^2", "z^2 - z", "z^2 - 3*z + 2", "(z - 1)^2", "z^2 + 1", "z^2 - 2*z + 2", "(z + 1)*(z - 1/2)"]
ADD_NUMS = ["1", "3", "z", "z + 1", "2*z - 1", "z^2", "z^2 - 1"]
MULT_CASES = [
    "1", "2", "z", "1/z", "(z - 1)/z", "(z - 2)/z", "2*(z - 1)/z",
    "(z - 1)*(z + 2)/(z*(z - 2))", "(z - 1/2)/(z + 1/2)", "(z - 1/2)/(z + 1)",
    "(z^2 + 1)/(z^2 + 4*z + 5)", "(z^2 + 1)/(z^2 + 2)", "(z - 1)^2/z^2",
    "(z - 1)^2/(z*(z - 2))", "z*(z - 1)/((z + 1)*(z + 2))", "(z^2 - 1)/(z^2 - 4)",
    "(z^2 + 1)/(z^2 - 2*z + 2)", "-(z - 1)/z", "(z - 1)/(2*z)",
    "(z - 1/2)*(z + 3/2)/(z^2 + z + 1/4)",
]


def test_criterion_7_solvers_match_oracle():
    from sl2rat.parser import parse_ratfunc

    add_checked = mult_checked = 0
    for den_text in ADD_DENS:
        for num_text in ADD_NUMS:
            s = parse_ratfunc(f"({num_text})/({den_text})")
            phi = solve_add_diff(s)
            if phi is not None:
                assert phi.shifted(1) - phi == s
            assert (phi is not None) == oracle_add(s), (num_text, den_text)
            add_checked += 1
    for text in MULT_CASES:
        f = parse_ratfunc(text)
        t = solve_mult_diff(f)
        if t is not None:
            assert t / t.shifted(1) == f
        assert (t is not None) == oracle_mult(f), text
        mult_checked += 1
    report(7, f"{add_checked} additive / {mult_checked} multiplicative cases agree with the oracle")


def test_criterion_8_classification():
    count = 0
    rng = random.Random(14142)
    for mu in (Fraction(0), Fraction(2), Fraction(-1, 4)):
        for gamma in (Fraction(1), Fraction(2), Fraction(-3)):
            for kind in ("I", "II", "III", "IV"):
                rep = rationalize(poly_rank1(kind, mu, gamma))
                got = classify_rank1(rep)
                assert (kind, gamma) in got, (kind, mu, gamma, got)
                # shift-trivial noise leaves the classification unchanged
                r = rep.B[0, 0]
                for _ in range(20):
                    root = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                    k = rng.choice([1, 2, 3, -1, -2])
                    r = r * (Z - root) / (Z - root - k)
                noisy = rank1(mu, r)
                assert classify_rank1(noisy) == got, (kind, mu, gamma)
                count += 1
    report(8, f"{count} family instances classified, stable under 20 shift-trivial factors each")


def test_criterion_9_irreducibility_and_ext_grid():
    w = casimir_from_L1(0, Mat([[0, Z], [1, 0]]))
    assert find_rank1_sub(w) is None and find_rank1_quotient(w) is None
    cls, tree = devissage(w)
    (key, n), = cls.entries
    assert n == 1 and isinstance(key, OpaqueKey) and key.certified_irreducible

    split = ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[1]]), Mat([[0]])))
    assert split.B == Mat([[1, 1], [0, 1]])
    cls, _ = devissage(split)
    assert cls.counts() == {Rank1Key(section(0)): 2}

    rho = rank1(0, 1)
    alphas = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 2), Fraction(1, 3)]
    orders = [1, 2, 3, 4, 5, 6]
    grid = list(itertools.product(alphas, orders))
    assert len(grid) == 36
    zp = Poly.variable()
    comparisons = 0
    for (a, i) in grid:
        for (b, j) in grid:
            b1 = RatFunc(Poly.one(), (zp - a) ** i)
            b2 = RatFunc(Poly.one(), (zp - b) ** j)
            got = ext_class_equal(rho, rho, b1, b2, 0, 0)
            expected = "Equal" if ((a - b).denominator == 1 and i == j) else "NotEqual"
            assert got == expected, (a, i, b, j)
            comparisons += 1
    report(9, f"witnesses certified; {comparisons} Ext-class comparisons match the residue criterion")


def test_criterion_10_cli_goldens():
    """Every golden in-process; `test_cli.test_golden` runs each through `python -m sl2rat.cli`."""
    gold = os.path.join(HERE, "goldens")
    data = os.path.join(HERE, "data")
    with open(os.path.join(gold, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    subcommands = set()
    errors = 0
    for case in manifest:
        in_path = os.path.join(data, f"{case['name']}.json")
        with open(os.path.join(gold, f"{case['name']}.out"), "r", encoding="utf-8") as fh:
            expected = fh.read()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = execute([*case["argv"], "--input", in_path])
        assert code == case["exit"], case["name"]
        assert out.getvalue() == expected, case["name"]
        subcommands.add(tuple(case["argv"][:2]) if case["argv"][0] in ("pic", "ext") else (case["argv"][0],))
        errors += case["exit"] == 1
    assert len(subcommands) == 21 and errors >= 6
    report(10, f"{len(manifest)} byte-exact goldens over {len(subcommands)} subcommands, {errors} error paths")
