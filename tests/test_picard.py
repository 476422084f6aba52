import random
from fractions import Fraction

import pytest

from helpers import QUADRATIC, isomorphic_rank1_pair, random_nonzero_ratfunc, random_rank1
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
from sl2rat.rep import casimir_level, conjugate, rank1
from sl2rat.matrix import Mat

Z = RatFunc.variable()
ZP = Poly.variable()


def test_invariant_spec_examples():
    inv = pic_invariant(3, (Z - 1) / Z)
    assert inv.level == 3 and inv.lead == 1 and inv.classes == ()

    inv = pic_invariant(0, 2 * (Z - Fraction(1, 2)) / (Z + Fraction(3, 2)))
    assert inv.lead == 2 and inv.classes == ()

    inv = pic_invariant(0, Z)
    assert inv.classes == ((ZP, 1),)

    with pytest.raises(ValueError):
        pic_invariant(0, RatFunc.zero())


def test_invariant_is_conjugation_invariant():
    rng = random.Random(41)
    for _ in range(15):
        rep = random_rank1(rng)
        mu = casimir_level(rep)
        t = random_nonzero_ratfunc(rng)
        conj = conjugate(rep, Mat([[t]]))
        assert pic_invariant(mu, rep.B[0, 0]) == pic_invariant(mu, conj.B[0, 0])


def test_group_laws():
    rng = random.Random(42)
    invs = [
        pic_invariant(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), random_nonzero_ratfunc(rng, 3))
        for _ in range(30)
    ]
    e = pic_identity()
    for a in invs:
        assert pic_mul(a, e) == a == pic_mul(e, a)
        assert pic_mul(a, pic_inverse(a)) == e
    for a, b in zip(invs, invs[1:]):
        assert pic_mul(a, b) == pic_mul(b, a)
    for a, b, c in zip(invs, invs[1:], invs[2:]):
        assert pic_mul(pic_mul(a, b), c) == pic_mul(a, pic_mul(b, c))


def test_level_homomorphism_and_section():
    rng = random.Random(43)
    for _ in range(10):
        mu = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
        nu = Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
        a = pic_invariant(mu, random_nonzero_ratfunc(rng))
        b = pic_invariant(nu, random_nonzero_ratfunc(rng))
        assert level_of(pic_mul(a, b)) == mu + nu
        assert level_of(section(mu)) == mu
        assert section(mu) == pic_invariant(mu, 1)
    # Pic^0 members are exactly the level-0 invariants
    assert level_of(pic_identity()) == 0


def test_homomorphism_law():
    rng = random.Random(44)
    for _ in range(15):
        mu = Fraction(rng.randint(-2, 2))
        r = random_nonzero_ratfunc(rng)
        s = random_nonzero_ratfunc(rng)
        assert pic_invariant(mu, r * s) == pic_mul(pic_invariant(mu, r), pic_invariant(0, s))


def test_solve_mult_diff_spec_examples():
    assert solve_mult_diff(RatFunc.one()) == RatFunc.one()
    assert solve_mult_diff((Z - 1) / Z) == Z - 1
    assert solve_mult_diff(Z) is None
    assert solve_mult_diff(RatFunc.constant(2)) is None
    # quadratic class: zeros of z^2+1 against its shift
    f = (Z ** 2 + 1) / (Z ** 2 + 4 * Z + 5)
    t = solve_mult_diff(f)
    assert t is not None and t / t.shifted(1) == f


def test_solve_mult_matches_invariant_triviality():
    rng = random.Random(45)
    for _ in range(40):
        f = random_nonzero_ratfunc(rng, 3)
        t = solve_mult_diff(f)
        trivial = pic_invariant(0, f) == pic_identity()
        assert (t is not None) == trivial
        if t is not None:
            assert t / t.shifted(1) == f


def test_iso_rank1_spec_examples():
    r1 = rank1(0, 1)
    r2 = rank1(0, (Z - 1) / Z)
    res = iso_rank1(r1, r2)
    assert res.intertwiner == Z - 1 and res.reason is None

    res = iso_rank1(rank1(0, 1), rank1(0, Z))
    assert res.intertwiner is None and res.reason == "InvariantMismatch"

    res = iso_rank1(rank1(0, Z), rank1(1, Z))
    assert res.intertwiner is None and res.reason == "LevelMismatch"

    res = iso_rank1(r1, r1)
    assert res.intertwiner == RatFunc.one()

    # equal shift classes, leading ratio 2: only the lead tells them apart
    res = iso_rank1(rank1(0, 1), rank1(0, 2))
    assert res.intertwiner is None and res.reason == "InvariantMismatch"


def _three_way(mu, r1, r2) -> bool:
    """Invariant equality, the multiplicative solver and iso_rank1 agree; the answer."""
    same_inv = pic_invariant(mu, r1) == pic_invariant(mu, r2)
    t_mult = solve_mult_diff(r2 / r1)
    res = iso_rank1(rank1(mu, r1), rank1(mu, r2))
    assert same_inv == (t_mult is not None) == (res.intertwiner is not None)
    if res.intertwiner is not None:
        t = res.intertwiner
        assert r2 * t.shifted(1) == t * r1
    return same_inv


def test_iso_three_way_agreement():
    rng = random.Random(46)
    for _ in range(40):
        mu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        r1 = random_nonzero_ratfunc(rng, 2)
        r2 = random_nonzero_ratfunc(rng, 2)
        _three_way(mu, r1, r2)
    # constructed isomorphic pairs, and their near misses by the lead and by a quadratic class
    rng = random.Random(47)
    for _ in range(25):
        mu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        r1, r2 = isomorphic_rank1_pair(rng)
        assert _three_way(mu, r1, r2)
        assert not _three_way(mu, r1, 2 * r2)
        assert not _three_way(mu, r1, r2 * QUADRATIC)
