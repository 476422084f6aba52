import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from helpers import (
    LEVELS,
    random_casimir_from_L1,
    random_constant_casimir,
    random_nonzero_ratfunc,
    random_rank1_extension,
)
from sl2rat.errors import InvalidExtensionData, LevelMismatch, NotARepresentation
from sl2rat.extension import (
    ExtDatum,
    exponent_of,
    ext_build,
    ext_class_equal,
    ext_is_casimir,
    solve_add_diff,
)
from sl2rat.matrix import Mat, mat_from_strings
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import (
    casimir_level,
    casimir_matrix,
    casimir_minpoly,
    direct_sum,
    make_rep,
    quotient_by_invariant_subspace,
    rank1,
    restrict_to_invariant_subspace,
)

Z = RatFunc.variable()
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_ext_build_spec_examples():
    rho0 = rank1(0, 1)
    zz = RatFunc(Poly((0, -1, 1)))

    w = ext_build(ExtDatum(rho0, rho0, Mat([[0]]), Mat([[1]])))
    assert w.A == Mat([[zz, 1], [0, zz]]) and w.B == Mat.identity(2)
    assert casimir_matrix(w) == Mat([[0, -1], [0, 0]])
    assert exponent_of(w) == 2

    w2 = ext_build(ExtDatum(rho0, rho0, Mat([[1]]), Mat([[0]])))
    assert w2.B == Mat([[1, 1], [0, 1]])
    assert casimir_level(w2) == 0

    split = ext_build(ExtDatum(rho0, rank1(0, Z), Mat([[0]]), Mat([[0]])))
    assert split.B == Mat([[1, 0], [0, Z]])


def test_ext_build_recovers_sub_and_quotient():
    rng = random.Random(51)
    for _ in range(15):
        d = random_rank1_extension(rng)
        w = ext_build(d)
        e1 = Mat([[1], [0]])
        assert restrict_to_invariant_subspace(w, e1) == d.left
        assert quotient_by_invariant_subspace(w, e1) == d.right


def _assembled(d):
    """W of the datum assembled entry by entry and fully validated: the reference for ext_build."""
    lp, rq = d.left, d.right
    Bm1 = (d.T - lp.A * d.B1.shifted(-1)) * rq.B.shifted(-1).inverse()
    zeros = [0] * lp.dim
    A = Mat([list(lp.A.data[i]) + list(Bm1.data[i]) for i in range(lp.dim)] + [zeros + list(r) for r in rq.A.data])
    B = Mat([list(lp.B.data[i]) + list(d.B1.data[i]) for i in range(lp.dim)] + [zeros + list(r) for r in rq.B.data])
    return make_rep(A, B)


def _random_matrix(rng, rows, cols):
    return Mat([[random_nonzero_ratfunc(rng) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)])


def _block_datum(rng):
    """A valid datum whose sides have dim 1 or 2, from one of four families."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_rank1_extension(rng)
    if kind == 1:  # same-level Casimir sides: any B1 with T = 0
        mu = rng.choice(LEVELS)

        def side():
            one = rank1(mu, random_nonzero_ratfunc(rng))
            return direct_sum(one, rank1(mu, random_nonzero_ratfunc(rng))) if rng.random() < 0.6 else one

        left, right = side(), side()
        return ExtDatum(left, right, _random_matrix(rng, left.dim, right.dim), Mat([[0] * right.dim] * left.dim))
    if kind == 2:  # B = Id, constant C0: B1 commuting with C0 and any constant T
        rep = random_constant_casimir(rng, 2)
        C0 = casimir_matrix(rep)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        B1 = Mat.identity(2).map(lambda e: e * a) + C0.map(lambda e: e * b)
        T = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        return ExtDatum(rep, rep, B1, T)
    # a dim-2 Casimir module glued to itself: T a multiple of the identity, any B1
    rep = random_casimir_from_L1(rng, 2)
    c = rng.choice([0, 1, -2])
    T = Mat.identity(2).map(lambda e: e * c)
    return ExtDatum(rep, rep, _random_matrix(rng, 2, 2), T)


def test_ext_build_rejects_exactly_the_data_whose_assembled_module_fails():
    """ext_build against W assembled entry by entry and validated, on valid and corrupted data.

    The reference inverts B''(z-1); ext_build reads it off A'' when W'' is
    Casimir, and the data hold Casimir and non-Casimir quotients.
    """
    rng = random.Random(55)
    shapes, outcomes, casimir_right = set(), {True: 0, False: 0}, set()
    for _ in range(200):
        d = _block_datum(rng)
        shapes.add((d.left.dim, d.right.dim))
        casimir_right.add(casimir_level(d.right) is not None)
        w = ext_build(d)
        ref = _assembled(d)
        assert (w.A, w.B) == (ref.A, ref.B)
        # T plus a nonzero constant in one entry
        i, j = rng.randrange(d.left.dim), rng.randrange(d.right.dim)
        bump = Mat([[rng.choice([1, -1, 2]) if (r, c) == (i, j) else 0 for c in range(d.right.dim)] for r in range(d.left.dim)])
        bad = ExtDatum(d.left, d.right, d.B1, d.T + bump)
        try:
            _assembled(bad)
            reference_accepts = True
        except NotARepresentation:
            reference_accepts = False
        try:
            ext_build(bad)
            accepts = True
        except InvalidExtensionData:
            accepts = False
        assert accepts == reference_accepts
        outcomes[accepts] += 1
    assert {(1, 1), (2, 1), (1, 2), (2, 2)} <= shapes
    assert casimir_right == {True, False}
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_cross_level_gluing():
    # across levels Ext^1 vanishes: inconsistent data are rejected, and the
    # data that do build (e.g. T a raising intertwiner) give split modules
    with pytest.raises(InvalidExtensionData):
        ext_build(ExtDatum(rank1(0, 1), rank1(1, 1), Mat([[1]]), Mat([[0]])))
    ext_build(ExtDatum(rank1(0, 1), rank1(1, 1), Mat([[0]]), Mat([[0]])))
    w = ext_build(ExtDatum(rank1(0, 1), rank1(1, 1), Mat([[0]]), Mat([[1]])))
    from sl2rat.k0 import devissage, k0_eq

    split, _ = devissage(direct_sum(rank1(0, 1), rank1(1, 1)))
    got, _ = devissage(w)
    assert k0_eq(got, split) == "Equal"


def test_ext_is_casimir():
    rho0 = rank1(0, 1)
    assert ext_is_casimir(ExtDatum(rho0, rho0, Mat([[1]]), Mat([[0]]))) is True
    assert ext_is_casimir(ExtDatum(rho0, rho0, Mat([[0]]), Mat([[1]]))) is False
    with pytest.raises(LevelMismatch):
        ext_is_casimir(ExtDatum(rho0, rank1(1, 1), Mat([[0]]), Mat([[0]])))


def test_ext_is_casimir_agrees_with_the_exponent():
    # ext_is_casimir certifies the exponent on the build's Casimir matrix
    # alone; the minimal polynomial of the same build is the reference
    rng = random.Random(31)
    seen = set()
    for _ in range(30):
        datum = random_rank1_extension(rng)
        casimir = ext_is_casimir(datum)
        assert casimir == datum.T.is_zero()
        assert exponent_of(ext_build(datum)) == (1 if casimir else 2)
        mp = casimir_minpoly(ext_build(datum))
        assert mp.degree == (1 if casimir else 2)
        seen.add(casimir)
    assert seen == {True, False}


def test_exponent_of_refuses_all_but_one_rational_level():
    with open(os.path.join(DATA, "levels_outside.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    outside = make_rep(mat_from_strings(doc["Lm1"]), mat_from_strings(doc["L1"]))
    assert casimir_minpoly(outside) == Poly((-2, 0, 1))  # t^2 - 2
    two_levels = direct_sum(rank1(0, 1), rank1(1, Z))
    generalized = ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[0]]), Mat([[1]])))
    for rep in (outside, two_levels, direct_sum(generalized, rank1(2, 1))):
        with pytest.raises(LevelMismatch, match="module has more than one level"):
            exponent_of(rep)
    assert exponent_of(rank1(Fraction(1, 2), Z)) == 1
    assert exponent_of(direct_sum(rank1(1, 1), rank1(1, Z))) == 1
    assert exponent_of(generalized) == 2
    assert exponent_of(direct_sum(generalized, rank1(0, Z))) == 2


def test_compatibility_identity_quarter_factor():
    """Direct check of the compatibility identity on random valid data.

    rho'(L1) T - T rho''(L1) = B1 C'' - C' B1 holds exactly; the variant
    with a 1/4 on the right fails whenever the bracket is nonzero.
    """
    rng = random.Random(52)
    quarter_testable = 0
    for _ in range(25):
        d = random_rank1_extension(rng)
        w = ext_build(d)
        mp, mq = d.left.dim, d.right.dim
        # blocks of the assembled module give matrices of the maps involved
        B1 = d.B1
        T = d.T
        lhs = d.left.B * T.shifted(1) - T * d.right.B
        Cl = casimir_matrix(d.left)
        Cr = casimir_matrix(d.right)
        rhs = B1 * Cr.shifted(1) - Cl * B1
        assert lhs == rhs
        if not rhs.is_zero():
            quarter = rhs.map(lambda e: e * Fraction(1, 4))
            assert lhs != quarter
            quarter_testable += 1
    # same-level Casimir data makes both sides vanish, so pair an exponent-2
    # module with a Casimir one to see the factor actually matter: with
    # C' = [[0,-1],[0,0]], C'' = 0, B1 = e2, validity forces
    # T(z+1) - T(z) = -C' B1 = e1, solved by T = (z, 0)^T
    left = ext_build(ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[0]]), Mat([[1]])))
    right = rank1(0, 1)
    B1 = Mat([[0], [1]])
    T = Mat([[Z], [0]])
    w = ext_build(ExtDatum(left, right, B1, T))
    assert w.dim == 3
    Cl = casimir_matrix(left)
    Cr = casimir_matrix(right)
    lhs = left.B * T.shifted(1) - T * right.B
    rhs = B1 * Cr.shifted(1) - Cl * B1
    assert not rhs.is_zero()
    assert lhs == rhs
    assert lhs != rhs.map(lambda e: e * Fraction(1, 4))


def test_solve_add_spec_examples():
    assert solve_add_diff(RatFunc.one()) == Z
    assert solve_add_diff(1 / (Z * (Z + 1))) == -1 / Z
    assert solve_add_diff(1 / Z) is None


def test_solve_add_verifies_and_handles_mixed_parts():
    rng = random.Random(53)
    classes = [Poly.variable(), Poly.variable() - Fraction(1, 2), Poly.variable() ** 2 + 1]
    for _ in range(30):
        # build a solvable s by differencing a random phi
        num_terms = rng.randint(1, 3)
        phi = RatFunc(Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]))
        for _ in range(num_terms):
            c = rng.choice(classes)
            off = rng.randint(-2, 2)
            j = rng.randint(1, 2)
            count = Poly([rng.randint(-2, 2) for _ in range(c.degree)])
            if count.is_zero():
                count = Poly.one()
            phi = phi + RatFunc(count.shifted(-off), c.shifted(-off) ** j)
        s = phi.shifted(1) - phi
        got = solve_add_diff(s)
        assert got is not None
        assert got.shifted(1) - got == s
    # unsolvable: lone residue
    assert solve_add_diff(1 / (Z ** 2 + 1)) is None
    assert solve_add_diff(Z + 1 / Z) is None


def test_ext_class_equal_spec_cases():
    rho = rank1(0, 1)
    assert ext_class_equal(rho, rho, Z / (Z + 1), Z / (Z + 1), 0, 0) == "Equal"
    assert ext_class_equal(rho, rho, 1 / Z, RatFunc.zero(), 0, 0) == "NotEqual"
    assert ext_class_equal(rho, rho, RatFunc.zero(), RatFunc.zero(), 1, 0) == "NotEqual"
    # non-isomorphic carriers: reduction unsupported
    assert ext_class_equal(rank1(0, Z), rank1(0, 1), RatFunc.one(), RatFunc.one(), 0, 0) == "Unsupported"
    with pytest.raises(LevelMismatch):
        ext_class_equal(rank1(0, 1), rank1(1, 1), RatFunc.zero(), RatFunc.zero(), 0, 0)


def test_ext_class_grid_residue_criterion():
    # classes of 1/(z-alpha)^i vs 1/(z-beta)^j coincide iff alpha-beta in Z and i=j
    rho = rank1(0, 1)
    alphas = [Fraction(0), Fraction(1), Fraction(1, 2)]
    for (a, i), (b, j) in itertools.product(
        itertools.product(alphas, (1, 2)), repeat=2
    ):
        b1 = RatFunc(Poly.one(), (Poly.variable() - a) ** i)
        b2 = RatFunc(Poly.one(), (Poly.variable() - b) ** j)
        got = ext_class_equal(rho, rho, b1, b2, 0, 0)
        expected = "Equal" if ((a - b).denominator == 1 and i == j) else "NotEqual"
        assert got == expected, (a, i, b, j)


def test_split_extension_is_trivial_class():
    # if the B1-difference equation is solvable the T=0 extension splits:
    # the triangular map with the solving alpha is an explicit isomorphism
    rng = random.Random(54)
    for _ in range(10):
        mu = Fraction(rng.randint(-2, 2))
        r = random_nonzero_ratfunc(rng)
        rho = rank1(mu, r)
        alpha = random_nonzero_ratfunc(rng)
        b1 = alpha * r - r * alpha.shifted(1)  # a coboundary
        w = ext_build(ExtDatum(rho, rho, Mat([[b1]]), Mat([[0]])))
        s = ext_build(ExtDatum(rho, rho, Mat([[0]]), Mat([[0]])))
        phi = Mat([[1, alpha], [0, 1]])
        from sl2rat.rep import conjugate

        assert conjugate(w, phi) == s or conjugate(s, phi) == w
        assert ext_class_equal(rho, rho, b1, RatFunc.zero(), 0, 0) == "Equal"
