import random
from fractions import Fraction

from helpers import build_corpus, random_rank1
from sl2rat.extension import ExtDatum, ext_build, exponent_of
from sl2rat.matrix import Mat
from sl2rat.monoidal import dual, internal_hom, tensor, unit
from sl2rat.picard import pic_identity, pic_inverse, pic_invariant, pic_mul
from sl2rat.ratfunc import RatFunc
from sl2rat.rep import (
    casimir_level,
    casimir_minpoly,
    direct_sum,
    rank1,
    validate,
)

Z = RatFunc.variable()


def test_tensor_rank1_is_product():
    rng = random.Random(2)
    for _ in range(10):
        a, b = random_rank1(rng), random_rank1(rng)
        mu = casimir_level(a) + casimir_level(b)
        assert tensor(a, b) == rank1(mu, a.B[0, 0] * b.B[0, 0])


def test_unit_is_neutral_literally():
    w = direct_sum(rank1(0, Z), rank1(Fraction(1, 2), 1))
    assert tensor(unit(), w) == w


def test_tensor_dims_and_levels():
    w1 = direct_sum(rank1(0, 1), rank1(1, Z))
    w2 = rank1(Fraction(1, 2), Z - 1)
    t = tensor(w1, w2)
    assert t.dim == 2
    mp = casimir_minpoly(t)
    # levels add on Casimir components: 1/2 and 3/2
    assert mp.eval(Fraction(1, 2)) == 0 and mp.eval(Fraction(3, 2)) == 0


def test_tensor_commutative_at_rank1():
    rng = random.Random(3)
    for _ in range(10):
        a, b = random_rank1(rng), random_rank1(rng)
        assert tensor(a, b) == tensor(b, a)


def test_tensor_associative_at_rank1():
    rng = random.Random(4)
    for _ in range(5):
        a, b, c = (random_rank1(rng) for _ in range(3))
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_tensor_exponent_bound():
    # two exponent-2 modules: bound n1 + n2 + min - 2 = 4
    d = ExtDatum(rank1(0, 1), rank1(0, 1), Mat([[0]]), Mat([[1]]))
    w = ext_build(d)
    assert exponent_of(w) == 2
    t = tensor(w, w)
    validate(t)
    assert exponent_of(t) <= 4
    # Casimir x Casimir is Casimir (bound gives exactly 1)
    c = tensor(rank1(1, Z), rank1(2, 1))
    assert casimir_level(c) == 3


def test_tensor_matches_scalar_formula_on_casimir_pairs():
    # on Casimir components the lowering matrix is the classical scalar twist
    from sl2rat.poly import pi_mu
    from sl2rat.rep import casimir_from_L1

    rng = random.Random(11)
    for _ in range(6):
        mu1, mu2 = Fraction(1, 2), Fraction(2)
        w1 = casimir_from_L1(mu1, Mat([[1, Z], [0, 1]]))
        w2 = random_rank1(rng)
        mu2 = casimir_level(w2)
        t = tensor(w1, w2)
        scale = RatFunc(pi_mu(mu1 + mu2)) / (RatFunc(pi_mu(mu1)) * RatFunc(pi_mu(mu2)))
        assert t.B == w1.B.kron(w2.B)
        assert t.A == scale * w1.A.kron(w2.A)


def test_internal_hom_rank1():
    rng = random.Random(5)
    for _ in range(10):
        a, b = random_rank1(rng), random_rank1(rng)
        mu, nu = casimir_level(a), casimir_level(b)
        assert internal_hom(a, b) == rank1(nu - mu, b.B[0, 0] / a.B[0, 0])


def test_hom_dims_multiply():
    w1 = direct_sum(rank1(0, 1), rank1(1, Z))
    w2 = direct_sum(direct_sum(rank1(0, Z - 1), rank1(2, 1)), rank1(Fraction(1, 2), 1))
    assert internal_hom(w1, w2).dim == 6
    assert tensor(w1, w2).dim == 6


def test_dual_spec_examples():
    rng = random.Random(6)
    for _ in range(8):
        a = random_rank1(rng)
        mu = casimir_level(a)
        d = dual(a)
        assert d == rank1(-mu, 1 / a.B[0, 0])
        assert dual(d) == a
    assert dual(unit()) == unit()
    assert internal_hom(rank1(2, Z), unit()) == dual(rank1(2, Z))


def test_dual_inverts_picard_invariant():
    rng = random.Random(7)
    for _ in range(10):
        a = random_rank1(rng)
        mu = casimir_level(a)
        inv = pic_invariant(mu, a.B[0, 0])
        dinv = pic_invariant(casimir_level(dual(a)), dual(a).B[0, 0])
        assert dinv == pic_inverse(inv)
        assert pic_mul(inv, dinv) == pic_identity()


def test_monoidal_outputs_validate_and_have_constant_minpoly():
    reps = [r for r in build_corpus(seed=55, count=16) if r.dim <= 2]
    rng = random.Random(8)
    for _ in range(6):
        a, b = rng.choice(reps), rng.choice(reps)
        for out in (tensor(a, b), internal_hom(a, b)):
            validate(out)
            casimir_minpoly(out)  # raises on non-constant coefficients


def test_monoidal_outputs_pass_full_validation():
    """Full validate, determinants included, holds on tensor, internal Hom and dual outputs."""
    reps = build_corpus(seed=77, count=40)
    for a, b in zip(reps, reps[1:] + reps[:1]):
        for out in (tensor(a, b), internal_hom(a, b), dual(a)):
            assert validate(out) is out
