"""The integer-numerator Poly kernel against a plain Fraction-list reference.

Every result must equal the reference coefficient by coefficient and be in
canonical form: integer numerators with no trailing zero over a positive
denominator that shares no prime with all of them.  `.coeffs` alone cannot
show a broken form, since Fraction normalises signs and common factors.
"""
import math
import random
from fractions import Fraction

import pytest

from sl2rat.poly import Poly, _int_pdivmod, poly_gcd
from sl2rat.ratfunc import RatFunc

SHIFTS = [0, 1, -1, 3, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


# -- the reference: dense ascending Fraction lists -----------------------------


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_add(a, b):
    return _trim(x + y for x, y in zip(list(a) + [0] * len(b), list(b) + [0] * len(a)))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_divmod(a, b):
    rem = list(a)
    if len(rem) < len(b):
        return [], _trim(rem)
    quo = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
    return _trim(quo), _trim(rem)


def ref_shift(a, s):
    """Horner: p(z + s) = (...(c_n (z + s) + c_{n-1})(z + s) + ...) + c_0."""
    acc = []
    for c in reversed(a):
        acc = [c + s * acc[0]] + [x + s * y for x, y in zip(acc, acc[1:])] + acc[-1:] if acc else [c]
    return _trim(acc)


def ref_monic(a):
    return [c / a[-1] for c in a]


def ref_gcd(a, b):
    """Monic Euclid over Q."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if a else []


# -- checks ------------------------------------------------------------------------


def canonical(p: Poly) -> Poly:
    ints, denom = p._ints, p._denom
    assert all(type(c) is int for c in ints) and type(denom) is int
    assert denom > 0
    assert math.gcd(denom, *ints) == 1
    assert not ints or ints[-1] != 0
    if not ints:
        assert denom == 1
    return p


def same(p: Poly, ref) -> None:
    canonical(p)
    assert list(p.coeffs) == _trim(ref)
    built = Poly(ref)
    assert p == built and hash(p) == hash(built)


def random_coeffs(rng: random.Random):
    kind = rng.random()
    if kind < 0.06:
        return []
    if kind < 0.16:
        return [Fraction(rng.choice([-6, -3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))]
    deg = rng.randint(1, 6)
    cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6])) for _ in range(deg)]
    lead = Fraction(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
    return cs + [lead]


def test_differential_against_fraction_reference():
    rng = random.Random(20261018)
    trial = {True: 0, False: 0}  # outcomes of the Z[x] trial division
    for _ in range(5000):
        a, b = random_coeffs(rng), random_coeffs(rng)
        p, q = canonical(Poly(a)), canonical(Poly(b))
        assert list(p.coeffs) == a
        same(p + q, ref_add(a, b))
        same(p - q, ref_add(a, [-y for y in b]))
        same(-p, [-x for x in a])
        same(p * q, ref_mul(a, b))
        same(p * Poly.one(), a)
        same(Poly([1]) * q, b)
        same(p.derivative(), [i * c for i, c in enumerate(a)][1:])
        if b:
            quo, rem = divmod(p, q)
            rq, rr = ref_divmod(a, b)
            same(quo, rq)
            same(rem, rr)
            same(q.monic(), ref_monic(b))
            quo, rem = divmod(q, Poly(b))
            same(quo, [1])
            same(rem, [])
            # the integer kernel on the numerators; p*q by q (integer product) always divides
            x, y = p._ints, q._ints
            for num in (x, ref_mul(x, y)):
                num = [int(c) for c in num]
                quo, rem, scale = _int_pdivmod(num, y)
                assert all(type(c) is int for c in quo + rem) and scale >= 1
                assert [scale * c for c in num] == ref_add(ref_mul(quo, y), rem)
                assert len(rem) < len(y) and rem == _trim(rem)
                rq, rr = ref_divmod([Fraction(c) for c in num], y)
                divides = not rr and all(c.denominator == 1 for c in rq)
                assert (scale == 1 and not rem) == divides
                trial[divides] += 1
        same(poly_gcd(p, q), ref_gcd(a, b))
        same(poly_gcd(p * q, q), ref_gcd(ref_mul(a, b), b))
        for s in SHIFTS:
            same(p.shifted(s), ref_shift(a, s))
        x = Fraction(rng.randint(-5, 5), rng.choice([1, 3]))
        assert p.eval(x) == sum(c * x ** i for i, c in enumerate(a))
    assert all(trial.values()), trial


def test_negative_non_unit_divisor_lead_keeps_a_positive_denominator():
    p = Poly([1, 0, 0, 5])
    q = Poly([1, Fraction(2, 3), -3])
    quo, rem = divmod(p, q)
    canonical(quo)
    canonical(rem)
    assert quo * q + rem == p
    g = poly_gcd(p * q, q * Poly([2, -5]))
    assert canonical(g) == q.monic()
    assert (q * Poly([-4])).monic() == q.monic()


def test_scalars_and_constants_keep_the_public_types():
    p = Poly(["1/2", 3, Fraction(-5, 4)])
    assert p.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 4))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert type(p.lead) is Fraction and p.lead == Fraction(-5, 4)
    assert type(p.coefficient(0)) is Fraction and p.coefficient(7) == 0
    assert Poly([Fraction(7, 3)]).constant_value() == Fraction(7, 3)
    assert type(Poly.zero().constant_value()) is Fraction
    assert poly_gcd(Poly([3]), p) == Poly.one() == poly_gcd(p, Poly([Fraction(-1, 2)]))
    assert poly_gcd(Poly.zero(), Poly([Fraction(-2, 3)])) == Poly.one()
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert p == p.shifted(0) and p.shifted(2).shifted(-2) == p
    with pytest.raises(TypeError):
        Poly([0.5])
    for c in (0, 3, Fraction(-2, 3)):
        for k in (0, 1, 5):
            m, ref = Poly.monomial(c, k), Poly((0,) * k + (c,))
            assert (m._ints, m._denom) == (ref._ints, ref._denom)
            assert canonical(m) == ref


# -- RatFunc fast paths ------------------------------------------------------------


def _general(num: Poly, den: Poly) -> RatFunc:
    """RatFunc built through the full gcd normalisation."""
    return RatFunc(num * Poly([1, 1]), den * Poly([1, 1]))


# shifted linear factors (z + k) and irreducible quadratics, two of them non-monic
FACTORS = [Poly([k, 1]) for k in range(-3, 4)] + [Poly([1, 1, 1]), Poly([-2, 0, 3]), Poly([3, -1, 2])]


def reduced(r: RatFunc) -> RatFunc:
    """Both sides canonical, the denominator monic and coprime to the numerator."""
    canonical(r.num)
    canonical(r.den)
    assert r.den.lead == 1
    assert poly_gcd(r.num, r.den) == Poly.one()
    return r


def test_ratfunc_fast_paths_equal_the_general_form():
    rng = random.Random(4511)

    def operand():
        num, den = Poly(random_coeffs(rng)), Poly(random_coeffs(rng))
        return RatFunc(num) if den.is_zero() or rng.random() < 0.6 else RatFunc(num, den)

    def factored():
        """A non-unit constant times a product of shared factors (z + k)^j and quadratics."""
        p = Poly([Fraction(rng.choice([-6, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))])
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(FACTORS) ** rng.randint(1, 2)
        return p

    def shared_operand():
        if rng.random() < 0.15:
            return operand()
        num = factored() * Poly(random_coeffs(rng) or [1]) if rng.random() < 0.3 else factored()
        return RatFunc(num, factored())

    for _ in range(1500):
        f, g = operand(), operand()
        for got, want in (
            (f + g, _general(f.num * g.den + g.num * f.den, f.den * g.den)),
            (f * g, _general(f.num * g.num, f.den * g.den)),
        ):
            assert (got.num, got.den) == (want.num, want.den)
            assert hash(got) == hash(want)
            canonical(got.num)
            canonical(got.den)
        # construction with a constant numerator or denominator skips the gcd
        p, q = f.num, g.den * Poly(random_coeffs(rng) or [1])
        for num, den in ((p, Poly([q.coefficient(0) or 1])), (Poly([p.coefficient(0) or 3]), q)):
            got, want = RatFunc(num, den), _general(num, den)
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.lead == 1

    # operands sharing factors reach the sum's branches after gcd(b, d) != 1:
    # a zero sum, and a sum whose numerator shares a factor with gcd(b, d)
    branches = {"zero sum": 0, "h != 1": 0}
    for _ in range(1500):
        f, g = shared_operand(), shared_operand()
        if rng.random() < 0.25:
            g = g - f  # f + g cancels f's denominator
        cases = [
            (f + g, _general(f.num * g.den + g.num * f.den, f.den * g.den)),
            (f - g, _general(f.num * g.den - g.num * f.den, f.den * g.den)),
            (f * g, _general(f.num * g.num, f.den * g.den)),
            (f + (-f), _general(Poly.zero(), f.den * f.den)),
        ]
        if not g.is_zero():
            cases.append((f / g, _general(f.num * g.den, f.den * g.num)))
        if not f.is_zero():
            cases.append((f * f.inverse(), _general(f.den * f.num, f.num * f.den)))
        for got, want in cases:
            assert (got.num, got.den) == (want.num, want.den)
            assert hash(got) == hash(want)
            reduced(got)
        for u, v in ((f, g), (f, -f)):
            g_bd = poly_gcd(u.den, v.den)
            if g_bd.degree > 0:
                t = u.num * (v.den // g_bd) + v.num * (u.den // g_bd)
                if t.is_zero():
                    branches["zero sum"] += 1
                elif poly_gcd(t, g_bd).degree > 0:
                    branches["h != 1"] += 1
    assert all(branches.values()), branches


# -- ring axioms ------------------------------------------------------------------


def test_ring_axioms_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    poly = st.lists(coeff, max_size=6).map(Poly)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(poly, poly, poly, st.integers(-4, 4))
    def axioms(p, q, r, k):
        for x in (p + q, p * q, (p * q).shifted(k), p - p):
            canonical(x)
        assert p + q == q + p and p * q == q * p
        assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p and p * Poly.one() == p and (p - p).is_zero()
        assert (p * q).shifted(k) == p.shifted(k) * q.shifted(k)
        if not q.is_zero():
            quo, rem = divmod(p, q)
            assert quo * q + rem == p and rem.degree < q.degree

    axioms()


def test_gcd_round_trips_hypothesis():
    """poly_gcd divides both sides, leaves coprime cofactors and scales with a common factor."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    poly = st.lists(coeff, max_size=5).map(Poly)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(poly, poly, poly)
    def round_trip(a, b, c):
        a, b = a * c, b * c  # a common factor, so most gcds are nontrivial
        g = canonical(poly_gcd(a, b))
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            return
        assert g.lead == 1 and g == poly_gcd(b, a)
        assert (a % g).is_zero() and (b % g).is_zero()
        assert poly_gcd(a // g, b // g) == Poly.one()
        if not c.is_zero():
            assert (g % c.monic()).is_zero()

    round_trip()
