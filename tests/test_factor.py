import math
import random
from fractions import Fraction

import pytest

import sl2rat.factor
from sl2rat.factor import (
    _factor_squarefree_int,
    _gf_factor_squarefree,
    _hensel_lift_list,
    _pow_at_least,
    _zm_deriv,
    _zm_gcd,
    _zm_mul,
    _zm_red,
    check_factors,
    factor_operands,
    factor_poly,
    factor_within,
    monic_divisors,
    rational_roots,
    squarefree_decomposition,
)
from sl2rat.poly import Poly, _raw, _to_int_primitive, pi_mu
from sl2rat.ratfunc import RatFunc


Z = Poly.variable()


def reassemble(lead, facs):
    out = Poly.constant(lead)
    for f, m in facs:
        out = out * f ** m
    return out


def test_spec_examples():
    lead, facs = factor_poly(Z * Z - Z)
    assert lead == 1 and facs == [(Z - 1, 1), (Z, 1)]

    lead, facs = factor_poly(pi_mu(2))
    assert lead == 1 and dict(facs) == {Z - 2: 1, Z + 1: 1}

    lead, facs = factor_poly(2 * Z ** 2 + 2)
    assert lead == 2 and facs == [(Z ** 2 + 1, 1)]


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_poly(Poly.zero())


def test_constant():
    assert factor_poly(Poly.constant(Fraction(5, 3))) == (Fraction(5, 3), [])


def test_squarefree_decomposition():
    p = (Z - 1) ** 3 * (Z + 2) * (Z ** 2 + 1) ** 2
    parts = squarefree_decomposition(p)
    assert dict((m, g) for g, m in parts) == {1: Z + 2, 2: Z ** 2 + 1, 3: Z - 1}


# Oracle: build products of polynomials known to be irreducible over Q
# (linear; quadratics with non-square discriminant; known quartic), then
# check the factorization recovers exactly that multiset.

KNOWN_IRREDUCIBLE = [
    Z,
    Z - 1,
    Z + Fraction(1, 2),
    Z - 3,
    Z ** 2 + 1,           # disc -4
    Z ** 2 - 2,           # disc 8, not a square
    Z ** 2 + Z + 1,       # disc -3
    Z ** 2 - Z - 1,       # disc 5
    Z ** 4 + 1,           # cyclotomic, irreducible over Q
    Z ** 3 - 2,           # no rational root
    # Swinnerton-Dyer S2, S3: they split into factors of degree <= 2 mod
    # every prime, the worst case for subset recombination
    Z ** 4 - 10 * Z ** 2 + 1,
    Z ** 8 - 40 * Z ** 6 + 352 * Z ** 4 - 960 * Z ** 2 + 576,
]


def test_known_irreducibles_stay_prime():
    for f in KNOWN_IRREDUCIBLE:
        lead, facs = factor_poly(f)
        assert lead == 1 and facs == [(f, 1)], f


def test_random_products_recovered():
    rng = random.Random(2024)
    for _ in range(25):
        chosen = {}
        for _ in range(rng.randint(1, 4)):
            f = rng.choice(KNOWN_IRREDUCIBLE)
            chosen[f] = chosen.get(f, 0) + rng.randint(1, 2)
        lead_in = Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2, 7]))
        p = Poly.constant(lead_in)
        for f, m in chosen.items():
            p = p * f ** m
        lead, facs = factor_poly(p)
        assert lead == lead_in
        assert dict(facs) == chosen
        assert reassemble(lead, facs) == p


def test_big_product_of_linear_factors():
    # shift-trivial products like the classifier sees: ~20 linear factors
    rng = random.Random(5)
    p = Poly.one()
    expected = {}
    for _ in range(20):
        root = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        f = Z - root
        expected[f] = expected.get(f, 0) + 1
        p = p * f
    lead, facs = factor_poly(p)
    assert lead == 1 and dict(facs) == expected


def test_monic_divisors():
    divs = monic_divisors((Z - 1) ** 2 * Z)
    assert Poly.one() in divs
    assert len(divs) == 6
    assert all((((Z - 1) ** 2 * Z) % d).is_zero() for d in divs)


def test_rational_roots():
    assert rational_roots((Z - 2) * (Z + Fraction(1, 3)) * (Z ** 2 + 1)) == [Fraction(-1, 3), 2]


# Products whose integer primitive parts have a non-unit lead, so the lifted
# factors and the trial divisions carry a lead other than 1.
NON_MONIC = [2 * Z + 1, 3 * Z - 1, 5 * Z ** 2 - 3, Z ** 2 + 1, Z ** 4 - 10 * Z ** 2 + 1]


def _non_monic_products(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        p = Poly.constant(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 4])))
        for _ in range(rng.randint(2, 5)):
            f = rng.choice(NON_MONIC).shifted(rng.randint(-3, 3))
            p = p * f ** rng.choice([1, 1, 2])
        yield p


def sympy_factor(sympy, p):
    """(lead, {monic factor: multiplicity}) of p from sympy's factor_list."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(p.coeffs))
    content, sym_facs = sympy.factor_list(expr)
    expected = {}
    lead = Fraction(str(content))
    for g, mult in sym_facs:
        gp = sympy.Poly(g, x)
        lead *= Fraction(str(gp.LC())) ** mult
        monic = Poly(Fraction(str(c)) for c in reversed(gp.monic().all_coeffs()))
        expected[monic] = expected.get(monic, 0) + mult
    return lead, expected


def test_factor_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    cases = [((2 * Z + 1) * (3 * Z - 1) * (Z ** 2 + 1)).shifted(k) for k in range(-2, 3)]
    cases += list(_non_monic_products(77, 30))
    for p in cases:
        lead, expected = sympy_factor(sympy, p)
        got_lead, got = factor_poly(p)
        assert got_lead == lead, p
        assert dict(got) == expected, p


def _low_degree_cases(seed):
    """Seeded polynomials of degree 1 and 2: rational, double and irrational roots."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 6]))

    def lead():
        return Fraction(rng.choice([1, -1, 2, -3, 4, 7]), rng.choice([1, 1, 2, 3]))

    for _ in range(60):
        yield Poly((frac(), lead()))
        yield lead() * (Z - frac()) * (Z - frac())
        yield lead() * (Z - frac()) ** 2
        yield Poly((frac(), frac(), lead()))


def _general_path(p):
    """factor_poly's answer through Yun's decomposition and Zassenhaus, its path above degree 2.

    On a squarefree p this is `_factor_squarefree_int` of p itself.
    """
    out = []
    for part, mult in squarefree_decomposition(p):
        out += [(_raw(fac, 1).monic(), mult) for fac in _factor_squarefree_int(_to_int_primitive(part))]
    return p.lead, sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def test_low_degree_closed_form():
    sympy = pytest.importorskip("sympy")
    discriminants = set()
    for p in _low_degree_cases(14):
        lead, facs = factor_poly(p)
        assert reassemble(lead, facs) == p, p
        assert (lead, dict(facs)) == sympy_factor(sympy, p), p
        assert (lead, facs) == _general_path(p), p
        if p.degree == 2:
            c, b, a = _to_int_primitive(p)
            d = b * b - 4 * a * c
            square = d >= 0 and math.isqrt(d) ** 2 == d
            discriminants.add("negative" if d < 0 else "zero" if d == 0 else "square" if square else "non-square")
    assert discriminants == {"negative", "zero", "square", "non-square"}


def test_hensel_lift_multiplies_back():
    for p in _non_monic_products(5, 12):
        f = _to_int_primitive(squarefree_decomposition(p)[0][0])
        if len(f) < 3:
            continue
        lc = f[-1]
        prime = next(q for q in (3, 5, 7, 11, 13, 17, 19, 23)
                     if lc % q and len(_zm_red(f, q)) == len(f)
                     and len(_zm_gcd(_zm_red(f, q), _zm_deriv(_zm_red(f, q), q), q)) == 1)
        mod_facs = _gf_factor_squarefree(_zm_red(f, prime), prime, random.Random(1))
        target = 10 ** 12
        m = _pow_at_least(prime, target)
        lifted = _hensel_lift_list(list(f), lc, mod_facs, prime, target)
        assert [_zm_red(g, prime) for g in lifted] == mod_facs
        assert all(g[-1] == 1 for g in lifted)
        prod = [1]
        for g in lifted:
            prod = _zm_mul(prod, g, m)
        assert prod == _zm_red([c * pow(lc, -1, m) for c in f], m)


def _with_quadratic_parts(seed, count):
    """Seeded polynomials of degree 3-12 built from split and irreducible quadratics at distinct multiplicities."""
    rng = random.Random(seed)

    def quadratic():
        if rng.random() < 0.5:
            a, b = rng.sample([Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)], 2)
            return (Z - a) * (Z - b)
        return rng.choice([Z ** 2 + 1, Z ** 2 - 2, Z ** 2 + Z + 1, 3 * Z ** 2 - 5]).shifted(rng.randint(-3, 3))

    made = 0
    while made < count:
        exponents = rng.sample([1, 2, 3], 3)
        p = Poly.constant(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])))
        p = p * quadratic() ** exponents[0]
        if rng.random() < 0.7:
            p = p * quadratic() ** exponents[1]
        if rng.random() < 0.5:
            p = p * rng.choice([Z - rng.randint(-4, 4), Z ** 3 - 2, Z ** 4 - 10 * Z ** 2 + 1]) ** exponents[2]
        if 3 <= p.degree <= 12:
            made += 1
            yield p


def test_quadratic_parts_take_the_closed_form(monkeypatch):
    degrees = []

    def recording(f):
        degrees.append(len(f) - 1)
        return _factor_squarefree_int(f)

    monkeypatch.setattr(sl2rat.factor, "_factor_squarefree_int", recording)
    kinds = set()
    for p in _with_quadratic_parts(20, 80):
        lead, facs = factor_poly(p)
        assert reassemble(lead, facs) == p, p
        assert (lead, facs) == _general_path(p), p
        for part, mult in squarefree_decomposition(p):
            if part.degree == 2:
                c, b, a = _to_int_primitive(part)
                d = b * b - 4 * a * c
                kinds.add(("split" if d >= 0 and math.isqrt(d) ** 2 == d else "irreducible", mult > 1))
    assert kinds == {(kind, repeated) for kind in ("split", "irreducible") for repeated in (False, True)}
    assert degrees and 2 not in degrees


def test_recombination_retries_the_subset_size_after_a_split():
    # S2 = z^4 - 10 z^2 + 1 is irreducible over Q but splits mod every prime, so
    # the true factors found beside it are found among spurious subsets
    sympy = pytest.importorskip("sympy")
    s2 = Z ** 4 - 10 * Z ** 2 + 1
    for g, h in [(Z - 2, 2 * Z + 3), (Z + 1, Z - 1), (Z ** 2 - 2, Z ** 3 - 2), (3 * Z - 1, Z ** 2 + Z + 1),
                 (Z ** 2 + 1, Z ** 2 + 3)]:
        p = 5 * s2 * g * h
        lead, expected = sympy_factor(sympy, p)
        got_lead, got = factor_poly(p)
        assert got_lead == lead and dict(got) == expected, p
        assert sorted(_factor_squarefree_int(_to_int_primitive(p))) == sorted(
            _to_int_primitive(q) for q in expected
        ), p


def test_factor_round_trips_hypothesis():
    """factor_poly reassembles its input from sorted distinct monic irreducibles, and
    factor_operands and factor_within read the same lists off a product of powers."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # shared irreducibles of degree 1 to 3, so factors repeat, merge and cancel
    cubics = [Poly([-2, 0, 0, 1]), Poly([1, 1, 0, 1])]
    irreducible = st.sampled_from([Poly([k, 1]) for k in range(-3, 4)] + [Poly([1, 0, 1]), Poly([1, 1, 1])] + cubics)
    coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=4)
    powers = st.lists(st.tuples(irreducible, st.integers(-3, 3)), max_size=4)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(coeffs, powers)
    def round_trip(cs, items):
        p = Poly(cs)
        hypothesis.assume(not p.is_zero())
        for q, e in items:
            p = p * q ** abs(e)
        lead, facs = factor_poly(p)
        assert reassemble(lead, facs) == p
        assert all(q.lead == 1 and q.degree > 0 and m > 0 for q, m in facs)
        keys = [q.sort_key() for q, _ in facs]
        assert keys == sorted(set(keys))
        assert all(factor_poly(q)[1] == [(q, 1)] for q, _ in facs)
        # p times the signed powers, as operands and as a value
        value = RatFunc(p)
        for q, e in items:
            value = value * RatFunc(q) ** e if e >= 0 else value / RatFunc(q) ** -e
        num, den = (factor_poly(s)[1] if s.degree > 0 else [] for s in (value.num, value.den))
        assert factor_operands([(p, 1)] + items) == (num, den)
        assert factor_within(value.den, [q for q, e in items if e < 0]) == den
        check_factors(value.num, num)
        check_factors(value.den, den)

    round_trip()
