import random
from fractions import Fraction

import pytest

from sl2rat.errors import ParseError, ZeroDenominator
from sl2rat.factor import factor_poly
from sl2rat.parser import (
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_BITS,
    _log2_height,
    parse_poly,
    parse_ratfunc,
)
from sl2rat.poly import Poly, poly_gcd
from sl2rat.ratfunc import (
    RatFunc,
    format_ratfunc,
    leading_ratio,
    partial_fractions,
    pochhammer,
    shift_ratfunc,
)

Z = RatFunc.variable()


def test_canonical_form():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2z / 4z^2
    assert f == RatFunc(1, Poly([0, 2]))
    assert f.den.lead == 1
    f = RatFunc(Poly([1]), Poly([2]))  # 1/2
    assert f.num == Poly.constant(Fraction(1, 2)) and f.den == Poly.one()


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly.one(), Poly.zero())
    with pytest.raises(ZeroDenominator):
        Z / RatFunc.zero()


def test_field_ops():
    f = (Z - 1) / Z
    g = Z / (Z - 1)
    assert f * g == RatFunc.one()
    assert f + g == ((Z - 1) ** 2 + Z ** 2) / (Z * (Z - 1))
    assert (f / f) == RatFunc.one()
    assert f ** -1 == g
    assert f ** 0 == RatFunc.one()


def _ratfunc_strategy(st):
    coeff = st.fractions(min_value=-12, max_value=12, max_denominator=6)
    # shared shifted linear factors and quadratics make the reduced forms cancel
    factor = st.sampled_from([Poly([k, 1]) for k in range(-3, 4)] + [Poly([1, 1, 1]), Poly([-2, 0, 3])])

    def product(parts):
        coeffs, factors = parts
        p = Poly(coeffs)
        for q in factors:
            p = p * q
        return p

    side = st.tuples(st.lists(coeff, min_size=1, max_size=3), st.lists(factor, max_size=3)).map(product)
    return st.tuples(side, side.filter(lambda p: not p.is_zero())).map(lambda nd: RatFunc(*nd))


def test_field_axioms_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ratfunc = _ratfunc_strategy(st)

    def reduced(r):
        assert r.den.lead == 1 and poly_gcd(r.num, r.den) == Poly.one()
        return r

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(ratfunc, ratfunc, ratfunc, st.integers(-4, 4))
    def axioms(f, g, h, k):
        assert reduced(f + g) == g + f and reduced(f * g) == g * f
        assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
        assert reduced(f * (g + h)) == f * g + f * h
        assert reduced(f - f).is_zero()
        if not f.is_zero():
            assert reduced(f * f.inverse()) == RatFunc.one() == f / f
            assert reduced(g / f) * f == g
        assert reduced((f * g).shifted(k)) == f.shifted(k) * g.shifted(k)

    axioms()


def test_shift():
    f = 1 / (Z - 1)
    assert shift_ratfunc(f, 1) == 1 / Z
    assert shift_ratfunc(f, 0) == f
    assert shift_ratfunc(Z, 1) == Z + 1


def test_shift_composition_law():
    rng = random.Random(3)
    for _ in range(20):
        f = (Z - rng.randint(-3, 3)) / (Z ** 2 + rng.randint(1, 5))
        j, k = rng.randint(-4, 4), rng.randint(-4, 4)
        assert shift_ratfunc(shift_ratfunc(f, j), k) == shift_ratfunc(f, j + k)


def test_leading_ratio():
    assert leading_ratio((Z - 1) / Z) == 1
    assert leading_ratio((2 * (Z - 1)) / (3 * Z)) == Fraction(2, 3)
    assert leading_ratio(RatFunc.constant(5)) == 5
    with pytest.raises(ValueError):
        leading_ratio(RatFunc.zero())


def test_pochhammer_spec_values():
    assert pochhammer(Z, 2) == Z * (Z + 1)
    assert pochhammer(Z, 0) == RatFunc.one()
    assert pochhammer(Z, -1) == 1 / (Z - 1)


def test_pochhammer_telescoping():
    rng = random.Random(9)
    for _ in range(15):
        xi = (Z + rng.randint(-2, 2)) / (Z ** 2 + rng.randint(1, 3))
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = pochhammer(xi, m) * shift_ratfunc(pochhammer(xi, n), m)
        assert lhs == pochhammer(xi, m + n)


def test_pochhammer_matches_the_step_by_step_product():
    # xi with shared shifted factors, so the one reduction at the end has to cancel
    rng = random.Random(31)

    def factor():
        return rng.choice([Z + rng.randint(-3, 3), Z * Z + rng.randint(1, 3), 2 * Z + 1])

    for _ in range(12):
        xi = RatFunc.constant(rng.choice([1, -2, Fraction(3, 5)])) / factor()
        for _ in range(rng.randint(0, 2)):
            xi = xi * factor() if rng.random() < 0.5 else xi / factor()
        assert not xi.is_polynomial()
        for m in range(-8, 9):
            steps = RatFunc.one()
            for j in range(m, 0) if m < 0 else range(m):
                steps = steps * xi.shifted(j)
            assert pochhammer(xi, m) == (1 / steps if m < 0 else steps), (xi, m)


def test_parse_spec_examples():
    f = parse_ratfunc("(z-1)/z")
    assert f.num == Poly([-1, 1]) and f.den == Poly([0, 1])
    p = parse_poly("z^2 - 1")
    assert p == Poly([-1, 0, 1])
    with pytest.raises(ZeroDenominator):
        parse_ratfunc("1/(z-z)")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("z + ?")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_ratfunc("z z")  # implicit multiplication
    with pytest.raises(ParseError):
        parse_ratfunc("z^(2)")  # exponent must be a literal
    with pytest.raises(ParseError):
        parse_ratfunc("z^-1")
    with pytest.raises(ParseError):
        parse_ratfunc("(z + 1")
    # superscript digits pass str.isdigit() but not int(): refused where they stand
    for text, position in (("z^\u00b2", 2), ("\u00b3*z", 0), ("z + 1\u00b2", 5)):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == position
        assert str(exc.value).startswith(f"unexpected character {text[position]!r}")
    # decimal digits of other scripts are read as int() reads them
    assert parse_ratfunc("z^\u0663") == parse_ratfunc("z^3")
    # nesting past MAX_NESTING is a ParseError at the first token too deep, not a RecursionError
    n = MAX_NESTING
    assert parse_ratfunc("(" * n + "z" + ")" * n) == parse_ratfunc("-" * n + "z") == RatFunc.variable()
    for text in ("(" * 200 + "z" + ")" * 200, "-" * 1000 + "z", "-(" * 51 + "z" + ")" * 51, "(" * 3000 + "z" + ")" * 3000):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == n  # the (n + 1)-th opening character
    # a power whose degree would pass MAX_DEGREE is a ParseError at its exponent, before it is computed
    assert parse_ratfunc(f"(z+1)^{MAX_DEGREE}").num.degree == MAX_DEGREE
    for text, position in (("(z+1)^3000/(z-1)^3000", 6), (f"z^{MAX_DEGREE + 1}", 2), ("((z^2+1)^400)^2", 14)):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == position


def test_coefficient_size_bounds():
    # a literal of MAX_LITERAL_DIGITS digits parses; one more digit is refused at the literal
    assert parse_ratfunc("9" * MAX_LITERAL_DIGITS).constant_value() == 10 ** MAX_LITERAL_DIGITS - 1
    with pytest.raises(ParseError) as exc:
        parse_ratfunc("z - " + "9" * (MAX_LITERAL_DIGITS + 1))
    assert exc.value.position == 4
    # a power reaching MAX_POWER_BITS parses; one bit more is refused at its exponent
    assert parse_ratfunc(f"2^{MAX_POWER_BITS}").constant_value() == 2 ** MAX_POWER_BITS
    for text, position in ((f"2^{MAX_POWER_BITS + 1}", 2), ("(1024*z + 1)^1000", 13),
                           ("(1 + 3^5000)^2", 13), ("(-1)^10000000 + 3^20000000", 18)):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc(text)
        assert exc.value.position == position
    # and the height bounds every integer coefficient of every power
    rng = random.Random(31)
    for _ in range(60):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
        den = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [rng.choice([1, 2, 3])])
        f = RatFunc(num if not num.is_zero() else Poly.one(), den)
        h = _log2_height(f)
        for e in range(6):
            g = f ** e
            assert all(abs(c) <= 2 ** (e * h) for p in (g.num, g.den) for c in p._ints + (p._denom,))


def test_parse_format_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        num = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
        den = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [1])
        if num.is_zero():
            num = Poly.one()
        f = RatFunc(num, den)
        text = format_ratfunc(f)
        assert parse_ratfunc(text) == f
        assert format_ratfunc(parse_ratfunc(text)) == text


def test_format_shapes():
    assert format_ratfunc((Z - 1) / Z) == "(z - 1)/z"
    assert format_ratfunc(1 / (Z ** 2)) == "1/z^2"
    assert format_ratfunc(RatFunc.constant(Fraction(-3, 2))) == "-3/2"
    assert format_ratfunc((Z + 1) / (Z - 1)) == "(z + 1)/(z - 1)"
    assert format_ratfunc(-Z / (Z + 1)) == "-z/(z + 1)"


def test_partial_fractions_reassembles():
    rng = random.Random(23)
    Zp = Poly.variable()
    dens = [Zp, Zp - 1, Zp + 2, Zp ** 2 + 1, Zp - Fraction(1, 2)]
    for _ in range(20):
        den = Poly.one()
        for _ in range(rng.randint(1, 3)):
            den = den * rng.choice(dens) ** rng.randint(1, 2)
        num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, den.degree + 2))])
        if num.is_zero():
            num = Poly.one()
        f = RatFunc(num, den)
        poly_part, pieces = partial_fractions(f)
        total = RatFunc(poly_part)
        for q, j, a in pieces:
            assert a.degree < q.degree
            total = total + RatFunc(a, q ** j)
        assert total == f


def test_partial_fractions_round_trip_hypothesis():
    """The pieces recombine to f, and a known factorization of f.den gives the same pieces or is refused."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_ratfunc_strategy(st))
    def round_trip(f):
        poly_part, pieces = partial_fractions(f)
        total = RatFunc(poly_part)
        for q, j, a in pieces:
            assert q.lead == 1 and factor_poly(q)[1] == [(q, 1)] and j >= 1 and a.degree < q.degree
            assert (f.den % q ** j).is_zero()
            total = total + RatFunc(a, q ** j)
        assert total == f
        facs = factor_poly(f.den)[1] if f.den.degree > 0 else []
        assert partial_fractions(f, factors=facs) == (poly_part, pieces)
        if pieces:
            with pytest.raises(ArithmeticError):
                partial_fractions(f, factors=[(q, m + 1) for q, m in facs])

    round_trip()
