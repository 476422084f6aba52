import random
from fractions import Fraction

import pytest

from sl2rat.poly import Poly, format_poly, mu_roots, pi_mu, poly_gcd, poly_lcm


def P(*cs):
    return Poly(cs)


def test_normalization_drops_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


def test_ring_ops():
    z = Poly.variable()
    p = z * z - z - 2
    assert p == P(-2, -1, 1)
    assert p.eval(2) == 0
    assert p.eval(-1) == 0
    q, r = divmod(p, z - 2)
    assert r.is_zero() and q == z + 1
    assert (z + 1) ** 3 == P(1, 3, 3, 1)
    assert (p - p).is_zero()
    assert 2 * z == P(0, 2)


def test_shift_is_ring_morphism():
    rng = random.Random(7)
    for _ in range(30):
        p = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        q = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
        a = rng.randint(-3, 3)
        assert (p * q).shifted(a) == p.shifted(a) * q.shifted(a)
        assert (p + q).shifted(a) == p.shifted(a) + q.shifted(a)
        assert p.shifted(a).shifted(-a) == p


def test_pi_mu():
    assert pi_mu(0) == P(0, -1, 1)
    assert pi_mu(2) == P(-2, -1, 1)
    assert pi_mu(Fraction(-1, 4)) == P(Fraction(1, 4), -1, 1)
    # mu = -1/4 gives the perfect square (z - 1/2)^2
    assert pi_mu(Fraction(-1, 4)) == (Poly.variable() - Fraction(1, 2)) ** 2


def test_mu_roots():
    assert mu_roots(0) == (1, 0)
    assert mu_roots(2) == (2, -1)
    assert mu_roots(Fraction(-1, 4)) == (Fraction(1, 2), Fraction(1, 2))
    assert mu_roots(1) is None
    assert mu_roots(-1) is None


def test_gcd_lcm():
    z = Poly.variable()
    a = (z - 1) * (z + 2) ** 2
    b = (z + 2) * (z - 3)
    assert poly_gcd(a, b) == z + 2
    assert poly_lcm(a, b) == ((z - 1) * (z + 2) ** 2 * (z - 3)).monic()
    assert poly_gcd(Poly.zero(), b) == b.monic()
    # gcd is monic even for non-monic inputs
    assert poly_gcd(3 * (z - 1), 6 * (z - 1) * z) == z - 1


def test_gcd_random_products():
    rng = random.Random(11)
    z = Poly.variable()
    for _ in range(25):
        g = (z - rng.randint(-3, 3)) * (z + Fraction(rng.randint(-3, 3), 2))
        a = g * (z - 7)
        b = g * (z + 9)
        assert poly_gcd(a, b) == g.monic()


def test_mean_of_roots():
    z = Poly.variable()
    assert ((z - 1) * (z - 3)).mean_of_roots() == 2
    assert (z * z + 4 * z + 5).mean_of_roots() == -2
    assert (z - Fraction(1, 2)).mean_of_roots() == Fraction(1, 2)


def test_format():
    z = Poly.variable()
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(z * z - z - 2) == "z^2 - z - 2"
    assert format_poly(-z + 1) == "-z + 1"
    assert format_poly(Fraction(3, 2) * z ** 2 + Fraction(1, 2)) == "3/2*z^2 + 1/2"
    assert format_poly(z * z - z, "t") == "t^2 - t"


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(), Poly.zero())


def test_power_makes_no_squaring_past_the_last_bit(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    p = P(3, 7, 1)
    expected = {n: p ** n for n in range(1, 10)}
    monkeypatch.setattr(Poly, "__mul__", counting)
    for n in range(1, 10):
        calls.clear()
        assert p ** n == expected[n]
        assert len(calls) <= (n.bit_length() - 1) + bin(n).count("1")
