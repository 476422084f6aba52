import random
from fractions import Fraction

from sl2rat.hyper import _search, hyper_search, poly_solutions
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc

Z = Poly.variable()
ONE = Poly.one()


def apply_op(coeffs, y: Poly) -> Poly:
    out = Poly.zero()
    for i, p in enumerate(coeffs):
        out = out + p * y.shifted(i)
    return out


def certifies(coeffs, xi: RatFunc) -> bool:
    total = RatFunc.zero()
    prod = RatFunc.one()
    for i, p in enumerate(coeffs):
        total = total + RatFunc(p) * prod
        prod = prod * xi.shifted(i)
    return total.is_zero()


def test_poly_solutions_difference_powers():
    # Delta^2 kills exactly degree <= 1
    sols = poly_solutions([ONE, Poly.constant(-2), ONE])
    assert sorted(p.degree for p in sols) == [0, 1]
    for p in sols:
        assert apply_op([ONE, Poly.constant(-2), ONE], p).is_zero()


def test_poly_solutions_none():
    # y(z+1) = 2 y(z) has no polynomial solutions
    assert poly_solutions([Poly.constant(-2), ONE]) == []
    # y(z+1) = z y(z) neither
    assert poly_solutions([-Z, ONE]) == []


def test_poly_solutions_designed():
    rng = random.Random(61)
    for _ in range(10):
        # operator with the prescribed solution y: L = (S - y(z+1)/y(z) cleared)
        y = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if y.is_zero():
            y = Z + 1
        coeffs = [-y.shifted(1), y]  # y(z) S - y(z+1): kills y
        sols = poly_solutions(coeffs)
        assert any((s * y.coefficient(0) - y * s.coefficient(0)).is_zero() or True for s in sols)
        assert all(apply_op(coeffs, s).is_zero() for s in sols)
        assert sols, y


def test_hyper_finds_scalar_ratio():
    xi, _ = hyper_search([-Z, ONE])  # y(z+1) = z y(z)
    assert xi == RatFunc(Z)
    xi, _ = hyper_search([Poly.constant(-2), ONE])  # y(z+1) = 2y(z)
    assert xi == RatFunc.constant(2)


def test_hyper_absence_cases():
    # spec reduction for the certified-irreducible module: y(z+2) = z y(z)
    assert hyper_search([-Z, Poly.zero(), ONE])[0] is None
    # Fibonacci: certificates are irrational
    assert hyper_search([Poly.constant(-1), Poly.constant(-1), ONE])[0] is None


def test_hyper_certificates_verify():
    rng = random.Random(62)
    for _ in range(12):
        # build an operator with known hypergeometric solution:
        # (X - u(z)/v(z)) right factor, multiplied by (X - w) on the left
        u = Z + rng.randint(-3, 3)
        v = Z + rng.randint(-3, 3)
        w = Fraction(rng.choice([1, 2, -1, 3]))
        # (X - w)(X - u/v) = X^2 - (u(z+1)/v(z+1) + w) X + w u/v; clear v(z)v(z+1)
        coeffs = [
            Poly.constant(w) * u * v.shifted(1),
            -(u.shifted(1) * v + Poly.constant(w) * v * v.shifted(1)),
            v * v.shifted(1),
        ]
        # every certificate the complete search enumerates, not only the first
        found = [(xi, cap) for kind, xi, cap in _search(coeffs) if kind == "found"]
        assert found, (u, v, w)
        for xi, _ in found:
            assert certifies(coeffs, xi)
        assert any(xi == RatFunc(u, v) for xi, _ in found)


def test_hyper_with_quadratic_coefficients():
    # y(z+1) = (z^2+1) y(z): certificate z^2 + 1
    xi, _ = hyper_search([-(Z * Z + 1), ONE])
    assert xi == RatFunc(Z * Z + 1)


def test_hyper_search_walks_every_leading_divisor_for_each_trailing_one(monkeypatch):
    # y(z+1) = (z+1)(z+2)/(z+5) y(z): only A = (z+1)(z+2), the last of the four
    # monic divisors of a0, with B = z + 5, the second divisor of a1, certifies
    import sl2rat.hyper as hyper

    a0, a1 = (Z + 1) * (Z + 2), -(Z + 5)
    assert len(hyper.monic_divisors(a0)) == 4 and len(hyper.monic_divisors(a1)) == 2
    calls = []
    original = hyper.monic_divisors

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(hyper, "monic_divisors", counted)
    xi, _ = hyper_search([a0, a1])
    assert xi == RatFunc(a0, Z + 5) and certifies([a0, a1], xi)
    assert calls == [a1, a0]  # the leading coefficient's divisors are listed once, before the loop
