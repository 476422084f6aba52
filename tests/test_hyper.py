import math
import random
from fractions import Fraction

import sl2rat.hyper as hyper
from oracle import reference_search, search_outcome
from sl2rat.factor import factor_poly
from sl2rat.hyper import _search, hyper_search, poly_degree_candidates, poly_solutions
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


def _reference_binom_poly(s: int) -> Poly:
    """binom(d, s) as a polynomial in d: d(d-1)...(d-s+1)/s!."""
    out = Poly.one()
    for i in range(s):
        out = out * Poly((-i, 1))
    return out * Fraction(1, math.factorial(s))


def _reference_indicial(coeffs, k: int) -> Poly:
    """sigma_k(d): coefficient of z^(b+d-k) in sum_i p_i(z) (z+i)^d, as a poly in d."""
    b = max(p.degree for p in coeffs)
    total = Poly.zero()
    for i, p in enumerate(coeffs):
        for j in range(max(0, b - k), p.degree + 1):
            s = k + j - b
            if s < 0:
                continue
            power = i ** s if (i or s == 0) else 0
            if power and p.coefficient(j):
                total = total + (p.coefficient(j) * power) * _reference_binom_poly(s)
    return total


def _reference_degree_candidates(coeffs):
    """The indicial search: the first nonzero sigma_k gives range(k - b) and its integer roots.

    Returns the sorted candidates and the length k - b of that run.
    """
    b = max(p.degree for p in coeffs)
    k = next(k for k in range(b + len(coeffs) + 64) if not _reference_indicial(coeffs, k).is_zero())
    candidates = set(range(max(0, k - b)))
    for fac, _ in factor_poly(_reference_indicial(coeffs, k))[1]:
        root = -fac.coefficient(0)
        if fac.degree == 1 and root.denominator == 1 and root >= 0:
            candidates.add(int(root))
    return sorted(candidates), k - b


def _random_poly(rng, max_degree):
    return Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, max_degree + 1))])


def test_degree_candidates_match_the_indicial_search(monkeypatch):
    rng = random.Random(71)
    operators = []
    for _ in range(150):
        coeffs = [_random_poly(rng, 3) for _ in range(rng.randint(2, 4))]
        if any(not p.is_zero() for p in coeffs):
            operators.append(coeffs)
    # the cancelling family r(z) (E - 1)^k and its twin (E - 1)^k r(z): the top
    # terms of sum_i p_i(z) (z+i)^d cancel for k orders in d
    for k in range(1, 5):
        for _ in range(6):
            r = _random_poly(rng, 3)
            if r.is_zero():
                r = Z
            signs = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
            operators.append([c * r for c in signs])
            operators.append([c * r.shifted(i) for i, c in enumerate(signs)])
    # the scaled operators that the hypergeometric search probes
    probed = []
    original = hyper.poly_degree_candidates

    def recording(coeffs):
        probed.append(list(coeffs))
        return original(coeffs)

    monkeypatch.setattr(hyper, "poly_degree_candidates", recording)
    for _ in range(20):
        # (X - w)(X - u/v) with v(z) v(z+1) cleared, as in test_hyper_certificates_verify
        u, v, w = Z + rng.randint(-3, 3), Z + rng.randint(-3, 3), Poly.constant(rng.choice([1, 2, -1]))
        hyper_search([w * u * v.shifted(1), -(u.shifted(1) * v + w * v * v.shifted(1)), v * v.shifted(1)])
    assert len(probed) >= 20
    runs = 0
    for coeffs in operators + probed:
        want, run = _reference_degree_candidates(coeffs)
        assert poly_degree_candidates(coeffs) == want, coeffs
        runs += run > 0
    assert runs >= 24  # r (E - 1)^k has the degrees below k - deg r as a run


def _linear_product(rng, count):
    out = Poly.constant(rng.choice([1, -1, 2, Fraction(1, 2), -3]))
    for _ in range(count):
        out = out * (Z + Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])))
    return out


def test_pruned_search_probes_as_the_unpruned_reference():
    rng = random.Random(97)
    operators = []
    for _ in range(60):
        order = rng.randint(1, 3)
        coeffs = [_linear_product(rng, rng.randint(0, 3)) for _ in range(order + 1)]
        if order > 1 and rng.random() < 0.4:
            coeffs[rng.randint(1, order - 1)] = Poly.zero()
        operators.append(coeffs)
    for _ in range(20):
        # (X - w)(X - u/v) with v(z) v(z+1) cleared: a certificate u/v exists
        u, v = _linear_product(rng, rng.randint(1, 2)), _linear_product(rng, rng.randint(0, 2))
        w = Poly.constant(rng.choice([1, 2, -1]))
        operators.append([w * u * v.shifted(1), -(u.shifted(1) * v + w * v * v.shifted(1)), v * v.shifted(1)])
    operators += [[-Z, Poly.zero(), ONE], [Poly.constant(-1), Poly.constant(-1), ONE]]
    found = zero_middle = rootless = 0
    for coeffs in operators:
        want = search_outcome(reference_search, coeffs)
        assert search_outcome(_search, coeffs) == want, coeffs
        assert hyper_search(coeffs) == want[:2]
        found += want[0] is not None
        m = len(coeffs) - 1
        zero_middle += any(p.is_zero() for p in coeffs[1:m])
        terms = [(i, p.degree, p.lead) for i, p in enumerate(coeffs) if not p.is_zero()]
        degrees = {(A.degree, B.degree) for A in hyper.monic_divisors(coeffs[0])
                   for B in hyper.monic_divisors(coeffs[m].shifted(-(m - 1)))}
        rootless += any(not hyper._chi_roots(terms, m, *key) for key in degrees)
    assert found >= 20 and zero_middle >= 10 and rootless >= 20, (found, zero_middle, rootless)
