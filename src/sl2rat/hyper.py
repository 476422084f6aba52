"""Scalar linear recurrences over Q(z): polynomial and hypergeometric solutions.

`poly_solutions` finds the full space of polynomial solutions of
sum_i p_i(z) y(z+i) = 0 through an exact degree bound (integer roots of the
first non-vanishing indicial function) plus linear algebra.

`hyper_search` finds a rational certificate xi with

    sum_i a_i(z) * xi(z) xi(z+1) ... xi(z+i-1) = 0,

i.e. the ratio y(z+1)/y(z) of a hypergeometric solution, by the classic
divisor-pair search: xi = c * (A/B) * C(z+1)/C(z) with A a monic divisor of
the trailing coefficient, B one of the (shifted) leading coefficient, c a
nonzero rational root of the induced leading-term equation, and C a
polynomial solution of the transformed recurrence.  The search is complete
for rational certificates and fully deterministic, so finding none proves
absence.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .factor import factor_poly, monic_divisors, rational_roots
from .matrix import Mat
from .poly import Poly, _of_fractions, _raw
from .ratfunc import RatFunc


def _binom_poly(s: int) -> Poly:
    """binom(d, s) as a polynomial in d: d(d-1)...(d-s+1)/s!."""
    out = Poly.one()
    for i in range(s):
        out = out * _raw((-i, 1), 1)
    denom = 1
    for i in range(1, s + 1):
        denom *= i
    return out * Fraction(1, denom)


def _indicial(coeffs: Sequence[Poly], k: int) -> Poly:
    """sigma_k(d): coefficient of z^(b+d-k) in sum_i p_i(z) (z+i)^d, as a poly in d."""
    b = max(p.degree for p in coeffs)
    total = Poly.zero()
    for i, p in enumerate(coeffs):
        for j in range(max(0, b - k), p.degree + 1):
            s = k + j - b
            if s < 0:
                continue
            c = p.coefficient(j)
            if c == 0:
                continue
            power = i ** s if (i or s == 0) else 0
            if power == 0:
                continue
            total = total + (c * power) * _binom_poly(s)
    return total


def poly_degree_candidates(coeffs: Sequence[Poly]) -> List[int]:
    """Possible degrees of polynomial solutions (complete, finite)."""
    b = max(p.degree for p in coeffs)
    k0 = None
    sigma = Poly.zero()
    for k in range(0, b + len(coeffs) + 64):
        sigma = _indicial(coeffs, k)
        if not sigma.is_zero():
            k0 = k
            break
    if k0 is None:
        raise ArithmeticError("some indicial function must be nonzero")
    candidates = set(range(0, max(0, k0 - b)))
    _, facs = factor_poly(sigma)
    for fac, _ in facs:
        if fac.degree == 1:
            root = -fac.coefficient(0)
            if root.denominator == 1 and root >= 0:
                candidates.add(int(root))
    return sorted(candidates)


def poly_solutions(coeffs: Sequence[Poly]) -> List[Poly]:
    """Basis of polynomial solutions of sum_i p_i(z) y(z+i) = 0."""
    if all(p.is_zero() for p in coeffs):
        raise ValueError("zero operator")
    return _poly_solutions(coeffs, poly_degree_candidates(coeffs))


def _poly_solutions(coeffs: Sequence[Poly], candidates: List[int]) -> List[Poly]:
    """`poly_solutions` for a nonzero operator whose degree candidates are known."""
    if not candidates:
        return []
    dmax = max(candidates)
    b = max(p.degree for p in coeffs)
    # columns: images L(z^e); rows: z-power coefficients
    images = []
    for e in range(dmax + 1):
        img = Poly.zero()
        for i, p in enumerate(coeffs):
            img = img + p * _raw((i, 1), 1) ** e
        images.append(img)
    nrows = b + dmax + 1
    rows = [[RatFunc.constant(images[e].coefficient(r)) for e in range(dmax + 1)] for r in range(nrows)]
    kernel = Mat(rows).kernel()
    out = []
    for v in kernel:
        out.append(_of_fractions([entry.constant_value() for entry in v]))
    return [p for p in out if not p.is_zero()]


def _search(coeffs: Sequence[Poly]) -> Iterator[Tuple[str, object, int]]:
    m = len(coeffs) - 1
    a0, am = coeffs[0], coeffs[m]
    if a0.is_zero() or am.is_zero():
        raise ValueError("trailing and leading coefficients must be nonzero")
    Bs = monic_divisors(am.shifted(-(m - 1)))
    for A in monic_divisors(a0):
        for B in Bs:
            q: List[Poly] = []
            for i in range(m + 1):
                t = coeffs[i]
                for j in range(0, i):
                    t = t * A.shifted(j)
                for j in range(i, m):
                    t = t * B.shifted(j)
                q.append(t)
            D = max(p.degree for p in q)
            chi = Poly.zero()
            for i, p in enumerate(q):
                if p.degree == D:
                    chi = chi + Poly.monomial(p.lead, i)
            for c in [r for r in rational_roots(chi) if r != 0]:
                scaled = [Poly.constant(c ** i) * q[i] for i in range(m + 1)]
                candidates = poly_degree_candidates(scaled)
                cap = max(candidates) if candidates else -1
                yield ("probe", None, cap)
                for C in _poly_solutions(scaled, candidates):
                    xi = RatFunc.constant(c) * RatFunc(A, B) * RatFunc(C.shifted(1)) / RatFunc(C)
                    yield ("found", xi, cap)


def hyper_search(coeffs: Sequence[Poly]) -> Tuple[Optional[RatFunc], int]:
    """First certificate in deterministic order plus the largest degree cap probed."""
    max_cap = -1
    for kind, xi, cap in _search(coeffs):
        max_cap = max(max_cap, cap)
        if kind == "found":
            return xi, max_cap
    return None, max_cap
