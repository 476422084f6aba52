"""Scalar linear recurrences over Q(z): polynomial and hypergeometric solutions.

`poly_solutions` finds the full space of polynomial solutions of
sum_i p_i(z) y(z+i) = 0 through an exact degree bound (the nonnegative
integer roots of the leading coefficient of L(z^d) as a polynomial in d,
read off the operator in the difference basis) plus linear algebra.

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

from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

from .factor import monic_divisors, rational_roots
from .matrix import Mat
from .poly import Poly, _of_fractions, _raw
from .ratfunc import RatFunc


def poly_degree_candidates(coeffs: Sequence[Poly]) -> List[int]:
    """Possible degrees of polynomial solutions (complete, finite).

    In the difference basis the operator is sum_s q_s(z) Delta^s with
    q_s = sum_i binom(i, s) p_i.  With b = max(deg q_s - s), L(z^d) has
    degree at most d + b, and its z^(d+b) coefficient is
    chi(d) = sum lead(q_s) d(d-1)...(d-s+1) over the s with deg q_s - s = b,
    never zero as its terms have distinct degrees in d.  A solution's degree
    is a root of chi or below -b; every d < -b is a root already, since each
    term of chi has s = deg q_s - b >= -b.
    """
    q = [Poly.zero()] * len(coeffs)
    for i, p in enumerate(coeffs):
        for s in range(i + 1):
            q[s] = q[s] + comb(i, s) * p
    b = max(p.degree - s for s, p in enumerate(q) if not p.is_zero())
    chi = Poly.zero()
    falling = Poly.one()  # d(d-1)...(d-s+1)
    for s, p in enumerate(q):
        if not p.is_zero() and p.degree - s == b:
            chi = chi + p.lead * falling
        falling = falling * _raw((-s, 1), 1)
    return [int(root) for root in rational_roots(chi) if root.denominator == 1 and root >= 0]


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
