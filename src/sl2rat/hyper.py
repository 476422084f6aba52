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

As A and B are monic, the transformed coefficient
q_i = a_i A(z) ... A(z+i-1) B(z+i) ... B(z+m-1) of a nonzero a_i has degree
deg a_i + i deg A + (m-i) deg B and leading coefficient lead a_i, so the
leading-term polynomial chi and its roots depend on (deg A, deg B) alone.
One search computes them once per degree pair and forms the products q_i
only for pairs whose chi has a nonzero rational root, from shifts of each
divisor made once.  The pairs are probed in the same order either way.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

from .factor import monic_divisors, rational_roots
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
    rows = [[images[e].coefficient(r) for e in range(dmax + 1)] for r in range(b + dmax + 1)]
    return [_of_fractions(v) for v in _kernel(rows, dmax + 1)]


def _kernel(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """`Mat.kernel` over Q: the reduced row echelon form, then one vector per free column.

    Pivots are chosen as `Mat._echelon` chooses them, and the reduced form
    is unique anyway, so the basis is the one `Mat.kernel` returns.
    """
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = 1 / rows[r][c]
        pivot_row = rows[r] = [e * inv for e in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [a - f * p if p else a for a, p in zip(row, pivot_row)]
        pivots.append(c)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def _chi_roots(terms: Sequence[Tuple[int, int, Fraction]], m: int, deg_a: int, deg_b: int) -> List[Fraction]:
    """Nonzero rational roots of chi for divisors of degrees deg_a and deg_b.

    `terms` lists (i, deg a_i, lead a_i) for the nonzero a_i.
    """
    degrees = [(i, d + i * deg_a + (m - i) * deg_b, lead) for i, d, lead in terms]
    top = max(d for _, d, _ in degrees)
    chi = Poly.zero()
    for i, d, lead in degrees:
        if d == top:
            chi = chi + Poly.monomial(lead, i)
    return [r for r in rational_roots(chi) if r != 0]


def _prefix_products(factors: Sequence[Poly]) -> List[Poly]:
    """[f_0 ... f_(k-1) for k = 0..len(factors)]."""
    out = [Poly.one()]
    for f in factors:
        out.append(out[-1] * f)
    return out


def _search(coeffs: Sequence[Poly]) -> Iterator[Tuple[str, object, int]]:
    m = len(coeffs) - 1
    a0, am = coeffs[0], coeffs[m]
    if a0.is_zero() or am.is_zero():
        raise ValueError("trailing and leading coefficients must be nonzero")
    terms = [(i, p.degree, p.lead) for i, p in enumerate(coeffs) if not p.is_zero()]
    roots = {}  # (deg A, deg B) -> nonzero rational roots of chi
    tails = {}  # B -> [B(z+i) ... B(z+m-1) for i = 0..m]
    Bs = monic_divisors(am.shifted(-(m - 1)))
    for A in monic_divisors(a0):
        heads = None  # [A(z) ... A(z+i-1) for i = 0..m], formed for A's first pair with a root
        for B in Bs:
            key = (A.degree, B.degree)
            if key not in roots:
                roots[key] = _chi_roots(terms, m, *key)
            if not roots[key]:
                continue
            if heads is None:
                heads = _prefix_products([A.shifted(j) for j in range(m)])
            if B not in tails:
                tails[B] = _prefix_products([B.shifted(j) for j in reversed(range(m))])[::-1]
            q = [coeffs[i] * heads[i] * tails[B][i] for i in range(m + 1)]
            for c in roots[key]:
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
