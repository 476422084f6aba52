"""Brute-force linear-algebra oracles for the difference-equation solvers.

Both oracles fix a denominator ansatz D built from the shift-window of the
input's irreducible factors (window margin 2 beyond the observed offsets,
multiplicity capped by the input's class multiplicities, numerator degree
slack 8) and decide existence by solving one linear system over Q in the
numerator coefficients.  No telescoping, no pairing logic: a completely
independent decision procedure, complete on inputs whose per-class offset
span stays within the window (the test family keeps offsets in [-2, 2]).

`reference_search` is the divisor-pair search without pruning: it
multiplies out the shifted products for every pair, reads chi off them,
sorts the divisors by their `Fraction` coefficients and solves over `Mat`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from sl2rat.factor import factor_poly, rational_roots
from sl2rat.hyper import poly_degree_candidates
from sl2rat.matrix import Mat
from sl2rat.poly import Poly
from sl2rat.ratfunc import RatFunc
from sl2rat.shifts import canonical_shift_rep

MARGIN = 2
SLACK = 8


def _solve_fraction_system(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """Particular solution of rows * x = rhs over Q, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][n]
    return x


def _nonzero_kernel_vector(rows: List[List[Fraction]]) -> Optional[List[Fraction]]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return None
    fc = free[0]
    v = [Fraction(0)] * n
    v[fc] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        v[c] = -aug[row_idx][fc]
    return v


def _class_offsets(poly: Poly) -> Dict[Poly, List[Tuple[int, int]]]:
    """canonical rep -> [(offset, multiplicity)] for each irreducible factor."""
    out: Dict[Poly, List[Tuple[int, int]]] = {}
    if poly.degree < 1:
        return out
    _, facs = factor_poly(poly)
    for fac, mult in facs:
        rep, off = canonical_shift_rep(fac)
        out.setdefault(rep, []).append((off, mult))
    return out


def _denominator_ansatz(table: Dict[Poly, List[Tuple[int, int]]], caps: Dict[Poly, int]) -> Poly:
    D = Poly.one()
    for rep, offs in table.items():
        lo = min(o for o, _ in offs) - MARGIN
        hi = max(o for o, _ in offs) + MARGIN
        cap = caps[rep]
        for j in range(lo, hi + 1):
            D = D * rep.shifted(-j) ** cap
    return D


def oracle_add(s: RatFunc) -> bool:
    """Does phi(z+1) - phi(z) = s(z) admit a rational solution?"""
    table = _class_offsets(s.den)
    caps = {rep: max(m for _, m in offs) for rep, offs in table.items()}
    D = _denominator_ansatz(table, caps) if table else Poly.one()
    deg_n = D.degree + SLACK
    # sum_k n_k [ (z+1)^k D(z) - z^k D(z+1) ] * den_s = num_s * D(z) * D(z+1)
    Dz1 = D.shifted(1)
    basis = []
    z = Poly.variable()
    for k in range(deg_n + 1):
        basis.append(((z + 1) ** k * D - z ** k * Dz1) * s.den)
    rhs_poly = s.num * D * Dz1
    nrows = max([rhs_poly.degree] + [b.degree for b in basis]) + 1
    rows = [[b.coefficient(r) for b in basis] for r in range(nrows)]
    rhs = [rhs_poly.coefficient(r) for r in range(nrows)]
    return _solve_fraction_system(rows, rhs) is not None


def oracle_mult(f: RatFunc) -> bool:
    """Does t(z)/t(z+1) = f(z) admit a nonzero rational solution?"""
    table = _class_offsets(f.num)
    for rep, offs in _class_offsets(f.den).items():
        table.setdefault(rep, []).extend(offs)
    caps = {rep: sum(m for _, m in offs) for rep, offs in table.items()}
    D = _denominator_ansatz(table, caps) if table else Poly.one()
    deg_n = D.degree + SLACK
    # N(z) D(z+1) den_f(z) - num_f(z) N(z+1) D(z) = 0, N != 0
    Dz1 = D.shifted(1)
    z = Poly.variable()
    basis = []
    for k in range(deg_n + 1):
        basis.append(z ** k * Dz1 * f.den - (z + 1) ** k * D * f.num)
    nrows = max(b.degree for b in basis) + 1
    rows = [[b.coefficient(r) for b in basis] for r in range(nrows)]
    return _nonzero_kernel_vector(rows) is not None


# -- the hypergeometric search without pruning ------------------------------------


def _reference_monic_divisors(p: Poly) -> List[Poly]:
    _, facs = factor_poly(p)
    divisors = [Poly.one()]
    for fac, mult in facs:
        divisors = [d * fac ** e for d in divisors for e in range(mult + 1)]
    divisors.sort(key=lambda d: (d.degree, d.coeffs))
    return divisors


def _reference_poly_solutions(coeffs: Sequence[Poly], candidates: List[int]) -> List[Poly]:
    if not candidates:
        return []
    dmax = max(candidates)
    b = max(p.degree for p in coeffs)
    z = Poly.variable()
    images = []
    for e in range(dmax + 1):
        img = Poly.zero()
        for i, p in enumerate(coeffs):
            img = img + p * (z + i) ** e
        images.append(img)
    rows = [[RatFunc.constant(images[e].coefficient(r)) for e in range(dmax + 1)] for r in range(b + dmax + 1)]
    out = [Poly([entry.constant_value() for entry in v]) for v in Mat(rows).kernel()]
    return [p for p in out if not p.is_zero()]


def reference_search(coeffs: Sequence[Poly]) -> Iterator[Tuple[str, object, int]]:
    """`hyper._search` as it was before pruning: every divisor pair multiplied out."""
    m = len(coeffs) - 1
    a0, am = coeffs[0], coeffs[m]
    Bs = _reference_monic_divisors(am.shifted(-(m - 1)))
    for A in _reference_monic_divisors(a0):
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
                for C in _reference_poly_solutions(scaled, candidates):
                    xi = RatFunc.constant(c) * RatFunc(A, B) * RatFunc(C.shifted(1)) / RatFunc(C)
                    yield ("found", xi, cap)


def search_outcome(search, coeffs: Sequence[Poly]) -> Tuple[Optional[RatFunc], int, int]:
    """(first certificate or None, largest degree cap probed, number of probes) of a `_search`-like generator."""
    max_cap, probes = -1, 0
    for kind, xi, cap in search(coeffs):
        max_cap = max(max_cap, cap)
        if kind == "probe":
            probes += 1
        else:
            return xi, max_cap, probes
    return None, max_cap, probes
