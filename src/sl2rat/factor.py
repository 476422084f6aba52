"""Irreducible factorization of univariate polynomials over the rationals.

Degree 1 and 2 have a closed form on the primitive integer polynomial
c + b z + a z^2 (a > 0): a linear polynomial is its own monic factor, and a
quadratic splits over Q exactly when its discriminant d = b^2 - 4ac is a
perfect square (`math.isqrt(d)**2 == d`, the exact certificate), into
z + (b -+ sqrt(d))/2a, which is one double factor when d = 0.

Higher degrees: Yun squarefree decomposition; the closed form serves every
squarefree part of degree <= 2, and Zassenhaus every larger one (factor mod
a good odd prime with distinct-degree / Cantor-Zassenhaus splitting,
quadratic multifactor Hensel lifting up to a Mignotte-style bound, subset
recombination with exact trial division over Z, which runs through
`poly._int_pdivmod` like every other integer division; after a split the
same subset size is tried again on the factors that remain).  One set
of dense (Z/m)[x] helpers serves both the factoring mod p (m = p) and the
Hensel lifting mod p^k: division needs only that the divisor's lead is a
unit mod m.  Everything is deterministic: primes are probed in increasing
order, the equal-degree splitter draws from a fixed-seed generator, and
factor lists are sorted.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import Poly, poly_gcd, _int_pdivmod, _int_primitive, _make, _raw, _to_int_primitive

IntPoly = Tuple[int, ...]


# -- arithmetic in (Z/m)[x], dense ascending int lists ---------------------


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zm_red(a: Sequence[int], m: int) -> List[int]:
    return _trim([c % m for c in a])


def _zm_add(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def _zm_sub(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def _zm_mul(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return _trim(out)


def _zm_scale(a: Sequence[int], c: int, m: int) -> List[int]:
    return _trim([(v * c) % m for v in a])


def _zm_monic(a: Sequence[int], m: int) -> List[int]:
    if not a:
        return []
    return _zm_scale(a, pow(a[-1], -1, m), m)


def _zm_divmod(a: Sequence[int], b: Sequence[int], m: int) -> Tuple[List[int], List[int]]:
    """Division in (Z/m)[x]; the lead of b must be a unit mod m."""
    if not b:
        raise ZeroDivisionError("division by zero in (Z/m)[x]")
    rem = list(a)
    db = len(b) - 1
    inv_lb = pow(b[-1], -1, m)
    if len(rem) - 1 < db:
        return [], _trim(rem)
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = (rem[k + db] * inv_lb) % m
        quo[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bc) % m
    return _trim(quo), _trim(rem)


def _zm_rem(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    return _zm_divmod(a, b, m)[1]


def _zm_gcd(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _zm_rem(a, b, p)
    return _zm_monic(a, p)


def _zm_xgcd(a: Sequence[int], b: Sequence[int], p: int):
    """Extended gcd mod a prime: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zm_sub(s0, _zm_mul(q, s1, p), p)
        t0, t1 = t1, _zm_sub(t0, _zm_mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return _zm_scale(r0, inv, p), _zm_scale(s0, inv, p), _zm_scale(t0, inv, p)


def _zm_pow_mod(a: Sequence[int], e: int, mod: Sequence[int], m: int) -> List[int]:
    result = [1]
    base = _zm_rem(a, mod, m)
    while e:
        if e & 1:
            result = _zm_rem(_zm_mul(result, base, m), mod, m)
        base = _zm_rem(_zm_mul(base, base, m), mod, m)
        e >>= 1
    return result


def _zm_deriv(a: Sequence[int], m: int) -> List[int]:
    return _trim([(i * c) % m for i, c in enumerate(a)][1:])


# -- factorization in GF(p)[x] -------------------------------------------


def _distinct_degree(f: List[int], p: int) -> List[Tuple[List[int], int]]:
    """f monic squarefree mod p; returns [(product of degree-d factors, d)]."""
    out = []
    h = [0, 1]
    fcur = list(f)
    d = 0
    while len(fcur) - 1 >= 2 * (d + 1):
        d += 1
        h = _zm_pow_mod(h, p, fcur, p)
        g = _zm_gcd(_zm_sub(h, [0, 1], p), fcur, p)
        if len(g) > 1:
            out.append((g, d))
            fcur, r = _zm_divmod(fcur, g, p)
            if r:
                raise ArithmeticError("distinct-degree factor does not divide")
            h = _zm_rem(h, fcur, p)
    if len(fcur) > 1:
        out.append((fcur, len(fcur) - 1))
    return out


def _equal_degree(f: List[int], d: int, p: int, rng: random.Random) -> List[List[int]]:
    """Cantor-Zassenhaus split of monic squarefree f into degree-d factors (p odd)."""
    n = len(f) - 1
    if n == d:
        return [_zm_monic(f, p)]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if not a:
            continue
        g = _zm_gcd(a, f, p)
        if len(g) == 1:
            g = _zm_gcd(_zm_sub(_zm_pow_mod(a, e, f, p), [1], p), f, p)
            if len(g) in (1, len(f)):
                continue
        right, r = _zm_divmod(f, g, p)
        if r:
            raise ArithmeticError("equal-degree split does not divide")
        return _equal_degree(g, d, p, rng) + _equal_degree(right, d, p, rng)


def _gf_factor_squarefree(f: List[int], p: int, rng: random.Random) -> List[List[int]]:
    out: List[List[int]] = []
    for g, d in _distinct_degree(_zm_monic(f, p), p):
        out.extend(_equal_degree(g, d, p, rng))
    return sorted(out)


# -- Hensel lifting --------------------------------------------------------


def _hensel_step(m: int, f, g, h, s, t):
    """One quadratic Hensel step: lifts f = g*h and s*g + t*h = 1 from mod m to mod m^2."""
    m2 = m * m
    e = _zm_sub(f, _zm_mul(g, h, m2), m2)
    q, r = _zm_divmod(_zm_mul(s, e, m2), h, m2)
    g1 = _zm_add(_zm_add(g, _zm_mul(t, e, m2), m2), _zm_mul(q, g, m2), m2)
    h1 = _zm_add(h, r, m2)
    b = _zm_sub(_zm_add(_zm_mul(s, g1, m2), _zm_mul(t, h1, m2), m2), [1], m2)
    c, d = _zm_divmod(_zm_mul(s, b, m2), h1, m2)
    s1 = _zm_sub(s, d, m2)
    t1 = _zm_sub(_zm_sub(t, _zm_mul(t, b, m2), m2), _zm_mul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _pow_at_least(p: int, target: int) -> int:
    """The least p^(2^k) that is >= target."""
    m = p
    while m < target:
        m = m * m
    return m


def _hensel_lift_list(f: List[int], lc: int, facs: List[List[int]], p: int, target: int) -> List[List[int]]:
    """Lift monic factors mod p of f (lc*prod(facs) = f mod p) to mod m = _pow_at_least(p, target).

    Returns monic factors mod m; f = lc * prod(factors) mod m.
    """
    m = _pow_at_least(p, target)
    if len(facs) == 1:
        return [_zm_scale(f, pow(lc, -1, m), m)]
    half = len(facs) // 2
    gs, hs = facs[:half], facs[half:]
    g = [lc % p]
    for u in gs:
        g = _zm_mul(g, u, p)
    h = [1]
    for u in hs:
        h = _zm_mul(h, u, p)
    gg, s, t = _zm_xgcd(g, h, p)
    if gg != [1]:
        raise ArithmeticError("mod-p factors are not coprime")
    f = _zm_red(f, m)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(q, f, g, h, s, t)
        q = q * q
    return _hensel_lift_list(g, lc, gs, p, target) + _hensel_lift_list(h, 1, hs, p, target)


# -- Zassenhaus over Z ------------------------------------------------------


def _primes():
    """The odd primes in increasing order."""
    n = 3
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _symmetric(a: Sequence[int], m: int) -> List[int]:
    half = m // 2
    return [c - m if c > half else c for c in a]


def _factor_squarefree_int(f: IntPoly) -> List[IntPoly]:
    """Irreducible factors (primitive, positive lead) of a primitive squarefree int poly."""
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [f]
    lc = f[-1]
    rng = random.Random(0x51A7)
    for p in _primes():
        if lc % p == 0:
            continue
        fp = _zm_red(f, p)
        if len(_zm_gcd(fp, _zm_deriv(fp, p), p)) == 1:
            break
    mod_facs = _gf_factor_squarefree(fp, p, rng)
    if len(mod_facs) == 1:
        return [f]
    # Mignotte-style bound on coefficients of lc * (any monic rational factor)
    norm2_above = math.isqrt(sum(c * c for c in f)) + 1  # an integer above the 2-norm of f
    bound = 2 * abs(lc) * (2 ** n) * norm2_above + 1
    lifted = _hensel_lift_list(list(f), lc, mod_facs, p, bound)
    m = _pow_at_least(p, bound)

    # f is the cofactor still to split and index lists its lifted factors;
    # after a split the same subset size is tried again on what remains
    result: List[IntPoly] = []
    index = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(index):
        for combo in itertools.combinations(index, size):
            g = [f[-1] % m]
            for i in combo:
                g = _zm_mul(g, lifted[i], m)
            cand = _int_primitive(_symmetric(g, m))
            quo, rem, scale = _int_pdivmod(f, cand)
            if scale == 1 and not rem:  # cand divides f in Z[x]
                result.append(cand)
                f = quo
                index = [i for i in index if i not in combo]
                break
        else:
            size += 1
    return result + [_int_primitive(f)]


def squarefree_decomposition(p: Poly) -> List[Tuple[Poly, int]]:
    """Yun's algorithm: monic p = prod g_i^i with g_i monic squarefree coprime."""
    f = p.monic()
    if f.degree < 1:
        return []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f // a
    c = df // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
        i += 1
    return out


def _closed_form(p: Poly) -> List[Tuple[Poly, int]]:
    """`factor_poly`'s factor list for p of degree 1 or 2; a quadratic is read off its discriminant."""
    if p.degree == 1:
        return [(p.monic(), 1)]
    c, b, a = _to_int_primitive(p)
    d = b * b - 4 * a * c
    s = math.isqrt(d) if d >= 0 else -1
    if s * s != d:
        return [(p.monic(), 1)]
    # z - root = z + (b -+ s)/2a; with a > 0 and s >= 0 the "-" factor sorts first
    a2 = 2 * a
    low = _make([b - s, a2], a2)
    if s == 0:
        return [(low, 2)]
    return [(low, 1), (_make([b + s, a2], a2), 1)]


def factor_poly(p: Poly) -> Tuple[Fraction, List[Tuple[Poly, int]]]:
    """Factor over Q: returns (leading coefficient, [(monic irreducible, multiplicity)]).

    The product of factors times the lead reconstructs p exactly.  Factors
    are in `Poly.sort_key` order.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lead = p.lead
    if p.degree == 0:
        return lead, []
    out: List[Tuple[Poly, int]] = []
    for part, mult in [(p, 1)] if p.degree <= 2 else squarefree_decomposition(p):
        if part.degree <= 2:
            out += [(fac, e * mult) for fac, e in _closed_form(part)]
        else:
            out += [(_raw(fac, 1).monic(), mult) for fac in _factor_squarefree_int(_to_int_primitive(part))]
    out.sort(key=lambda fm: fm[0].sort_key())
    return lead, out


FactorList = List[Tuple[Poly, int]]

Factors = Tuple[FactorList, FactorList]  # numerator and denominator factor lists


def _factor_list(p: Poly) -> FactorList:
    """factor_poly(p)[1] for a nonconstant p; degree 1 and 2 read the closed form directly."""
    return _closed_form(p) if p.degree <= 2 else factor_poly(p)[1]


def factor_operands(items: Iterable[Tuple[Poly, int]]) -> Factors:
    """Factor lists of the numerator and denominator of c * prod(p ** e for p, e in items).

    Equal operands are merged and cancelled first, then each distinct one
    left is factored once (by the closed form up to degree 2, by
    `factor_poly` above it) and the irreducibles are merged across the
    numerator and the denominator.  Factorization over Q[z] is unique, so
    for a nonzero product with canonical sides num/den the result is
    (factor_poly(num)[1], factor_poly(den)[1]); `check_factors` certifies it.
    """
    net: Dict[Poly, int] = {}
    for p, e in items:
        if p.degree > 0:
            net[p] = net.get(p, 0) + e
    counts: Dict[Poly, int] = {}
    for p, e in net.items():
        if e:
            for q, m in _factor_list(p):
                counts[q] = counts.get(q, 0) + m * e
    ordered = sorted(counts.items(), key=lambda qm: qm[0].sort_key())
    return [(q, m) for q, m in ordered if m > 0], [(q, -m) for q, m in ordered if m < 0]


def factor_within(p: Poly, cover: Iterable[Poly]) -> FactorList:
    """factor_poly(p)[1] for a p whose irreducible factors all divide polynomials in `cover`.

    The candidates are the irreducible factors of the cover, each distinct
    cover polynomial factored once; the multiplicity of each in p is found by
    exact trial division.  `check_factors` certifies the result.
    """
    if p.degree < 1:
        return []
    candidates = {q for c in dict.fromkeys(cover) if c.degree > 0 for q, _ in _factor_list(c)}
    out: FactorList = []
    for q in sorted(candidates, key=Poly.sort_key):
        m = 0
        while p.degree >= q.degree:
            quo, rem = divmod(p, q)
            if rem:
                break
            p, m = quo, m + 1
        if m:
            out.append((q, m))
    return out


def check_factors(p: Poly, factors: FactorList) -> None:
    """ArithmeticError unless p is its lead times the product of `factors`: the exact certificate."""
    product = Poly.one()
    for q, m in factors:
        product = product * q ** m
    if p.monic() != product:
        raise ArithmeticError("the given factors must multiply back to the polynomial")


def certified_factors(p: Poly, given: Optional[FactorList] = None) -> FactorList:
    """factor_poly(p)[1], or `given`, a factor list from outside, once `check_factors` certifies it."""
    if given is None:
        return factor_poly(p)[1] if p.degree > 0 else []
    check_factors(p, given)
    return given


def monic_divisors(p: Poly) -> List[Poly]:
    """All monic divisors of p over Q in `Poly.sort_key` order, starting with 1.

    The sort key scales every divisor's integer numerators to one common
    denominator, which orders them as their `Fraction` coefficients would.
    """
    _, facs = factor_poly(p)
    divisors = [Poly.one()]
    for fac, mult in facs:
        divisors = [d * fac ** e for d in divisors for e in range(mult + 1)]
    denom = math.lcm(*(d._denom for d in divisors))
    divisors.sort(key=lambda d: (d.degree, tuple(c * (denom // d._denom) for c in d._ints)))
    return divisors


def rational_roots(p: Poly) -> List[Fraction]:
    """Rational roots (with multiplicity collapsed), sorted ascending."""
    _, facs = factor_poly(p)
    return sorted(-f.coefficient(0) for f, _ in facs if f.degree == 1)
