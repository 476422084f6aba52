"""Rank-1 classification: Picard invariants, group law, intertwiners.

A one-dimensional module at level mu is determined by its raising function
r(z) up to the multiplicative difference relation r ~ r * t(z)/t(z+1).
The full invariant is (level, leading ratio, net multiset of shift classes
of the irreducible factors of r), stored symbolically.  It is a group
morphism, so two modules of equal level are isomorphic exactly when r2/r1
has the trivial invariant: `iso_rank1` solves t(z)/t(z+1) = r2/r1 once
and certifies the intertwiner t exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .factor import factor_poly
from .poly import Poly
from .ratfunc import RatFunc, as_ratfunc, leading_ratio
from .shifts import canonical_shift_rep

Scalar = Union[int, Fraction]

ClassItem = Tuple[Poly, int]


def _class_sort_key(item: ClassItem):
    poly, _ = item
    return (poly.degree, poly.coeffs)


@dataclass(frozen=True)
class PicInvariant:
    """(level, leading ratio, net shift-class multiplicities), all exact."""

    level: Fraction
    lead: Fraction
    classes: Tuple[ClassItem, ...]

    def __str__(self) -> str:
        cls = ", ".join(f"{p}: {m:+d}" for p, m in self.classes)
        return f"(level={self.level}, lead={self.lead}, {{{cls}}})"


def _canonical_classes(counts: Dict[Poly, int]) -> Tuple[ClassItem, ...]:
    items = [(p, m) for p, m in counts.items() if m != 0]
    items.sort(key=_class_sort_key)
    return tuple(items)


def pic_invariant(mu: Scalar, r) -> PicInvariant:
    """Factor r and accumulate net multiplicities per canonical shift class."""
    r = as_ratfunc(r)
    if r.is_zero():
        raise ValueError("invariants are defined for nonzero functions")
    counts = {rep: len(zeros) - len(poles) for rep, (zeros, poles) in _offset_multisets(r).items()}
    return PicInvariant(Fraction(mu), leading_ratio(r), _canonical_classes(counts))


def pic_identity() -> PicInvariant:
    return PicInvariant(Fraction(0), Fraction(1), ())


def section(mu: Scalar) -> PicInvariant:
    """The group-morphism section of the level map: mu -> class of (level mu, r = 1)."""
    return PicInvariant(Fraction(mu), Fraction(1), ())


def level_of(a: PicInvariant) -> Fraction:
    return a.level


def pic_mul(a: PicInvariant, b: PicInvariant) -> PicInvariant:
    counts = dict(a.classes)
    for p, m in b.classes:
        counts[p] = counts.get(p, 0) + m
    return PicInvariant(a.level + b.level, a.lead * b.lead, _canonical_classes(counts))


def pic_inverse(a: PicInvariant) -> PicInvariant:
    return PicInvariant(-a.level, 1 / a.lead, _canonical_classes({p: -m for p, m in a.classes}))


# -- the multiplicative difference equation t(z)/t(z+1) = f(z) --------------------


def _offset_multisets(f: RatFunc) -> Dict[Poly, Tuple[List[int], List[int]]]:
    """Per canonical class: (zero offsets, pole offsets) with multiplicity."""
    out: Dict[Poly, Tuple[List[int], List[int]]] = {}
    for poly, which in ((f.num, 0), (f.den, 1)):
        if poly.degree < 1:
            continue
        _, facs = factor_poly(poly)
        for fac, mult in facs:
            rep, a = canonical_shift_rep(fac)
            out.setdefault(rep, ([], []))[which].extend([a] * mult)
    return out


def solve_mult_diff(f) -> Optional[RatFunc]:
    """Solve t(z)/t(z+1) = f(z) in Q(z), or None when no solution exists.

    Solvable iff zeros and poles pair up under integer shifts with leading
    ratio one; the solution is assembled from shifted products of the
    canonical class representatives and normalized monic/monic.
    """
    f = as_ratfunc(f)
    if f.is_zero():
        raise ValueError("the equation needs a nonzero right-hand side")
    if leading_ratio(f) != 1:
        return None
    table = _offset_multisets(f)
    num = Poly.one()
    den = Poly.one()
    for rep in sorted(table, key=lambda p: (p.degree, p.coeffs)):
        zeros, poles = table[rep]
        if len(zeros) != len(poles):
            return None
        for u, v in zip(sorted(zeros), sorted(poles)):
            if u > v:
                for s in range(v + 1, u + 1):
                    num = num * rep.shifted(-s)
            elif v > u:
                for s in range(u + 1, v + 1):
                    den = den * rep.shifted(-s)
    t = RatFunc(num, den)
    if t / t.shifted(1) != f:
        raise ArithmeticError("constructed solution must verify exactly")
    return t


# -- rank-1 isomorphism testing ------------------------------------------------------


class IsoResult(NamedTuple):
    intertwiner: Optional[RatFunc]
    reason: Optional[str]  # None | "LevelMismatch" | "InvariantMismatch"


def _rank1_data(rep) -> Tuple[Fraction, RatFunc]:
    from .rep import casimir_level  # rep imports this module

    if rep.dim != 1:
        raise ValueError("expected a one-dimensional module")
    mu = casimir_level(rep)
    if mu is None:
        raise ValueError("one-dimensional module with non-constant Casimir")
    return mu, rep.B[0, 0]


def iso_rank1(r1rep, r2rep) -> IsoResult:
    """Intertwiner t with r2(z) t(z+1) = t(z) r1(z), or a reason code.

    Levels are compared first: a raising intertwiner can exist across
    levels even though the module Hom is zero, so the scalar test alone
    would be unsound.  Then `solve_mult_diff(r2 / r1)` decides by the group
    law; its monic/monic t is unique, as a 1-periodic ratio is constant.
    """
    mu1, r1 = _rank1_data(r1rep)
    mu2, r2 = _rank1_data(r2rep)
    if mu1 != mu2:
        return IsoResult(None, "LevelMismatch")
    t = solve_mult_diff(r2 / r1)
    if t is None:
        return IsoResult(None, "InvariantMismatch")
    if r2 * t.shifted(1) != t * r1:
        raise ArithmeticError("intertwiner must verify exactly")
    return IsoResult(t, None)
