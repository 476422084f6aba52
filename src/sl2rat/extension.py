"""Extensions of rational modules and the additive difference equation.

An extension of W'' by W' is assembled from a datum (B1, T): B1 is the
raising-side gluing map and T the twist-0 compatibility map; the remaining
lowering-side block is forced,

    Bm1(z) = [T(z) - A'(z) B1(z-1)] B''(z-1)^{-1},

and validity of the datum is certified by validating the assembled module
(the one check nothing can argue with).  When W'' is Casimir of level nu,
A''(z) B''(z-1) = pi_nu(z) Id, so B''(z-1)^{-1} = A''(z) / pi_nu(z) with no
elimination; its level is read off the Casimir matrix a validated W''
carries.  For same-level Casimir data the
module is again Casimir exactly when T = 0; otherwise the exponent is 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InvalidExtensionData, LevelMismatch, LevelOutsideBaseField, NotARepresentation
from .factor import FactorList
from .matrix import Mat
from .picard import iso_rank1
from .poly import Poly, pi_mu
from .ratfunc import RatFunc, as_ratfunc, partial_fractions
from .rep import (
    RationalRep,
    casimir_level,
    level_decompose,
    make_rep,
    require_casimir,
)
from .shifts import canonical_shift_rep

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class ExtDatum:
    """Sub, quotient, raising gluing map (twist +1), compatibility map (twist 0)."""

    left: RationalRep
    right: RationalRep
    B1: Mat
    T: Mat

    def __post_init__(self):
        mp, mq = self.left.dim, self.right.dim
        for name, m in (("B1", self.B1), ("T", self.T)):
            if m.shape != (mp, mq):
                raise ValueError(f"{name} must be {mp}x{mq}")


def ext_build(datum: ExtDatum) -> RationalRep:
    """Assemble the block-triangular module; InvalidExtensionData when it fails."""
    lp, rq = datum.left, datum.right
    nu = casimir_level(rq)
    inv = rq.B.shifted(-1).inverse() if nu is None else (RatFunc.one() / RatFunc(pi_mu(nu))) * rq.A
    Bm1 = (datum.T - lp.A * datum.B1.shifted(-1)) * inv
    try:
        return make_rep(_upper(lp.A, Bm1, rq.A), _upper(lp.B, datum.B1, rq.B))
    except NotARepresentation as exc:
        raise InvalidExtensionData(
            "assembled module fails the commutation identity"
        ) from exc


def _upper(top_left: Mat, top_right: Mat, bottom_right: Mat) -> Mat:
    """The block matrix [[top_left, top_right], [0, bottom_right]]."""
    zeros = (RatFunc.zero(),) * top_left.ncols
    return Mat._of(
        [left + right for left, right in zip(top_left.data, top_right.data)]
        + [zeros + row for row in bottom_right.data]
    )


def exponent_of(rep: RationalRep) -> int:
    """Exponent of a generalized Casimir module (single-level input)."""
    try:
        comps = level_decompose(rep)
    except LevelOutsideBaseField as exc:
        raise LevelMismatch("module has more than one level") from exc
    if len(comps) != 1:
        raise LevelMismatch("module has more than one level")
    return comps[0].exponent


def ext_is_casimir(datum: ExtDatum) -> bool:
    """For same-level Casimir data: Casimir iff T = 0, certified on the build.

    C - mu maps the extension into its sub and kills the sub, so
    (C - mu)^2 = 0: the exponent is 1 when C = mu * Id and 2 otherwise.  The
    build certifies the datum, and its Casimir matrix is scalar exactly
    when T = 0.
    """
    mu_l = require_casimir(datum.left)
    mu_r = require_casimir(datum.right)
    if mu_l != mu_r:
        raise LevelMismatch("extension data requires equal levels")
    t_zero = datum.T.is_zero()
    if (casimir_level(ext_build(datum)) == mu_l) != t_zero:
        raise ArithmeticError("the Casimir matrix must witness the T = 0 criterion")
    return t_zero


# -- the additive difference equation phi(z+1) - phi(z) = s(z) ----------------------


def _solve_add_poly(s: Poly) -> Poly:
    """The polynomial phi with phi(z+1) - phi(z) = s(z) and phi(0) = 0.

    Back-substitution from the top degree: the difference of c*z^k has
    degree k - 1 and leading coefficient c*k, so each step lowers deg s.
    """
    phi = Poly.zero()
    while not s.is_zero():
        k = s.degree + 1
        term = Poly.monomial(s.lead / k, k)
        phi = phi + term
        s = s - (term.shifted(1) - term)
    return phi


def solve_add_diff(s, *, factors: Optional[FactorList] = None) -> Optional[RatFunc]:
    """Solve phi(z+1) - phi(z) = s(z) in Q(z), or None.

    The polynomial part always telescopes; the proper part is solvable iff
    within every shift class and pole order the shifted principal parts sum
    to zero, in which case partial sums give the solution.  `factors`, when
    known, is the factor list of s's denominator (see `partial_fractions`).
    """
    s = as_ratfunc(s)
    poly_part, pieces = partial_fractions(s, factors=factors)
    phi = RatFunc(_solve_add_poly(poly_part))
    # group principal parts: class rep -> order j -> offset -> numerator eta
    # where the piece is eta(z - u) / rep(z - u)^j
    groups = {}
    for q, j, a in pieces:
        rep, u = canonical_shift_rep(q)
        eta = a.shifted(u)  # a(z) = eta(z - u), so eta(w) = a(w + u)
        groups.setdefault((rep, j), {})
        groups[(rep, j)][u] = groups[(rep, j)].get(u, Poly.zero()) + eta
    for (rep, j), per_offset in sorted(groups.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])):
        total = Poly.zero()
        for eta in per_offset.values():
            total = total + eta
        if not total.is_zero():
            return None
        # phi coefficients are partial sums: phi_v = sum_{u < v} s_u
        offsets = sorted(per_offset)
        partial = Poly.zero()
        for v in range(offsets[0] + 1, offsets[-1] + 1):
            partial = partial + per_offset.get(v - 1, Poly.zero())
            if not partial.is_zero():
                # term partial(z - v) / rep(z - v)^j
                phi = phi + RatFunc(partial.shifted(-v), rep.shifted(-v) ** j)
    result = phi
    if result.shifted(1) - result != s:
        raise ArithmeticError("constructed solution must verify exactly")
    return result


# -- rank-1 Ext class comparison ------------------------------------------------------


def ext_class_equal(
    rho1: RationalRep,
    rho2: RationalRep,
    b1,
    b2,
    T1: Scalar,
    T2: Scalar,
) -> str:
    """Compare extension classes of rank-1 same-level Casimir data.

    The constants T1, T2 are coordinates with respect to the canonical
    intertwiner t of the two carriers (t = 1 when they coincide).  Returns
    "Equal", "NotEqual", or "Unsupported" when the carriers are not
    isomorphic (only the isomorphic case reduces to the scalar difference
    equation).
    """
    mu1 = require_casimir(rho1)
    mu2 = require_casimir(rho2)
    if mu1 != mu2:
        raise LevelMismatch("extension classes live at a single level")
    b1, b2 = as_ratfunc(b1), as_ratfunc(b2)
    T1, T2 = Fraction(T1), Fraction(T2)
    # t with t(z)/t(z+1) = r2/r1; substituting phi = t*alpha reduces the
    # class equation to the plain telescoping equation below
    iso = iso_rank1(rho1, rho2)
    if iso.intertwiner is None:
        return "Unsupported"
    if T1 != T2:
        return "NotEqual"
    t = iso.intertwiner
    r1 = rho1.B[0, 0]
    s = t.shifted(1) * (b1 - b2) / r1
    return "Equal" if solve_add_diff(s) is not None else "NotEqual"
