"""Finite-dimensional rational sl(2)-modules over Q(z).

A representation is a pair of square matrices (A, B) over Q(z): A is the
matrix of the lowering operator (twist -1), B of the raising operator
(twist +1), with L_0 acting as multiplication by z.  Validity is the exact
commutation identity

    A(z) B(z-1) - B(z) A(z+1) = -2z * Id.

The Casimir matrix is C(z) = z(z-1) Id - A(z) B(z-1); its minimal
polynomial always has constant coefficients, which drives the level
decomposition, the canonical filtration, and everything downstream.

Modules built from outside data go through `make_rep`.  Its `validate` forms
P = A(z) B(z-1) once for three checks: the commutation residual (in
dimension 1, B(z) A(z+1) = P(z+1)), invertibility (det P = det A(z) det
B(z-1)) and C = z(z-1) Id - P, which the validated module carries and
`casimir_matrix` returns.  Subquotients are not re-validated: one rref of
[U | B U(z+1) | A U(z-1)] certifies the restriction to the span of U, and a
quotient or filtration step is a diagonal block of one restriction,
certified by the zero blocks below it.  A module that was not validated
forms C when asked.

The level split and the filtration skip what a theorem already settles.
When C is entry by entry mu * Id (the certificate `casimir_level` uses),
the module is one component of level mu and exponent 1, and its filtration
is one step whose quotient is the module itself.  When the minimal
polynomial is a single (t - mu)^e, (C - mu)^e = 0, so the generalized
eigenspace is the whole module.  In both cases the kernel and restriction
of the general path would return the unit basis and the same matrices.
Likewise the filtration restricts only when its nested basis is not the
unit basis; on the unit basis the steps are blocks of the module itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import (
    LevelMismatch,
    LevelOutsideBaseField,
    NonConstantMinpoly,
    NotARepresentation,
    NotCasimir,
    NotInvariant,
    NotPolynomial,
    PiMuIrreducible,
    SingularMatrix,
    SingularOperator,
)
from .factor import factor_poly
from .matrix import Mat
from .picard import pic_invariant
from .poly import Poly, _of_fractions, mu_roots, pi_mu, poly_lcm
from .ratfunc import RatFunc, as_ratfunc, pochhammer

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class RationalRep:
    """dim, matrix of L_{-1} (twist -1) and matrix of L_1 (twist +1)."""

    dim: int
    A: Mat
    B: Mat
    # C(z) = z(z-1) Id - A(z) B(z-1), set by `validate` only; no part of equality, hash or repr
    casimir: Optional[Mat] = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return f"RationalRep(dim={self.dim}, A={self.A}, B={self.B})"


@dataclass(frozen=True)
class PolynomialRep:
    """Representation with polynomial matrix entries (a free finite-type module)."""

    dim: int
    A: Mat
    B: Mat


@dataclass(frozen=True)
class LevelComponent:
    """One generalized-Casimir block of the level decomposition."""

    level: Fraction
    exponent: int
    basis: Mat  # ambient-coordinates columns spanning ker(C - level)^exponent
    rep: RationalRep  # the restricted representation


@dataclass(frozen=True)
class FiltrationStep:
    basis: Mat  # columns spanning V^i inside the component
    quotient: RationalRep  # V^i / V^{i-1}


@dataclass(frozen=True)
class Filtration:
    level: Fraction
    steps: Tuple[FiltrationStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def quotient_dims(self) -> Tuple[int, ...]:
        return tuple(s.quotient.dim for s in self.steps)


# -- construction and validation --------------------------------------------


_TWO_Z = RatFunc(Poly((0, 2)))
_ZZ = RatFunc(Poly((0, -1, 1)))  # z(z - 1)


def commutation_residual(A: Mat, B: Mat) -> Mat:
    """A(z) B(z-1) - B(z) A(z+1) + 2z Id; zero exactly on representations."""
    return A * B.shifted(-1) - B * A.shifted(1) + Mat.diag([_TWO_Z] * A.nrows)


def validate(rep: RationalRep) -> RationalRep:
    """Accept iff the commutation identity holds and both operators invert.

    P = A(z) B(z-1) serves all three checks: the residual P - B(z) A(z+1) +
    2z Id, where in dimension 1 B(z) A(z+1) = P(z+1) as 1x1 matrices commute;
    invertibility, as det P = det A(z) det B(z-1); and the Casimir matrix
    C = z(z-1) Id - P, which the accepted module carries.
    """
    A, B = rep.A, rep.B
    if A.nrows != A.ncols or B.nrows != B.ncols or A.nrows != B.nrows:
        raise ValueError("operator matrices must be square and of equal size")
    if A.nrows != rep.dim:
        raise ValueError("declared dimension disagrees with the matrices")
    n = rep.dim
    P = A * B.shifted(-1)
    residual = P - (P.shifted(1) if n == 1 else B * A.shifted(1)) + Mat.diag([_TWO_Z] * n)
    if not residual.is_zero():
        raise NotARepresentation(residual)
    if P.det().is_zero():
        raise SingularOperator("lowering/raising operator is singular")
    object.__setattr__(rep, "casimir", Mat.diag([_ZZ] * n) - P)
    return rep


def make_rep(A: Mat, B: Mat) -> RationalRep:
    return validate(RationalRep(A.nrows, A, B))


# -- Casimir analysis ---------------------------------------------------------


def casimir_matrix(rep: RationalRep) -> Mat:
    """C(z) = z(z-1) Id - A(z) B(z-1); commutes with both operators.

    A validated module carries C; any other (a restriction, a subquotient, a
    module built directly) forms it here.
    """
    if rep.casimir is not None:
        return rep.casimir
    return Mat.diag([_ZZ] * rep.dim) - rep.A * rep.B.shifted(-1)


def _constant_entry(f: RatFunc) -> Optional[Fraction]:
    if f.is_constant():
        return f.constant_value()
    return None


def _scalar_level(C: Mat) -> Optional[Fraction]:
    """mu when C = mu * Id entry by entry, else None."""
    mu = _constant_entry(C[0, 0])
    if mu is None:
        return None
    n = C.nrows
    for i in range(n):
        for j in range(n):
            want = mu if i == j else 0
            if C[i, j] != RatFunc.constant(want):
                return None
    return mu


def casimir_level(rep: RationalRep) -> Optional[Fraction]:
    """The level when the rep is Casimir (C = mu * Id), else None."""
    return _scalar_level(casimir_matrix(rep))


def is_casimir(rep: RationalRep) -> bool:
    return casimir_level(rep) is not None


def require_casimir(rep: RationalRep) -> Fraction:
    mu = casimir_level(rep)
    if mu is None:
        raise NotCasimir("operation requires a Casimir module")
    return mu


def casimir_minpoly(rep: RationalRep) -> Poly:
    """Minimal polynomial of the Casimir matrix, returned over Q in t.

    Computed as the lcm of Krylov local minimal polynomials; a non-constant
    coefficient raises NonConstantMinpoly (impossible for valid reps).
    """
    C = casimir_matrix(rep)
    n = C.nrows
    mp = Poly.one()
    for start in range(n):
        if mp.degree == n:
            break
        # e, Ce, ..., C^n e: the pivots of one rref are 0..d-1, and its
        # column d writes C^d e in the first d vectors
        v = Mat.column([1 if i == start else 0 for i in range(n)])
        krylov = [v.col(0)]
        for _ in range(n):
            v = C * v
            krylov.append(v.col(0))
        R, pivots = Mat.from_columns(krylov).rref()
        d = len(pivots)
        coeffs = []
        for i in range(d):
            c = _constant_entry(R[i, d])
            if c is None:
                raise NonConstantMinpoly("local minimal polynomial has non-constant coefficients")
            coeffs.append(-c)
        mp = poly_lcm(mp, _of_fractions(coeffs + [Fraction(1)]))
    return mp


# -- constructors -----------------------------------------------------------------


def rank1(mu: Scalar, r) -> RationalRep:
    """The one-dimensional module with raising matrix r(z)."""
    r = as_ratfunc(r)
    if r.is_zero():
        raise ValueError("rank-1 modules need a nonzero rational function")
    pimu = RatFunc(pi_mu(mu))
    A = Mat([[pimu / r.shifted(-1)]])
    B = Mat([[r]])
    return make_rep(A, B)


def casimir_from_L1(mu: Scalar, B: Mat) -> RationalRep:
    """Casimir module of level mu determined by an invertible raising matrix."""
    try:
        inv = B.shifted(-1).inverse()
    except SingularMatrix as exc:
        raise SingularOperator("raising matrix is singular") from exc
    A = RatFunc(pi_mu(mu)) * inv
    return make_rep(A, B)


def direct_sum(r1: RationalRep, r2: RationalRep) -> RationalRep:
    return make_rep(Mat.block_diag([r1.A, r2.A]), Mat.block_diag([r1.B, r2.B]))


def conjugate(rep: RationalRep, T: Mat) -> RationalRep:
    """Change of presentation: B -> T(z) B(z) T(z+1)^-1, A -> T(z) A(z) T(z-1)^-1."""
    Tinv = T.inverse()  # shifting commutes with inversion
    return make_rep(T * rep.A * Tinv.shifted(-1), T * rep.B * Tinv.shifted(1))


def level_shift(rep: RationalRep, nu: Scalar) -> RationalRep:
    """Move a Casimir module of level mu to the isomorphic category at level nu."""
    mu = require_casimir(rep)
    factor = RatFunc(pi_mu(nu)) / RatFunc(pi_mu(mu))
    return make_rep(factor * rep.A, rep.B)


def cyclic_orbit(mu: Scalar, r, m: int) -> RatFunc:
    """Coefficient of the m-th orbit vector of the cyclic generator w = 1."""
    r = as_ratfunc(r)
    if r.is_zero():
        raise ValueError("rank-1 modules need a nonzero rational function")
    if m >= 0:
        return pochhammer(r, m)
    xi = r / RatFunc(pi_mu(mu).shifted(1))
    return pochhammer(xi, m)


# -- invariant subspaces, restriction, quotient ----------------------------------


def _independent_columns(cols: List[Tuple[RatFunc, ...]]) -> List[Tuple[RatFunc, ...]]:
    """The columns at the pivots of one rref: each column not in the span of those before it."""
    _, pivots = Mat.from_columns(cols).rref()
    return [cols[j] for j in pivots]


def restrict_to_invariant_subspace(rep: RationalRep, basis: Mat) -> RationalRep:
    """Representation on the column span of `basis`; NotInvariant when not closed.

    `rep` must be a module.  Certificate: one rref of [P | B P(z+1) | A P(z-1)]
    shows P of full column rank and gives P Bres = B P(z+1), P Ares = A P(z-1),
    so P residual(Ares, Bres) = residual(A, B) P = 0.
    """
    k = basis.ncols
    R, pivots = basis.hstack(rep.B * basis.shifted(1)).hstack(rep.A * basis.shifted(-1)).rref()
    if pivots[:k] != tuple(range(k)):
        raise ValueError("basis columns must be independent")
    if len(pivots) > k:
        raise NotInvariant("column span is not closed under the operators")
    return RationalRep(k, R.submatrix(range(k), range(2 * k, 3 * k)), R.submatrix(range(k), range(k, 2 * k)))


def _complete_basis(P: Mat) -> Mat:
    """Extend the columns of P by unit vectors to an invertible matrix; ValueError when they are dependent."""
    cols = P.columns()
    chosen = _independent_columns(cols + Mat.identity(P.nrows).columns())
    if chosen[: len(cols)] != cols:
        raise ValueError("basis columns must be independent")
    return Mat.from_columns(chosen)


def _diagonal_block(rep: RationalRep, lo: int, hi: int) -> RationalRep:
    """Rows and columns lo..hi-1 of `rep`: the module span(e_1..e_hi) / span(e_1..e_lo).

    NotInvariant unless both spans are closed, i.e. the rows below lo and
    below hi of both operators vanish in the columns before them.
    """
    n = rep.dim
    for k in (lo, hi):
        if any(not M[i, j].is_zero() for M in (rep.A, rep.B) for i in range(k, n) for j in range(k)):
            raise NotInvariant("column span is not closed under the operators")
    rng = range(lo, hi)
    return RationalRep(hi - lo, rep.A.submatrix(rng, rng), rep.B.submatrix(rng, rng))


def quotient_by_invariant_subspace(rep: RationalRep, basis: Mat) -> RationalRep:
    """Representation on the quotient by the column span of `basis`.

    `rep` must be a module.  Completing `basis` by unit vectors to U, the
    restriction to the columns of U (one rref) writes the module in the
    basis U.  The quotient is its lower diagonal block, certified by the
    zero block to its left; a diagonal block of a block-triangular module is
    a module (det A = det A11 * det A22).
    """
    U = _complete_basis(basis)
    return _diagonal_block(restrict_to_invariant_subspace(rep, U), basis.ncols, rep.dim)


# -- level decomposition and canonical filtration --------------------------------


def level_decompose(rep: RationalRep) -> List[LevelComponent]:
    """Split into generalized Casimir components along the Casimir minpoly.

    A single level is the whole module on the unit basis (module docstring).
    """
    C = casimir_matrix(rep)
    mu = _scalar_level(C)
    if mu is not None:
        return [LevelComponent(mu, 1, Mat.identity(rep.dim), rep)]
    _, facs = factor_poly(casimir_minpoly(rep))
    for fac, _ in facs:
        if fac.degree > 1:
            raise LevelOutsideBaseField(fac)
    levels = sorted((-fac.coefficient(0), mult) for fac, mult in facs)
    if len(levels) == 1:
        mu, mult = levels[0]
        return [LevelComponent(mu, mult, Mat.identity(rep.dim), rep)]
    out = []
    total = 0
    for mu, mult in levels:
        M = C - Mat.diag([RatFunc.constant(mu)] * rep.dim)
        Mp = Mat.identity(rep.dim)
        for _ in range(mult):
            Mp = Mp * M
        basis_vectors = Mp.kernel()
        basis = Mat.from_columns(basis_vectors)
        sub = restrict_to_invariant_subspace(rep, basis)
        out.append(LevelComponent(mu, mult, basis, sub))
        total += basis.ncols
    if total != rep.dim:
        raise ArithmeticError("component dimensions must sum to the total")
    return out


def canonical_filtration(comp: LevelComponent) -> Filtration:
    """V^i = ker(C - mu)^i inside the component; quotients are Casimir of level mu.

    An exponent-1 component with C = mu Id is its own single quotient; any
    other component, consistent or not, takes the general loop.  When the
    nested basis comes out as the unit basis (ker(C - mu) = span(e_1) on an
    extension with T != 0), the restriction to it would return the
    component's own matrices, so the steps are blocks of the component.
    """
    rep = comp.rep
    mu = comp.level
    C = casimir_matrix(rep)
    if comp.exponent == 1 and _scalar_level(C) == mu:
        return Filtration(mu, (FiltrationStep(Mat.identity(rep.dim), rep),))
    N = C - Mat.diag([RatFunc.constant(mu)] * rep.dim)
    cols: List[Tuple[RatFunc, ...]] = []
    dims = [0]  # dim V^i
    Np = Mat.identity(rep.dim)
    for _ in range(comp.exponent):
        Np = Np * N
        ker = Np.kernel()
        if not ker:  # only the first kernel can be empty; the later ones contain it
            raise LevelMismatch(f"{mu} is not an eigenvalue of the component's Casimir matrix")
        # extend the nested basis with kernel vectors that add rank
        cols = _independent_columns(cols + ker)
        if len(cols) != len(ker):
            raise ArithmeticError("kernel basis extension lost rank")
        if len(cols) == dims[-1]:  # the exponent passes the nilpotency index of C - mu
            raise ArithmeticError("filtration step must add rank")
        dims.append(len(cols))
    # the bases are nested, so V^i / V^(i-1) is one diagonal block of one restriction;
    # an exponent below 1 makes no step and fails the exhaust check below
    sub, C_sub = rep, C
    if cols and cols != Mat.identity(rep.dim).columns():
        sub = restrict_to_invariant_subspace(rep, Mat.from_columns(cols))
        C_sub = casimir_matrix(sub)
    steps: List[FiltrationStep] = []
    for lo, hi in zip(dims, dims[1:]):
        quotient = _diagonal_block(sub, lo, hi)
        # both operators are block upper triangular, so the quotient's Casimir matrix is this diagonal block of C_sub
        if _scalar_level(C_sub.submatrix(range(lo, hi), range(lo, hi))) != mu:
            raise ArithmeticError("filtration quotient must be Casimir of the component level")
        if steps and quotient.dim > steps[-1].quotient.dim:
            raise AssertionError("filtration quotient dimensions must be non-increasing")
        steps.append(FiltrationStep(Mat.from_columns(cols[:hi]), quotient))
    if dims[-1] != rep.dim:
        raise ArithmeticError("filtration must exhaust the component")
    return Filtration(mu, tuple(steps))


# -- rank-1 polynomial families and rationalization ------------------------------


_KINDS = ("I", "II", "III", "IV")


def _split_pi_mu(mu: Fraction) -> Tuple[Poly, Poly]:
    roots = mu_roots(mu)
    if roots is None:
        raise PiMuIrreducible(f"z^2 - z - ({mu}) has no rational roots")
    hi, lo = roots
    z = Poly.variable()
    return z - hi, z - lo  # (alpha, beta), larger root first


def poly_rank1(kind: str, mu: Scalar, gamma: Scalar) -> PolynomialRep:
    """The four rank-1 polynomial families; II/III need pi_mu to split."""
    mu = Fraction(mu)
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    pim = pi_mu(mu)
    if kind == "I":
        a, b = Poly.constant(1 / gamma), gamma * pim.shifted(1)
    elif kind == "IV":
        a, b = (1 / gamma) * pim, Poly.constant(gamma)
    else:
        alpha, beta = _split_pi_mu(mu)
        if kind == "II":
            a, b = (1 / gamma) * beta, gamma * alpha.shifted(1)
        else:
            a, b = (1 / gamma) * alpha, gamma * beta.shifted(1)
    rep = PolynomialRep(1, Mat([[RatFunc(a)]]), Mat([[RatFunc(b)]]))
    validate_polynomial(rep)
    return rep


def validate_polynomial(rep: PolynomialRep) -> PolynomialRep:
    for mat in (rep.A, rep.B):
        for row in mat.data:
            for e in row:
                if not e.is_polynomial():
                    raise NotPolynomial(f"entry {e} is not polynomial")
    residual = commutation_residual(rep.A, rep.B)
    if not residual.is_zero():
        raise NotARepresentation(residual)
    return rep


def rationalize(rep: PolynomialRep) -> RationalRep:
    """Localize to the function field: same matrices, revalidated."""
    validate_polynomial(rep)
    return make_rep(rep.A, rep.B)


def classify_rank1(rep: RationalRep):
    """Match a rank-1 module against the rationalized polynomial families.

    Returns a list of (kind, gamma) pairs, every family whose invariant
    matches; the empty list means the module is not a rationalization of a
    rank-1 polynomial module.  Kinds II and III can both appear when the
    two linear factors are shift-equivalent.
    """
    if rep.dim != 1:
        raise ValueError("classification applies to one-dimensional modules")
    mu = require_casimir(rep)
    r = rep.B[0, 0]
    inv = pic_invariant(mu, r)
    bases = {"I": RatFunc(pi_mu(mu).shifted(1)), "IV": RatFunc.one()}
    if mu_roots(mu) is not None:
        alpha, beta = _split_pi_mu(mu)
        bases["II"] = RatFunc(alpha.shifted(1))
        bases["III"] = RatFunc(beta.shifted(1))
    matches = []
    for kind in _KINDS:
        base = bases.get(kind)
        if base is None:
            continue
        base_inv = pic_invariant(mu, base)
        if base_inv.classes == inv.classes:
            matches.append((kind, inv.lead / base_inv.lead))
    return matches
