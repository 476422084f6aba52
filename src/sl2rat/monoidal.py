"""Closed symmetric monoidal structure: tensor, internal Hom, dual, unit.

Both constructions are defined componentwise after level decomposition.
On a pair of Casimir components of levels mu1, mu2 the raising operators
multiply (Kronecker) and the lowering side is the classical scalar twist
pi_{mu1+mu2} / (pi_{mu1} pi_{mu2}) times A1 (x) A2.  On generalized
components (exponent >= 2) that scalar form cannot satisfy the commutation
identity (a non-constant scalar times a nilpotent part is not
shift-central), so the lowering operator is assembled from the defining
product instead:

    A_t(z) = (pi_{mu1+mu2}(z) Id - N1 (x) Id - Id (x) N2) (B_t(z-1))^{-1},

with N_i the nilpotent parts.  This agrees entry-for-entry with the scalar
formula on Casimir components, always validates, and has nilpotent part
N1 (x) Id + Id (x) N2 of exponent <= n1 + n2 - 1.  Vectorization of Hom
carriers is column-major: vec stacks the columns of an (m2 x m1) matrix.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Tuple

from .matrix import Mat
from .poly import pi_mu
from .ratfunc import RatFunc
from .rep import (
    LevelComponent,
    RationalRep,
    casimir_matrix,
    level_decompose,
    make_rep,
    rank1,
)


def unit() -> RationalRep:
    """The monoidal unit: the level-0 module with r = 1."""
    return rank1(0, 1)


def _nilpotent_part(comp: LevelComponent) -> Mat:
    return casimir_matrix(comp.rep) - Mat.diag([RatFunc.constant(comp.level)] * comp.rep.dim)


def _complete(mu: Fraction, B: Mat, M: Mat) -> Tuple[Mat, Mat]:
    """(A, B) with A(z) = (pi_mu(z) Id - M) B(z-1)^{-1}."""
    D = Mat.diag([RatFunc(pi_mu(mu))] * B.nrows) - M
    return D * B.shifted(-1).inverse(), B


def _tensor_components(c1: LevelComponent, c2: LevelComponent) -> Tuple[Mat, Mat]:
    B = c1.rep.B.kron(c2.rep.B)
    n1, n2 = c1.rep.dim, c2.rep.dim
    M = _nilpotent_part(c1).kron(Mat.identity(n2)) + Mat.identity(n1).kron(_nilpotent_part(c2))
    return _complete(c1.level + c2.level, B, M)


def _hom_components(c1: LevelComponent, c2: LevelComponent) -> Tuple[Mat, Mat]:
    A1, B2 = c1.rep.A, c2.rep.B
    n1, n2 = c1.rep.dim, c2.rep.dim
    # L1 on the carrier of (m2 x m1) matrices Phi, vectorized column-major:
    #   Phi -> (1/pi_{mu1}(z+1)) B2(z) Phi(z+1) A1(z+1)
    b_scale = RatFunc.one() / RatFunc(pi_mu(c1.level).shifted(1))
    B = b_scale * A1.shifted(1).transpose().kron(B2)
    M = _nilpotent_part(c1).transpose().kron(Mat.identity(n2)) + Mat.identity(n1).kron(
        _nilpotent_part(c2)
    )
    return _complete(c2.level - c1.level, B, M)


def _pairwise(
    r1: RationalRep,
    r2: RationalRep,
    combine: Callable[[LevelComponent, LevelComponent], Tuple[Mat, Mat]],
) -> RationalRep:
    """Direct sum of the component blocks, validated once as a whole."""
    comps2 = level_decompose(r2)
    blocks = [combine(c1, c2) for c1 in level_decompose(r1) for c2 in comps2]
    return make_rep(Mat.block_diag([A for A, _ in blocks]), Mat.block_diag([B for _, B in blocks]))


def tensor(r1: RationalRep, r2: RationalRep) -> RationalRep:
    """Tensor product; dimensions multiply, Casimir levels add."""
    return _pairwise(r1, r2, _tensor_components)


def internal_hom(r1: RationalRep, r2: RationalRep) -> RationalRep:
    """Internal Hom; on Casimir components the levels subtract (mu2 - mu1)."""
    return _pairwise(r1, r2, _hom_components)


def dual(rep: RationalRep) -> RationalRep:
    """Hom into the unit; at rank 1 this inverts the Picard invariant."""
    return internal_hom(rep, unit())
