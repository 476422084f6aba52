"""Exact symbolic computation with finite-dimensional rational sl(2)-modules.

Everything is exact over the rationals: the scalar field is Q(z) with
arbitrary-precision coefficients, representations are pairs of matrices
subject to the commutation identity, and the high-level operations
(Casimir analysis, level decomposition, canonical filtrations, devissage
into Grothendieck-group classes, Picard invariants, tensor/Hom/dual,
extension building, difference-equation solvers) all return certificates
that verify by substitution.
"""

from .errors import (
    CyclicVectorNotFound,
    InvalidExtensionData,
    LevelMismatch,
    LevelOutsideBaseField,
    NonConstantMinpoly,
    NotARepresentation,
    NotCasimir,
    NotInvariant,
    NotPolynomial,
    ParseError,
    PiMuIrreducible,
    SingularMatrix,
    SingularOperator,
    Sl2RatError,
    ZeroDenominator,
)
from .extension import (
    ExtDatum,
    exponent_of,
    ext_build,
    ext_class_equal,
    ext_is_casimir,
    solve_add_diff,
)
from .factor import factor_poly, monic_divisors, squarefree_decomposition
from .k0 import (
    DevissageTree,
    FactorKey,
    K0Class,
    OpaqueKey,
    Rank1Key,
    composition_factors,
    devissage,
    find_rank1_quotient,
    find_rank1_sub,
    k0_add,
    k0_dim,
    k0_eq,
    k0_neg,
)
from .matrix import Mat, mat_from_strings
from .monoidal import dual, internal_hom, tensor, unit
from .parser import parse_poly, parse_ratfunc
from .picard import (
    IsoResult,
    PicInvariant,
    iso_rank1,
    level_of,
    pic_identity,
    pic_inverse,
    pic_invariant,
    pic_mul,
    section,
    solve_mult_diff,
)
from .poly import Poly, format_poly, pi_mu, poly_gcd, poly_lcm
from .ratfunc import RatFunc, format_ratfunc, leading_ratio, pochhammer, shift_ratfunc
from .rep import (
    Filtration,
    LevelComponent,
    PolynomialRep,
    RationalRep,
    canonical_filtration,
    casimir_from_L1,
    casimir_level,
    casimir_matrix,
    casimir_minpoly,
    classify_rank1,
    commutation_residual,
    conjugate,
    cyclic_orbit,
    direct_sum,
    is_casimir,
    level_decompose,
    level_shift,
    make_rep,
    poly_rank1,
    quotient_by_invariant_subspace,
    rank1,
    rationalize,
    restrict_to_invariant_subspace,
    validate,
)
from .shifts import ShiftClass, canonical_shift_rep, shift_offset

__version__ = "0.1.0"
