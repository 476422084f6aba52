"""Exact symbolic computation with finite-dimensional rational sl(2)-modules.

Everything is exact over the rationals: the scalar field is Q(z) with
arbitrary-precision coefficients, representations are pairs of matrices
subject to the commutation identity, and the high-level operations
(Casimir analysis, level decomposition, canonical filtrations, devissage
into Grothendieck-group classes, Picard invariants, tensor/Hom/dual,
extension building, difference-equation solvers) all return certificates
that verify by substitution.

The names below are re-exported lazily (PEP 562): ``sl2rat.devissage``
imports `sl2rat.k0` on first use, so ``import sl2rat`` loads no submodule.
Each access reads the home module's current attribute; nothing is cached
here, so a name patched in its home module reads patched here too.
"""
import importlib

__version__ = "0.1.0"

# home module -> the names it re-exports
_EXPORTS = {
    "errors": (
        "CyclicVectorNotFound",
        "InvalidExtensionData",
        "LevelMismatch",
        "LevelOutsideBaseField",
        "NonConstantMinpoly",
        "NotARepresentation",
        "NotCasimir",
        "NotInvariant",
        "NotPolynomial",
        "ParseError",
        "PiMuIrreducible",
        "SingularMatrix",
        "SingularOperator",
        "Sl2RatError",
        "ZeroDenominator",
    ),
    "extension": (
        "ExtDatum",
        "exponent_of",
        "ext_build",
        "ext_class_equal",
        "ext_is_casimir",
        "solve_add_diff",
    ),
    "factor": ("factor_poly", "monic_divisors", "squarefree_decomposition"),
    "k0": (
        "DevissageTree",
        "FactorKey",
        "K0Class",
        "OpaqueKey",
        "Rank1Key",
        "composition_factors",
        "devissage",
        "find_rank1_quotient",
        "find_rank1_sub",
        "k0_add",
        "k0_dim",
        "k0_eq",
        "k0_neg",
    ),
    "matrix": ("Mat", "mat_from_strings"),
    "monoidal": ("dual", "internal_hom", "tensor", "unit"),
    "parser": ("parse_poly", "parse_ratfunc"),
    "picard": (
        "IsoResult",
        "PicInvariant",
        "iso_rank1",
        "level_of",
        "pic_identity",
        "pic_inverse",
        "pic_invariant",
        "pic_mul",
        "section",
        "solve_mult_diff",
    ),
    "poly": ("Poly", "format_poly", "pi_mu", "poly_gcd", "poly_lcm"),
    "ratfunc": ("RatFunc", "format_ratfunc", "leading_ratio", "pochhammer", "shift_ratfunc"),
    "rep": (
        "Filtration",
        "LevelComponent",
        "PolynomialRep",
        "RationalRep",
        "canonical_filtration",
        "casimir_from_L1",
        "casimir_level",
        "casimir_matrix",
        "casimir_minpoly",
        "classify_rank1",
        "commutation_residual",
        "conjugate",
        "cyclic_orbit",
        "direct_sum",
        "is_casimir",
        "level_decompose",
        "level_shift",
        "make_rep",
        "poly_rank1",
        "quotient_by_invariant_subspace",
        "rank1",
        "rationalize",
        "restrict_to_invariant_subspace",
        "validate",
    ),
    "shifts": ("ShiftClass", "canonical_shift_rep", "shift_offset"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# A star import also brings in the library's submodules (and so imports them).
__all__ = [*_HOME, *_EXPORTS, "hyper"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:  # also how `from sl2rat import cli` learns to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
