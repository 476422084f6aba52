"""Exception hierarchy for the sl2rat library.

Domain failures raise subclasses of :class:`Sl2RatError`; the CLI maps them
to exit code 1 with a structured diagnostic.  Programming errors (wrong
types, shape mismatches) raise the usual ValueError/TypeError.
"""
from __future__ import annotations


class Sl2RatError(Exception):
    """Base class for all domain errors."""

    def payload(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class ParseError(Sl2RatError):
    """Syntax error in the rational-function grammar, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position

    def payload(self) -> dict:
        return {**super().payload(), "position": self.position}


class ZeroDenominator(Sl2RatError):
    """Division by the zero polynomial."""


class SingularMatrix(Sl2RatError):
    """A matrix required to be invertible is singular."""


class SingularOperator(Sl2RatError):
    """A semilinear operator required to be an automorphism is singular."""


class NotARepresentation(Sl2RatError):
    """The commutation identity fails; carries the residual matrix."""

    def __init__(self, residual):
        super().__init__("commutation identity fails")
        self.residual = residual

    def payload(self) -> dict:
        return {**super().payload(), "residual": [[str(e) for e in row] for row in self.residual.rows_list()]}


class NonConstantMinpoly(Sl2RatError):
    """Casimir minimal polynomial came out with non-constant coefficients.

    Impossible for validated representations; signals invalid input or an
    internal defect.
    """


class LevelOutsideBaseField(Sl2RatError):
    """A level exists over an extension field only; carries the irreducible factor."""

    def __init__(self, factor):
        from .poly import format_poly  # at call time, so importing the errors loads no polynomial layer

        super().__init__(
            f"level is a root of the irreducible factor {format_poly(factor, 't')}"
        )
        self.factor = factor

    def payload(self) -> dict:
        from .poly import format_poly

        return {**super().payload(), "factor": format_poly(self.factor, "t")}


class NotInvariant(Sl2RatError):
    """A candidate subspace is not closed under the operators."""


class NotCasimir(Sl2RatError):
    """An operation requiring a Casimir module received a non-Casimir one."""


class NotPolynomial(Sl2RatError):
    """A polynomial representation was expected but entries have denominators."""


class LevelMismatch(Sl2RatError):
    """Two modules required to share a level do not."""


class InvalidExtensionData(Sl2RatError):
    """Assembled extension fails the commutation identity."""


class PiMuIrreducible(Sl2RatError):
    """z^2 - z - mu has no rational roots, so the split families do not exist."""


class CyclicVectorNotFound(Sl2RatError):
    """Bounded deterministic cyclic-vector search failed (does not occur generically)."""


class InputError(Sl2RatError):
    """Malformed CLI input document."""
