"""Typed exceptions shared across the package."""


class DirAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(DirAlgebraError):
    """Exact polynomial division by a symbol failed (some term lacks it)."""


class MissingSymbol(DirAlgebraError):
    """A numeric evaluation did not assign a value to every symbol."""


class NotADivisor(DirAlgebraError):
    """An integer argument was required to divide another and does not."""


class NonUnitLeadingCoefficient(DirAlgebraError):
    """Inversion, and a group element's first series, need a nonzero
    rational coefficient at the first index."""


class LeadingCoefficientNotZero(DirAlgebraError):
    """The operation requires the coefficient at the first index of a
    series to be 0: index 1 of a composition series, the constant term
    of an ordinary one."""


class LeadingCoefficientNotOne(DirAlgebraError):
    """The operation requires the coefficient at the first index of a
    series to be 1: index 1 of a composition series, the constant term
    of an ordinary one."""


class ArgumentOutOfRange(DirAlgebraError, ValueError):
    """An integer argument lies outside the range the operation accepts."""


class TruncationTooSmall(DirAlgebraError):
    """An input series is not long enough for the requested computation."""


class ShapeMismatch(DirAlgebraError):
    """Matrix index ranges are incompatible for the requested product."""


class SingularDiagonal(DirAlgebraError):
    """Matrix inversion needs nonzero rational constants on the diagonal."""


class SeriesFormatError(DirAlgebraError, ValueError):
    """A series in JSON form is malformed: not an object with a kind, a
    truncation and coefficients, an unknown kind, a truncation that is not
    an integer in range, a coefficient key that is not an index in the
    series' range, or coefficient text that is not a string or not
    polynomial text."""


class _OffsetError(DirAlgebraError):
    """Malformed text; carries the byte offset of the problem as ``offset``."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PolynomialSyntaxError(_OffsetError):
    """Malformed polynomial text."""


class ExprSyntaxError(_OffsetError):
    """Malformed CLI expression."""


class UnknownFunction(DirAlgebraError):
    """A CLI expression used a name that is not a builtin or function."""


class ArityMismatch(DirAlgebraError):
    """A CLI expression called a function with the wrong argument count."""


class ExprTypeError(DirAlgebraError):
    """A CLI expression passed a value of the wrong kind to a function."""
