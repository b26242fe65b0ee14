"""Exception types shared across the package, and the integer-argument check."""
import operator


class ValidationError(ValueError):
    """Raised when an operation rejects its input."""


class ThetaMismatchError(ValidationError):
    """Operands carry different deformation parameters."""


class GridMismatchError(ValidationError):
    """Grid functions live on incompatible grids."""


class SizeCapError(ValidationError):
    """A construction would exceed its cost guard."""


class OddDimensionError(ValidationError):
    """Canonical form requires an even dimension."""


class RankDeficientError(ValidationError):
    """Matrix is (numerically) singular where full rank is required."""

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank


class DegenerateFitError(ValidationError):
    """Scan data cannot support a least-squares fit."""


def as_index(name: str, value, minimum: int = None) -> int:
    """value as an int by operator.index, which takes ints and NumPy integers
    but no float; a non-integer, or a value below minimum, is a ValidationError."""
    try:
        n = operator.index(value)
    except TypeError as e:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from e
    if minimum is not None and n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {n}")
    return n
