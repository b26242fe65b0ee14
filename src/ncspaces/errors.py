"""Exception types and the package's three entry checks: as_index for every
integer argument, as_real for every real one, guard for every cost cap.
DENSE_CAP caps every dense matrix side; other caps sit beside what they guard.
"""
import operator
from math import inf, isfinite, nan
from numbers import Real

DENSE_CAP = 4096


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


def clip(text: str) -> str:
    """text, or past 60 characters its first 57 and '...': an error message
    shows a rejected value in one readable line however large the value."""
    return text if len(text) <= 60 else text[:57] + "..."


def unreadable(what: str, path, e: Exception) -> ValidationError:
    """The invalid input of a file that cannot be read: what, the path once
    (clipped) and the reason, an OSError's strerror without its path."""
    reason = getattr(e, "strerror", None) or e
    return ValidationError(f"cannot read {what} {clip(str(path))}: {reason}")


def as_index(name: str, value, minimum: int = None) -> int:
    """value as an int by operator.index, which takes ints and NumPy integers
    but no float; a bool (which operator.index reads as 0 or 1), another
    non-integer, or a value below minimum, is a ValidationError."""
    try:
        if isinstance(value, bool):
            raise TypeError("bool is not an integer here")
        n = operator.index(value)
    except TypeError as e:
        raise ValidationError(f"{name} must be an integer, got {clip(repr(value))}") from e
    if minimum is not None and n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {clip(str(n))}")
    return n


def as_real(
    name: str, value, minimum: float = None, above: float = None, maximum: float = None
) -> float:
    """value as a float; a bool, a non-real (str, None, complex), NaN, an infinity,
    or a value below minimum, not above above or above maximum is a
    ValidationError."""
    real = isinstance(value, (float, Real)) and not isinstance(value, bool)  # float: no ABC check
    try:
        x = float(value) if real else nan
    except OverflowError:  # an int or a Fraction past the float range
        x = inf
    if not isfinite(x):
        raise ValidationError(f"{name} must be a finite real number, got {clip(repr(value))}")
    if minimum is not None and x < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {x!r}")
    if above is not None and not x > above:
        raise ValidationError(f"{name} must be > {above}, got {x!r}")
    if maximum is not None and x > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {x!r}")
    return x


def guard(what: str, size, cap):
    """size, if it is at most cap; past it, a SizeCapError naming what."""
    if size > cap:
        raise SizeCapError(f"{what} {clip(str(size))} exceeds cap {cap}")
    return size
