"""Exception types shared across the package."""


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
