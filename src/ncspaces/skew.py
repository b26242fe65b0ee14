"""Real skew-symmetric deformation parameters.

A ``SkewMatrix`` stores only the strict upper triangle, so skew-symmetry
holds by construction.  Entries given as ``int`` or ``Fraction`` stay exact
rationals; ``float`` entries put the matrix on the floating-point path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Mapping, Union

import numpy as np

from .errors import ValidationError

Entry = Union[Fraction, float]


def _coerce_entry(x) -> Entry:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        if not isfinite(x):
            raise ValidationError(f"skew matrix entry {x!r} is not finite")
        return float(x)
    if isinstance(x, str):
        try:
            return Fraction(x)  # "nan" and "inf" are no Fraction literals
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"skew matrix entry {x!r}: {e}") from e
    raise ValidationError(f"unsupported skew matrix entry {x!r}")


def upper_pairs(dim: int):
    """Lexicographic strict-upper index pairs (j, k), 0-based."""
    return [(j, k) for j in range(dim) for k in range(j + 1, dim)]


@dataclass(frozen=True)
class SkewMatrix:
    """d x d real skew-symmetric matrix, upper triangle in lexicographic order."""

    dim: int
    upper: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be positive")
        n = self.dim * (self.dim - 1) // 2
        if len(self.upper) != n:
            raise ValidationError(
                f"expected {n} strict-upper entries for d={self.dim}, got {len(self.upper)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_upper(cls, dim: int, entries) -> "SkewMatrix":
        """Build from the strict upper triangle.

        ``entries`` is either a flat sequence in lexicographic (j,k) order or
        a mapping {(j,k): value} with 0-based j < k; omitted pairs are zero.
        """
        pairs = upper_pairs(dim)
        if isinstance(entries, Mapping):
            vals = []
            unknown = set(entries) - set(pairs)
            if unknown:
                raise ValidationError(f"invalid upper-triangle keys {sorted(unknown)}")
            for jk in pairs:
                vals.append(_coerce_entry(entries.get(jk, 0)))
        else:
            seq = list(entries)
            if len(seq) != len(pairs):
                raise ValidationError(
                    f"expected {len(pairs)} entries, got {len(seq)}"
                )
            vals = [_coerce_entry(x) for x in seq]
        return cls(dim, tuple(vals))

    @classmethod
    def from_matrix(cls, mat) -> "SkewMatrix":
        """Build from a full matrix, checking skew-symmetry to exact equality."""
        rows = [list(r) for r in mat]
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValidationError("matrix is not square")
        for j in range(d):
            if rows[j][j] != 0:
                raise ValidationError(f"diagonal entry ({j},{j}) is nonzero")
            for k in range(d):
                if rows[j][k] != -rows[k][j]:
                    raise ValidationError(f"entry ({j},{k}) != -entry ({k},{j})")
        return cls.from_upper(d, [rows[j][k] for j, k in upper_pairs(d)])

    @classmethod
    def zero(cls, dim: int) -> "SkewMatrix":
        return cls.from_upper(dim, {})

    @classmethod
    def canonical(cls, dim: int) -> "SkewMatrix":
        """The standard block form [[0, I], [-I, 0]] (dim must be even)."""
        if dim % 2:
            raise ValidationError("canonical form needs an even dimension")
        n = dim // 2
        return cls.from_upper(dim, {(j, j + n): 1 for j in range(n)})

    @classmethod
    def rotation(cls, theta) -> "SkewMatrix":
        """The 2x2 matrix [[0, theta], [-theta, 0]]."""
        return cls.from_upper(2, [theta])

    @classmethod
    def random(cls, dim: int, rng, scale: float = 1.0) -> "SkewMatrix":
        vals = rng.uniform(-scale, scale, size=dim * (dim - 1) // 2)
        return cls.from_upper(dim, [float(v) for v in vals])

    # -- accessors ---------------------------------------------------------

    def entry(self, j: int, k: int) -> Entry:
        if not (0 <= j < self.dim and 0 <= k < self.dim):
            raise ValidationError(f"index ({j},{k}) out of range for d={self.dim}")
        if j == k:
            return Fraction(0) if self.is_rational else 0.0
        pairs = upper_pairs(self.dim)
        if j < k:
            return self.upper[pairs.index((j, k))]
        return -self.upper[pairs.index((k, j))]

    @property
    def is_rational(self) -> bool:
        return all(isinstance(x, Fraction) for x in self.upper)

    def denominator_lcm(self) -> int:
        if not self.is_rational:
            raise ValidationError("denominator lcm is defined for rational entries only")
        d = 1
        for x in self.upper:
            d = lcm(d, x.denominator)
        return d

    def as_array(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for (j, k), v in zip(upper_pairs(self.dim), self.upper):
            a[j, k] = float(v)
            a[k, j] = -float(v)
        return a

    def principal_submatrix(self, dim: int) -> "SkewMatrix":
        """Leading dim x dim block."""
        if not (1 <= dim <= self.dim):
            raise ValidationError("submatrix dimension out of range")
        return SkewMatrix.from_upper(
            dim, {(j, k): self.entry(j, k) for j, k in upper_pairs(dim)}
        )

    def __eq__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.upper, other.upper)
        )

    def __hash__(self):
        return hash((self.dim, tuple(float(x) for x in self.upper)))
