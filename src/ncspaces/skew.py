"""Real skew-symmetric deformation parameters.

A ``SkewMatrix`` stores only the strict upper triangle, so skew-symmetry
holds by construction.  Entries given as ``int`` or ``Fraction`` stay exact
rationals; ``float`` entries put the matrix on the floating-point path.  Each
entry is checked once, at construction: it must be finite as a float.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Union

import numpy as np

from .errors import ValidationError, as_index, as_real

Entry = Union[Fraction, float]


def _coerce_entry(x) -> Entry:
    """x as a float, or as an exact Fraction if it is an int, a Fraction or a
    numeric string; either way it must be finite as a float."""
    if isinstance(x, str):
        try:
            x = Fraction(x)  # "nan" and "inf" are no Fraction literals
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"skew matrix entry {x!r}: {e}") from e
    if isinstance(x, (float, np.floating)):
        return as_real("skew matrix entry", x)
    if isinstance(x, (Fraction, int, np.integer)):
        as_real("skew matrix entry", x)  # a bool, or past the float range, is rejected
        return Fraction(x)
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
        object.__setattr__(self, "dim", as_index("dimension", self.dim, 1))
        upper = tuple(map(_coerce_entry, self.upper))
        n = self.dim * (self.dim - 1) // 2
        if len(upper) != n:
            raise ValidationError(
                f"expected {n} strict-upper entries for d={self.dim}, got {len(upper)}"
            )
        object.__setattr__(self, "upper", upper)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_upper(cls, dim: int, entries) -> "SkewMatrix":
        """Build from the strict upper triangle.

        ``entries`` is either a flat sequence in lexicographic (j,k) order or
        a mapping {(j,k): value} with 0-based j < k; omitted pairs are zero.
        """
        if isinstance(entries, Mapping):
            pairs = upper_pairs(as_index("dimension", dim, 1))
            unknown = set(entries) - set(pairs)
            if unknown:
                raise ValidationError(f"invalid upper-triangle keys {sorted(unknown)}")
            entries = [entries.get(jk, 0) for jk in pairs]
        return cls(dim, tuple(entries))

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
        dim = as_index("dimension", dim, 1)
        scale = as_real("scale", scale, minimum=0)
        vals = rng.uniform(-scale, scale, size=dim * (dim - 1) // 2)
        return cls.from_upper(dim, [float(v) for v in vals])

    # -- accessors ---------------------------------------------------------

    def entry(self, j: int, k: int) -> Entry:
        j, k = as_index("row", j), as_index("column", k)
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

    @cached_property
    def twist(self):
        """The structure form of ``twisted_algebra`` over this theta, built on
        first use and kept on this object (not per equal value: a float and a
        rational theta compare equal but have different forms)."""
        from .twisted_algebra import _Twist
        return _Twist(self)

    def denominator_lcm(self) -> int:
        if not self.is_rational:
            raise ValidationError("denominator lcm is defined for rational entries only")
        return lcm(*(x.denominator for x in self.upper))

    def as_array(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for (j, k), v in zip(upper_pairs(self.dim), self.upper):
            a[j, k] = float(v)
            a[k, j] = -float(v)
        return a

    def principal_submatrix(self, dim: int) -> "SkewMatrix":
        """Leading dim x dim block."""
        if as_index("submatrix dimension", dim, 1) > self.dim:
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
