"""Sampled functions on uniform boxes and their Fourier transforms.

Conventions, fixed once for the whole engine:

    position grid   x_i = -L + i * (2L/M),      i = 0..M-1, per axis
    frequency grid  s_j = (pi/L) * j,           j = -M/2..M/2-1, per axis
    transform       fhat(s) = (2 pi)^-d  integral f(x) exp(-i s.x) dx
    inverse         f(x)    = integral fhat(s) exp(i s.x) ds

Both integrals are trapezoid sums on the grids above; the pair is an exact
inverse of itself at the sample points.  Frequency-side arrays are stored
with axes in ascending frequency order.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError, ValidationError

BOUNDARY_DECAY_WARN = 1e-8


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on the uniform grid of [-L, L)^d (or its dual)."""

    dim: int
    half_length: float
    points: int
    values: np.ndarray
    side: str = "position"  # "position" | "frequency"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be >= 1")
        if not (0 < self.half_length < np.inf):
            raise ValidationError("half length must be positive and finite")
        if not _is_power_of_two(self.points):
            raise ValidationError(f"points per axis must be a power of two, got {self.points}")
        if self.side not in ("position", "frequency"):
            raise ValidationError(f"unknown side {self.side!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.points,) * self.dim:
            raise ValidationError(
                f"values shape {vals.shape} != {(self.points,) * self.dim}"
            )
        object.__setattr__(self, "values", vals)

    # -- grid geometry ------------------------------------------------------

    @property
    def step(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def freq_step(self) -> float:
        return np.pi / self.half_length

    def axis(self) -> np.ndarray:
        return -self.half_length + self.step * np.arange(self.points)

    def freq_axis(self) -> np.ndarray:
        """Ascending angular frequencies."""
        m = self.points
        return self.freq_step * (np.arange(m) - m // 2)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.dim == other.dim
            and self.points == other.points
            and abs(self.half_length - other.half_length) < 1e-12
            and self.side == other.side
        )

    def require_same_grid(self, other: "GridFunction"):
        if not self.same_grid(other):
            raise GridMismatchError(
                f"grids differ: ({self.dim},{self.points},{self.half_length},{self.side})"
                f" vs ({other.dim},{other.points},{other.half_length},{other.side})"
            )

    # -- diagnostics ---------------------------------------------------------

    def boundary_ratio(self) -> float:
        """Max modulus on the outer sample shell over the global max modulus.

        Large values are fine for deliberately periodic (band-limited) data
        but mean the samples cannot be read as a decaying function on R^d."""
        v = np.abs(self.values)
        peak = v.max()
        if peak == 0.0:
            return 0.0
        mask = np.zeros(v.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return float(v[mask].max() / peak)

    def warn_if_boundary_heavy(self):
        ratio = self.boundary_ratio()
        if ratio > BOUNDARY_DECAY_WARN:
            warnings.warn(
                f"samples do not decay at the box boundary (ratio "
                f"{ratio:.2e}); continuum readings will alias",
                stacklevel=2,
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_function(
        cls, dim: int, half_length: float, points: int, fn: Callable
    ) -> "GridFunction":
        ax = -half_length + (2.0 * half_length / points) * np.arange(points)
        grids = np.meshgrid(*([ax] * dim), indexing="ij")
        return cls(dim, half_length, points, np.asarray(fn(*grids), dtype=complex))

    @classmethod
    def gaussian(
        cls,
        dim: int,
        half_length: float,
        points: int,
        sigma: float = 1.0,
        center: Sequence[float] = None,
        normalized: bool = True,
    ) -> "GridFunction":
        """exp(-|x - c|^2 / (2 sigma^2)), L2-normalized on the grid by default."""
        if center is None:
            center = [0.0] * dim

        def fn(*axes):
            r2 = sum((a - c) ** 2 for a, c in zip(axes, center))
            return np.exp(-r2 / (2.0 * sigma**2))

        g = cls.from_function(dim, half_length, points, fn)
        if normalized:
            n = l2_norm(g)
            g = GridFunction(dim, half_length, points, g.values / n)
        return g


# -- norms and transforms -----------------------------------------------------


def l2_norm(f: GridFunction) -> float:
    if f.side == "position":
        w = f.step**f.dim
        return float(np.sqrt((np.abs(f.values) ** 2).sum() * w))
    w = f.freq_step**f.dim
    return float(np.sqrt((np.abs(f.values) ** 2).sum() * w * (2.0 * np.pi) ** f.dim))


def integral(f: GridFunction) -> complex:
    if f.side != "position":
        raise ValidationError("integral expects a position-side function")
    return complex(f.values.sum() * f.step**f.dim)


def trapezoid_transform(
    values: np.ndarray, points: int, step: float, dim: int, sign: int
) -> np.ndarray:
    """Trapezoid transform over the last dim axes of values, any leading axes
    being a batch: sign -1 maps position samples to ascending-order frequency
    samples (the module's fhat), sign +1 maps them back.

    With s = (pi/L)(k - M/2) and x_n = -L + n (2L/M) on each axis,
    exp(+-i s x_n) = (-1)^(k + n + M/2) exp(+-2 pi i k n / M), so either
    direction is one unshifted FFT between two sign grids.
    """
    signs = reduce(np.multiply.outer, [(-1.0) ** np.arange(points)] * dim)
    scale = (-1.0) ** (dim * (points // 2)) * (2.0 * np.pi / step) ** (sign * dim)
    fft = np.fft.ifftn if sign > 0 else np.fft.fftn
    return fft(values * signs, axes=tuple(range(-dim, 0))) * (signs * scale)


def to_frequency(f: GridFunction) -> GridFunction:
    """Trapezoid approximation of the continuum transform, ascending freq order."""
    if f.side != "position":
        raise ValidationError("to_frequency expects a position-side function")
    vals = trapezoid_transform(f.values, f.points, f.step, f.dim, -1)
    return GridFunction(f.dim, f.half_length, f.points, vals, side="frequency")


def to_position(fhat: GridFunction) -> GridFunction:
    if fhat.side != "frequency":
        raise ValidationError("to_position expects a frequency-side function")
    vals = trapezoid_transform(fhat.values, fhat.points, fhat.step, fhat.dim, 1)
    return GridFunction(fhat.dim, fhat.half_length, fhat.points, vals, side="position")


def freq_grid_vectors(f: GridFunction) -> np.ndarray:
    """All frequency vectors of the (ascending) grid, shape (M^d, d)."""
    ax = f.freq_axis()
    grids = np.meshgrid(*([ax] * f.dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# -- container serialization --------------------------------------------------
# One file: a JSON header line {"d":..,"L":..,"M":..,"side":..} terminated by
# newline, then M^d little-endian complex64 values in row-major order.


@contextmanager
def atomic_open(path):
    """Binary file handle on a temp file beside path, renamed onto path when
    the block ends; on any error the temp file is removed and path keeps its
    old contents.  The file gets the mode a plain open would give it
    (0o666 less the umask), not mkstemp's 0o600."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_gridfn(f: GridFunction, path) -> None:
    header = {
        "d": f.dim,
        "L": f.half_length,
        "M": f.points,
        "side": f.side,
    }
    with atomic_open(path) as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(f.values, dtype="<c8").tobytes())


def read_gridfn(path) -> GridFunction:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValidationError(f"bad grid file header: {e}") from e
        for key in ("d", "L", "M"):
            if key not in header:
                raise ValidationError(f"grid file header missing {key!r}")
        d, L, m = int(header["d"]), float(header["L"]), int(header["M"])
        payload = fh.read()
    expected = m**d * 8
    if len(payload) != expected:
        raise ValidationError(
            f"grid file payload has {len(payload)} bytes, expected {expected}"
        )
    vals = np.frombuffer(payload, dtype="<c8").astype(complex).reshape((m,) * d)
    out = GridFunction(d, L, m, vals, side=header.get("side", "position"))
    out.warn_if_boundary_heavy()
    return out
