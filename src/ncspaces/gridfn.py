"""The uniform grid of the whole engine, and functions sampled on it.

This module is the one home of the grid conventions; every grid object is a
UniformGrid, whether it carries samples (GridFunction, a power-of-two M) or
only the geometry (GridSpec, any M >= 2):

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

from .errors import GridMismatchError, ValidationError, as_index, as_real, unreadable
from .linalg import box_points

BOUNDARY_DECAY_WARN = 1e-8


class UniformGrid:
    """M = points samples per axis on [-L, L), L = half_length: the geometry
    shared by GridSpec and GridFunction."""

    points: int
    half_length: float

    def _check_grid(self):
        object.__setattr__(self, "points", as_index("grid points M", self.points, 2))
        object.__setattr__(self, "half_length", as_real("grid L", self.half_length, above=0))

    @property
    def step(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def dual_step(self) -> float:
        return np.pi / self.half_length

    freq_step = dual_step  # the same property under the frequency-side name

    def axis(self) -> np.ndarray:
        return -self.half_length + self.step * np.arange(self.points)

    def freq_axis(self) -> np.ndarray:
        """Ascending angular frequencies."""
        m = self.points
        return self.freq_step * (np.arange(m) - m // 2)

    def frequencies(self) -> np.ndarray:
        """Angular frequencies of the discrete Fourier basis (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.step)

    def gaussian_samples(
        self, dim: int, sigma: float, center: Sequence[float] = None
    ) -> np.ndarray:
        """exp(-|x - c|^2 / (2 sigma^2)) at every point of the dim-fold grid,
        shape (M,) * dim; c is the origin by default."""
        dim = as_index("dimension", dim, 1)
        center = (0.0,) * dim if center is None else tuple(as_real("center", c) for c in center)
        if len(center) != dim:
            raise ValidationError(f"center must be {dim} finite numbers, got {center!r}")
        sigma = as_real("sigma", sigma, above=0)
        ax = self.axis()
        r2 = reduce(np.add.outer, [(ax - c) ** 2 for c in center])
        return np.exp(-r2 / (2.0 * sigma**2))


@dataclass(frozen=True)
class GridSpec(UniformGrid):
    """The geometry alone: M >= 2 points on [-L, L), no power-of-two condition."""

    points: int
    half_length: float

    def __post_init__(self):
        self._check_grid()

    @classmethod
    def self_dual(cls, points: int) -> "GridSpec":
        """L chosen so the grid step equals the dual step: L = sqrt(pi M / 2)."""
        points = as_index("grid points M", points, 2)
        return cls(points, float(np.sqrt(np.pi * points / 2.0)))


@dataclass(frozen=True, eq=False)
class GridFunction(UniformGrid):
    """Complex samples on the uniform grid of [-L, L)^d (or its dual), M a
    power of two."""

    dim: int
    half_length: float
    points: int
    values: np.ndarray
    side: str = "position"  # "position" | "frequency"

    def __post_init__(self):
        object.__setattr__(self, "dim", as_index("dimension", self.dim, 1))
        self._check_grid()
        m = self.points
        if m & (m - 1):
            raise ValidationError(f"points per axis must be a power of two, got {m}")
        if self.side not in ("position", "frequency"):
            raise ValidationError(f"unknown side {self.side!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.points,) * self.dim:
            raise ValidationError(
                f"values shape {vals.shape} != {(self.points,) * self.dim}"
            )
        object.__setattr__(self, "values", vals)

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
        shell = np.ones(v.shape, dtype=bool)
        shell[(slice(1, -1),) * self.dim] = False
        return float(v[shell].max() / peak)

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
        ax = GridSpec(points, half_length).axis()
        grids = np.meshgrid(*([ax] * as_index("dimension", dim, 1)), indexing="ij")
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
        samples = GridSpec(points, half_length).gaussian_samples(dim, sigma, center)
        g = cls(dim, half_length, points, samples)
        if normalized:
            g = GridFunction(dim, half_length, points, g.values / l2_norm(g))
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


def _trapezoid(f: GridFunction, sign: int) -> np.ndarray:
    """The trapezoid transform of f's samples: sign -1 maps position samples
    to ascending-order frequency samples (the module's fhat), sign +1 maps
    them back.

    With s = (pi/L)(k - M/2) and x_n = -L + n (2L/M) on each axis,
    exp(+-i s x_n) = (-1)^(k + n + M/2) exp(+-2 pi i k n / M), so either
    direction is one unshifted FFT between two sign grids.
    """
    m, d = f.points, f.dim
    signs = reduce(np.multiply.outer, [(-1.0) ** np.arange(m)] * d)
    scale = (-1.0) ** (d * (m // 2)) * (2.0 * np.pi / f.step) ** (sign * d)
    fft = np.fft.ifftn if sign > 0 else np.fft.fftn
    return fft(f.values * signs) * (signs * scale)


def to_frequency(f: GridFunction) -> GridFunction:
    """Trapezoid approximation of the continuum transform, ascending freq order."""
    if f.side != "position":
        raise ValidationError("to_frequency expects a position-side function")
    return GridFunction(f.dim, f.half_length, f.points, _trapezoid(f, -1), side="frequency")


def to_position(fhat: GridFunction) -> GridFunction:
    if fhat.side != "frequency":
        raise ValidationError("to_position expects a frequency-side function")
    return GridFunction(fhat.dim, fhat.half_length, fhat.points, _trapezoid(fhat, 1))


def freq_grid_vectors(f: GridFunction) -> np.ndarray:
    """All frequency vectors of the (ascending) grid, shape (M^d, d)."""
    return box_points(f.freq_axis(), f.dim)


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


def encode_gridfn(f: GridFunction) -> bytes:
    """The file bytes of f: its header line, then its samples."""
    header = {"d": f.dim, "L": f.half_length, "M": f.points, "side": f.side}
    payload = np.ascontiguousarray(f.values, dtype="<c8").tobytes()
    return (json.dumps(header) + "\n").encode("utf-8") + payload


def write_gridfn(f: GridFunction, path) -> None:
    with atomic_open(path) as fh:
        fh.write(encode_gridfn(f))


def read_gridfn(path) -> GridFunction:
    """The grid function in path.  A header that is not a JSON object, a d or
    M that is not an integer (1.5 is rejected, not truncated), an L that is no
    number (true included), a payload of the wrong length or a non-finite
    sample is a ValidationError, and so is a file that cannot be read."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as e:
        raise unreadable("grid file", path, e) from e
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ValidationError(f"bad grid file header: {e}") from e
    if not isinstance(header, dict):
        raise ValidationError(f"grid file header must be a JSON object, got {header!r}")
    for key in ("d", "L", "M"):
        if key not in header:
            raise ValidationError(f"grid file header missing {key!r}")
    d, m = as_index("grid file d", header["d"], 1), as_index("grid file M", header["M"], 2)
    try:
        L = float(str(header["L"]))  # read from its text, where true is no number
    except ValueError as e:
        raise ValidationError(f"grid file L {header['L']!r} is not a number") from e
    # M >= 2, so a d past the payload's bit length cannot match it: M^d is
    # not formed for such a d
    if d > len(payload).bit_length() or len(payload) != m**d * 8:
        raise ValidationError(
            f"grid file payload has {len(payload)} bytes, expected 8 M^d for M = {m}, d = {d}"
        )
    vals = np.frombuffer(payload, dtype="<c8").astype(complex).reshape((m,) * d)
    if not np.isfinite(vals).all():
        raise ValidationError("grid file payload holds a non-finite sample")
    out = GridFunction(d, L, m, vals, side=header.get("side", "position"))
    out.warn_if_boundary_heavy()
    return out
