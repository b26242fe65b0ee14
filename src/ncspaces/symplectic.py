"""Canonical form of skew-symmetric matrices and discretized canonical pairs.

symplectic_normalize finds an invertible T with T theta T^t = S, where
S = [[0, I_n], [-I_n, 0]], by skew Gram-Schmidt: pick the largest-magnitude
entry of the current form as a plane seed, rescale to make the pairing 1,
deflate the remaining directions against the plane, recurse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    OddDimensionError,
    RankDeficientError,
    SizeCapError,
    ValidationError,
)
from .linalg import fourier_multiplier
from .skew import SkewMatrix

DEFAULT_GRID_CAP = 4096


def canonical_block(n: int) -> np.ndarray:
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    return s


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    theta: np.ndarray
    transform: np.ndarray  # T with T theta T^t = S
    residual: float

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def canonical(self) -> np.ndarray:
        return canonical_block(self.dim // 2)


@dataclass(frozen=True, eq=False)
class SkewDecomposition:
    theta: np.ndarray
    rank: int
    basis: np.ndarray  # rows: x_1, y_1, ..., x_r, y_r, kernel directions
    residual: float


def _pair_reduction(arr: np.ndarray, tol: float):
    """Shared deflation loop: returns (pairs [(x, y), ...], leftover vectors)."""
    d = arr.shape[0]
    cand: List[np.ndarray] = [np.eye(d)[i] for i in range(d)]
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    while len(cand) >= 2:
        c = np.array(cand)
        b = c @ arr @ c.T
        i, k = np.unravel_index(np.abs(b).argmax(), b.shape)
        if abs(b[i, k]) <= tol:
            break
        x = cand[i]
        y = cand[k] / b[i, k]
        rest = []
        for idx, v in enumerate(cand):
            if idx in (i, k):
                continue
            by = v @ arr @ y
            bx = v @ arr @ x
            rest.append(v - by * x + bx * y)
        pairs.append((x, y))
        cand = rest
    return pairs, cand


def symplectic_normalize(theta: SkewMatrix) -> SymplecticForm:
    """Return T with T theta T^t = S for nonsingular theta of even dimension;
    theta counts as singular when its smallest singular value is at most
    1e-8 times its largest."""
    d = theta.dim
    arr = theta.as_array()
    if d % 2:
        raise OddDimensionError(f"dimension {d} is odd; no symplectic normal form")
    svals = np.linalg.svd(arr, compute_uv=False)
    if svals[0] == 0 or svals[-1] <= 1e-8 * svals[0]:
        rank = int(np.count_nonzero(svals > 1e-10 * max(svals[0], 1.0)))
        raise RankDeficientError(
            f"theta is rank-deficient (rank {rank} < {d}); cannot normalize", rank
        )
    n = d // 2
    pairs, _ = _pair_reduction(arr, tol=0.0)
    if len(pairs) != n:
        raise RankDeficientError(
            f"deflation found only {len(pairs)} planes", 2 * len(pairs)
        )
    t = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
    res = float(np.abs(t @ arr @ t.T - canonical_block(n)).max())
    return SymplecticForm(arr, t, res)


def skew_rank_decompose(theta: SkewMatrix) -> SkewDecomposition:
    """Block-diagonalize theta into rank/2 standard planes plus a kernel block;
    pairings below 1e-10 max(max |theta_jk|, 1) count as zero."""
    arr = theta.as_array()
    scale = max(np.abs(arr).max(), 1.0)
    pairs, leftovers = _pair_reduction(arr, tol=1e-10 * scale)
    rows: List[np.ndarray] = []
    for x, y in pairs:
        rows.extend([x, y])
    if leftovers:
        # orthonormalize the kernel directions for a well-conditioned basis
        q, _ = np.linalg.qr(np.array(leftovers).T)
        rows.extend(q.T)
    basis = np.array(rows) if rows else np.zeros((0, theta.dim))
    rank = 2 * len(pairs)
    target = np.zeros((theta.dim, theta.dim))
    for i in range(len(pairs)):
        target[2 * i, 2 * i + 1] = 1.0
        target[2 * i + 1, 2 * i] = -1.0
    res = float(np.abs(basis @ arr @ basis.T - target).max()) if rows else 0.0
    return SkewDecomposition(arr, rank, basis, res)


# -- discretized canonical pairs ---------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L) with M points."""

    points: int
    half_length: float

    def __post_init__(self):
        if self.points < 2 or self.half_length <= 0:
            raise ValidationError("grid needs M >= 2 points and L > 0")

    @classmethod
    def self_dual(cls, points: int) -> "GridSpec":
        """L chosen so the grid step equals the dual step: L = sqrt(pi M / 2)."""
        return cls(points, float(np.sqrt(np.pi * points / 2.0)))

    @property
    def step(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def dual_step(self) -> float:
        return np.pi / self.half_length

    def axis(self) -> np.ndarray:
        return -self.half_length + self.step * np.arange(self.points)

    def frequencies(self) -> np.ndarray:
        """Angular frequencies of the discrete Fourier basis (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.step)


def spectral_derivative_matrix(grid: GridSpec) -> np.ndarray:
    """Dense matrix of -i d/dx: the Fourier multiplier k, a circulant built
    in O(M^2)."""
    return fourier_multiplier(grid.frequencies())


def position_matrix(grid: GridSpec) -> np.ndarray:
    return np.diag(grid.axis()).astype(complex)


def schrodinger_generators(sf: SymplecticForm, grid: GridSpec) -> List[np.ndarray]:
    """d = 2n Hermitian matrices combining -i d/dx_k and x_k legs on the grid.

    The combination coefficients are the rows of T^{-1}: with T theta T^t = S,
    these are exactly the coefficients that give [P_j, P_k] = -i theta_jk on
    the continuum, since the canonical legs satisfy [D_k, X_l] = -i delta_kl.
    """
    d = sf.dim
    n = d // 2
    if grid.points ** n > DEFAULT_GRID_CAP:
        raise SizeCapError(
            f"grid dimension {grid.points ** n} exceeds size cap {DEFAULT_GRID_CAP}"
        )
    coeff = np.linalg.inv(sf.transform)
    deriv = spectral_derivative_matrix(grid)
    pos = position_matrix(grid)
    eye = np.eye(grid.points, dtype=complex)

    def leg(op: np.ndarray, k: int) -> np.ndarray:
        legs = [eye] * n
        legs[k] = op
        return reduce(np.kron, legs)

    derivs = [leg(deriv, k) for k in range(n)]
    positions = [leg(pos, k) for k in range(n)]
    out = []
    for j in range(d):
        p = sum(coeff[j, k] * derivs[k] for k in range(n))
        p = p + sum(coeff[j, k + n] * positions[k] for k in range(n))
        out.append(p)
    return out


def gaussian_state(grid: GridSpec, n: int, sigma: float = None) -> np.ndarray:
    """Normalized centred Gaussian on the n-fold grid, well separated from the
    boundary."""
    if sigma is None:
        # balance position-tail and frequency-tail truncation errors
        kmax = np.pi / grid.step
        sigma = float(np.sqrt(grid.half_length / kmax))
    axis = np.exp(-(grid.axis() ** 2) / (2.0 * sigma**2))
    v = reduce(np.kron, [axis] * n).astype(complex)
    return v / np.linalg.norm(v)


def commutator_residuals(
    generators: Sequence[np.ndarray], theta: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """||([P_j, P_k] + i theta_jk) v|| for all j < k, as a matrix."""
    d = len(generators)
    out = np.zeros((d, d))
    images = [p @ state for p in generators]
    for j in range(d):
        for k in range(j + 1, d):
            comm = generators[j] @ images[k] - generators[k] @ images[j]
            r = np.linalg.norm(comm + 1j * theta[j, k] * state)
            out[j, k] = out[k, j] = r
    return out
