"""Canonical form of skew-symmetric matrices and discretized canonical pairs.

symplectic_normalize finds an invertible T with T theta T^t = S, where
S = [[0, I_n], [-I_n, 0]], and skew_rank_decompose splits theta into standard
planes and a kernel.  Both read the planes from one Hermitian eigendecomposition
of i theta, whose eigenvalues come in pairs +-lam_j with |lam_j| the singular
values of theta: an eigenvector of lam_j > 0 gives one plane through its real
and imaginary parts (the real normal form of a skew matrix, Horn & Johnson,
Matrix Analysis, 2.5), with the backward stability of the Hermitian eigensolver.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import DENSE_CAP, OddDimensionError, RankDeficientError, guard
from .gridfn import GridSpec
from .linalg import fourier_multiplier, kron, on_leg
from .skew import SkewMatrix


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


@dataclass(frozen=True, eq=False)
class SkewDecomposition:
    rank: int
    basis: np.ndarray  # rows: x_1, y_1, ..., x_r, y_r, kernel directions
    residual: float


def _planes(arr: np.ndarray, cutoff: Callable[[np.ndarray], float]):
    """Planes of theta from one eigendecomposition of the Hermitian i theta.

    cutoff receives the eigenvalue moduli (the singular values of theta) and
    returns the eigenvalue a plane must exceed; it may raise instead.  Each
    eigenvector w of an eigenvalue lam > cutoff is turned by a phase so that
    its first largest-modulus entry (the pivot) is real and positive; then
    a = Re w, b = -Im w pair to a^t theta b = lam / 2, and x = a / s,
    y = b / s with s = sqrt(a^t theta b) give x^t theta y = 1.  Distinct
    eigenvectors are orthogonal to each other and to their conjugates, so every
    cross pairing vanishes.  Returns the rows x_1..x_r and y_1..y_r, ordered by
    lam descending and then by pivot index: a canonical theta is a fixed point.
    """
    lam, w = np.linalg.eigh(1j * arr)
    keep = lam > cutoff(np.abs(lam))
    lam, w = lam[keep], w[:, keep]
    pivot = np.abs(w).argmax(axis=0)
    lead = w[pivot, np.arange(w.shape[1])]
    w = w * (lead.conj() / np.abs(lead))
    a, b = w.real, -w.imag
    s = np.sqrt(np.einsum("ij,ij->j", a, arr @ b))
    order = np.lexsort((pivot, -lam))
    return (a / s)[:, order].T, (b / s)[:, order].T


def symplectic_normalize(theta: SkewMatrix) -> SymplecticForm:
    """Return T with T theta T^t = S for nonsingular theta of even dimension,
    from the planes of one Hermitian eigendecomposition of i theta.  Theta
    counts as singular when its smallest eigenvalue modulus (singular value) is
    at most 1e-8 times its largest; the reported rank counts the moduli above
    1e-10 max(largest, 1)."""
    d = theta.dim
    arr = theta.as_array()
    if d % 2:
        raise OddDimensionError(f"dimension {d} is odd; no symplectic normal form")

    def nonsingular(moduli: np.ndarray) -> float:
        top = moduli.max()
        if top == 0 or moduli.min() <= 1e-8 * top:
            rank = int(np.count_nonzero(moduli > 1e-10 * max(top, 1.0)))
            raise RankDeficientError(
                f"theta is rank-deficient (rank {rank} < {d}); cannot normalize", rank
            )
        return 0.0

    x, y = _planes(arr, nonsingular)
    t = np.vstack([x, y])
    res = float(np.abs(t @ arr @ t.T - canonical_block(d // 2)).max())
    return SymplecticForm(arr, t, res)


def skew_rank_decompose(theta: SkewMatrix) -> SkewDecomposition:
    """Block-diagonalize theta into rank/2 standard planes plus a kernel block,
    from one Hermitian eigendecomposition of i theta; eigenvalues at most
    1e-10 max(max |theta_jk|, 1) count as zero.  The kernel rows are an
    orthonormal basis of the complement of the planes, the trailing columns of
    a complete QR of the plane rows."""
    arr = theta.as_array()
    scale = max(np.abs(arr).max(), 1.0)
    x, y = _planes(arr, lambda moduli: 1e-10 * scale)
    r = len(x)
    planes = np.empty((2 * r, theta.dim))
    planes[0::2], planes[1::2] = x, y
    q, _ = np.linalg.qr(planes.T, mode="complete")
    basis = np.vstack([planes, q[:, 2 * r:].T])
    target = np.zeros((theta.dim, theta.dim))
    target[:2 * r, :2 * r] = kron([np.eye(r), canonical_block(1)])
    res = float(np.abs(basis @ arr @ basis.T - target).max())
    return SkewDecomposition(2 * r, basis, res)


# -- discretized canonical pairs ---------------------------------------------


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
    guard("grid dimension M^(d/2) =", grid.points ** n, DENSE_CAP)
    coeff = np.linalg.inv(sf.transform)
    deriv = spectral_derivative_matrix(grid)
    pos = position_matrix(grid)
    derivs = [on_leg(deriv, k, n) for k in range(n)]
    positions = [on_leg(pos, k, n) for k in range(n)]
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
    v = grid.gaussian_samples(n, sigma).ravel().astype(complex)
    return v / np.linalg.norm(v)
