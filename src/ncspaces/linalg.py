"""Dense linear-algebra helpers: spectral norms, Hermitian exponentials."""
from __future__ import annotations

import numpy as np

# below this size a full SVD is cheaper and exact; above it, power iteration
_SVD_CUTOFF = 512


def spectral_norm(a: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Largest singular value of a dense matrix.

    Full SVD below size _SVD_CUTOFF, power iteration on A*A above it.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if min(a.shape) == 0:
        return 0.0
    if max(a.shape) < _SVD_CUTOFF:
        return float(np.linalg.norm(a, 2))
    fro = float(np.linalg.norm(a))
    if fro <= 1e-13:
        # already negligible; the Frobenius norm is an upper bound and avoids
        # grinding power iteration on round-off noise
        return fro
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    est_prev = 0.0
    for _ in range(max_iter):
        w = a @ v
        z = a.conj().T @ w
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = float(np.sqrt(nz))
        v = z / nz
        if abs(est - est_prev) <= tol * fro:
            return est
        est_prev = est
    return est_prev


def hermiticity_defect(p: np.ndarray) -> float:
    return spectral_norm(p - p.conj().T)


def expm_i_hermitian(p: np.ndarray, t: float) -> np.ndarray:
    """``exp(i t P)`` for Hermitian P via eigendecomposition."""
    w, v = np.linalg.eigh(p)
    return (v * np.exp(1j * t * w)) @ v.conj().T


class HermitianExponential:
    """Caches the eigendecomposition of P so that exp(iPt) is cheap in t."""

    def __init__(self, p: np.ndarray):
        self._w, self._v = np.linalg.eigh(p)

    def at(self, t: float) -> np.ndarray:
        return (self._v * np.exp(1j * t * self._w)) @ self._v.conj().T


def kernel_dimension(a: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Dimension of ker(A) for a dense matrix, by singular-value threshold."""
    a = np.asarray(a)
    if a.size == 0:
        return a.shape[1]
    s = np.linalg.svd(a, compute_uv=False)
    top = s.max() if s.size else 0.0
    if top == 0.0:
        return a.shape[1]
    rank = int(np.count_nonzero(s > rel_tol * top))
    return a.shape[1] - rank
