"""Dense linear-algebra helpers: spectral norms, Hermitian exponentials,
Fourier multipliers, and the shared array primitives (Kronecker products,
grid boxes, the round-off factor gamma_n)."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError, as_index

UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
# relative error of one floating-point complex product, sqrt(2) gamma_2
# (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 3.5)
COMPLEX_PRODUCT = 2 * math.sqrt(2) * UNIT_ROUNDOFF / (1 - 2 * UNIT_ROUNDOFF)


def gamma_n(n: int) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n roundings (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Lemma 3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The Kronecker product mats[0] (x) mats[1] (x) ..., of 2-D arrays.

    Each half of the legs is formed recursively, and the product of the two
    halves a (m x n) and b (p x q) is written into a preallocated (m, p, n, q)
    array, viewed as (mp, nq): no transpose copy and no chain of full-size
    intermediates.  When at most half of a's entries are nonzero, as for the
    clock, shift and identity legs of finite_reps (one nonzero per row), the
    array starts zeroed and only the blocks a_ij b with a_ij != 0 are written,
    in one fancy-index assignment: O(nnz(a) pq) products on top of the zero
    fill, and a block with a_ij = 0 stays 0 even where b is not finite.  A
    denser a is written by one broadcast multiply, O(mnpq).  Either way each
    entry is the product of one entry per leg, associated as the halving
    tree; entries of exact factors come out exact, and the rounded ones as
    bounded in finite_reps._assemble.  One leg comes back as is; an empty
    list, or a leg that is not 2-D, is a ValidationError."""
    if not mats:
        raise ValidationError("kron needs at least one leg")
    if len(mats) == 1:
        leg = np.asarray(mats[0])
        if leg.ndim != 2:
            raise ValidationError(f"kron legs must be 2-D, got shape {leg.shape}")
        return leg
    half = len(mats) // 2
    a, b = kron(mats[:half]), kron(mats[half:])
    (m, n), (p, q) = a.shape, b.shape
    dtype = np.result_type(a, b)
    if 2 * np.count_nonzero(a) <= a.size:
        rows, cols = np.nonzero(a)
        out = np.zeros((m, p, n, q), dtype=dtype)
        out[rows, :, cols, :] = a[rows, cols, None, None] * b
    else:
        out = np.empty((m, p, n, q), dtype=dtype)
        np.multiply(a[:, None, :, None], b[None, :, None, :], out=out)
    return out.reshape(m * p, n * q)


def on_leg(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """op on leg k of n equal legs, the identity on the others:
    I (x) ... (x) op (x) ... (x) I.  A leg k outside 0..n-1 is a
    ValidationError."""
    k, n = as_index("k", k), as_index("n", n)
    if not 0 <= k < n:
        raise ValidationError(f"leg k = {k} is not one of the {n} legs")
    eye = np.eye(op.shape[0], dtype=op.dtype)
    return kron([op if leg == k else eye for leg in range(n)])


def box_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """Every point of axis^dim as a row, in C order (the last coordinate
    varies fastest), shape (len(axis)^dim, dim)."""
    return np.stack([axis[i].ravel() for i in np.indices((len(axis),) * dim)], axis=1)


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a dense matrix, or an upper bound on it; one
    value per matrix of a stack ``(..., m, n)``.

    One full SVD at every size (Golub & Van Loan, *Matrix Computations*,
    sec. 2.3), so a gate ``spectral_norm(defect) <= tol`` certifies what it
    says.  A round-off matrix, Frobenius norm at most 1e-13, skips the SVD and
    gets ``min(||A||_F, sqrt(||A||_1 ||A||_inf))``: both bound ``||A||_2``
    from above, and the second is exact for monomial matrices such as
    clock/shift defects.  A matrix gives a float; a stack gives an array, each
    entry bitwise equal to the call on that matrix alone.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("spectral_norm expects a matrix or a stack of matrices")
    if a.ndim == 2:
        return _matrix_norm(a)
    out = np.zeros(a.shape[:-2])
    # Frobenius norms to within a few roundings: a matrix that may lie at or
    # below the round-off threshold takes the one-matrix path, which decides
    # exactly; every other matrix is certainly above it, and all of those go
    # through one stacked SVD
    fro = np.sqrt(np.einsum("...ij,...ij->...", a.conj(), a).real)
    near = fro <= 2e-13
    out[near] = [_matrix_norm(m) for m in a[near]]
    if not near.all():
        out[~near] = np.linalg.svd(a[~near], compute_uv=False)[..., 0]
    return out


def _matrix_norm(a: np.ndarray) -> float:
    if min(a.shape) == 0:
        return 0.0
    fro = float(np.sqrt(np.vdot(a, a).real))
    if fro <= 1e-13:
        # the Hoelder bound only where it is returned: every other call,
        # most of them on 2..8-dimensional matrices, pays for one vdot
        return min(fro, float(holder_bound(a)))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def holder_bound(a: np.ndarray):
    """``sqrt(||A||_1 ||A||_inf)``, an upper bound on the spectral norm of A and
    of its entrywise modulus ``|A|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 6.3); one bound per matrix of a stack."""
    mag = np.abs(a)
    return np.sqrt(mag.sum(axis=-2).max(axis=-1) * mag.sum(axis=-1).max(axis=-1))


def hermiticity_defect(p: np.ndarray) -> float:
    return spectral_norm(p - p.conj().T)


class HermitianExponential:
    """Caches the eigendecomposition of P so that exp(iPt) is cheap in t."""

    def __init__(self, p: np.ndarray):
        self._w, self._v = np.linalg.eigh(p)
        self._radius = float(np.abs(self._w).max(initial=0.0))

    def at(self, t) -> np.ndarray:
        """exp(iPt) for a real t, or one exp(iPt) per entry of an array of
        times, stacked as ``t.shape + (n, n)``.  A time whose product with the
        largest eigenvalue modulus of P overflows is a ValidationError, raised
        before any exponential is formed."""
        t = np.asarray(t, dtype=float)
        if not math.isfinite(float(np.abs(t).max(initial=0.0)) * self._radius):
            raise ValidationError(
                f"sample time times the generator's eigenvalue modulus {self._radius:.3g}"
                " is not finite")
        phases = np.exp(1j * t[..., None] * self._w)[..., None, :]
        return (self._v * phases) @ self._v.conj().T


def fourier_multiplier(symbol: np.ndarray) -> np.ndarray:
    """Dense matrix of the operator with eigenvalues ``symbol`` (fft order)
    on the discrete Fourier basis.

    A circulant (Davis, *Circulant Matrices*, 1979): entry (a, b) is
    ``ifft(symbol)[(a - b) mod M]``, so building it costs O(M^2).
    """
    col = np.fft.ifft(symbol)
    idx = np.arange(len(col))
    return col[(idx[:, None] - idx[None, :]) % len(col)]


def kernel_dimension(a: np.ndarray) -> int:
    """Dimension of ker(A) for a dense matrix: singular values at most 1e-10
    times the largest count as zero."""
    a = np.asarray(a)
    if a.size == 0:
        return a.shape[1]
    s = np.linalg.svd(a, compute_uv=False)
    top = s.max() if s.size else 0.0
    if top == 0.0:
        return a.shape[1]
    rank = int(np.count_nonzero(s > 1e-10 * top))
    return a.shape[1] - rank
