"""Reference constructions that only tests read: dense unitaries, the raw
structure exponent, the frequency-side involution and grid functions from a
callable.  Each is the direct formula, checked against the library's own
routes in the tests that import it."""
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ncspaces.errors import DENSE_CAP, ValidationError, as_index, as_real, guard
from ncspaces.gridfn import GridFunction, GridSpec
from ncspaces.linalg import fourier_multiplier
from ncspaces.skew import SkewMatrix


def translation_unitary(s: float, grid: GridSpec) -> np.ndarray:
    """(u(s) f)(x) = f(x + s) as a dense unitary: the Fourier multiplier
    exp(i k s), a circulant built in O(M^2).  Guarded to M <= DENSE_CAP."""
    guard("grid points M", grid.points, DENSE_CAP)
    return fourier_multiplier(np.exp(1j * grid.frequencies() * as_real("s", s)))


def modulation_unitary(t: float, grid: GridSpec) -> np.ndarray:
    """(v(t) f)(x) = exp(i x t) f(x): a diagonal unitary.  Guarded to
    M <= DENSE_CAP."""
    guard("grid points M", grid.points, DENSE_CAP)
    return np.diag(np.exp(1j * grid.axis() * as_real("t", t)))


def structure_exponent(m: Sequence[int], m2: Sequence[int], theta: SkewMatrix):
    """Raw exponent c(m, m') = -sum_{j<k} theta_jk m_k m'_j (not reduced),
    from the structure form theta.twist: a Fraction for rational theta, a
    float otherwise."""
    if len(m) != theta.dim or len(m2) != theta.dim:
        raise ValidationError(
            f"multi-index dimension {len(m)}/{len(m2)} != theta dimension {theta.dim}"
        )
    c = theta.twist.scaled(m, m2)
    return Fraction(int(c), theta.twist.order) if theta.is_rational else float(c)


def structure_phase(m: Sequence[int], m2: Sequence[int], theta: SkewMatrix):
    """Exponent c with u^m u^{m'} = exp(2*pi*i*c) u^{m+m'}, reduced into [0, 1)."""
    return structure_exponent(m, m2, theta) % 1


def twisted_involution(fhat: GridFunction) -> GridFunction:
    """fstar^(s) = conj(fhat(-s)); the cocycle factor sigma(s,-s) is 1."""
    if fhat.side != "frequency":
        raise ValidationError("twisted_involution expects a frequency-side function")
    # ascending order holds -M/2 .. M/2-1 per axis: a flip maps j to -j only
    # after rolling the unpaired -M/2 entry back to the front
    flipped = np.roll(np.flip(fhat.values), 1, axis=tuple(range(fhat.dim)))
    return GridFunction(
        fhat.dim, fhat.half_length, fhat.points, np.conj(flipped), side="frequency"
    )


def grid_function(dim: int, half_length: float, points: int, fn: Callable) -> GridFunction:
    """fn at every point of the dim-fold position grid."""
    ax = GridSpec(points, half_length).axis()
    grids = np.meshgrid(*([ax] * as_index("dimension", dim, 1)), indexing="ij")
    return GridFunction(dim, half_length, points, np.asarray(fn(*grids), dtype=complex))
