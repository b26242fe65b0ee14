"""Tests for the spectral norm behind every "defect <= tol" gate."""
import numpy as np

from ncspaces.finite_reps import clock_shift
from ncspaces.linalg import spectral_norm


def test_roundoff_matrix_gets_an_upper_bound():
    rng = np.random.default_rng(0)
    a = 1e-16 * (rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600)))
    assert np.linalg.svd(a, compute_uv=False)[0] <= spectral_norm(a) <= 1e-13


def test_monomial_defect_gets_its_largest_entry():
    t = clock_shift(22, 29)
    u, v = t.matrices
    defect = u @ v - t.sigma[0, 1] * (v @ u)
    assert np.linalg.norm(defect) > np.abs(defect).max()  # Frobenius alone overshoots
    assert spectral_norm(defect) == np.abs(defect).max()
