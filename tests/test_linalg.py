"""Tests for the spectral norm behind every "defect <= tol" gate, and for the
Hermitian exponential the generator check stacks over sample times."""
import numpy as np
import pytest

from ncspaces.finite_reps import clock_shift
from ncspaces.linalg import HermitianExponential, spectral_norm


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


def test_stack_matches_each_matrix_bitwise():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    stack[1] *= 1e-15  # round-off: the Hoelder/Frobenius branch
    stack[3] = 0.0
    stack[4] *= 1.5e-13 / np.linalg.norm(stack[4])  # Frobenius norm just above 1e-13: an SVD
    norms = spectral_norm(stack.reshape(2, 3, 5, 5))
    assert norms.shape == (2, 3)
    assert norms.ravel().tolist() == [spectral_norm(m) for m in stack]
    assert norms[0, 1] <= 1e-13
    assert norms[1, 1] == np.linalg.svd(stack[4], compute_uv=False)[0]


def test_matrix_gives_a_float():
    assert type(spectral_norm(np.eye(3))) is float


def test_stack_of_empty_matrices_gives_zeros():
    assert spectral_norm(np.zeros((4, 3, 0))).tolist() == [0.0] * 4
    assert spectral_norm(np.zeros((0, 2, 2))).shape == (0,)


@pytest.mark.parametrize("a", [np.float64(1.0), np.ones(3)], ids=["scalar", "vector"])
def test_fewer_than_two_axes_raise(a):
    with pytest.raises(ValueError):
        spectral_norm(a)


def test_exponential_of_a_time_array_stacks_the_single_times():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    exp = HermitianExponential((x + x.conj().T) / 2)
    ts = [-3.0, 1e-4, 0.5, 2.25]
    stack = exp.at(np.array(ts))
    assert stack.shape == (4, 7, 7)
    for k, t in enumerate(ts):
        single = exp.at(t)
        assert single.shape == (7, 7)
        assert np.array_equal(stack[k], single)
