"""Tests for grid functions, transforms, star products, and the twisted
regular representation."""
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import scipy.integrate

from ncspaces import moyal
from ncspaces.errors import GridMismatchError, SizeCapError, ValidationError
from ncspaces.gridfn import (
    GridFunction,
    GridSpec,
    freq_grid_vectors,
    integral,
    l2_norm,
    read_gridfn,
    to_frequency,
    to_position,
    write_gridfn,
)
from ncspaces.linalg import spectral_norm
from ncspaces.moyal import (
    dimension_reduction_check,
    interior_frequency_mask,
    moyal_direct,
    quantization_constant,
    regular_rep_matrix,
    sobolev_norm,
    sphere_surface,
    star_product_fourier,
    twisted_convolve,
)
from ncspaces.skew import SkewMatrix
from oracles import grid_function, twisted_involution

THETA = SkewMatrix.rotation(1.0)


def band_limited(rng, dim, half_length, points, fraction=1 / 3):
    """Random smooth function whose transform is supported well inside the box."""
    shape = (points,) * dim
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    proto = GridFunction(dim, half_length, points, raw, side="frequency")
    mask = interior_frequency_mask(proto, fraction).reshape(shape)
    return to_position(GridFunction(dim, half_length, points, raw * mask, side="frequency"))


def brute_twisted_convolve(fhat, ghat, theta):
    """The defining per-point sum: one shifted, phased copy of ghat per s."""
    m, d = fhat.points, fhat.dim
    theta_arr = theta.as_array()
    freqs = fhat.freq_axis()
    pad = np.zeros((2 * m,) * d, dtype=complex)
    pad[tuple(slice(m // 2, m // 2 + m) for _ in range(d))] = ghat.values
    out = np.zeros((m,) * d, dtype=complex)
    for idx in np.ndindex(*(m,) * d):
        w = theta_arr.T @ freqs[list(idx)]  # theta(s, t) = (Theta^T s) . t
        phase = np.ones((m,) * d, dtype=complex)
        for ax in range(d):
            shape = [1] * d
            shape[ax] = m
            phase = phase * np.exp(0.5j * w[ax] * freqs).reshape(shape)
        block = pad[tuple(slice(m - i, 2 * m - i) for i in idx)]
        out += fhat.values[idx] * phase * block
    return out * fhat.freq_step**d


def brute_moyal_direct(f, g, theta):
    """The defining s-quadrature: one interpolated, sheared copy of f per s."""
    m, d = f.points, f.dim
    fhat, ghat = to_frequency(f), to_frequency(g)
    theta_arr = theta.as_array()
    freqs = fhat.freq_axis()
    out = np.zeros((m,) * d, dtype=complex)
    for idx in np.ndindex(*(m,) * d):
        s = freqs[list(idx)]
        a = 0.5 * theta_arr @ s  # f(x + a) = sum_m fhat(m) e^{i m.x} e^{i m.a}
        twist = reduce(np.multiply.outer, [np.exp(1j * freqs * ak) for ak in a])
        shifted = to_position(
            GridFunction(d, f.half_length, m, fhat.values * twist, side="frequency")
        ).values
        carrier = reduce(np.multiply.outer, [np.exp(1j * sk * f.axis()) for sk in s])
        out += ghat.values[idx] * shifted * carrier
    return out * fhat.freq_step**d


def trapezoid_matrix(grid, sign):
    """Dense matrix of the defining trapezoid sum over all d axes: entries
    w^d exp(sign i s.x), rows indexed by s and columns by x for the forward
    sum (sign -1, w = h / 2 pi), the other way round for the inverse (w = ds)."""
    d = grid.dim
    one = np.exp(sign * 1j * np.outer(grid.freq_axis(), grid.axis()))  # [k, n]
    if sign > 0:
        one, weight = one.T, grid.freq_step  # [n, k]: back to the positions
    else:
        weight = grid.step / (2 * np.pi)
    mat = np.ones((1, 1))
    for _ in range(d):
        mat = np.kron(mat, one * weight)
    return mat


class TestGridFunction:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("points", [2, 4, 8])
    def test_transforms_match_trapezoid_sums(self, dim, points):
        # M = 2 is the one size whose sign factor (-1)^(d M/2) is -1 at odd d
        rng = np.random.default_rng(10 * dim + points)
        shape = (points,) * dim
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = GridFunction(dim, 3.0, points, vals)
        fhat = GridFunction(dim, 3.0, points, vals, side="frequency")
        forward = trapezoid_matrix(f, -1) @ vals.ravel()
        inverse = trapezoid_matrix(f, 1) @ vals.ravel()
        got_forward = to_frequency(f).values.ravel()
        got_inverse = to_position(fhat).values.ravel()
        assert np.abs(got_forward - forward).max() <= 1e-13 * np.abs(forward).max()
        assert np.abs(got_inverse - inverse).max() <= 1e-13 * np.abs(inverse).max()

    def test_roundtrip_transform(self):
        f = GridFunction.gaussian(2, 8.0, 32, sigma=1.2, center=(0.4, -0.6))
        back = to_position(to_frequency(f))
        assert np.abs(back.values - f.values).max() <= 1e-13

    def test_parseval(self):
        f = GridFunction.gaussian(1, 10.0, 64, sigma=0.8)
        assert l2_norm(to_frequency(f)) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_gaussian_samples_where_squares_overflow(self):
        # past |x - c| of about 1.3e154 the sample is exp(-((x - c) / sigma)^2 / 2)
        grid, sigma = GridSpec(5, 1e155), 1e155 / 32
        expected = np.exp(-((grid.axis() / sigma) ** 2) / 2)
        assert np.abs(grid.gaussian_samples(1, sigma) - expected).max() <= 1e-12 * expected.max()
        # below it every sample is formed as before, bit for bit
        grid, center = GridSpec(8, 3.0), (0.2, -0.1)
        r2 = np.add.outer(*[(grid.axis() - c) ** 2 for c in center])
        assert np.array_equal(grid.gaussian_samples(2, 1.3, center), np.exp(-r2 / (2.0 * 1.3**2)))

    def test_gaussian_transform_analytic(self):
        # unit-height Gaussian: fhat(s) = sigma^d (2 pi)^{-d/2} exp(-s^2 sigma^2/2)
        sigma = 1.3
        f = GridFunction.gaussian(1, 12.0, 128, sigma=sigma, normalized=False)
        fhat = to_frequency(f)
        s = fhat.freq_axis()
        expected = sigma / np.sqrt(2 * np.pi) * np.exp(-(s**2) * sigma**2 / 2)
        assert np.abs(fhat.values - expected).max() <= 1e-12

    def test_power_of_two_enforced(self):
        with pytest.raises(ValidationError):
            GridFunction(1, 4.0, 48, np.zeros(48))

    def test_boundary_ratio(self):
        f = GridFunction.gaussian(1, 10.0, 64, sigma=1.0)
        assert f.boundary_ratio() <= 1e-8
        g = grid_function(1, 10.0, 64, lambda x: np.ones_like(x))
        assert g.boundary_ratio() == 1.0

    def test_serialization_roundtrip(self, tmp_path):
        f = GridFunction.gaussian(2, 6.0, 16, sigma=0.75, center=(0.2, 0.1))
        path = tmp_path / "f.gridfn"
        write_gridfn(f, path)
        g = read_gridfn(path)
        assert g.dim == 2 and g.points == 16 and g.half_length == 6.0
        # payload is complex64: round trip to that precision
        assert np.abs(g.values - f.values).max() <= 1e-6

    def test_serialization_rejects_truncated(self, tmp_path):
        f = GridFunction.gaussian(1, 6.0, 16)
        path = tmp_path / "f.gridfn"
        write_gridfn(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValidationError):
            read_gridfn(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "f.gridfn"
        write_gridfn(GridFunction.gaussian(1, 6.0, 16), path)
        old = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        g = GridFunction.gaussian(1, 6.0, 32)
        object.__setattr__(g, "values", Unwritable())  # raises after the header is out
        with pytest.raises(OSError):
            write_gridfn(g, path)
        assert path.read_bytes() == old
        assert list(tmp_path.glob(".tmp-*")) == []


class TestStarProduct:
    def test_zero_theta_is_pointwise_direct(self):
        f = GridFunction.gaussian(2, 8.0, 32, sigma=1.0)
        g = GridFunction.gaussian(2, 8.0, 32, sigma=1.4, center=(0.5, 0.2))
        prod = moyal_direct(f, g, SkewMatrix.zero(2))
        assert np.abs(prod.values - f.values * g.values).max() <= 1e-8

    def test_zero_theta_is_pointwise_fourier(self):
        # M = 64 so the frequency box holds the product's spectrum to below 1e-8
        f = GridFunction.gaussian(2, 8.0, 64, sigma=1.0)
        g = GridFunction.gaussian(2, 8.0, 64, sigma=1.4, center=(0.5, 0.2))
        prod = star_product_fourier(f, g, SkewMatrix.zero(2))
        assert np.abs(prod.values - f.values * g.values).max() <= 1e-8

    def test_disjoint_bumps_at_zero_theta(self):
        def bump(center):
            def fn(x):
                u = np.clip((x - center) / 1.5, -1, 1)
                return np.where(np.abs(u) < 1, np.exp(-1 / (1 - u**2 + 1e-300)), 0.0)
            return fn

        f = grid_function(1, 10.0, 64, bump(-4.0))
        g = grid_function(1, 10.0, 64, bump(4.0))
        prod = moyal_direct(f, g, SkewMatrix.zero(1))
        assert np.abs(prod.values).max() <= 1e-12

    def test_direct_vs_fourier_gaussians(self):
        f = GridFunction.gaussian(2, 8.0, 64, sigma=1.0)
        g = GridFunction.gaussian(2, 8.0, 64, sigma=1.3, center=(0.4, -0.3))
        d1 = moyal_direct(f, g, THETA)
        d2 = star_product_fourier(f, g, THETA)
        assert np.abs(d1.values - d2.values).max() <= 1e-6

    def test_associativity_band_limited(self):
        rng = np.random.default_rng(0)
        theta = SkewMatrix.rotation(0.7)
        f, g, h = (band_limited(rng, 2, 8.0, 32) for _ in range(3))
        lhs = star_product_fourier(star_product_fourier(f, g, theta), h, theta)
        rhs = star_product_fourier(f, star_product_fourier(g, h, theta), theta)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-8

    def test_tracial_identity(self):
        rng = np.random.default_rng(1)
        theta = SkewMatrix.rotation(0.9)
        f, g = band_limited(rng, 2, 8.0, 32), band_limited(rng, 2, 8.0, 32)
        star = star_product_fourier(f, g, theta)
        plain = integral(GridFunction(2, 8.0, 32, f.values * g.values))
        assert abs(integral(star) - plain) <= 1e-8

    def test_grid_mismatch_rejected(self):
        f = GridFunction.gaussian(2, 8.0, 32)
        g = GridFunction.gaussian(2, 8.0, 64)
        with pytest.raises(GridMismatchError):
            moyal_direct(f, g, THETA)

    def test_direct_guards(self):
        cube = GridFunction.gaussian(3, 8.0, 4)
        with pytest.raises(ValidationError, match="d <= 2") as err:
            moyal_direct(cube, cube, SkewMatrix.from_upper(3, {(0, 1): 1.0}))
        assert not isinstance(err.value, SizeCapError)
        fhat = to_frequency(GridFunction.gaussian(2, 8.0, 16))
        with pytest.raises(ValidationError, match="position-side") as err:
            moyal_direct(fhat, fhat, THETA)
        assert not isinstance(err.value, SizeCapError)
        at_cap = GridFunction.gaussian(2, 8.0, 64)  # M^2 = DIRECT_CAP
        assert np.isfinite(moyal_direct(at_cap, at_cap, THETA).values).all()
        f = GridFunction.gaussian(2, 8.0, 128)
        with pytest.raises(SizeCapError):
            moyal_direct(f, f, THETA)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("points", [8, 16, 32, 64])  # 64^2 = DIRECT_CAP
    def test_direct_matches_quadrature_oracle(self, dim, points):
        rng = np.random.default_rng(100 * dim + points)
        shape = (points,) * dim
        f, g = (
            GridFunction(dim, 5.0, points,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2)
        )
        if dim == 1:
            thetas = [SkewMatrix.zero(1)]
        else:
            thetas = [SkewMatrix.rotation(sign * rng.uniform(0.3, 2.0)) for sign in (1, -1)]
        for theta in thetas:
            want = brute_moyal_direct(f, g, theta)
            got = moyal_direct(f, g, theta).values
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("points", [8, 32, 64])
    def test_direct_bits_independent_of_block_size(self, monkeypatch, points):
        # each block of first-axis modes is folded into the running total in
        # the order of one sum over all modes: one mode per block, 7 modes
        # and all M modes in one block give the same bits
        rng = np.random.default_rng(points)
        shape = (points, points)
        f, g = (GridFunction(2, 5.0, points,
                             rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for _ in range(2))
        want = moyal_direct(f, g, THETA).values.tobytes()
        for rows in (1, 7, 10**6):
            monkeypatch.setattr(moyal, "FFT_ROWS", rows)
            assert moyal_direct(f, g, THETA).values.tobytes() == want

    def test_direct_working_set(self):
        f = GridFunction.gaussian(2, 8.0, 64, sigma=1.0)
        g = GridFunction.gaussian(2, 8.0, 64, sigma=1.3, center=(0.4, -0.3))
        moyal_direct(f, g, THETA)  # numpy's FFT caches its plans on first use
        tracemalloc.start()
        try:
            moyal_direct(f, g, THETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex (M, M, M) array is 4 MB here, and four of them were
        # formed at once; the blocks of 256 KB stay below 1.5 MB
        assert peak < 4 * 2**20

    def test_product_past_its_growth_bound_is_computed(self):
        # O(1) samples at L = 1e78: the Fourier route's growth bound leaves
        # the float range, but nothing it forms does, so it answers as the
        # unchecked route would (the quadrature overflows there and refuses:
        # the entry row moyal-product-overflow)
        f = GridFunction.gaussian(2, 1e78, 64, normalized=False)
        theta = SkewMatrix.rotation(0.5)
        fhat = to_frequency(f)
        want = to_position(twisted_convolve(fhat, fhat, theta)).values
        got = star_product_fourier(f, f, theta).values
        assert got.tobytes() == want.tobytes()
        assert np.abs(got).max() == pytest.approx(0.5625)


class TestTwistedConvolve:
    def test_zero_theta_matches_plain_convolution(self):
        rng = np.random.default_rng(2)
        f = band_limited(rng, 1, 8.0, 32, fraction=0.4)
        g = band_limited(rng, 1, 8.0, 32, fraction=0.4)
        fh, gh = to_frequency(f), to_frequency(g)
        out = twisted_convolve(fh, gh, SkewMatrix.zero(1))
        # oracle: zero-padded linear convolution, cropped to the box
        n = 32
        conv = np.convolve(fh.values, gh.values, mode="full")[n // 2 : n // 2 + n]
        conv = conv * fh.freq_step
        assert np.abs(out.values - conv).max() <= 1e-12

    def test_delta_input_shifts_with_phase(self):
        m = 16
        fh = np.zeros((m, m), dtype=complex)
        fh[10, 7] = 2.0
        fhat = GridFunction(2, 6.0, m, fh, side="frequency")
        g = GridFunction.gaussian(2, 6.0, m, sigma=1.0)
        ghat = to_frequency(g)
        out = twisted_convolve(fhat, ghat, THETA)
        freqs = fhat.freq_axis()
        s0 = np.array([freqs[10], freqs[7]])
        tvec = freq_grid_vectors(fhat)
        phases = np.exp(0.5j * (s0 @ THETA.as_array() @ (tvec - s0).T))
        idx = np.rint((tvec - s0) / fhat.freq_step).astype(int) + m // 2
        ok = ((idx >= 0) & (idx < m)).all(axis=1)
        lin = np.clip(idx[:, 0], 0, m - 1) * m + np.clip(idx[:, 1], 0, m - 1)
        oracle = np.where(ok, 2.0 * ghat.values.reshape(-1)[lin] * phases, 0.0)
        oracle = oracle * fhat.freq_step**2
        assert np.abs(out.values.reshape(-1) - oracle).max() <= 1e-14

    def test_requires_frequency_side(self):
        f = GridFunction.gaussian(1, 8.0, 32)
        with pytest.raises(ValidationError):
            twisted_convolve(f, f, SkewMatrix.zero(1))

    @pytest.mark.parametrize("dim, points", [(2, 512), (3, 32)])
    def test_size_cap(self, dim, points):
        # M^(2d-1) is 2^27 and 2^25, past CONVOLVE_CAP = 2^24 (the plane at
        # M = 256, three axes at M = 16, the largest grids admitted)
        fhat = GridFunction(dim, 8.0, points, np.zeros((points,) * dim), side="frequency")
        theta = SkewMatrix.from_upper(dim, {(0, 1): 1.0})
        with pytest.raises(SizeCapError, match="twisted convolution M"):
            twisted_convolve(fhat, fhat, theta)

    # at M = 2 and 4 one block spans the box, and the rows t' - s' that fall
    # outside it (a quarter of the pairs per axis at M = 2) are never gathered
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("points", [2, 4, 8, 16])
    def test_matches_brute_force_oracle(self, dim, points):
        rng = np.random.default_rng(10 * dim + points)
        theta = SkewMatrix.random(dim, rng, scale=2.0)
        shape = (points,) * dim
        fh, gh = (
            GridFunction(dim, 5.0, points,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         side="frequency")
            for _ in range(2)
        )
        want = brute_twisted_convolve(fh, gh, theta)
        got = twisted_convolve(fh, gh, theta).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # a block holds about FFT_ROWS pairs (s', t'): 11 values of t_0 at M = 32
    # on the plane, 5 at M = 64 and 2 points t' at d = 3, M = 16
    @pytest.mark.parametrize("dim, points", [(2, 32), (2, 64), (3, 16)])
    def test_blocks_match_brute_force_oracle(self, dim, points):
        rng = np.random.default_rng(1000 * dim + points)
        shape = (points,) * dim
        fh, gh = (
            GridFunction(dim, 5.0, points,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         side="frequency")
            for _ in range(2)
        )
        theta = SkewMatrix.random(dim, rng, scale=2.0).as_array()
        for sign in (1, -1):
            skew = SkewMatrix.from_matrix(sign * theta)
            want = brute_twisted_convolve(fh, gh, skew)
            got = twisted_convolve(fh, gh, skew).values
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_input_gives_zero(self):
        g = to_frequency(GridFunction.gaussian(2, 6.0, 16, sigma=1.0))
        zero = GridFunction(2, 6.0, 16, np.zeros((16, 16)), side="frequency")
        assert not np.any(twisted_convolve(zero, g, THETA).values)

    def test_large_grid_star_product(self):
        # M = 256 is out of reach of the per-point loop (M^4 terms)
        rng = np.random.default_rng(5)
        theta = SkewMatrix.rotation(0.9)
        m = 256
        f, g = band_limited(rng, 2, 8.0, m), band_limited(rng, 2, 8.0, m)
        fh, gh = to_frequency(f), to_frequency(g)
        out = twisted_convolve(fh, gh, theta)
        plain = integral(GridFunction(2, 8.0, m, f.values * g.values))
        assert abs(integral(to_position(out)) - plain) <= 1e-8
        # the tracial identity sees only t = 0, where the twist is 1: spot-check
        # other points against the defining sum
        svec = freq_grid_vectors(fh)
        for t in rng.integers(0, m, size=(4, 2)):
            rows = [t[ax] - np.arange(m) + m // 2 for ax in range(2)]  # index of t - s
            inside = np.multiply.outer(*[(r >= 0) & (r < m) for r in rows])
            shifted = gh.values[np.ix_(*[np.clip(r, 0, m - 1) for r in rows])] * inside
            phase = np.exp(0.5j * svec @ theta.as_array() @ fh.freq_axis()[t]).reshape(m, m)
            want = (fh.values * shifted * phase).sum() * fh.freq_step**2
            assert abs(out.values[tuple(t)] - want) <= 1e-12 * np.abs(out.values).max()


class TestRegularRepresentation:
    def test_delta_symbol_gives_identity(self):
        m = 8
        fh = np.zeros((m, m), dtype=complex)
        fh[m // 2, m // 2] = 3.0  # delta at frequency 0
        fhat = GridFunction(2, 6.0, m, fh, side="frequency")
        mat = regular_rep_matrix(fhat, THETA)
        expected = 3.0 * fhat.freq_step**2 * np.eye(m * m)
        assert np.abs(mat - expected).max() <= 1e-14

    def test_zero_theta_norm_close_to_sup(self):
        f = GridFunction.gaussian(1, 10.0, 256, sigma=1.0)
        mat = regular_rep_matrix(f, SkewMatrix.zero(1))
        norm = spectral_norm(mat)
        peak = np.abs(f.values).max()
        assert norm <= peak + 1e-10
        assert norm == pytest.approx(peak, rel=2e-3)
        assert norm == pytest.approx(np.linalg.norm(mat, 2), rel=1e-8)

    def test_multiplicativity_interior(self):
        f = GridFunction.gaussian(2, 8.0, 32, sigma=1.0)
        g = GridFunction.gaussian(2, 8.0, 32, sigma=1.2, center=(0.3, -0.2))
        lf = regular_rep_matrix(f, THETA)
        lg = regular_rep_matrix(g, THETA)
        lfg = regular_rep_matrix(star_product_fourier(f, g, THETA), THETA)
        mask = interior_frequency_mask(f, 0.4)
        sub = np.ix_(mask, mask)
        assert np.abs((lf @ lg - lfg)[sub]).max() <= 1e-6

    def test_star_representation_exact_for_band_limited(self):
        rng = np.random.default_rng(3)
        f = band_limited(rng, 2, 8.0, 16, fraction=0.4)
        fhat = to_frequency(f)
        lf = regular_rep_matrix(f, THETA)
        lfstar = regular_rep_matrix(to_position(twisted_involution(fhat)), THETA)
        assert np.abs(lfstar - lf.conj().T).max() <= 1e-14

    def test_size_cap(self):
        f = GridFunction.gaussian(2, 8.0, 128)
        with pytest.raises(SizeCapError):
            regular_rep_matrix(f, THETA)

    def test_matches_dense_phase_formula_d3(self):
        rng = np.random.default_rng(9)
        theta = SkewMatrix.random(3, rng, scale=2.0)
        m = 8
        shape = (m,) * 3
        fhat = GridFunction(3, 5.0, m, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            side="frequency")
        tvecs = freq_grid_vectors(fhat)
        # fhat(t - t') on the grid, zero outside the box: index i - i' + M/2
        grid = np.indices(shape).reshape(3, -1).T
        steps = grid[:, None, :] - grid[None, :, :] + m // 2
        inside = ((steps >= 0) & (steps < m)).all(axis=2)
        steps = np.clip(steps, 0, m - 1)
        entries = np.where(inside, fhat.values[steps[..., 0], steps[..., 1], steps[..., 2]], 0)
        want = entries * np.exp(0.5j * (tvecs @ theta.as_array() @ tvecs.T)) * fhat.freq_step**3
        got = regular_rep_matrix(fhat, theta)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_twisted_convolve_d2(self, sign):
        rng = np.random.default_rng(7)
        theta = SkewMatrix.rotation(sign * 1.3)
        shape = (16,) * 2
        fhat, ghat = (
            GridFunction(2, 5.0, 16, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         side="frequency")
            for _ in range(2)
        )
        applied = regular_rep_matrix(fhat, theta) @ ghat.values.ravel()
        expected = twisted_convolve(fhat, ghat, theta).values.ravel()
        assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_matches_twisted_convolve_d3(self):
        rng = np.random.default_rng(8)
        theta = SkewMatrix.random(3, rng)
        shape = (8,) * 3
        fhat, ghat = (
            GridFunction(3, 5.0, 8, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         side="frequency")
            for _ in range(2)
        )
        applied = regular_rep_matrix(fhat, theta) @ ghat.values.ravel()
        expected = twisted_convolve(fhat, ghat, theta).values.ravel()
        assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()


class TestTwistedInvolution:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_conjugate_at_negated_frequency(self, dim):
        # ascending index i holds s = (pi/L)(i - M/2); -s sits at index M - i,
        # and the unpaired -M/2 (i = 0) is its own image on the periodic box
        m = 8
        rng = np.random.default_rng(dim)
        vals = rng.standard_normal((m,) * dim) + 1j * rng.standard_normal((m,) * dim)
        fhat = GridFunction(dim, 4.0, m, vals, side="frequency")
        out = twisted_involution(fhat).values
        freqs = fhat.freq_axis()
        for idx in np.ndindex(*(m,) * dim):
            image = tuple((m - i) % m for i in idx)
            assert out[idx] == np.conj(vals[image])
            for i, j in zip(idx, image):
                assert i == 0 or freqs[j] == -freqs[i]


class TestSobolev:
    def test_alpha_zero_is_l2(self):
        f = GridFunction.gaussian(1, 10.0, 64, sigma=0.7)
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_single_mode(self):
        m, L = 64, 8.0
        f0 = grid_function(1, L, m, lambda x: np.exp(1j * (np.pi / L) * 4 * x))
        s0 = (np.pi / L) * 4
        expected = (1 + s0**2) ** 1.25 * l2_norm(f0)
        assert sobolev_norm(f0, 2.5) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_alpha2_against_quadrature(self):
        # adaptive quadrature of the continuum weight against the analytic
        # transform of the L2-normalized Gaussian
        f = GridFunction.gaussian(1, 12.0, 256, sigma=1.0)
        peak = f.values.real.max()

        def weighted(s):
            fhat = peak / (2 * np.pi) * np.sqrt(2 * np.pi) * np.exp(-(s**2) / 2)
            return (1 + s**2) ** 2 * fhat**2

        val, _ = scipy.integrate.quad(weighted, -30, 30)
        expected = np.sqrt(2 * np.pi * val)
        assert sobolev_norm(f, 2.0) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        f = band_limited(rng, 1, 8.0, 32)
        norms = [sobolev_norm(f, a) for a in (0.0, 0.5, 1.0, 2.0, 3.5)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


class TestQuantizationConstant:
    def test_plane_value(self):
        assert quantization_constant(3.0, 2, 1.0) == pytest.approx(np.sqrt(np.pi), rel=1e-15)

    def test_sphere_surfaces(self):
        assert sphere_surface(2) == pytest.approx(2 * np.pi)
        assert sphere_surface(3) == pytest.approx(4 * np.pi)

    def test_large_alpha_limit(self):
        vals = [quantization_constant(a, 2, 1.0) for a in (3.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.06

    def test_divergence_boundary(self):
        with pytest.raises(ValidationError):
            quantization_constant(2.0, 2, 1.0)


class TestDimensionReduction:
    def test_decoupled_last_axis_is_exact(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): 0})
        f = GridFunction.gaussian(1, 10.0, 64, sigma=1.0)
        rep = dimension_reduction_check(f, theta, 3, allow_singular=True)
        assert max(rep.deviations) == 0

    def test_gaussian_sequence_converges(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): 0.2})
        f = GridFunction.gaussian(1, 10.0, 128, sigma=1.0)
        rep = dimension_reduction_check(f, theta, 8)
        assert all(a > b for a, b in zip(rep.deviations, rep.deviations[1:]))
        assert rep.deviations[-1] <= 1e-4
        assert rep.observed_rate == pytest.approx(1.0, abs=0.1)
        assert rep.norms[-1] == pytest.approx(rep.reference_norm, rel=1e-6)

    def test_deviation_bounded_by_beta(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): 0.2})
        f = GridFunction.gaussian(1, 10.0, 128, sigma=1.0)
        rep = dimension_reduction_check(f, theta, 6)
        for dev, bound in zip(rep.deviations, rep.bounds):
            assert dev <= bound

    def test_singular_theta_rejected_by_default(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): 0})
        f = GridFunction.gaussian(1, 10.0, 64)
        with pytest.raises(ValidationError):
            dimension_reduction_check(f, theta, 3)
