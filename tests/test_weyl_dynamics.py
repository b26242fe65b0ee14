"""Tests for the discrete unitary groups, assembly identities, and the
refinement-constant audit."""
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from ncspaces.errors import DENSE_CAP, DegenerateFitError, SizeCapError, ValidationError
from ncspaces.linalg import HermitianExponential, gamma_n, holder_bound, spectral_norm
from ncspaces.symplectic import GridSpec, gaussian_state
from ncspaces.weyl_dynamics import (
    HermitianPair,
    UnitaryField,
    assembly_convergence_order,
    audit_interpolation_constants,
    check_assembly_identities,
    generator_bound_check,
    modulation_unitary,
    translation_unitary,
    weyl_residual,
)

GRID = GridSpec.self_dual(64)


class TestGroups:
    def test_translation_by_one_step_is_permutation(self):
        u = translation_unitary(GRID.step, GRID)
        perm = np.zeros((64, 64))
        perm[np.arange(64), (np.arange(64) + 1) % 64] = 1.0
        assert np.abs(u - perm).max() <= 1e-12

    def test_translation_zero_is_identity(self):
        assert np.abs(translation_unitary(0.0, GRID) - np.eye(64)).max() <= 1e-14

    def test_translation_group_law(self):
        u1 = translation_unitary(0.3, GRID)
        u2 = translation_unitary(0.4, GRID)
        u3 = translation_unitary(0.7, GRID)
        assert np.abs(u1 @ u2 - u3).max() <= 1e-13

    def test_modulation_identity_and_inverse(self):
        assert np.abs(modulation_unitary(0.0, GRID) - np.eye(64)).max() == 0
        v1 = modulation_unitary(1.0, GRID)
        v2 = modulation_unitary(-1.0, GRID)
        assert np.abs(v1 @ v2 - np.eye(64)).max() <= 1e-15

    def test_modulation_entries(self):
        v = modulation_unitary(1.0, GRID)
        assert np.abs(np.diag(v) - np.exp(1j * GRID.axis())).max() <= 1e-15


class TestWeylResidual:
    def test_zero_theta(self):
        rep = weyl_residual(0.0, 0.37, 0.37, GRID)
        assert rep.residual <= 1e-13

    def test_commensurate_configuration(self):
        rep = weyl_residual(1.0, GRID.dual_step, GRID.step, GRID)
        assert rep.commensurate_shift and rep.commensurate_modulation
        assert rep.residual <= 1e-12
        assert rep.operator_defect <= 1e-12

    def test_refinement_decreases_at_first_order(self):
        vals = []
        for m in (64, 128, 256):
            rep = weyl_residual(1.0, 0.37, 0.37, GridSpec(m, 10.0))
            vals.append(rep.residual)
        assert vals[1] < vals[0] and vals[2] < vals[1]
        assert np.log2(vals[0] / vals[1]) >= 1.0

    def test_operator_defect_is_an_upper_bound(self):
        for m in (64, 512, 1024):
            rep = weyl_residual(1.0, 0.37, 0.37, GridSpec(m, 10.0))
            assert rep.operator_defect >= rep.residual

    def test_operator_defect_is_not_below_the_exact_norm(self):
        grid = GridSpec.self_dual(1024)
        rep = weyl_residual(1.0, 0.37, 0.51, grid)
        u = translation_unitary(0.37, grid)
        v = modulation_unitary(0.51, grid)
        defect = u @ v - np.exp(1j * 0.37 * 0.51) * (v @ u)
        exact = np.linalg.svd(defect, compute_uv=False)[0]
        # the two evaluation orders of the defect differ by round-off only
        assert rep.operator_defect >= exact * (1.0 - 1e-12)


    @pytest.mark.parametrize("m", [64, 256, 1024])
    def test_off_lattice_defect_bound(self, m):
        rng = np.random.default_rng(m)
        for grid in (GridSpec.self_dual(m), GridSpec(m, 10.0)):
            theta, s, t = rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            rep = weyl_residual(theta, s, t, grid)
            assert not (rep.commensurate_shift or rep.commensurate_modulation)
            u = translation_unitary(theta * s, grid)
            v = np.exp(1j * grid.axis() * t)
            defect = u * (v[None, :] - np.exp(1j * s * t * theta) * v[:, None])
            exact = np.linalg.svd(defect, compute_uv=False)[0]
            assert exact <= rep.operator_defect <= 2.0 + 1e-9

    @pytest.mark.parametrize("m", [512, 1024])
    def test_lattice_defect_bound_stays_round_off(self, m):
        for grid in (GridSpec.self_dual(m), GridSpec(m, 10.0)):
            rep = weyl_residual(1.0, 3 * grid.step, 5 * grid.dual_step, grid)
            assert rep.commensurate_shift and rep.commensurate_modulation
            assert rep.operator_defect <= 1e-12

    @staticmethod
    def _dense_defect(theta, s, t, grid):
        """The defect formed as a dense M x M array, the oracle of the FFT route."""
        u = translation_unitary(theta * s, grid)
        v = np.exp(1j * grid.axis() * t)
        return u * (v[None, :] - np.exp(1j * s * t * theta) * v[:, None])

    @pytest.mark.parametrize("m", [48, 64, 100, 256])
    def test_residual_matches_the_dense_defect(self, m):
        for grid in (GridSpec.self_dual(m), GridSpec(m, 6.0)):
            psi = gaussian_state(grid, 1, grid.half_length / 32.0)
            for theta, s, t in ((1.0, 0.37, 0.37), (1.3, 0.21, 0.55),
                                (1.0, 3 * grid.step, 5 * grid.dual_step)):
                rep = weyl_residual(theta, s, t, grid)
                dense = float(np.linalg.norm(self._dense_defect(theta, s, t, grid) @ psi))
                assert abs(rep.residual - dense) <= 1e-14
                assert weyl_residual(theta, s, t, grid) == rep  # bit-identical run to run

    @pytest.mark.parametrize("m", [48, 100])
    def test_non_power_of_two_bound_keeps_its_value(self, m):
        rng = np.random.default_rng(m)
        for grid in (GridSpec.self_dual(m), GridSpec(m, 6.0)):
            theta, s, t = rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            rep = weyl_residual(theta, s, t, grid)
            assert not (rep.commensurate_shift or rep.commensurate_modulation)
            defect = self._dense_defect(theta, s, t, grid)
            hoelder = float(holder_bound(defect)) / (1 - gamma_n(m + 32))
            assert rep.operator_defect == pytest.approx(hoelder, rel=1e-12)
            assert rep.operator_defect >= np.linalg.svd(defect, compute_uv=False)[0]
            lattice = weyl_residual(1.0, 3 * grid.step, 5 * grid.dual_step, grid)
            assert lattice.commensurate_shift and lattice.commensurate_modulation
            assert lattice.operator_defect <= 1e-12

    def test_no_m_by_m_array(self):
        grid = GridSpec.self_dual(4096)
        weyl_residual(1.0, 0.37, 0.37, grid)  # numpy's FFT caches its plans on first use
        tracemalloc.start()
        try:
            weyl_residual(1.0, 0.37, 0.51, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex M x M array is 256 MB here; the O(M) route stays below 1 MB
        assert peak < 2 * 2**20

    def test_cost_guards(self):
        big = GridSpec.self_dual(2 * DENSE_CAP)
        rep = weyl_residual(1.0, 0.37, 0.37, big)
        assert rep.operator_defect <= 2.0 + 1e-9
        with pytest.raises(SizeCapError):
            translation_unitary(0.37, big)
        with pytest.raises(SizeCapError):
            modulation_unitary(0.37, big)
        with pytest.raises(SizeCapError):
            weyl_residual(1.0, 0.37, 0.37, GridSpec(DENSE_CAP**2 + 1, 10.0))

    def test_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("weyl_residual took an SVD")

        monkeypatch.setattr(np.linalg, "svd", svd)
        for m in (64, 1024):
            grid = GridSpec.self_dual(m)
            weyl_residual(1.0, 0.37, 0.37, grid)
            weyl_residual(1.0, grid.step, grid.dual_step, grid)


class TestGeneratorBound:
    def test_commuting_diagonal_pair(self):
        eps = 0.3
        pair = HermitianPair(np.zeros((2, 2)), np.diag([eps, -eps]))
        rep = generator_bound_check(pair, [0.01, 0.1, 1.0, 5.0])
        assert rep.necessity_ok
        assert rep.difference_norm == pytest.approx(eps)

    def test_equal_pair(self):
        p = np.diag([1.0, 2.0])
        rep = generator_bound_check(HermitianPair(p, p), [0.5, 1.0])
        assert rep.necessity_ok
        assert rep.difference_norm == 0

    def test_slope_recovers_norm(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        base = (a + a.conj().T) / 2
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        diff = (b + b.conj().T) / 2
        diff /= np.linalg.norm(diff, 2)
        pair = HermitianPair(base, base + diff)
        rep = generator_bound_check(pair, [0.001, 0.003, 0.005, 0.008, 0.3, 1.0])
        assert rep.necessity_ok
        assert 0.95 <= rep.slope_estimate <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_necessity_never_fails(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = HermitianPair((a + a.conj().T) / 2, (b + b.conj().T) / 2)
        ts = list(rng.uniform(0.001, 5.0, size=8))
        assert generator_bound_check(pair, ts).necessity_ok

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianPair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))

    def test_rejects_empty_times(self):
        pair = HermitianPair(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            generator_bound_check(pair, [0.0])

    def test_rejects_time_that_overflows_the_phase(self):
        # t times the eigenvalue 1e10 is past the float range: exp(i t w) would
        # be NaN and the SVD would not converge
        pair = HermitianPair(np.diag([1e10, 0.0]), np.diag([1.0, -1.0]))
        with pytest.raises(ValidationError, match="not finite"):
            generator_bound_check(pair, [1e300])

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_a_loop_over_single_samples(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p1 = (x + x.conj().T) / 2
        ts = [-2.0, 1e-5, 3e-4, 0.1, 0.7, 3.0]
        for p2 in (p1 + (y + y.conj().T) / 2, p1):  # p1 twice: every gap is round-off
            pair = HermitianPair(p1, p2)
            ea, eb = HermitianExponential(pair.first), HermitianExponential(pair.second)
            gaps = [spectral_norm(ea.at(t) - eb.at(t)) for t in ts]
            dnorm = pair.difference_norm()
            small = [g / abs(t) for g, t in zip(gaps, ts) if dnorm == 0 or abs(t) <= 0.01 / dnorm]
            rep = generator_bound_check(pair, ts)
            assert rep.max_necessity_excess == max(
                [0.0] + [g - dnorm * abs(t) for g, t in zip(gaps, ts)])
            assert rep.slope_estimate == max(small)


def scalar_field(fn):
    return UnitaryField(lambda x, y: np.atleast_2d(fn(x, y)))


ARC_FIELD = scalar_field(lambda x, y: np.exp(1j * y * np.arctan(x)))


def arc_dfdx(x, y):
    return 1j * y / (1 + x**2) * np.exp(1j * y * np.arctan(x))


def arc_dfdy(x, y):
    return 1j * np.arctan(x) * np.exp(1j * y * np.arctan(x))


DELTAS3 = np.array([[0.0, 0.8, -0.5], [0.0, 0.0, 1.1], [0.0, 0.0, 0.0]])
PROBES3 = [[0.3, -0.7, 0.9], [1.1, 0.2, -0.4], [-0.6, 0.5, 0.8]]
DELTAS4 = np.array([
    [0.0, 0.8, -0.5, 0.6],
    [0.0, 0.0, 1.1, -0.7],
    [0.0, 0.0, 0.0, 0.9],
    [0.0, 0.0, 0.0, 0.0],
])
PROBES4 = [[0.3, -0.7, 0.9, 0.4], [1.1, 0.2, -0.4, -0.8], [-0.6, 0.5, 0.8, 0.3]]
CONSTANT_FIELD = scalar_field(lambda x, y: 1.0 + 0.0j)


class TestAssembly:
    def test_constant_field_identity_exact(self):
        rep = check_assembly_identities(CONSTANT_FIELD, DELTAS3, 3, PROBES3, h=1e-3)
        assert rep.diagonal_identity_residual <= 1e-12
        assert rep.chain_rule_residual <= 1e-12
        assert rep.triangle_ok

    def test_smooth_scalar_field_small_residual(self):
        w = scalar_field(lambda x, y: np.exp(1j * y * 0.7 * np.arctan(x)))
        rep = check_assembly_identities(w, DELTAS3, 3, PROBES3, h=1e-3)
        assert rep.diagonal_identity_residual <= 1e-4
        assert rep.triangle_ok

    def test_fd_derivative_matches_symbolic(self):
        # oracle: the closed-form derivatives of the arctan field
        w = ARC_FIELD
        for (x, y) in [(0.3, -0.5), (1.2, 0.8)]:
            fd = w.fd(x, y, 0, 1e-4)
            assert np.abs(fd - arc_dfdx(x, y)).max() <= 1e-7
            fd = w.fd(x, y, 1, 1e-4)
            assert np.abs(fd - arc_dfdy(x, y)).max() <= 1e-7

    def test_zero_deltas_order_independent(self):
        # with all couplings zero every factor is w(x_k, 0) = 1 for this field,
        # so every difference and every residual is exactly 0
        rep = check_assembly_identities(ARC_FIELD, np.zeros((3, 3)), 3, PROBES3, h=1e-3)
        assert rep.chain_rule_residual == 0.0
        assert rep.diagonal_identity_residual == 0.0
        assert rep.triangle_ok

    @pytest.mark.parametrize("d, deltas, probes", [(3, DELTAS3, PROBES3), (4, DELTAS4, PROBES4)],
                             ids=["d3", "d4"])
    def test_one_factor_table_per_stencil_point(self, d, deltas, probes):
        # the table at x and at x +- h e_a for each axis a, plus the two
        # y-samples of each pair's bracket: 27 samples at d = 3 and 66 at d = 4
        calls = []

        def fn(x, y):
            calls.append((x, y))
            return np.exp(1j * y * np.arctan(x))

        check_assembly_identities(UnitaryField(fn), deltas, d, probes[:1], h=1e-3)
        assert len(calls) <= (2 * d + 3) * d * (d - 1) // 2

    # d = 4 reaches three-factor products with the middle factor replaced and
    # triangle bounds with terms on both sides of the axis
    @pytest.mark.parametrize("d, deltas, probes", [(3, DELTAS3, PROBES3), (4, DELTAS4, PROBES4)],
                             ids=["d3", "d4"])
    def test_matrix_valued_field(self, d, deltas, probes):
        # noncommuting unitaries exercise the conjugated-factor structure
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)

        def fn(x, y):
            h = y * np.arctan(x) * sz + 0.3 * np.sin(x) * sx
            w, v = np.linalg.eigh(h)
            return (v * np.exp(1j * w)) @ v.conj().T

        w = UnitaryField(fn)
        rep = check_assembly_identities(w, deltas, d, probes, h=1e-3)
        assert rep.diagonal_identity_residual <= 1e-4
        assert rep.triangle_ok

    def test_identity_deviation_scales_at_second_order(self):
        devs, order = assembly_convergence_order(ARC_FIELD, DELTAS3, 3, PROBES3, 2e-2, 2)
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert 1.8 <= order <= 2.2

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2)])
    def test_non_square_sample_rejected(self, shape):
        # each raised a numpy ValueError
        w = UnitaryField(lambda x, y: np.ones(shape, dtype=complex))
        with pytest.raises(ValidationError, match="not square"):
            w.sample(0.1, 0.2)

    def test_box_guard(self):
        w = UnitaryField(lambda x, y: np.eye(1, dtype=complex), box=1.0)
        with pytest.raises(ValidationError):
            check_assembly_identities(w, DELTAS3, 3, [[5.0, 0.0, 0.0]], h=1e-3)

    @pytest.mark.parametrize("run, error", [
        (lambda: check_assembly_identities(ARC_FIELD, DELTAS3, 3, PROBES3, h=0.0),
         ValidationError),
        (lambda: check_assembly_identities(ARC_FIELD, DELTAS3, 3, PROBES3, h=-1e-3),
         ValidationError),
        (lambda: check_assembly_identities(ARC_FIELD, np.zeros((1, 1)), 1, [[0.3]], h=1e-3),
         ValidationError),
        (lambda: assembly_convergence_order(ARC_FIELD, DELTAS3, 3, PROBES3, 0.0),
         ValidationError),
        (lambda: assembly_convergence_order(ARC_FIELD, DELTAS3, 3, PROBES3, -2e-2),
         ValidationError),
        (lambda: assembly_convergence_order(ARC_FIELD, DELTAS3, 3, PROBES3, 2e-2, 0),
         ValidationError),
        # every deviation of a constant field is 0: there is no order to fit
        (lambda: assembly_convergence_order(CONSTANT_FIELD, DELTAS3, 3, PROBES3, 2e-2),
         DegenerateFitError),
    ], ids=["h-zero", "h-negative", "d-one", "h0-zero", "h0-negative",
            "no-halvings", "constant-field"])
    def test_rejects_invalid_input(self, run, error):
        with pytest.raises(error):
            run()


class TestAudit:
    def test_reference_arithmetic_exact(self):
        rep = audit_interpolation_constants(8100, 2500)
        assert rep.exact
        assert rep.holds
        assert rep.one_step_value == 2474.0
        assert rep.slack == 26.0

    def test_six_levels_stay_below_budget(self):
        rep = audit_interpolation_constants(8100, 2500, levels=6)
        assert len(rep.level_bounds) == 7
        assert max(rep.level_bounds) <= 2500.0
        assert all(a >= b for a, b in zip(rep.level_bounds, rep.level_bounds[1:]))

    def test_small_k_fails(self):
        rep = audit_interpolation_constants(100, 2500)
        assert not rep.holds
        assert rep.one_step_value == 1224 + 2500 * 4.5

    def test_large_k_limit(self):
        # the level map tends to B -> 1224 as k grows
        rep = audit_interpolation_constants(10**12, 2500)
        assert rep.level_bounds[-1] == pytest.approx(1224.0, abs=0.1)
        rep2 = audit_interpolation_constants(10**16, 2500)
        assert rep2.level_bounds[-1] == pytest.approx(1224.0, abs=1e-3)


class TestWeylCsvCli:
    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            audit_interpolation_constants(0, 2500)
