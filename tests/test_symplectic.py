"""Tests for the skew normal form and the discretized canonical pairs."""
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from ncspaces.errors import (
    OddDimensionError,
    RankDeficientError,
    SizeCapError,
    ValidationError,
    as_index,
    as_real,
    clip,
    guard,
)
from ncspaces.finite_reps import (
    UnitaryTuple,
    clifford_generators,
    clock_shift,
    fock_identities_check,
    ladder_operator,
)
from ncspaces.gridfn import GridFunction
from ncspaces.linalg import HermitianExponential, kron, on_leg
from ncspaces.moyal import (
    dimension_reduction_check,
    interior_frequency_mask,
    quantization_constant,
    sobolev_norm,
)
from ncspaces.phases import Cyclotomic
from ncspaces.serialize import poly_from_json, theta_from_json
from ncspaces.skew import SkewMatrix
from ncspaces.spectra import bloch_matrix, coprime_fluxes, holder_scan
from ncspaces.symplectic import (
    GridSpec,
    canonical_block,
    gaussian_state,
    schrodinger_generators,
    skew_rank_decompose,
    spectral_derivative_matrix,
    symplectic_normalize,
)
from ncspaces.twisted_algebra import (
    NCPolynomial,
    as_multi_index,
    cond_expectation,
    gns_matrix,
    transference,
)
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


def random_nonsingular(rng, d, floor=0.05):
    while True:
        theta = SkewMatrix.random(d, rng)
        sv = np.linalg.svd(theta.as_array(), compute_uv=False)
        if sv[-1] > floor * sv[0]:
            return theta


class TestNormalize:
    def test_canonical_fixed_point(self):
        sf = symplectic_normalize(SkewMatrix.canonical(6))
        assert np.abs(sf.transform - np.eye(6)).max() == 0
        assert sf.residual == 0

    def test_two_by_two_scaling(self):
        for a in (0.3, 1.0, 7.5):
            sf = symplectic_normalize(SkewMatrix.rotation(a))
            assert sf.residual <= 1e-12

    def test_random_d4(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = random_nonsingular(rng, 4)
            sf = symplectic_normalize(theta)
            assert sf.residual <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    # draws on which a skew Gram-Schmidt deflation grew its transform to
    # entries near 5e3 and missed the bound with residuals of 1.1e-9 and 1.3e-9
    @example(seed=2833)
    @example(seed=13405)
    def test_congruence_composition(self, seed):
        # normalizing R theta R^t must again reach the canonical block
        rng = np.random.default_rng(seed)
        d = int(rng.choice([2, 4, 6]))
        theta = random_nonsingular(rng, d)
        r = rng.standard_normal((d, d))
        while abs(np.linalg.det(r)) < 1e-2:
            r = rng.standard_normal((d, d))
        prod = r @ theta.as_array() @ r.T
        # float congruences are only skew up to round-off: enter via the triangle
        conj = SkewMatrix.from_upper(
            d, {(j, k): prod[j, k] for j in range(d) for k in range(j + 1, d)}
        )
        sf = symplectic_normalize(conj)
        assert np.abs(sf.transform @ conj.as_array() @ sf.transform.T
                      - canonical_block(d // 2)).max() <= 1e-9

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimensionError):
            symplectic_normalize(SkewMatrix.from_upper(3, {(0, 1): 1}))

    def test_singular_rejected_with_rank(self):
        theta = SkewMatrix.from_upper(4, {(0, 1): 1})  # rank 2
        with pytest.raises(RankDeficientError) as e:
            symplectic_normalize(theta)
        assert e.value.rank == 2


class TestRankDecompose:
    def test_zero_matrix(self):
        dec = skew_rank_decompose(SkewMatrix.zero(3))
        assert dec.rank == 0
        assert np.allclose(dec.basis @ dec.basis.T, np.eye(3), atol=1e-12)

    def test_visible_plane(self):
        dec = skew_rank_decompose(SkewMatrix.from_upper(3, {(0, 1): 1}))
        assert dec.rank == 2
        # kernel direction is e_3 up to sign
        kernel = dec.basis[2]
        assert np.abs(np.abs(kernel) - [0, 0, 1]).max() <= 1e-12
        assert dec.residual <= 1e-12

    def test_random_d5(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            theta = SkewMatrix.random(5, rng)
            dec = skew_rank_decompose(theta)
            assert dec.rank in (0, 2, 4)
            assert dec.residual <= 1e-10
            sv = np.linalg.svd(theta.as_array(), compute_uv=False)
            assert dec.rank == int((sv > 1e-10 * max(sv[0], 1.0)).sum())

    @pytest.mark.parametrize("d", range(2, 8))
    def test_low_rank_congruence(self, d):
        # B S B^t with S of rank 2k < d - 1 and B generic has rank exactly 2k
        rng = np.random.default_rng(10 + d)
        for k in range(d // 2):
            for _ in range(10):
                a = rng.standard_normal((2 * k, 2 * k))
                s = np.zeros((d, d))
                s[: 2 * k, : 2 * k] = a - a.T
                b = rng.standard_normal((d, d))
                prod = b @ s @ b.T
                theta = SkewMatrix.from_upper(
                    d, {(j, l): prod[j, l] for j in range(d) for l in range(j + 1, d)}
                )
                dec = skew_rank_decompose(theta)
                sv = np.linalg.svd(theta.as_array(), compute_uv=False)
                assert dec.rank == int((sv > 1e-10 * max(sv[0], 1.0)).sum()) == 2 * k
                assert dec.residual <= 1e-10
                kernel = dec.basis[dec.rank:]
                assert np.abs(kernel @ kernel.T - np.eye(d - dec.rank)).max() <= 1e-12


@pytest.mark.parametrize("m", [16, 64])
def test_spectral_derivative_matches_dense_dft(m):
    # oracle: the dense F^-1 diag(k) F product with both DFT matrices
    grid = GridSpec(m, 6.0)
    f = np.fft.fft(np.eye(m), axis=0)
    finv = np.fft.ifft(np.eye(m), axis=0)
    dense = finv @ (grid.frequencies()[:, None] * f)
    assert np.abs(spectral_derivative_matrix(grid) - dense).max() <= 1e-12 * np.abs(dense).max()


class TestSchrodingerGenerators:
    def test_canonical_pair_commutator(self):
        sf = symplectic_normalize(SkewMatrix.canonical(2))
        grid = GridSpec(128, 10.0)
        p = schrodinger_generators(sf, grid)
        v = gaussian_state(grid, 1, sigma=1.0)
        ip = v.conj() @ (p[0] @ (p[1] @ v) - p[1] @ (p[0] @ v))
        assert ip == pytest.approx(-1j, abs=1e-6)

    def test_self_commutator_vanishes(self):
        sf = symplectic_normalize(SkewMatrix.canonical(2))
        grid = GridSpec(64, 8.0)
        p = schrodinger_generators(sf, grid)
        v = gaussian_state(grid, 1)
        assert np.linalg.norm(p[0] @ (p[0] @ v) - p[0] @ (p[0] @ v)) == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        theta = random_nonsingular(rng, 4, floor=0.3)
        sf = symplectic_normalize(theta)
        p = schrodinger_generators(sf, GridSpec(16, 8.0))
        for mat in p:
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    def test_random_d4_all_commutators(self):
        rng = np.random.default_rng(3)
        theta = random_nonsingular(rng, 4, floor=0.3)
        sf = symplectic_normalize(theta)
        grid = GridSpec(48, 10.0)
        p = schrodinger_generators(sf, grid)
        v = gaussian_state(grid, 2)
        th = theta.as_array()
        images = [mat @ v for mat in p]
        for j in range(4):
            for k in range(j + 1, 4):
                comm = p[j] @ images[k] - p[k] @ images[j]
                assert np.linalg.norm(comm + 1j * th[j, k] * v) <= 1e-5

    def test_size_cap(self):
        sf = symplectic_normalize(SkewMatrix.canonical(4))
        with pytest.raises(SizeCapError):
            schrodinger_generators(sf, GridSpec(128, 8.0))

    def test_invalid_grid(self):
        with pytest.raises(ValidationError):
            GridSpec(0, 8.0)
        with pytest.raises(ValidationError):
            GridSpec(64, -1.0)

    def test_weyl_relation_proxy_refines_at_second_order(self):
        # exp(iPs) exp(iQt) = exp(ist) exp(iQt) exp(iPs) on a test state, with
        # the defect falling at order >= 2 as the grid refines
        sf = symplectic_normalize(SkewMatrix.canonical(2))
        s, t = 0.7, 0.9
        errs = []
        for m in (16, 24, 32):
            grid = GridSpec(m, 6.0)
            p = schrodinger_generators(sf, grid)
            v = gaussian_state(grid, 1, sigma=0.55)
            u1 = HermitianExponential(p[0]).at(s)
            u2 = HermitianExponential(p[1]).at(t)
            errs.append(
                np.linalg.norm(u1 @ (u2 @ v) - np.exp(1j * s * t) * (u2 @ (u1 @ v)))
            )
        assert errs[1] < errs[0] and errs[2] < errs[1]
        order = np.log(errs[0] / errs[1]) / np.log(24 / 16)
        assert order >= 2.0


@pytest.mark.parametrize("m", [16, 64])
def test_grid_spec_and_grid_function_share_one_geometry(m):
    spec, fn = GridSpec(m, 6.0), GridFunction(1, 6.0, m, np.zeros(m))
    assert spec.step == fn.step
    assert spec.dual_step == spec.freq_step == fn.dual_step == fn.freq_step
    for name in ("axis", "freq_axis", "frequencies"):
        assert np.array_equal(getattr(spec, name)(), getattr(fn, name)())


def test_grid_spec_keeps_any_size_that_grid_functions_reject():
    grid = GridSpec(48, 6.0)
    p = schrodinger_generators(symplectic_normalize(SkewMatrix.canonical(2)), grid)
    assert [mat.shape for mat in p] == [(48, 48), (48, 48)]
    with pytest.raises(ValidationError, match="power of two"):
        GridFunction(1, 6.0, 48, np.zeros(48))


THETA_HALF = SkewMatrix.from_upper(2, [0.5])


@pytest.mark.parametrize("entry_point, bad", [
    pytest.param(lambda x: SkewMatrix.from_upper(2, [x]), np.nan, id="skew-nan"),
    pytest.param(lambda x: SkewMatrix.from_upper(3, [0.5, x, 1.0]), np.inf, id="skew-inf"),
    pytest.param(lambda x: SkewMatrix.rotation(np.float64(x)), -np.inf, id="skew-neg-inf"),
    pytest.param(lambda x: SkewMatrix.from_upper(2, [str(x)]), np.nan, id="skew-nan-string"),
    pytest.param(lambda x: theta_from_json({"dim": 2, "upper": [str(x)]}), np.inf, id="theta-json"),
    # entries given to the constructor directly; an exact entry past the
    # float range once failed later, in as_array and hash
    pytest.param(lambda x: SkewMatrix(2, (x,)), np.nan, id="skew-direct-nan"),
    pytest.param(lambda x: SkewMatrix(2, (x,)), "abc", id="skew-direct-str"),
    pytest.param(lambda x: SkewMatrix(2, (x,)), Fraction(10**400, 3), id="skew-direct-past-float-range"),
    pytest.param(lambda x: SkewMatrix.from_upper(2, [x]), 10**400, id="skew-int-past-float-range"),
    pytest.param(lambda x: theta_from_json({"dim": 2, "upper": [x]}), "1" + "0" * 400 + "/3",
                 id="theta-json-past-float-range"),
    pytest.param(lambda x: GridSpec(8, x), np.nan, id="grid-L-nan"),
    pytest.param(lambda x: GridSpec(8, x), np.inf, id="grid-L-inf"),
    pytest.param(lambda x: GridFunction(1, x, 8, np.zeros(8)), np.nan, id="gridfn-L-nan"),
    pytest.param(lambda x: GridFunction(1, x, 8, np.zeros(8)), np.inf, id="gridfn-L-inf"),
    pytest.param(lambda x: weyl_residual(x, 0.37, 0.37, GridSpec(16, 4.0)), np.nan, id="weyl-theta"),
    pytest.param(lambda x: weyl_residual(1.0, x, 0.37, GridSpec(16, 4.0)), np.inf, id="weyl-s"),
    pytest.param(lambda x: weyl_residual(1.0, 0.37, x, GridSpec(16, 4.0)), np.nan, id="weyl-t"),
    pytest.param(lambda x: NCPolynomial.monomial(THETA_HALF, (1, 0), x), np.nan, id="poly-coeff-nan"),
    pytest.param(lambda x: NCPolynomial.monomial(THETA_HALF, (1, 0), x), np.inf, id="poly-coeff-inf"),
    pytest.param(lambda x: NCPolynomial(THETA_HALF, {(0, 0): 1.0, (1, 0): complex(0.5, x)}),
                 -np.inf, id="poly-coeff-imag-neg-inf"),
    pytest.param(lambda x: transference(NCPolynomial.monomial(THETA_HALF, (1, 2)), [complex(x, 0.0), 1j]),
                 np.nan, id="transference-z-nan"),
    pytest.param(lambda x: transference(NCPolynomial.monomial(THETA_HALF, (1, 2)), [1.0, complex(0.0, x)]),
                 np.nan, id="transference-z-imag-nan"),
    # integer arguments: a float is rejected, not truncated, rounded or left to crash
    pytest.param(lambda x: clock_shift(x, 3), 1.5, id="clock-shift-p"),
    pytest.param(lambda x: clock_shift(1, x), 3.0, id="clock-shift-q"),
    pytest.param(lambda x: audit_interpolation_constants(x, 2500), np.nan, id="audit-k-nan"),
    pytest.param(lambda x: audit_interpolation_constants(x, 2500), 8100.5, id="audit-k-fractional"),
    pytest.param(lambda x: GridSpec(x, 4.0), 8.5, id="grid-M-fractional"),
    pytest.param(lambda x: GridSpec(x, 4.0), np.nan, id="grid-M-nan"),
    pytest.param(lambda x: GridFunction(x, 8.0, 8, np.zeros(8)), 1.0, id="gridfn-dim"),
    pytest.param(lambda x: GridFunction(1, 8.0, x, np.zeros(8)), 8.0, id="gridfn-M"),
    pytest.param(lambda x: SkewMatrix(x, (0.5,)), 2.5, id="skew-dim"),
    pytest.param(lambda x: SkewMatrix.from_upper(x, [0.5]), 2.0, id="skew-from-upper-dim"),
    pytest.param(lambda x: SkewMatrix.random(x, np.random.default_rng(0)), 2.5,
                 id="skew-random-dim"),
    pytest.param(lambda x: SkewMatrix.canonical(4).principal_submatrix(x), 1.5,
                 id="skew-submatrix"),
    pytest.param(lambda x: SkewMatrix.canonical(4).entry(x, 1), 0.5, id="skew-entry"),
    pytest.param(lambda x: GridFunction.gaussian(x, 8.0, 8), 1.0, id="gridfn-gaussian-dim"),
    pytest.param(lambda x: gns_matrix(NCPolynomial.monomial(THETA_HALF, (1, 0)), x), 1.5,
                 id="gns-radius"),
    pytest.param(lambda x: bloch_matrix(x, 3, 0.0, 0.0), 1.5, id="bloch-p"),
    pytest.param(lambda x: bloch_matrix(1, x, 0.0, 0.0), 2.5, id="bloch-q"),
    pytest.param(coprime_fluxes, 2.5, id="coprime-fluxes-qmax"),
    pytest.param(ladder_operator, 2.5, id="ladder-cutoff"),
    pytest.param(clifford_generators, 2.5, id="clifford-n"),
    pytest.param(lambda x: fock_identities_check(1, x), 2.5, id="fock-cutoff"),
    pytest.param(UnitaryTuple.identity, 2.5, id="identity-tuple-d"),
    pytest.param(lambda x: UnitaryTuple.identity(2, x), 2.5, id="identity-tuple-size"),
    pytest.param(lambda x: dimension_reduction_check(GridFunction.gaussian(1, 8.0, 16),
                                                     THETA_HALF, x), 2.5, id="reduction-steps"),
    pytest.param(lambda x: assembly_convergence_order(None, None, 2, [], 0.1, x), 2.5,
                 id="assembly-halvings"),
    pytest.param(lambda x: check_assembly_identities(None, None, x, [], 0.1), 2.5,
                 id="assembly-d"),
    pytest.param(lambda x: quantization_constant(10.0, x, 1.0), 2.5, id="quantization-d"),
    pytest.param(lambda x: cond_expectation(NCPolynomial.monomial(THETA_HALF, (1, 0)), x), 0.5,
                 id="cond-expectation-axis"),
    pytest.param(lambda x: NCPolynomial.monomial(THETA_HALF, (x, 0)), 1.0, id="poly-exponent"),
    pytest.param(lambda x: theta_from_json({"dim": x, "upper": [0.5]}), 2.5, id="theta-json-dim"),
    pytest.param(lambda x: poly_from_json({"dim": 2, "upper": [0.5],
                                           "terms": [{"m": [x, 0], "re": 1.0}]}),
                 1.5, id="poly-json-exponent"),
    # exact coefficients: the order is an integer >= 4, each root an integer
    # and each coefficient a rational
    pytest.param(lambda x: Cyclotomic(x, {1: 1}), 4.0, id="cyclotomic-order-float"),
    pytest.param(lambda x: Cyclotomic(x, {1: 1}), True, id="cyclotomic-order-bool"),
    pytest.param(lambda x: Cyclotomic(x, {1: 1}), -4, id="cyclotomic-order-negative"),
    pytest.param(lambda x: Cyclotomic(x, {1: 1}), 0, id="cyclotomic-order-zero"),
    pytest.param(lambda x: Cyclotomic(4, {x: 1}), 1.5, id="cyclotomic-root-float"),
    pytest.param(lambda x: Cyclotomic(4, {x: 1}), True, id="cyclotomic-root-bool"),
    pytest.param(lambda x: Cyclotomic(4, {1: x}), np.nan, id="cyclotomic-coeff-nan"),
    pytest.param(lambda x: Cyclotomic(4, {1: x}), np.inf, id="cyclotomic-coeff-inf"),
    pytest.param(lambda x: Cyclotomic(4, {1: x}), 1j, id="cyclotomic-coeff-complex"),
    pytest.param(lambda x: Cyclotomic.from_gaussian(x, 1), "12", id="cyclotomic-gaussian-order-str"),
    pytest.param(lambda x: Cyclotomic.from_gaussian(x, 1), None, id="cyclotomic-gaussian-order-none"),
    pytest.param(GridSpec.self_dual, "8", id="grid-self-dual-str"),
    pytest.param(GridSpec.self_dual, None, id="grid-self-dual-none"),
    # the grid Gaussian: a center of the wrong length, a degenerate width, no axes
    pytest.param(lambda x: GridFunction.gaussian(2, 8.0, 8, center=x), (0.5,), id="gaussian-center-short"),
    pytest.param(lambda x: GridFunction.gaussian(2, 8.0, 8, center=x), (0.1, 0.2, 0.3),
                 id="gaussian-center-long"),
    pytest.param(lambda x: GridFunction.gaussian(1, 8.0, 8, sigma=x), 0.0, id="gaussian-sigma-zero"),
    pytest.param(lambda x: GridFunction.gaussian(1, 8.0, 8, sigma=x), np.nan, id="gaussian-sigma-nan"),
    pytest.param(lambda x: gaussian_state(GridSpec(8, 4.0), x), 0, id="gaussian-state-no-axes"),
    pytest.param(lambda x: on_leg(np.eye(2), 0, x), 0, id="on-leg-no-legs"),
    pytest.param(kron, [], id="kron-empty"),
    pytest.param(lambda x: sobolev_norm(GridFunction.gaussian(1, 8.0, 16), x), np.nan, id="sobolev-alpha-nan"),
    pytest.param(lambda x: sobolev_norm(GridFunction.gaussian(1, 8.0, 16), x), np.inf, id="sobolev-alpha-inf"),
    pytest.param(lambda x: quantization_constant(x, 2, 1.0), np.nan, id="quantization-alpha-nan"),
    pytest.param(lambda x: quantization_constant(5.0, 2, x), np.inf, id="quantization-c-inf"),
    pytest.param(lambda x: interior_frequency_mask(GridFunction.gaussian(1, 8.0, 16), x), np.nan,
                 id="interior-mask-margin-nan"),
    pytest.param(lambda x: generator_bound_check(HermitianPair(np.eye(2), np.diag([1.0, -1.0])), [x, 0.1]),
                 np.nan, id="generator-bound-t-nan"),
    pytest.param(lambda x: SkewMatrix.random(2, np.random.default_rng(0), scale=x), np.nan,
                 id="skew-random-scale-nan"),
    # real arguments: a str or None is a ValidationError, never a TypeError or
    # a float() parse; so is a value past the argument's bound
    pytest.param(lambda x: SkewMatrix.from_upper(2, [x]), True, id="skew-entry-bool"),
    pytest.param(lambda x: GridSpec(8, x), "6.0", id="grid-L-str"),
    pytest.param(lambda x: GridSpec(8, x), None, id="grid-L-none"),
    pytest.param(lambda x: GridFunction.gaussian(1, 8.0, 8, sigma=x), "1", id="gaussian-sigma-str"),
    pytest.param(lambda x: sobolev_norm(GridFunction.gaussian(1, 8.0, 16), x), "1", id="sobolev-alpha-str"),
    pytest.param(lambda x: weyl_residual(1.0, x, 0.37, GridSpec(16, 4.0)), None, id="weyl-s-none"),
    pytest.param(lambda x: quantization_constant(x, 2, 1.0), "5", id="quantization-alpha-str"),
    pytest.param(lambda x: SkewMatrix.random(2, np.random.default_rng(0), scale=x), "1",
                 id="skew-random-scale-str"),
    pytest.param(lambda x: SkewMatrix.random(2, np.random.default_rng(0), scale=x), -1,
                 id="skew-random-scale-negative"),
    pytest.param(lambda x: interior_frequency_mask(GridFunction.gaussian(1, 8.0, 16), x), -1.0,
                 id="interior-mask-margin-negative"),
    # a margin above 1 would select every frequency point
    pytest.param(lambda x: interior_frequency_mask(GridFunction.gaussian(1, 8.0, 16), x), 1.5,
                 id="interior-mask-margin-above-one"),
    pytest.param(lambda x: generator_bound_check(HermitianPair(np.eye(2), np.diag([1.0, -1.0])), [x]),
                 "0.1", id="generator-bound-t-str"),
    pytest.param(lambda x: check_assembly_identities(None, np.zeros((2, 2)), 2, [[0.0, 0.0]], x),
                 np.inf, id="assembly-h-inf"),
    pytest.param(lambda x: check_assembly_identities(None, np.zeros((2, 2)), 2, [[0.0, 0.0]], x),
                 True, id="assembly-h-bool"),
    pytest.param(lambda x: check_assembly_identities(None, np.zeros((2, 2)), 2, [[x, 0.0]], 0.1),
                 np.nan, id="assembly-probe-nan"),
    # a NaN tolerance would pass any residual, since r > nan is False
    pytest.param(lambda x: UnitaryTuple((np.eye(2), 2 * np.eye(2)), np.ones((2, 2)), x), np.nan,
                 id="tuple-tol-nan"),
    pytest.param(lambda x: UnitaryTuple((np.eye(2), 2 * np.eye(2)), np.ones((2, 2)), x), "1",
                 id="tuple-tol-str"),
    pytest.param(lambda x: audit_interpolation_constants(8100, x), np.inf, id="audit-target-inf"),
    pytest.param(lambda x: audit_interpolation_constants(8100, x), np.nan, id="audit-target-nan"),
    pytest.param(lambda x: audit_interpolation_constants(8100, x), None, id="audit-target-none"),
    pytest.param(lambda x: bloch_matrix(1, 3, x, 0.0), np.nan, id="bloch-k1-nan"),
    pytest.param(lambda x: holder_scan(x, [Fraction(1, 8), Fraction(1, 16)]), None,
                 id="holder-base-none"),
    pytest.param(lambda x: holder_scan(0, [x, 0.25]), np.nan, id="holder-offset-nan"),
    # non-finite matrices: each raised numpy's LinAlgError "SVD did not converge"
    pytest.param(lambda x: HermitianPair(np.full((2, 2), x), np.eye(2)), np.nan,
                 id="hermitian-pair-nan"),
    pytest.param(lambda x: UnitaryTuple((np.full((2, 2), x), np.eye(2)), np.ones((2, 2))), np.nan,
                 id="tuple-matrix-nan"),
    pytest.param(lambda x: UnitaryTuple((np.full((2, 2), x), np.eye(2)), np.ones((2, 2))), np.inf,
                 id="tuple-matrix-inf"),
    pytest.param(lambda x: UnitaryTuple((np.eye(2), np.eye(2)), np.full((2, 2), x)), np.nan,
                 id="tuple-sigma-nan"),
    pytest.param(lambda x: UnitaryField(lambda a, b: np.full((2, 2), x, complex)).sample(0.1, 0.2),
                 np.nan, id="field-sample-nan"),
])
def test_non_finite_input_rejected(entry_point, bad):
    with pytest.raises(ValidationError):
        entry_point(bad)


@pytest.mark.parametrize("bad", [True, "1", None, np.nan, -np.inf])
@pytest.mark.parametrize("entry_point", [
    pytest.param(lambda x: GridSpec(8, x), id="grid-L"),
    pytest.param(lambda x: GridFunction.gaussian(1, 8.0, 8, center=[x]), id="gaussian-center"),
    pytest.param(lambda x: GridFunction.gaussian(1, 8.0, 8, sigma=x), id="gaussian-sigma"),
    pytest.param(lambda x: interior_frequency_mask(GridFunction.gaussian(1, 8.0, 16), x),
                 id="interior-mask-margin"),
    pytest.param(lambda x: sobolev_norm(GridFunction.gaussian(1, 8.0, 16), x), id="sobolev-alpha"),
    pytest.param(lambda x: quantization_constant(x, 2, 1.0), id="quantization-alpha"),
    pytest.param(lambda x: quantization_constant(5.0, 2, x), id="quantization-c"),
    pytest.param(lambda x: weyl_residual(x, 0.37, 0.37, GridSpec(16, 4.0)), id="weyl-theta"),
    pytest.param(lambda x: weyl_residual(1.0, 0.37, x, GridSpec(16, 4.0)), id="weyl-t"),
    pytest.param(lambda x: translation_unitary(x, GridSpec(16, 4.0)), id="translation-s"),
    pytest.param(lambda x: modulation_unitary(x, GridSpec(16, 4.0)), id="modulation-t"),
    pytest.param(lambda x: generator_bound_check(HermitianPair(np.eye(2), np.diag([1.0, -1.0])), [x, 0.1]),
                 id="generator-bound-t"),
    pytest.param(lambda x: SkewMatrix.random(2, np.random.default_rng(0), scale=x), id="skew-random-scale"),
    pytest.param(lambda x: UnitaryTuple((np.eye(2), np.eye(2)), np.ones((2, 2)), x), id="tuple-tol"),
    pytest.param(lambda x: audit_interpolation_constants(8100, x), id="audit-target"),
    pytest.param(lambda x: bloch_matrix(1, 3, 0.0, x), id="bloch-k2"),
    pytest.param(lambda x: holder_scan(x, [Fraction(1, 8), Fraction(1, 16)]), id="holder-base"),
])
def test_real_argument_rejects_bool_str_none_and_non_finite(entry_point, bad):
    with pytest.raises(ValidationError):
        entry_point(bad)


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_as_index_rejects_bool_and_non_integers(value):
    with pytest.raises(ValidationError, match="n must be an integer"):
        as_index("n", value)


def test_as_index_takes_ints_and_numpy_integers():
    assert as_index("n", 3) == 3
    assert type(as_index("n", np.int64(3))) is int
    with pytest.raises(ValidationError, match="n must be >= 1"):
        as_index("n", 0, 1)


@pytest.mark.parametrize("value", [True, False, "1", None, 1j, np.nan, np.inf, -np.inf, 10**400],
                         ids=["True", "False", "str", "None", "complex", "nan", "inf", "-inf", "1e400"])
def test_as_real_rejects_bool_non_reals_and_non_finite(value):
    with pytest.raises(ValidationError, match="x must be a finite real number"):
        as_real("x", value)


@pytest.mark.parametrize("value", [3, np.float64(0.25), Fraction(1, 4)])
def test_as_real_returns_a_float(value):
    x = as_real("x", value)
    assert type(x) is float and x == value


def test_as_real_applies_minimum_and_above():
    assert as_real("x", 0, minimum=0) == 0.0
    with pytest.raises(ValidationError, match="x must be >= 0"):
        as_real("x", -0.5, minimum=0)
    assert as_real("x", 1e-300, above=0) == 1e-300
    with pytest.raises(ValidationError, match="x must be > 0"):
        as_real("x", 0.0, above=0)
    assert as_real("x", 1, maximum=1) == 1.0
    with pytest.raises(ValidationError, match="x must be <= 1"):
        as_real("x", 1.5, maximum=1)


@pytest.mark.parametrize("m", [(True, False), (1, True), [0, 1.0]])
def test_as_multi_index_rejects_bool_and_float_entries(m):
    with pytest.raises(ValidationError, match="non-integer entries"):
        as_multi_index(m)


def test_as_multi_index_takes_ints_and_numpy_integers():
    assert as_multi_index([1, np.int64(-2)]) == (1, -2)


def test_guard_returns_size_at_cap_and_raises_past_it():
    assert guard("size", 4096, 4096) == 4096
    with pytest.raises(SizeCapError, match="size 4097 exceeds cap 4096"):
        guard("size", 4097, 4096)


@pytest.mark.parametrize("reject", [
    pytest.param(lambda v: as_index("n", Fraction(v, 3)), id="as-index-type"),
    pytest.param(lambda v: as_index("n", -v, 0), id="as-index-minimum"),
    pytest.param(lambda v: as_real("x", Fraction(v, 3)), id="as-real"),
    pytest.param(lambda v: guard("size", v, 4096), id="guard"),
])
def test_rejected_value_clipped_in_message(reject):
    # the whole value was printed: 400 digits past the float range
    with pytest.raises(ValidationError) as exc:
        reject(10**400)
    assert len(str(exc.value)) < 100 and "0" * 40 + "..." in str(exc.value)


def test_clip_keeps_60_characters():
    assert clip("x" * 60) == "x" * 60
    assert clip("x" * 61) == "x" * 57 + "..."
