"""Tests for Bloch matrices, band spectra, and the continuity scan."""
import numpy as np
import pytest
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from ncspaces import spectra
from ncspaces.checks import run_criterion
from ncspaces.errors import DENSE_CAP, DegenerateFitError, SizeCapError, ValidationError
from ncspaces.spectra import (
    LIP_HALF_BOUND,
    BandSpectrum,
    amo_spectrum,
    bloch_matrix,
    coprime_fluxes,
    hausdorff_distance,
    holder_scan,
    merge_intervals,
)


def spectrum_from_bands(bands):
    return BandSpectrum(tuple(bands))


def sweep_branch_hulls(p, q, res):
    """Brute-force oracle: min/max of each sorted Bloch eigenvalue branch over
    the res x res phase grid 2 pi (i1, i2) / res."""
    ks = 2 * np.pi * np.arange(res) / res
    evs = np.array(
        [[np.linalg.eigvalsh(bloch_matrix(p, q, k1, k2)) for k2 in ks] for k1 in ks]
    )
    return evs.min(axis=(0, 1)), evs.max(axis=(0, 1))


def complex_chambers_bands(p, q):
    """Oracle: the merged hulls of the complex Bloch eigenvalues at the phases
    (0, 0) and (pi/q, pi/q)."""
    e0, e1 = (np.linalg.eigvalsh(bloch_matrix(p, q, k, k)) for k in (0.0, np.pi / q))
    return merge_intervals(zip(np.minimum(e0, e1), np.maximum(e0, e1)))


def distance_to_bands(x, bands):
    return min(0.0 if a <= x <= b else min(abs(x - a), abs(x - b)) for a, b in bands)


class TestBlochMatrix:
    def test_scalar_case(self):
        h = bloch_matrix(0, 1, 0.3, 0.7)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(2 * np.cos(0.3) + 2 * np.cos(0.7))

    def test_half_flux_extremes(self):
        h = bloch_matrix(1, 2, 0.0, 0.0)
        evs = np.linalg.eigvalsh(h)
        assert evs == pytest.approx([-2 * np.sqrt(2), 2 * np.sqrt(2)])

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k1, k2 = rng.uniform(0, 2 * np.pi, 2)
            h = bloch_matrix(3, 7, k1, k2)
            assert np.abs(h - h.conj().T).max() <= 1e-15

    def test_invalid_q(self):
        with pytest.raises(ValidationError):
            bloch_matrix(1, 0, 0.0, 0.0)

    def test_dense_cap(self):
        # amo_spectrum's q_cap is per call, so the dense cap is the one bound on q
        assert bloch_matrix(1, DENSE_CAP, 0.0, 0.0).shape == (DENSE_CAP, DENSE_CAP)
        with pytest.raises(SizeCapError, match="Bloch matrix side q = 4097 exceeds cap 4096"):
            bloch_matrix(1, DENSE_CAP + 1, 0.0, 0.0)
        with pytest.raises(SizeCapError, match="Bloch matrix side q = 10000000 exceeds cap"):
            amo_spectrum(1, 10**7, q_cap=10**8)


class TestAmoSpectrum:
    def test_zero_flux_full_band(self):
        sp = amo_spectrum(0, 1)
        assert sp.bands == ((-4.0, 4.0),)

    def test_half_flux(self):
        sp = amo_spectrum(1, 2)
        assert len(sp.bands) == 1
        assert sp.min == pytest.approx(-2 * np.sqrt(2), abs=1e-9)
        assert sp.max == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        # an unreduced flux names the same operator
        assert amo_spectrum(2, 4).bands == sp.bands

    def test_third_flux_three_symmetric_bands(self):
        sp = amo_spectrum(1, 3)
        assert len(sp.bands) == 3
        flipped = sorted((-b, -a) for a, b in sp.bands)
        assert all(
            abs(x - y) <= 1e-9 for (x1, x2), (y1, y2) in zip(sp.bands, flipped)
            for x, y in ((x1, y1), (x2, y2))
        )

    def test_flux_reflection_symmetry(self):
        a = amo_spectrum(2, 5)
        b = amo_spectrum(3, 5)
        assert hausdorff_distance(a, b) <= 1e-9

    def test_spectrum_inside_norm_bound(self):
        for p, q in [(1, 4), (2, 7), (5, 11)]:
            sp = amo_spectrum(p, q)
            assert sp.min >= -4.0 - 1e-12 and sp.max <= 4.0 + 1e-12
            assert len(sp.bands) <= q

    def test_matches_bloch_oracle(self):
        # the two routes differ by rounding (about 3e-15), so no exact ==
        for p, q in [(1, 4), (2, 5), (3, 7)]:
            bands = amo_spectrum(p, q).bands
            # a grid holding no odd multiple of pi/q sees each branch only partly
            lo, hi = sweep_branch_hulls(p, q, 4 * q + 1)
            for a, b in zip(lo, hi):
                assert any(x - 1e-12 <= a and b <= y + 1e-12 for x, y in bands)
            # a grid holding the phases 0 and pi/q reaches every edge
            lo, hi = sweep_branch_hulls(p, q, 4 * q)
            swept = merge_intervals(zip(lo, hi))
            assert len(swept) == len(bands)
            assert np.abs(np.subtract(swept, bands)).max() <= 1e-12

    def test_edges_at_large_dyadic_q(self):
        # odd multiples of pi/q lie off every 2^k-point grid with 2^k < 2q,
        # so a phase sweep at q = 128 misses edges; the two-point relation
        # does not
        for p, q in [(1, 128), (3, 128)]:
            bands = amo_spectrum(p, q).bands
            for k in (0.0, np.pi / q):
                for e in np.linalg.eigvalsh(bloch_matrix(p, q, k, k)):
                    assert distance_to_bands(e, bands) <= 1e-12
        assert len(amo_spectrum(3, 128).bands) == 87

    @pytest.mark.parametrize("q", [
        pytest.param(1, id="q1-corners-on-the-diagonal"),
        pytest.param(2, id="q2-corners-on-the-off-diagonal"),
        *range(3, 41),
    ])
    def test_real_stack_matches_complex_oracle(self, q):
        # every reduced p/q, and one unreduced pair naming the flux (q - 1)/q
        fluxes = [(p, q, p) for p in range(q) if gcd(p, q) == 1]
        fluxes.append((3 * (q - 1), 3 * q, q - 1))
        for p, q_given, p_reduced in fluxes:
            bands = amo_spectrum(p, q_given).bands
            oracle = complex_chambers_bands(p_reduced, q)
            assert len(bands) == len(oracle)
            assert np.abs(np.subtract(bands, oracle)).max() <= 1e-12

    def test_one_real_stack_per_flux(self, monkeypatch):
        # both Chambers points go to LAPACK as one real (2, q, q) stack
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: shapes.append((a.shape, a.dtype)) or eigvalsh(a))
        for p, q in [(0, 1), (1, 2), (6, 14)]:  # 6/14 reduces to 3/7
            amo_spectrum(p, q)
        assert shapes == [((2, q, q), np.float64) for q in (1, 2, 7)]

    @pytest.mark.parametrize("p, q", [(1.5, 3), (1, 3.0), (1, 0)])
    def test_non_integral_or_zero_flux_rejected(self, p, q):
        with pytest.raises(ValidationError):
            amo_spectrum(p, q)

    def test_q_cap(self):
        with pytest.raises(SizeCapError):
            amo_spectrum(1, 500)
        with pytest.raises(SizeCapError):
            amo_spectrum(1, 9, q_cap=8)
        with pytest.raises(TypeError):  # the cap is keyword-only
            amo_spectrum(1, 3, 128)

    @pytest.mark.parametrize("q_cap", [-5, 0, True, 8.0])
    def test_q_cap_must_be_a_positive_integer(self, q_cap):
        # -5 was reported as "q = 1 exceeds cap -5"; a bool or a float went unchecked
        with pytest.raises(ValidationError, match="q_cap must be"):
            amo_spectrum(1, 3, q_cap=q_cap)

    def test_q_cap_guards_the_reduced_denominator(self):
        # 2/400 is the flux 1/200, at the default cap of 200
        assert amo_spectrum(2, 400).bands == amo_spectrum(1, 200).bands


class TestHausdorff:
    def test_identical(self):
        a = spectrum_from_bands([(-1.0, 1.0)])
        assert hausdorff_distance(a, a) == 0

    def test_nested_intervals(self):
        a = spectrum_from_bands([(-1.0, 1.0)])
        b = spectrum_from_bands([(-2.0, 2.0)])
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_gap_midpoint_matters(self):
        a = spectrum_from_bands([(-4.0, 4.0)])
        b = spectrum_from_bands([(-4.0, -1.0), (1.0, 4.0)])
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_against_half_flux(self):
        base = amo_spectrum(0, 1)
        half = amo_spectrum(1, 2)
        assert hausdorff_distance(base, half) == pytest.approx(
            4 - 2 * np.sqrt(2), abs=1e-9
        )

    def test_empty_rejected(self):
        a = spectrum_from_bands([(-1.0, 1.0)])
        with pytest.raises(ValidationError):
            hausdorff_distance(a, BandSpectrum(()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)

        def random_union():
            pts = np.sort(rng.uniform(-5, 5, size=2 * int(rng.integers(1, 4))))
            return spectrum_from_bands(merge_intervals(zip(pts[::2], pts[1::2])))

        a, b, c = random_union(), random_union(), random_union()
        dab = hausdorff_distance(a, b)
        assert dab == pytest.approx(hausdorff_distance(b, a))
        assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
        assert hausdorff_distance(a, a) == 0


class TestBandSpectrumInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            BandSpectrum(((0.0, 2.0), (1.0, 3.0)))

    def test_merge_tolerance(self):
        merged = merge_intervals([(0.0, 1.0), (1.0 + 1e-12, 2.0)])
        assert merged == ((0.0, 2.0),)


class TestHolderScan:
    def test_degenerate_offsets_rejected(self):
        with pytest.raises(DegenerateFitError):
            holder_scan(Fraction(0), [Fraction(1, 8), Fraction(1, 8)])

    def test_zero_offset_excluded_but_counted(self):
        res = holder_scan(Fraction(0), [Fraction(0), Fraction(1, 4), Fraction(1, 8)])
        assert res.decade_span == pytest.approx(np.log10(2))
        assert res.excluded_zero_offsets == 1
        assert len(res.distances) == 2

    def test_pointwise_bound_and_positive_slope(self):
        offsets = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
        res = holder_scan(Fraction(0), offsets)
        assert res.decade_span == pytest.approx(np.log10(4))
        assert res.lip_half_ok
        assert res.slope > 0
        assert all(d <= res.c_fit * float(x) ** 0.5 + 1e-12
                   for x, d in zip(res.offsets, res.distances))
        assert all(d <= LIP_HALF_BOUND * float(x) ** 0.5
                   for x, d in zip(res.offsets, res.distances))

    def test_c_fit_is_the_largest_row_ratio(self, monkeypatch):
        # D/sqrt(delta) is 1 at delta = 1/16 and 13 at delta = 1/4: only the
        # larger row crosses the bound 12, and the gate has to see it
        rows = iter([0.25, 6.5])
        monkeypatch.setattr(spectra, "hausdorff_distance", lambda a, b: next(rows))
        res = holder_scan(Fraction(0), [Fraction(1, 4), Fraction(1, 16)])
        assert res.decade_span == pytest.approx(np.log10(4))
        assert res.c_fit == 13.0
        assert not res.lip_half_ok

    def test_half_flux_base_saturates_half_exponent(self):
        # gap ladders opening off the two-band degeneracy scale like sqrt(delta):
        # the smallest-offset pair of the scan exhibits the limiting exponent
        offsets = [Fraction(1, 2**k) for k in (5, 6, 7)]
        res = holder_scan(Fraction(1, 2), offsets)
        assert res.decade_span == pytest.approx(np.log10(4))
        # offsets (and distances) come back sorted ascending
        local = np.log(res.distances[1] / res.distances[0]) / np.log(2.0)
        assert 0.4 <= local <= 0.6

    def test_q_cap_guard(self):
        with pytest.raises(SizeCapError):
            holder_scan(Fraction(0), [Fraction(1, 8), Fraction(1, 256)], q_cap=128)

    def test_criterion_06_runs_one_scan(self, monkeypatch):
        # the pointwise record and the exponent window read the same scan
        scans = []
        scan = spectra.holder_scan
        monkeypatch.setattr(spectra, "holder_scan", lambda *a, **k: scans.append(a) or scan(*a, **k))
        names = [result.name for result in run_criterion("06")]
        assert names == ["spectra/lip-half-pointwise", "spectra/exponent-window", "time"]
        assert len(scans) == 1


class TestCoprimeFluxes:
    def test_small_table(self):
        fl = coprime_fluxes(4)
        assert Fraction(1, 2) in fl and Fraction(3, 4) in fl
        assert Fraction(2, 4) not in [f for f in fl if f.denominator == 4]
        assert fl == sorted(fl)
