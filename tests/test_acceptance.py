"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities before asserting.

Criteria 01-05, 08 and 10a are one call each to a check in ncspaces.checks,
the same code `ncspaces all-checks` runs, at the criterion's sizes and with
the criterion's time budget as one more record; criterion 07 takes its
pointwise and direct-vs-fourier results from checks.check_moyal and adds
band-limited associativity and tracial records here.  Criteria 06, 09 and 10b
have no all-checks twin and compute their numbers here.  Every line is a
checks.CheckResult line, so pass/fail comes from its records.

Two entries document negative results rather than passing:

* criterion 6 (run with `-s` to see the numbers): from base flux 0 the
  spectral Hausdorff distance is dominated by band-edge erosion, which is
  linear in the offset (D ~ 2 pi delta), so the fitted exponent lands near 1,
  outside the demanded window [0.40, 0.60].  The pointwise Lip-1/2 bound does
  hold, and the square-root regime genuinely exists - from base flux 1/2,
  where gap ladders open like sqrt(delta) (see
  test_spectra.py::TestHolderScan::test_half_flux_base_saturates_half_exponent).

* criterion 10 at two modes: the product identity A*A = 1 (x) sum_j a_j a_j*
  holds only for a single mode.  With n >= 2 the mixed terms
  c_k c_j (x) (a_k a_j* - a_j a_k*) survive (they are O(1) on interior
  vectors), and ker A* picks up one Clifford copy per total occupation level,
  so the interior kernel dimension is 2 * cutoff, not N.  The single-mode
  half of the criterion passes and is asserted in full.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from ncspaces import checks
from ncspaces.checks import CheckConfig, CheckResult, Record
from ncspaces.finite_reps import fock_identities_check
from ncspaces.gridfn import GridFunction, integral, to_position
from ncspaces.moyal import interior_frequency_mask, star_product_fourier
from ncspaces.skew import SkewMatrix
from ncspaces.spectra import LIP_HALF_BOUND, holder_scan
from ncspaces.weyl_dynamics import UnitaryField, assembly_convergence_order


def report(criterion, results):
    """Print each result's line under the criterion; True when all pass."""
    for result in results:
        print(f"criterion-{criterion}: {result.line()}")
    return all(result.passed for result in results)


def run_check(criterion, check, budget=None, **sizes):
    """Report one ncspaces.checks check at the criterion's sizes, with the
    elapsed time as one more record when the criterion has a budget."""
    t0 = time.time()
    results = check(CheckConfig(**sizes))
    elapsed = time.time() - t0
    if budget is not None:
        results.append(CheckResult("time", "the criterion's budget",
                                   [Record("seconds", elapsed, budget)]))
    assert report(criterion, results)


def test_criterion_01_algebraic_exactness():
    run_check("01", checks.check_algebra_exactness, 30.0, algebra_triples=1000)


def test_criterion_02_tensor_construction():
    run_check("02", checks.check_tensor_relations, 60.0)


def test_criterion_03_constant_audit():
    run_check("03", checks.check_audit)


def test_criterion_04_symplectic_normalization():
    run_check("04", checks.check_symplectic, 20.0, symplectic_cases=500)


def test_criterion_05_metric_lower_bound():
    run_check("05", checks.check_metric_lower_bound, metric_pairs=200)


def test_criterion_06_holder_continuity():
    offsets = [Fraction(1, 2**k) for k in range(3, 8)]
    t0 = time.time()
    with pytest.warns(UserWarning):
        res = holder_scan(Fraction(0), offsets, q_cap=128)
    elapsed = time.time() - t0
    context = "base 0, offsets 1/8..1/128"
    bound = CheckResult("lip-half-pointwise", context, [
        Record("max D/sqrt(delta)", res.c_fit, LIP_HALF_BOUND), Record("seconds", elapsed, 300.0)])
    lo, hi = 0.40, 0.60  # the demanded window for the fitted exponent
    window = CheckResult("exponent-window", context, [
        Record(f"{lo:.2f} - exponent", lo - res.slope, 0),
        Record(f"exponent - {hi:.2f}", res.slope - hi, 0)])
    report("06", [bound, window])
    assert bound.passed
    # documented negative result: edge erosion is linear from base 0, so the
    # measured exponent sits near 1 and the demanded window cannot be met
    assert window.passed, (
        f"{window.line()}: D(delta) tracks 2*pi*delta (band-edge erosion), "
        "the sqrt regime lives at base 1/2"
    )


def test_criterion_07_moyal_engine():
    results = [r for r in checks.check_moyal(CheckConfig(moyal_points=64))
               if r.name in ("moyal/zero-theta-pointwise", "moyal/direct-vs-fourier")]
    rng = np.random.default_rng(checks.DEFAULT_SEED + 7)

    def band_limited():
        shape = (32, 32)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        proto = GridFunction(2, 8.0, 32, raw, side="frequency")
        mask = interior_frequency_mask(proto, 1 / 3).reshape(shape)
        return to_position(GridFunction(2, 8.0, 32, raw * mask, side="frequency"))

    th7 = SkewMatrix.rotation(0.7)
    bf, bg, bh = band_limited(), band_limited(), band_limited()
    assoc = np.abs(
        star_product_fourier(star_product_fourier(bf, bg, th7), bh, th7).values
        - star_product_fourier(bf, star_product_fourier(bg, bh, th7), th7).values
    ).max()
    tracial = abs(
        integral(star_product_fourier(bf, bg, th7))
        - integral(GridFunction(2, 8.0, 32, bf.values * bg.values))
    )
    results.append(CheckResult("moyal/band-limited", "three band-limited functions, theta 0.7",
                               [Record("associativity", assoc, 1e-8),
                                Record("tracial", tracial, 1e-8)]))
    assert report("07", results)


def test_criterion_08_generator_group_equivalence():
    run_check("08", checks.check_generator_bound, hermitian_pairs=500)


def test_criterion_09_assembly_convergence():
    field = UnitaryField(
        lambda x, y: np.atleast_2d(np.exp(1j * y * np.arctan(x))), step=1e-3
    )
    deltas = np.array([[0.0, 0.8, -0.5], [0.0, 0.0, 1.1], [0.0, 0.0, 0.0]])
    probes = [[0.3, -0.7, 0.9], [1.1, 0.2, -0.4]]
    devs, order = assembly_convergence_order(field, deltas, 3, probes, 2e-2, 2)
    lo, hi = 1.8, 2.2  # the demanded window for the observed order
    context = (f"w(x,y) = exp(i y arctan x), d=3, deviations {[f'{d:.2e}' for d in devs]}, "
               f"observed order {order:.2f}")
    assert report("09", [CheckResult("assembly-convergence", context, [
        Record(f"{lo} - order", lo - order, 0),
        Record(f"order - {hi}", order - hi, 0),
        Record("non-decreasing deviations", sum(not a > b for a, b in zip(devs, devs[1:])), 0),
    ])])


def test_criterion_10_fock_clifford_single_mode():
    run_check("10a", checks.check_fock)


def test_criterion_10_fock_clifford_two_modes():
    rep = fock_identities_check(2, 6)
    result = CheckResult("fock/two-mode-identities", "n=2 cutoff 6", [
        Record("product residual", rep.product_identity_residual, 1e-12),
        Record("|kernel dim - Clifford dim|", abs(rep.kernel_dim - rep.clifford_dim), 0)])
    report("10b", [result])
    # documented negative result: the mixed-mode terms
    # c_k c_j (x) (a_k a_j* - a_j a_k*) do not cancel, so the two-mode half of
    # the criterion cannot hold; see test_finite_reps.py::TestFock for the
    # verified counterexample construction
    assert result.passed, (
        f"two-mode closure fails structurally: kernel dim {rep.kernel_dim}, Clifford dim "
        f"{rep.clifford_dim} (one Clifford copy per occupation level); {result.line()}"
    )
