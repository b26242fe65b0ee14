"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities before asserting.

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

from ncspaces import twisted_algebra as ta
from ncspaces.checks import random_exact_poly, random_rational_theta
from ncspaces.finite_reps import (
    clock_shift,
    distance_lower_bound_check,
    fock_identities_check,
    tensor_construct,
    tensor_translate,
    verify_relations,
    UnitaryTuple,
)
from ncspaces.gridfn import GridFunction, integral, to_position, freq_grid_vectors
from ncspaces.moyal import moyal_direct, star_product_fourier
from ncspaces.skew import SkewMatrix, upper_pairs
from ncspaces.spectra import holder_scan
from ncspaces.symplectic import symplectic_normalize
from ncspaces.weyl_dynamics import (
    HermitianPair,
    UnitaryField,
    assembly_convergence_order,
    audit_interpolation_constants,
    generator_bound_check,
)

SEED = 0xA1B2C3D4


def report(criterion, ok, detail):
    print(f"criterion-{criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_algebraic_exactness():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        theta = random_rational_theta(rng, d)
        a = random_exact_poly(rng, theta)
        b = random_exact_poly(rng, theta)
        c = random_exact_poly(rng, theta)
        ok = ta.poly_mul(ta.poly_mul(a, b), c) == ta.poly_mul(a, ta.poly_mul(b, c))
        ok = ok and ta.poly_adjoint(ta.poly_mul(a, b)) == ta.poly_mul(
            ta.poly_adjoint(b), ta.poly_adjoint(a)
        )
        ok = ok and ta.trace(ta.poly_mul(a, b)) == ta.trace(ta.poly_mul(b, a))
        chain = a
        for j in range(d):
            chain = ta.cond_expectation(chain, j)
        tr = ta.trace(a)
        ok = ok and chain.coeffs == ({(0,) * d: tr} if not tr.is_zero else {})
        if d >= 2:
            ok = ok and ta.cond_expectation(ta.cond_expectation(a, 0), 1) == (
                ta.cond_expectation(ta.cond_expectation(a, 1), 0)
            )
        failures += 0 if ok else 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 30.0
    assert report(
        "01", ok,
        f"1000 rational triples, {failures} failures, exact phase arithmetic, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_tensor_construction():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.time()
    worst = 0.0
    for d in range(2, 6):
        qmax = {2: 16, 3: 5, 4: 3, 5: 2}[d]
        table = {}
        for jk in upper_pairs(d):
            q = int(rng.integers(2, qmax + 1))
            table[jk] = clock_shift(int(rng.integers(0, q)), q)
        rep = verify_relations(tensor_construct(table))
        worst = max(worst, rep.max_commutation, rep.max_unitarity)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 60.0
    assert report(
        "02", ok,
        f"d=2..5 random rational pairs, worst residual {worst:.2e} (tol 1e-12), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_03_constant_audit():
    rep = audit_interpolation_constants(8100, 2500, levels=6)
    exact_value = rep.exact and rep.one_step_value == 2474.0 and rep.slack == 26.0
    levels_ok = len(rep.level_bounds) == 7 and max(rep.level_bounds) <= 2500.0
    ok = exact_value and levels_ok and rep.holds
    assert report(
        "03", ok,
        f"1224 + 2500*45/sqrt(8100) = {rep.one_step_value:g} <= 2500 "
        f"(slack {rep.slack:g}, exact), 6 levels max {max(rep.level_bounds):g}",
    )


def test_criterion_04_symplectic_normalization():
    rng = np.random.default_rng(SEED + 4)
    t0 = time.time()
    done = 0
    worst = 0.0
    while done < 500:
        d = int(rng.choice([2, 4, 6]))
        theta = SkewMatrix.random(d, rng)
        sv = np.linalg.svd(theta.as_array(), compute_uv=False)
        if sv[-1] <= 1e-3 * sv[0]:
            continue  # regenerate near-singular draws
        sf = symplectic_normalize(theta)
        worst = max(worst, sf.residual)
        done += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed <= 20.0
    assert report(
        "04", ok,
        f"500 random skew matrices (d in 2,4,6), worst residual {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 20s)",
    )


def test_criterion_05_metric_lower_bound():
    rng = np.random.default_rng(SEED + 5)
    violations = 0
    min_margin = np.inf
    for _ in range(200):
        qa, qb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = tensor_translate(
            clock_shift(int(rng.integers(0, qa)), qa), UnitaryTuple.identity(2, qb)
        )
        b = tensor_translate(
            UnitaryTuple.identity(2, qa), clock_shift(int(rng.integers(0, qb)), qb)
        )
        n = qa * qb
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(z)
        b = UnitaryTuple(
            tuple(u @ m @ u.conj().T for m in b.matrices), b.sigma, b.tol + 1e-12
        )
        rep = distance_lower_bound_check(a, b)
        min_margin = min(min_margin, rep.margin)
        violations += 0 if rep.holds else 1
    ok = violations == 0
    assert report(
        "05", ok,
        f"200 tuple pairs on a common space, {violations} violations, "
        f"min margin {min_margin:.3f}",
    )


def test_criterion_06_holder_continuity():
    offsets = [Fraction(1, 2**k) for k in range(3, 8)]
    t0 = time.time()
    with pytest.warns(UserWarning):
        res = holder_scan(Fraction(0), offsets, q_cap=128)
    elapsed = time.time() - t0
    in_window = 0.40 <= res.slope <= 0.60
    ok = in_window and res.lip_half_ok and elapsed <= 300.0
    report(
        "06", ok,
        f"base 0, offsets 1/8..1/128: fitted exponent {res.slope:.3f} "
        f"(demanded window [0.40, 0.60]), pointwise Lip-1/2 "
        f"{'holds' if res.lip_half_ok else 'fails'} with c_fit {res.c_fit:.3f}, "
        f"{elapsed:.0f}s (budget 300s)",
    )
    assert res.lip_half_ok and elapsed <= 300.0
    # documented negative result: edge erosion is linear from base 0, so the
    # measured exponent sits near 1 and the demanded window cannot be met
    assert in_window, (
        f"fitted exponent {res.slope:.3f} outside [0.40, 0.60]: D(delta) tracks "
        "2*pi*delta (band-edge erosion), the sqrt regime lives at base 1/2"
    )


def test_criterion_07_moyal_engine():
    theta = SkewMatrix.rotation(1.0)
    f = GridFunction.gaussian(2, 8.0, 64, sigma=1.0)
    g = GridFunction.gaussian(2, 8.0, 64, sigma=1.3, center=(0.4, -0.3))

    point = np.abs(
        moyal_direct(f, g, SkewMatrix.zero(2)).values - f.values * g.values
    ).max()
    cross = np.abs(
        moyal_direct(f, g, theta).values - star_product_fourier(f, g, theta).values
    ).max()

    rng = np.random.default_rng(SEED + 7)

    def band_limited():
        shape = (32, 32)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        proto = GridFunction(2, 8.0, 32, raw, side="frequency")
        vec = freq_grid_vectors(proto)
        smax = np.abs(proto.freq_axis()).max()
        mask = np.all(np.abs(vec) <= smax / 3, axis=1).reshape(shape)
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
    ok = point <= 1e-8 and cross <= 1e-6 and assoc <= 1e-8 and tracial <= 1e-8
    assert report(
        "07", ok,
        f"star_0 pointwise {point:.1e} (1e-8), direct-vs-fourier {cross:.1e} (1e-6), "
        f"associativity {assoc:.1e} (1e-8), tracial {tracial:.1e} (1e-8)",
    )


def test_criterion_08_generator_group_equivalence():
    rng = np.random.default_rng(SEED + 8)
    violations = 0
    worst_slope_err = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p1 = (a + a.conj().T) / 2
        p2 = p1 + (b + b.conj().T) / 2
        pair = HermitianPair(p1, p2)
        dn = pair.difference_norm()
        ts = [0.002 / dn * (k + 1) for k in range(5)] + [0.1, 0.5, 1.0, 3.0]
        rep = generator_bound_check(pair, ts)
        violations += 0 if rep.necessity_ok else 1
        worst_slope_err = max(worst_slope_err, rep.slope_relative_error)
    ok = violations == 0 and worst_slope_err <= 0.05
    assert report(
        "08", ok,
        f"500 Hermitian pairs (N <= 16), {violations} necessity violations, "
        f"worst slope error {100 * worst_slope_err:.2f}% (tol 5%)",
    )


def test_criterion_09_assembly_convergence():
    field = UnitaryField(
        lambda x, y: np.atleast_2d(np.exp(1j * y * np.arctan(x))), step=1e-3
    )
    deltas = np.array([[0.0, 0.8, -0.5], [0.0, 0.0, 1.1], [0.0, 0.0, 0.0]])
    probes = [[0.3, -0.7, 0.9], [1.1, 0.2, -0.4]]
    devs, order = assembly_convergence_order(field, deltas, 3, probes, 2e-2, 2)
    ok = 1.8 <= order <= 2.2 and all(a > b for a, b in zip(devs, devs[1:]))
    assert report(
        "09", ok,
        f"w(x,y) = exp(i y arctan x), d=3: deviations {[f'{d:.2e}' for d in devs]}, "
        f"observed order {order:.2f} (window [1.8, 2.2])",
    )


def test_criterion_10_fock_clifford_single_mode():
    rep = fock_identities_check(1, 6)
    ok = (
        rep.product_identity_residual <= 1e-12
        and rep.number_action_residual <= 1e-12
        and rep.kernel_dim == rep.clifford_dim
    )
    assert report(
        "10a", ok,
        f"n=1 cutoff 6: product residual {rep.product_identity_residual:.1e} "
        f"(1e-12), kernel dim {rep.kernel_dim} = Clifford dim {rep.clifford_dim}",
    )


def test_criterion_10_fock_clifford_two_modes():
    rep = fock_identities_check(2, 6)
    identity_ok = rep.product_identity_residual <= 1e-12
    kernel_ok = rep.kernel_dim == rep.clifford_dim
    ok = identity_ok and kernel_ok
    report(
        "10b", ok,
        f"n=2 cutoff 6: product residual {rep.product_identity_residual:.3f} "
        f"(demanded 1e-12), interior kernel dim {rep.kernel_dim} "
        f"(demanded {rep.clifford_dim})",
    )
    # documented negative result: the mixed-mode terms
    # c_k c_j (x) (a_k a_j* - a_j a_k*) do not cancel, so the two-mode half of
    # the criterion cannot hold; see test_finite_reps.py::TestFock for the
    # verified counterexample construction
    assert ok, (
        f"two-mode closure fails structurally: residual "
        f"{rep.product_identity_residual:.3f}, kernel {rep.kernel_dim} != "
        f"{rep.clifford_dim} (one Clifford copy per occupation level)"
    )
