"""The property suite behind the `all-checks` command and the acceptance
criteria in tests/test_acceptance.py.

Every check returns (name, context, records); each record is a measured value
beside its tolerance, and CheckResult derives pass/fail and the printed line.
Sizes are configurable so the suite can run quickly in smoke mode, at full
depth from the command line, and at the criteria's sizes from the tests.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple

import numpy as np

from . import finite_reps as fr
from . import moyal, spectra, symplectic, twisted_algebra as ta, weyl_dynamics as wd
from .gridfn import GridFunction, integral
from .phases import Cyclotomic
from .skew import SkewMatrix, upper_pairs

DEFAULT_SEED = 0xA1B2C3D4
NORMAL_FORM_TOL = 1e-10  # symplectic/normal-form and `ncspaces symplectic`


@dataclass
class CheckConfig:
    seed: int = DEFAULT_SEED
    algebra_triples: int = 200
    tensor_max_d: int = 5
    symplectic_cases: int = 100
    metric_pairs: int = 60
    hermitian_pairs: int = 100
    moyal_points: int = 32
    holder_max_k: int = 5  # offsets 1/8 .. 1/2^k


class Record(NamedTuple):
    """One gated quantity: it passes when value <= tol."""
    label: str
    value: float
    tol: float


class CheckResult(NamedTuple):
    """A check's name, the sizes it ran at as text, and the records it gates on."""
    name: str
    context: str
    records: List[Record]

    @property
    def passed(self) -> bool:
        return all(r.value <= r.tol for r in self.records)

    def line(self) -> str:
        """`PASS name: context; label value (tol t), ...`, or FAIL."""
        measured = ", ".join(f"{r.label} {r.value:.4g} (tol {r.tol:g})" for r in self.records)
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.context}; {measured}"


def random_rational_theta(rng, d: int) -> SkewMatrix:
    """Upper entries n/den with den uniform in 1..9 and n in -den..den."""
    entries = {}
    for jk in upper_pairs(d):
        den = int(rng.integers(1, 10))
        num = int(rng.integers(-den, den + 1))
        entries[jk] = Fraction(num, den)
    return SkewMatrix.from_upper(d, entries)


def random_exact_poly(rng, theta: SkewMatrix):
    """1..8 draws of a monomial with exponents in -2..2 and an exact
    coefficient c zeta^r, c a nonzero integer in -3..3."""
    q = ta.phase_order(theta)
    coeffs = {}
    for _ in range(int(rng.integers(1, 9))):
        m = tuple(int(x) for x in rng.integers(-2, 3, size=theta.dim))
        r = int(rng.integers(0, q))
        num = int(rng.integers(-3, 4)) or 1
        c = Cyclotomic.root(q, r, Fraction(num))
        coeffs[m] = coeffs[m] + c if m in coeffs else c
    return ta.NCPolynomial(theta, coeffs)


def check_algebra_exactness(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    failures = [0, 0, 0, 0]
    for _ in range(cfg.algebra_triples):
        d = int(rng.integers(1, 5))
        theta = random_rational_theta(rng, d)
        a = random_exact_poly(rng, theta)
        b = random_exact_poly(rng, theta)
        c = random_exact_poly(rng, theta)
        ab = ta.poly_mul(a, b)
        chain = a
        for j in range(d):
            chain = ta.cond_expectation(chain, j)
        phi = chain == ta.NCPolynomial(theta, {(0,) * d: ta.trace(a)}, exact=True)
        if d >= 2:
            phi = phi and ta.cond_expectation(ta.cond_expectation(a, 0), 1) == (
                ta.cond_expectation(ta.cond_expectation(a, 1), 0)
            )
        held = (
            ta.poly_mul(ab, c) == ta.poly_mul(a, ta.poly_mul(b, c)),
            ta.poly_adjoint(ab) == ta.poly_mul(ta.poly_adjoint(b), ta.poly_adjoint(a)),
            ta.trace(ab) == ta.trace(ta.poly_mul(b, a)),
            phi,
        )
        failures = [f + (not h) for f, h in zip(failures, held)]
    identities = [
        ("algebra/associativity-exact", "(ab)c = a(bc)"),
        ("algebra/star-antihomomorphism-exact", "(ab)* = b*a*"),
        ("algebra/trace-commutation-exact", "tau(ab) = tau(ba)"),
        ("algebra/conditional-expectations-exact", "Phi chain and commutation"),
    ]
    context = f"{cfg.algebra_triples} rational triples"
    return [CheckResult(name, f"{law}, {context}", [Record("failures", f, 0)])
            for (name, law), f in zip(identities, failures)]


def random_pair_table(rng, d: int) -> dict:
    """One clock/shift pair at a random rational flux per index pair, with
    denominators small enough for the d-fold tensor assembly."""
    qmax = {2: 16, 3: 5, 4: 3, 5: 2}.get(d, 2)
    table = {}
    for jk in upper_pairs(d):
        q = int(rng.integers(2, qmax + 1))
        table[jk] = fr.clock_shift(int(rng.integers(0, q)), q)
    return table


def check_tensor_relations(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 2)
    worst = 0.0
    for d in range(2, cfg.tensor_max_d + 1):
        rep = fr.verify_relations(fr.tensor_construct(random_pair_table(rng, d)))
        worst = max(worst, rep.max_commutation, rep.max_unitarity)
    return [CheckResult("tensor/pairwise-relations", f"d=2..{cfg.tensor_max_d} rational pairs",
                        [Record("worst residual", worst, 1e-12)])]


def check_symplectic(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 4)
    worst = 0.0
    n = 0
    while n < cfg.symplectic_cases:
        d = int(rng.choice([2, 4, 6]))
        theta = SkewMatrix.random(d, rng)
        sv = np.linalg.svd(theta.as_array(), compute_uv=False)
        if sv[-1] <= 1e-3 * sv[0]:
            continue  # regenerate near-singular draws
        n += 1
        worst = max(worst, symplectic.symplectic_normalize(theta).residual)
    return [CheckResult("symplectic/normal-form", f"{n} random skew matrices (d in 2,4,6)",
                        [Record("worst residual", worst, NORMAL_FORM_TOL)])]


def random_tuple_pair(rng):
    """Clock/shift pairs of sizes qa, qb in 2..4, each padded to C^(qa qb) by
    the identity on the other factor; the second is conjugated by a random
    unitary."""
    qa, qb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    a = fr.tensor_translate(
        fr.clock_shift(int(rng.integers(0, qa)), qa), fr.UnitaryTuple.identity(2, qb)
    )
    b = fr.tensor_translate(
        fr.UnitaryTuple.identity(2, qa), fr.clock_shift(int(rng.integers(0, qb)), qb)
    )
    n = qa * qb
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    mats = tuple(u @ m @ u.conj().T for m in b.matrices)
    return a, fr.UnitaryTuple(mats, b.sigma, b.tol + 1e-12)


def check_metric_lower_bound(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 5)
    violations = 0
    worst = np.inf
    for _ in range(cfg.metric_pairs):
        rep = fr.distance_lower_bound_check(*random_tuple_pair(rng))
        violations += not rep.holds
        worst = min(worst, rep.margin)
    context = f"{cfg.metric_pairs} tuple pairs, min margin {worst:.3f}"
    return [CheckResult("metric/lower-bound", context, [Record("violations", violations, 0)])]


def check_generator_bound(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 8)
    violations = 0
    worst = 0.0
    for _ in range(cfg.hermitian_pairs):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p1 = (a + a.conj().T) / 2
        p2 = p1 + (b + b.conj().T) / 2
        pair = wd.HermitianPair(p1, p2)
        dn = pair.difference_norm()
        ts = [0.002 / dn * (k + 1) for k in range(5)] + [0.1, 0.5, 1.0, 3.0]
        rep = wd.generator_bound_check(pair, ts)
        violations += not rep.necessity_ok
        worst = max(worst, rep.slope_relative_error)
    return [CheckResult("weyl/generator-group-equivalence",
                        f"{cfg.hermitian_pairs} Hermitian pairs (N <= 16)",
                        [Record("necessity violations", violations, 0),
                         Record("worst slope error", worst, 0.05)])]


def check_moyal(cfg: CheckConfig) -> List[CheckResult]:
    # below M = 32 the Gaussian tails alone exceed the tolerances under test
    m = max(32, cfg.moyal_points)
    theta = SkewMatrix.rotation(1.0)
    f = GridFunction.gaussian(2, 8.0, m, sigma=1.0)
    g = GridFunction.gaussian(2, 8.0, m, sigma=1.3, center=(0.4, -0.3))
    direct = moyal.moyal_direct(f, g, theta)
    fourier = moyal.star_product_fourier(f, g, theta)
    cross = float(np.abs(direct.values - fourier.values).max())
    zero = SkewMatrix.zero(2)
    prod0 = moyal.moyal_direct(f, g, zero)
    point = float(np.abs(prod0.values - f.values * g.values).max())
    tr = abs(
        integral(fourier)
        - integral(GridFunction(2, 8.0, m, f.values * g.values))
    )
    context = f"Gaussians on M={m}"
    return [
        CheckResult("moyal/direct-vs-fourier", context, [Record("max diff", cross, 1e-6)]),
        CheckResult("moyal/zero-theta-pointwise", context, [Record("max diff", point, 1e-8)]),
        CheckResult("moyal/tracial-identity", context, [Record("defect", tr, 1e-8)]),
    ]


def check_fock(cfg: CheckConfig) -> List[CheckResult]:
    rep = fr.fock_identities_check(1, 6)
    return [CheckResult("fock/single-mode-identities", "n=1 cutoff 6", [
        Record("product residual", rep.product_identity_residual, 1e-12),
        Record("number action residual", rep.number_action_residual, 1e-12),
        Record("|kernel dim - Clifford dim|", abs(rep.kernel_dim - rep.clifford_dim), 0),
    ])]


def check_audit(cfg: CheckConfig) -> List[CheckResult]:
    rep = wd.audit_interpolation_constants(8100, 2500, levels=6)
    # the closing arithmetic 1224 + 2500 * 45 / 90 = 2474, exact since 8100 = 90^2
    pins = [("one-step", rep.one_step_value, 2474), ("slack", rep.slack, 26),
            ("level bounds", len(rep.level_bounds), 7)]
    return [CheckResult("audit/refinement-constants", f"k={rep.k}, target {rep.target:g}, 6 levels", [
        Record("inexact", int(not rep.exact), 0),
        *(Record(f"|{name} - {want}|", abs(got - want), 0) for name, got, want in pins),
        Record("max level bound", max(rep.level_bounds), rep.target),
        Record("over target", int(not rep.holds), 0),
    ])]


def check_holder(cfg: CheckConfig) -> List[CheckResult]:
    offsets = [Fraction(1, 2**k) for k in range(3, cfg.holder_max_k + 1)]
    res = spectra.holder_scan(Fraction(0), offsets)
    context = f"base 0, offsets 1/8..1/{2 ** cfg.holder_max_k}, fitted slope {res.slope:.3f}"
    return [CheckResult("spectra/lip-half-pointwise", context,
                        [Record("max D/sqrt(delta)", res.c_fit, spectra.LIP_HALF_BOUND)])]


def run_all_checks(cfg: CheckConfig) -> List[CheckResult]:
    checks = (check_algebra_exactness, check_tensor_relations, check_symplectic,
              check_metric_lower_bound, check_generator_bound, check_moyal, check_fock,
              check_audit, check_holder)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [result for check in checks for result in check(cfg)]
