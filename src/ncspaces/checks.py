"""CRITERIA, the one list of checks, run by tests/test_acceptance.py through
run_criterion and by the `all-checks` command through run_all_checks.

Every check returns (name, context, records); each record is a measured value
beside its tolerance, and CheckResult derives pass/fail and the printed line.
The CheckConfig defaults are the criterion sizes.  sort_failures gives every
failure its verdict by DOCUMENTED, the results that fail for a stated reason.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import count
from math import isqrt
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import finite_reps as fr
from . import moyal, spectra, symplectic, twisted_algebra as ta, weyl_dynamics as wd
from .errors import DENSE_CAP, ValidationError, as_index, guard
from .gridfn import GridFunction, integral, to_position
from .phases import Cyclotomic
from .skew import SkewMatrix, upper_pairs

DEFAULT_SEED = 0xA1B2C3D4
NORMAL_FORM_TOL = 1e-10  # symplectic/normal-form and `ncspaces symplectic`
COUNT_CAP = 10_000  # the draws of a counted check; 10 times the default algebra_triples
PAIR_QMAX = {2: 16, 3: 5, 4: 3, 5: 2}  # random_pair_table's largest q per d; 2 past d = 5
# the largest d whose tensor, each pair at its largest q, fits DENSE_CAP (q >= 2: it grows with d)
TENSOR_D_CAP = next(d - 1 for d in count(2) if PAIR_QMAX.get(d, 2) ** (d * (d - 1) // 2) > DENSE_CAP)

# the documented negative results (README, "Known negative results"): each
# result name that fails for a stated mathematical reason, with that reason
DOCUMENTED = {
    "spectra/exponent-window": "from base flux 0 band-edge erosion makes D(delta) track 2 pi "
    "delta, so the fitted exponent sits near 1; the sqrt regime lives at base flux 1/2",
    "fock/two-mode-identities": "for two or more modes the terms c_k c_j (x) (a_k a_j* - a_j "
    "a_k*) do not cancel, and ker A* gains one Clifford copy per occupation level",
}


@dataclass
class CheckConfig:
    """The sizes of the checks; each size feeds one check, and its default is
    the size its acceptance criterion runs at."""
    seed: int = DEFAULT_SEED
    algebra_triples: int = 1000
    tensor_max_d: int = 5
    symplectic_cases: int = 500
    metric_pairs: int = 200
    hermitian_pairs: int = 500
    moyal_points: int = 64
    holder_max_k: int = 7  # offsets 1/8 .. 1/2^k

    def __post_init__(self):
        """Every field an integer at or above its minimum: a seed >= 0, pairs
        from d = 2, at least two Hoelder offsets, and one case of every other
        size, so that no check passes on an empty run; the counted draws at
        most COUNT_CAP, and the other sizes within the caps of the code they
        size: the tensor side DENSE_CAP, the Hoelder q = 2^k DEFAULT_Q_CAP, and
        check_moyal's M = max(32, moyal_points) a power of two with M^2 <=
        DIRECT_CAP.  All before any check runs."""
        minimum = {"seed": 0, "tensor_max_d": 2, "holder_max_k": 4}
        counted = ("algebra_triples", "symplectic_cases", "metric_pairs", "hermitian_pairs")
        for f in fields(self):
            setattr(self, f.name, as_index(f.name, getattr(self, f.name), minimum.get(f.name, 1)))
        for name in counted:
            guard(name, getattr(self, name), COUNT_CAP)
        guard("tensor_max_d", self.tensor_max_d, TENSOR_D_CAP)
        guard("holder_max_k", self.holder_max_k, spectra.DEFAULT_Q_CAP.bit_length() - 1)
        m = max(32, self.moyal_points)
        if m & (m - 1):
            raise ValidationError(f"moyal_points past 32 must be a power of two, got {m}")
        guard("moyal_points", m, isqrt(moyal.DIRECT_CAP))


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
        """`PASS name: context; label value (tol t), ...`, or FAIL; a failing
        DOCUMENTED result's line ends with `; documented: reason`."""
        measured = ", ".join(f"{r.label} {r.value:.4g} (tol {r.tol:g})" for r in self.records)
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.context}; {measured}"
        if not self.passed and self.name in DOCUMENTED:
            line += f"; documented: {DOCUMENTED[self.name]}"
        return line


def sort_failures(failures: Iterable[Tuple[str, Optional[str]]]) -> Tuple[list, list, list]:
    """The one verdict on failures, per result.  Each failure is a pair (where,
    name): where it was seen, and the failing result's name, or None when it
    named none (a check that raised).  Returns the documented failures, whose
    name is in DOCUMENTED, the unexpected ones, and the DOCUMENTED names that
    did not fail: they passed or did not run."""
    failures = list(failures)
    failed = {name for _, name in failures}
    return ([f for f in failures if f[1] in DOCUMENTED],
            [f for f in failures if f[1] not in DOCUMENTED],
            [name for name in DOCUMENTED if name not in failed])


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
    qmax = PAIR_QMAX.get(d, 2)
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


def tracial_defect(f: GridFunction, g: GridFunction, product: GridFunction) -> float:
    """|integral of product - integral of f g|, zero for a star product of f and g."""
    pointwise = GridFunction(f.dim, f.half_length, f.points, f.values * g.values)
    return abs(integral(product) - integral(pointwise))


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
    context = f"Gaussians on M={m}"
    return [
        CheckResult("moyal/direct-vs-fourier", context, [Record("max diff", cross, 1e-6)]),
        CheckResult("moyal/zero-theta-pointwise", context, [Record("max diff", point, 1e-8)]),
        CheckResult("moyal/tracial-identity", context,
                    [Record("defect", tracial_defect(f, g, fourier), 1e-8)]),
    ]


def check_moyal_band_limited(cfg: CheckConfig) -> List[CheckResult]:
    """Three random functions on M = 32, L = 8, their frequencies inside the
    inner third of the box: the Fourier star product at theta 0.7 is
    associative and tracial on them."""
    rng = np.random.default_rng(cfg.seed + 7)
    shape = (32, 32)
    mask = moyal.interior_frequency_mask(
        GridFunction(2, 8.0, 32, np.zeros(shape), side="frequency"), 1 / 3).reshape(shape)

    def band_limited():
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return to_position(GridFunction(2, 8.0, 32, raw * mask, side="frequency"))

    f, g, h = band_limited(), band_limited(), band_limited()
    theta = SkewMatrix.rotation(0.7)

    def star(a, b):
        return moyal.star_product_fourier(a, b, theta)

    fg = star(f, g)
    assoc = float(np.abs(star(fg, h).values - star(f, star(g, h)).values).max())
    return [CheckResult("moyal/band-limited", "three band-limited functions, theta 0.7",
                        [Record("associativity", assoc, 1e-8),
                         Record("tracial", tracial_defect(f, g, fg), 1e-8)])]


def check_fock(cfg: CheckConfig, modes: int = 1) -> List[CheckResult]:
    """The Fock identities at cutoff 6: the product residual and the kernel
    dimension, and for a single mode the number action."""
    rep = fr.fock_identities_check(modes, 6)
    number = ([Record("number action residual", rep.number_action_residual, 1e-12)]
              if modes == 1 else [])
    return [CheckResult(f"fock/{'single' if modes == 1 else 'two'}-mode-identities",
                        f"n={modes} cutoff 6", [
        Record("product residual", rep.product_identity_residual, 1e-12), *number,
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


def check_holder_scan(cfg: CheckConfig) -> List[CheckResult]:
    """The pointwise Lip-1/2 record and the exponent window, both from one scan
    from base flux 0 over offsets 1/8 .. 1/2^k."""
    offsets = [Fraction(1, 2**k) for k in range(3, cfg.holder_max_k + 1)]
    res = spectra.holder_scan(Fraction(0), offsets)
    context = f"base 0, offsets 1/8..1/{2 ** cfg.holder_max_k}"
    fit = f"fitted slope {res.slope:.3f}, offsets span {res.decade_span:.2f} decades"
    return [
        CheckResult("spectra/lip-half-pointwise", f"{context}, {fit}",
                    [Record("max D/sqrt(delta)", res.c_fit, spectra.LIP_HALF_BOUND)]),
        CheckResult("spectra/exponent-window", context, [
            Record("0.40 - exponent", 0.40 - res.slope, 0),
            Record("exponent - 0.60", res.slope - 0.60, 0)]),
    ]


def check_assembly(cfg: CheckConfig) -> List[CheckResult]:
    """The assembly deviation of w(x, y) = exp(i y arctan x) at d = 3 falls
    at order 2 in h over h = 2e-2 and two halvings."""
    field = wd.UnitaryField(lambda x, y: np.atleast_2d(np.exp(1j * y * np.arctan(x))))
    deltas = np.array([[0.0, 0.8, -0.5], [0.0, 0.0, 1.1], [0.0, 0.0, 0.0]])
    probes = [[0.3, -0.7, 0.9], [1.1, 0.2, -0.4]]
    devs, order = wd.assembly_convergence_order(field, deltas, 3, probes, 2e-2, 2)
    context = (f"w(x,y) = exp(i y arctan x), d=3, deviations {[f'{d:.2e}' for d in devs]}, "
               f"observed order {order:.2f}")
    return [CheckResult("weyl/assembly-convergence", context, [
        Record("1.8 - order", 1.8 - order, 0), Record("order - 2.2", order - 2.2, 0),
        Record("non-decreasing deviations", sum(not a > b for a, b in zip(devs, devs[1:])), 0),
    ])]


class Criterion(NamedTuple):
    """An acceptance criterion: its checks, run at the CheckConfig defaults,
    and a time budget in seconds (None: no budget)."""
    checks: Tuple[Callable[[CheckConfig], List[CheckResult]], ...]
    budget: Optional[float] = None


CRITERIA = {
    "01": Criterion((check_algebra_exactness,), 30.0),
    "02": Criterion((check_tensor_relations,), 60.0),
    "03": Criterion((check_audit,)),
    "04": Criterion((check_symplectic,), 20.0),
    "05": Criterion((check_metric_lower_bound,)),
    "06": Criterion((check_holder_scan,), 300.0),
    "07": Criterion((check_moyal, check_moyal_band_limited)),
    "08": Criterion((check_generator_bound,)),
    "09": Criterion((check_assembly,)),
    "10a": Criterion((check_fock,)),
    "10b": Criterion((partial(check_fock, modes=2),)),
}


def run_all_checks(cfg: CheckConfig) -> List[CheckResult]:
    """The results of every entry of CRITERIA, in criterion order, at cfg's sizes."""
    return [result for entry in CRITERIA.values() for check in entry.checks
            for result in check(cfg)]


def run_criterion(criterion: str) -> List[CheckResult]:
    """The results of one entry of CRITERIA at the default sizes, with the
    elapsed time as one more record when the criterion has a budget."""
    entry = CRITERIA[criterion]
    start = time.perf_counter()
    cfg = CheckConfig()
    results = [result for check in entry.checks for result in check(cfg)]
    if entry.budget is not None:
        results.append(CheckResult("time", "the criterion's budget",
                                   [Record("seconds", time.perf_counter() - start, entry.budget)]))
    return results
