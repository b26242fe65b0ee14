"""Self-contained property suite behind the `all-checks` command.

Every check returns (name, passed, detail).  Sizes are configurable so the
suite can run quickly in smoke mode and at full depth from the command line.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from . import finite_reps as fr
from . import moyal, spectra, symplectic, twisted_algebra as ta, weyl_dynamics as wd
from .gridfn import GridFunction, integral
from .phases import Cyclotomic
from .skew import SkewMatrix, upper_pairs

DEFAULT_SEED = 0xA1B2C3D4


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


CheckResult = Tuple[str, bool, str]


def random_rational_theta(rng, d: int, max_den: int = 9) -> SkewMatrix:
    entries = {}
    for jk in upper_pairs(d):
        den = int(rng.integers(1, max_den + 1))
        num = int(rng.integers(-den, den + 1))
        entries[jk] = Fraction(num, den)
    return SkewMatrix.from_upper(d, entries)


def random_exact_poly(rng, theta: SkewMatrix, max_terms: int = 8, max_exp: int = 2):
    q = ta.phase_order(theta)
    coeffs = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        m = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=theta.dim))
        r = int(rng.integers(0, q))
        num = int(rng.integers(-3, 4)) or 1
        c = Cyclotomic.root(q, r, Fraction(num))
        coeffs[m] = coeffs[m] + c if m in coeffs else c
    return ta.NCPolynomial(theta, coeffs)


def check_algebra_exactness(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    assoc = star = tr = phi = True
    for _ in range(cfg.algebra_triples):
        d = int(rng.integers(1, 5))
        theta = random_rational_theta(rng, d)
        a = random_exact_poly(rng, theta)
        b = random_exact_poly(rng, theta)
        c = random_exact_poly(rng, theta)
        ab_c = ta.poly_mul(ta.poly_mul(a, b), c)
        a_bc = ta.poly_mul(a, ta.poly_mul(b, c))
        assoc = assoc and (ab_c == a_bc)
        star = star and (
            ta.poly_adjoint(ta.poly_mul(a, b))
            == ta.poly_mul(ta.poly_adjoint(b), ta.poly_adjoint(a))
        )
        tr = tr and (ta.trace(ta.poly_mul(a, b)) == ta.trace(ta.poly_mul(b, a)))
        chain = a
        for j in range(d):
            chain = ta.cond_expectation(chain, j)
        want = {(0,) * d: ta.trace(a)} if not ta.trace(a).is_zero else {}
        phi = phi and (chain.coeffs == want)
        if d >= 2:
            p01 = ta.cond_expectation(ta.cond_expectation(a, 0), 1)
            p10 = ta.cond_expectation(ta.cond_expectation(a, 1), 0)
            phi = phi and (p01 == p10)
    return [
        ("algebra/associativity-exact", assoc, f"{cfg.algebra_triples} rational triples"),
        ("algebra/star-antihomomorphism-exact", star, "(ab)* = b*a*"),
        ("algebra/trace-commutation-exact", tr, "tau(ab) = tau(ba)"),
        ("algebra/conditional-expectations-exact", phi, "Phi chain and commutation"),
    ]


def check_tensor_relations(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 1)
    ok = True
    worst = 0.0
    for d in range(2, cfg.tensor_max_d + 1):
        qmax = {2: 16, 3: 5, 4: 3, 5: 2}.get(d, 2)
        table = {}
        for jk in upper_pairs(d):
            q = int(rng.integers(2, qmax + 1))
            p = int(rng.integers(0, q))
            table[jk] = fr.clock_shift(p, q)
        t = fr.tensor_construct(table)
        rep = fr.verify_relations(t)
        worst = max(worst, rep.max_commutation, rep.max_unitarity)
        ok = ok and rep.max_commutation <= 1e-12 and rep.max_unitarity <= 1e-12
    return [("tensor/pairwise-relations", ok, f"worst residual {worst:.2e}")]


def check_symplectic(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 2)
    ok = True
    worst = 0.0
    n = 0
    while n < cfg.symplectic_cases:
        d = int(rng.choice([2, 4, 6]))
        theta = SkewMatrix.random(d, rng)
        arr = theta.as_array()
        sv = np.linalg.svd(arr, compute_uv=False)
        if sv[-1] < 1e-3 * sv[0]:
            continue
        n += 1
        sf = symplectic.symplectic_normalize(theta)
        worst = max(worst, sf.residual)
        ok = ok and sf.residual <= 1e-10
    return [("symplectic/normal-form", ok, f"{n} cases, worst residual {worst:.2e}")]


def random_tuple_pair(rng, size_pool=(2, 3, 4)):
    q = int(rng.choice(size_pool))
    p = int(rng.integers(0, q))
    a = fr.clock_shift(p, q)
    q2 = int(rng.choice(size_pool))
    p2 = int(rng.integers(0, q2))
    b = fr.clock_shift(p2, q2)
    # pad to a common size and conjugate one side by a random unitary
    a = fr.tensor_translate(a, fr.UnitaryTuple.identity(2, q2))
    b = fr.tensor_translate(fr.UnitaryTuple.identity(2, q), b)
    z = rng.standard_normal((q * q2, q * q2)) + 1j * rng.standard_normal((q * q2, q * q2))
    u, _ = np.linalg.qr(z)
    mats = tuple(u @ m @ u.conj().T for m in b.matrices)
    b = fr.UnitaryTuple(mats, b.sigma, b.tol + 1e-12)
    return a, b


def check_metric_lower_bound(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 3)
    ok = True
    worst = np.inf
    for _ in range(cfg.metric_pairs):
        a, b = random_tuple_pair(rng)
        rep = fr.distance_lower_bound_check(a, b)
        ok = ok and rep.holds
        worst = min(worst, rep.margin)
    return [("metric/lower-bound", ok, f"{cfg.metric_pairs} pairs, min margin {worst:.3f}")]


def check_generator_bound(cfg: CheckConfig) -> List[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 4)
    ok = True
    for _ in range(cfg.hermitian_pairs):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p1 = (a + a.conj().T) / 2
        p2 = p1 + (b + b.conj().T) / 2
        pair = wd.HermitianPair(p1, p2)
        dn = pair.difference_norm()
        ts = [0.001 / dn * (k + 1) for k in range(5)] + [0.1, 0.5, 1.0]
        rep = wd.generator_bound_check(pair, ts)
        ok = ok and rep.necessity_ok and rep.slope_relative_error <= 0.05
    return [("weyl/generator-group-equivalence", ok, f"{cfg.hermitian_pairs} pairs")]


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
    return [
        ("moyal/direct-vs-fourier", cross <= 1e-6, f"max diff {cross:.2e}"),
        ("moyal/zero-theta-pointwise", point <= 1e-8, f"max diff {point:.2e}"),
        ("moyal/tracial-identity", tr <= 1e-8, f"defect {tr:.2e}"),
    ]


def check_fock(cfg: CheckConfig) -> List[CheckResult]:
    rep = fr.fock_identities_check(1, 6)
    ok = (
        rep.product_identity_residual <= 1e-12
        and rep.number_action_residual <= 1e-12
        and rep.kernel_dim == rep.clifford_dim
    )
    return [
        (
            "fock/single-mode-identities",
            ok,
            f"residual {rep.product_identity_residual:.1e}, kernel {rep.kernel_dim}",
        )
    ]


def check_audit(cfg: CheckConfig) -> List[CheckResult]:
    rep = wd.audit_interpolation_constants(8100, 2500)
    ok = rep.holds and abs(rep.slack - 26.0) < 1e-9 and max(rep.level_bounds) <= 2500
    return [("audit/refinement-constants", ok, f"slack {rep.slack:g}")]


def check_holder(cfg: CheckConfig) -> List[CheckResult]:
    offsets = [Fraction(1, 2**k) for k in range(3, cfg.holder_max_k + 1)]
    res = spectra.holder_scan(Fraction(0), offsets)
    return [
        (
            "spectra/lip-half-pointwise",
            res.lip_half_ok,
            f"slope {res.slope:.3f}, c_fit {res.c_fit:.3f}",
        )
    ]


ALL_CHECKS: List[Callable[[CheckConfig], List[CheckResult]]] = [
    check_algebra_exactness,
    check_tensor_relations,
    check_symplectic,
    check_metric_lower_bound,
    check_generator_bound,
    check_moyal,
    check_fock,
    check_audit,
    check_holder,
]


def run_all_checks(cfg: CheckConfig) -> List[CheckResult]:
    import warnings

    out: List[CheckResult] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in ALL_CHECKS:
            out.extend(fn(cfg))
    return out
