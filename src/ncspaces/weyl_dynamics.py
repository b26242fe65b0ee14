"""Discretized one-parameter unitary groups, generator/group norm equivalence,
unitary-field assembly identities, and the interpolation-constant audit.

Translations act by Fourier phases (exact group law for every real parameter);
modulations are diagonal.  On a self-dual grid the two families are exchanged
by the transform, and the commutation phase closes exactly whenever the shift
lands on the grid lattice and the modulation on the dual lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import inf, isfinite, isqrt, sqrt
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import DENSE_CAP, DegenerateFitError, ValidationError, as_index, as_real, guard
from .linalg import (
    COMPLEX_PRODUCT,
    UNIT_ROUNDOFF,
    HermitianExponential,
    gamma_n,
    hermiticity_defect,
    spectral_norm,
)
from .gridfn import GridSpec
from .symplectic import gaussian_state


# -- the Weyl relation of the translation and modulation groups ---------------


@dataclass(frozen=True)
class WeylResidualReport:
    residual: float              # defect applied to the reference state
    operator_defect: float       # upper bound on the defect's spectral norm (see weyl_residual)
    shift: float                 # theta * s, the translation actually applied
    commensurate_shift: bool     # theta*s on the grid lattice
    commensurate_modulation: bool  # t on the dual lattice


def weyl_residual(theta: float, s: float, t: float, grid: GridSpec) -> WeylResidualReport:
    """Defect of u(theta s) v(t) = exp(i s t theta) v(t) u(theta s) on the grid.

    The translation group is built for the generator theta * (-i d/dx), i.e.
    u acts by translation by theta*s.  The defect vanishes identically exactly
    when theta*s sits on the grid lattice and t on the dual lattice; off the
    lattices its full operator norm stays O(1) however fine the grid is (the
    modulation symbol leaks across the periodic wrap), so the headline
    residual is the defect applied to a reference Gaussian state of width
    L / 32, which the refining grid progressively resolves.

    u is the circulant whose first column c is the inverse FFT of the
    translation symbol exp(i k theta s), applied as
    ifft(fft(c) * fft(x)); v is the diagonal exp(i x t).  The residual is
    ||u (v psi) - phase v (u psi)||.

    operator_defect bounds the defect's operator norm from above, without an
    SVD and without forming the defect (see _defect_norm_bound).  On the
    lattices it stays at round-off, about 1e-14.  Off them the value is the
    certified bound (1 + |phase|) max|v| ||u|| plus round-off, about 2 for M a
    power of two (otherwise the Hoelder bound, up to about 7), not the exact
    norm, which lies between about 1.1 and 2.

    Cost: O(M log M) time in six FFTs and O(M) memory; no M x M array and no
    SVD.  Guarded to M <= DENSE_CAP^2, the entry count of the largest dense
    matrix the package admits.  The reference width's 2 (L/32)^2 must be
    positive and finite, some sample of the reference state nonzero, and the
    phases theta s t, t L and k_max theta s (k_max the largest frequency)
    finite: otherwise a sample below would be NaN.
    """
    theta, s, t = as_real("theta", theta), as_real("s", s), as_real("t", t)
    guard("grid points M", grid.points, DENSE_CAP**2)
    width = grid.half_length / 32.0
    try:  # as gaussian_samples forms it
        spread = 2.0 * width**2
    except OverflowError:
        spread = inf
    if not 0.0 < spread < inf:
        raise ValidationError(
            f"grid L = {grid.half_length!r}: the reference width's 2 (L/32)^2 = {spread!r}"
            " leaves the float range"
        )
    shift = theta * s
    k_max = 2.0 * np.pi * (grid.points // 2 * (1.0 / (grid.points * grid.step)))  # as fftfreq
    for what, phase in (("theta s t", s * t * theta), ("t L", t * grid.half_length),
                        ("k_max theta s", k_max * shift)):
        if not isfinite(phase):
            raise ValidationError(f"Weyl phase {what} = {phase!r} leaves the float range")
    c = np.fft.ifft(np.exp(1j * grid.frequencies() * shift))
    c_hat = np.fft.fft(c)
    v = np.exp(1j * grid.axis() * t)
    phase = np.exp(1j * s * t * theta)

    def u(x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(c_hat * np.fft.fft(x))

    psi = gaussian_state(grid, 1, width)
    res = float(np.linalg.norm(u(v * psi) - phase * (v * u(psi))))
    tol = 1e-9
    com_s = abs(shift / grid.step - round(shift / grid.step)) < tol
    com_t = abs(t / grid.dual_step - round(t / grid.dual_step)) < tol
    bound = _defect_norm_bound(c, c_hat, v, phase, abs(t) * grid.half_length)
    return WeylResidualReport(res, bound, shift, bool(com_s), bool(com_t))


# numpy's FFT forms each weight as a complex product of two tabulated roots of
# unity; with each table entry within 2u of its root, the weight is within
# 2u + 2u + COMPLEX_PRODUCT < 8u of the exact one
_FFT_WEIGHT = 8 * UNIT_ROUNDOFF
# one radix-2 stage of the FFT (Higham, Thm 24.2)
_FFT_STAGE = _FFT_WEIGHT + gamma_n(4) * (sqrt(2) + _FFT_WEIGHT)
# np.exp(i y) for a real y: cos y and sin y each within one ulp (as glibc's
# are), so the value is within 2u of e^(i y)
_EXP = 2 * UNIT_ROUNDOFF
# |fl(u_ab fl(v_b - fl(phase v_a))) - u_ab (v_b - phase v_a)| over
# |u_ab| (1 + |phase|) max|v|: two complex products and one difference
_FORMING = ((1 + COMPLEX_PRODUCT) * (COMPLEX_PRODUCT * (1 + UNIT_ROUNDOFF) + UNIT_ROUNDOFF)
            + COMPLEX_PRODUCT)


def _defect_norm_bound(
    c: np.ndarray, c_hat: np.ndarray, v: np.ndarray, phase: complex, t_half_length: float
) -> float:
    """An upper bound on the spectral norm of the defect D = u V - phase V u
    of weyl_residual, for the circulant u with first column c (c_hat its
    FFT), V = diag(v), the float phase and |t| L = t_half_length; it covers
    both D in exact arithmetic and D formed entrywise in floats.  O(M), no
    SVD and no M x M array.

    The smaller of two bounds:
    - the Hoelder bound sqrt(||A||_1 ||A||_inf) of a nonnegative A >= |D|
      entrywise (Higham, *Accuracy and Stability of Numerical Algorithms*,
      sec. 6.3).  D[a, b] = c_k (v_b - phase v_a) with k = (a - b) mod M, and
      on the wrapped diagonal k the modulus |v_b - phase v_a| is, up to
      round-off, one value for the rows a >= k (x_a - x_b = k h) and one for
      the rows a < k (x_a - x_b = (k - M) h): those of the entries D[k, 0]
      and D[0, M - k].  So A[a, b] = |c_k| (alpha_k + e) for a >= k and
      |c_k| (beta_k + e) for a < k, with alpha_k = |v_0 - phase v_k| and
      beta_k = |v_(M-k) - phase v_0| as computed, and each row sum is a
      prefix sum of |c_k| (alpha_k + e) plus a suffix sum of
      |c_k| (beta_k + e).  Column b holds the same differences x_a - x_b as
      row M - 1 - b, so the column sums are the row sums and the bound is the
      largest row sum.  The slack e covers, per entry, with u the unit
      round-off:
      - the float grid: x_a = fl(-L + fl(h a)) and the argument
        fl(x_a t) lie within gamma_4 |t| L of t (-L + a h), so two entries of
        one diagonal see arguments x_a t - x_b t within 4 gamma_4 |t| L of each
        other, and |1 - e^(i y)| moves by at most the change in y;
      - the exponentials: v_a, v_b and the phase each within _EXP of the
        exact exponential of their float argument, 3 _EXP + _EXP^2 per entry,
        twice;
      - computing alpha_k or beta_k: one complex product, COMPLEX_PRODUCT
        |phase| max|v|;
      - forming D in floats: _FORMING (1 + |phase|) max|v|.
    - for M = 2^t, (1 + |phase|) max|v| (||u|| + e') with ||u|| = max_k
      |DFT(c)_k| (Davis, *Circulant Matrices*, 1979), since ||u V - phase V u||
      <= (1 + |phase|) ||V|| ||u||.  The float FFT of c is within
      t eta / (1 - t eta) ||DFT(c)||_2 of the DFT in 2-norm, eta = _FFT_STAGE
      (Higham, Thm 24.2, stated for radix 2, whence M = 2^t), and
      ||DFT(c)||_2 = sqrt(M) ||c||_2 <= sqrt(M) ||c||_1.  Forming D rounds each
      entry by at most _FORMING |u_ab| (1 + |phase|) max|v|, and
      ||(|u_ab|)|| <= ||c||_1.  So e' = (t eta sqrt(M) / (1 - t eta) +
      _FORMING) ||c||_1.
    The remaining roundings (the differences and moduli of alpha and beta, the
    slack, the products with |c_k|, the prefix and suffix sums, the FFT
    bound) are relative errors of sums and products of nonnegative floats, at
    most M + 32 on any path, so dividing by 1 - gamma_{M+32} keeps the
    smaller bound an upper bound.
    """
    m = len(c)
    mag = np.abs(c)
    p = float(abs(phase))
    v_max = float(np.abs(v).max())
    e = (4 * gamma_n(4) * t_half_length + 2 * (3 * _EXP + _EXP**2)
         + (COMPLEX_PRODUCT * p + _FORMING * (1 + p)) * v_max)
    rows = np.cumsum(mag * (np.abs(v[0] - phase * v) + e))  # k = 0 .. M-1, k <= a
    # k = M-1 .. 1: beta_k reads v_(M-k) = v[1:]; reversed, the sums over k > a
    rows[:-1] += np.cumsum(mag[:0:-1] * (np.abs(v[1:] - phase * v[0]) + e))[::-1]
    bound = float(rows.max())
    if m & (m - 1) == 0:
        stages = (m.bit_length() - 1) * _FFT_STAGE
        excess = (stages * sqrt(m) / (1 - stages) + _FORMING) * float(mag.sum())
        peak = float(np.abs(c_hat).max())
        bound = min(bound, (1 + p) * v_max * (peak + excess))
    return bound / (1 - gamma_n(m + 32))


# -- generator vs group distance ------------------------------------------------


@dataclass(frozen=True, eq=False)
class HermitianPair:
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.first, dtype=complex)
        b = np.asarray(self.second, dtype=complex)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("need two square matrices of equal size")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValidationError("matrices must be finite")
        tol = 1e-12
        if hermiticity_defect(a) > tol or hermiticity_defect(b) > tol:
            raise ValidationError(f"matrices must be Hermitian to {tol:g}")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    def difference_norm(self) -> float:
        return spectral_norm(self.first - self.second)


@dataclass(frozen=True)
class GeneratorBoundReport:
    difference_norm: float
    necessity_ok: bool           # ||e^{iPt} - e^{iP't}|| <= ||P - P'|| |t| at all samples
    max_necessity_excess: float
    slope_estimate: float        # sup over small t of the ratio; recovers ||P - P'||
    slope_relative_error: float


def generator_bound_check(pair: HermitianPair, ts: Sequence[float]) -> GeneratorBoundReport:
    """Matrix form of the equivalence between a bounded generator difference
    and a Lipschitz bound on the unitary groups.

    Necessity: ||exp(iPt) - exp(iP't)|| <= ||P - P'|| |t| for every sampled t.
    Sufficiency direction: the small-t ratio sup_t ||...||/|t| recovers
    ||P - P'||; only the samples below 0.01/||P - P'|| enter the estimate, or
    the 8 smallest when none lies below.  A sample time whose phases t w
    overflow is a ValidationError.
    """
    ts = [t for t in (as_real("sample time", t) for t in ts) if t != 0.0]
    if not ts:
        raise ValidationError("need at least one nonzero sample time")
    dnorm = pair.difference_norm()
    ea = HermitianExponential(pair.first)
    eb = HermitianExponential(pair.second)
    times = np.array(ts)
    gaps = spectral_norm(ea.at(times) - eb.at(times)).tolist()
    excess = 0.0
    ratios: List[Tuple[float, float]] = []
    for t, gap in zip(ts, gaps):
        excess = max(excess, gap - dnorm * abs(t))
        ratios.append((abs(t), gap / abs(t)))
    cutoff = 0.01 / dnorm if dnorm > 0 else float("inf")
    small = [r for t, r in ratios if t <= cutoff]
    if not small:
        small = [r for _, r in sorted(ratios)[:8]]
    slope = max(small)
    rel = abs(slope - dnorm) / dnorm if dnorm > 0 else 0.0
    return GeneratorBoundReport(
        dnorm,
        excess <= 1e-10 * max(1.0, dnorm),
        float(excess),
        float(slope),
        float(rel),
    )


# -- unitary-field assembly -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnitaryField:
    """A sampled C^1 field (x, y) -> U(k), backed by a callable.

    Finite differences probe the field at stencil points chosen at check
    time, so the field is sampled on demand; `box` bounds the arguments the
    caller promises to cover.
    """

    fn: Callable[[float, float], np.ndarray]
    box: float = 50.0

    def sample(self, x: float, y: float) -> np.ndarray:
        if abs(x) > self.box or abs(y) > self.box:
            raise ValidationError(
                f"argument ({x:.3g},{y:.3g}) outside the sampled box {self.box}"
            )
        u = np.asarray(self.fn(x, y), dtype=complex)
        if u.ndim == 0:
            u = u.reshape(1, 1)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(f"field sample at ({x},{y}) has shape {u.shape}, not square")
        if not np.isfinite(u).all():
            raise ValidationError(f"field sample at ({x},{y}) is not finite")
        defect = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > 1e-10:
            raise ValidationError(f"field sample at ({x},{y}) is not unitary ({defect:.1e})")
        return u

    def fd(self, x: float, y: float, axis: int, h: float) -> np.ndarray:
        """Central difference at (x, y) along x (axis 0) or y (axis 1)."""
        plus, minus = [x, y], [x, y]
        plus[axis] += h
        minus[axis] -= h
        return (self.sample(*plus) - self.sample(*minus)) / (2.0 * h)


def _factors(w: UnitaryField, deltas: np.ndarray, x: Sequence[float]) -> List[List[np.ndarray]]:
    """The factor table at x: row j holds w(x_k, delta_kj x_j), k < j, the
    factors of the composed field w_j(x) = w(x_0, delta_0j x_j) ... in order."""
    return [[w.sample(x[k], deltas[k, j] * x[j]) for k in range(j)] for j in range(len(x))]


def _replaced(factors: List[np.ndarray], k: int, m: np.ndarray) -> np.ndarray:
    """The ordered product of factors with factor k replaced by m."""
    return reduce(np.matmul, factors[:k] + [m] + factors[k + 1:])


@dataclass(frozen=True)
class AssemblyReport:
    chain_rule_residual: float      # (a): d w_k / d x_j vs single-factor form, j < k
    diagonal_identity_residual: float  # (b): d w_j / d x_j - i sum_k d_kj x_k w_j
    triangle_ok: bool               # (c): assembled derivative bound


def check_assembly_identities(
    w: UnitaryField,
    deltas: np.ndarray,
    d: int,
    probes: Sequence[Sequence[float]],
    h: float,
) -> AssemblyReport:
    """Finite-difference validation of the composed-field derivative identities.

    (a) For j < k the derivative of w_k along axis j has a single non-identity
        factor, the x-derivative of w at (x_j, delta_jk x_k).
    (b) Along the diagonal axis,
            d w_j / d x_j - i sum_{k<j} delta_kj x_k w_j
          = sum_{k<j} delta_kj w(...) [dw/dy - i x_k w](x_k, delta_kj x_j) w(...),
        every term conjugated by the other factors in place.
    (c) The assembled W = w_1 ... w_{d-1} then satisfies the triangle bound
            || dW/dx_j - i sum_{k<j} delta_kj x_k W || <= sum of per-factor norms.

    Per probe x the factor table is sampled at x and at x +- h e_a for each
    axis a; every central difference along an axis is read from those tables,
    and only the bracket [dw/dy - i x_j w] of each pair j < k samples apart:
    (2d + 3) d (d - 1) / 2 samples per probe.
    """
    d = as_index("axes d", d, 2)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (d, d):
        raise ValidationError(f"deltas must be {d}x{d}")
    h = as_real("finite-difference step", h, above=0)
    probes = [[as_real("probe coordinate", c) for c in p] for p in probes]
    if not probes:
        raise ValidationError("need at least one probe point")
    for p in probes:
        if len(p) != d:
            raise ValidationError("probe dimension mismatch")

    def assembled(table):  # W = w_1 ... w_{d-1}, each w_j the product of row j
        return reduce(np.matmul, [reduce(np.matmul, row) for row in table[1:]])

    res_a, res_b, tri_ok = 0.0, 0.0, True
    for x in probes:
        factors = _factors(w, deltas, x)
        moved = [[_factors(w, deltas, x[:a] + [x[a] + s] + x[a + 1:]) for s in (h, -h)]
                 for a in range(d)]

        def fd(a, value):  # central difference along axis a of value(table)
            return (value(moved[a][0]) - value(moved[a][1])) / (2.0 * h)

        dx, bracket = {}, {}
        for k in range(d):
            for j in range(k):
                dx[j, k] = fd(j, lambda t: t[k][j])
                bracket[j, k] = w.fd(x[j], deltas[j, k] * x[k], 1, h) - 1j * x[j] * factors[k][j]
        drift = [1j * sum(deltas[k, j] * x[k] for k in range(j)) for j in range(d)]
        # (a) off-diagonal derivatives
        for k in range(1, d):
            for j in range(k):
                res_a = max(res_a, spectral_norm(fd(j, lambda t: reduce(np.matmul, t[k]))
                                                 - _replaced(factors[k], j, dx[j, k])))
        # (b) diagonal identity
        for j in range(1, d):
            lhs = (fd(j, lambda t: reduce(np.matmul, t[j]))
                   - drift[j] * reduce(np.matmul, factors[j]))
            rhs = np.zeros_like(lhs)
            for k in range(j):
                rhs = rhs + deltas[k, j] * _replaced(factors[j], k, bracket[k, j])
            res_b = max(res_b, spectral_norm(lhs - rhs))
        # (c) triangle bound for the assembled field
        big_x = assembled(factors)
        for j in range(d):
            lhs = spectral_norm(fd(j, assembled) - drift[j] * big_x)
            bound = 0.0
            for k in range(j):
                bound += abs(deltas[k, j]) * spectral_norm(bracket[k, j])
            for k in range(j + 1, d):
                bound += spectral_norm(dx[j, k])
            tri_ok = tri_ok and (lhs <= bound + 50.0 * h**2)  # finite-difference headroom
    return AssemblyReport(res_a, res_b, tri_ok)


def assembly_convergence_order(
    w: UnitaryField,
    deltas: np.ndarray,
    d: int,
    probes: Sequence[Sequence[float]],
    h0: float,
    halvings: int = 2,
) -> Tuple[List[float], float]:
    """Deviation of identity (b) at h0, h0/2, ...; fitted order in h."""
    halvings = as_index("halvings", halvings, 1)
    hs = [h0 / 2**i for i in range(halvings + 1)]
    devs = [
        check_assembly_identities(w, deltas, d, probes, h).diagonal_identity_residual
        for h in hs
    ]
    if not all(dev > 0 for dev in devs):
        raise DegenerateFitError("a deviation is 0; cannot fit an order")
    order = float(np.polyfit(np.log(hs), np.log(devs), 1)[0])
    return devs, order


# -- interpolation constant audit ---------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    k: int
    target: float
    holds: bool
    slack: float
    one_step_value: float            # 1224 + 45 * target / sqrt(k)
    level_bounds: List[float]        # normalized bound per refinement level
    exact: bool


def audit_interpolation_constants(
    k: int, target, levels: int = 6
) -> AuditReport:
    """Check that the per-step bound map keeps the normalized constant below
    `target` across refinement levels.

    Scaled to level n (grid pitch k^-n), one refinement maps a normalized
    bound B to 1224 + 45 B / sqrt(k); the audit reproduces the closing
    arithmetic at k = 8100: 1224 + 2500 * 45 / 90 = 2474 <= 2500.
    """
    k, levels = as_index("k", k, 1), as_index("levels", levels, 1)
    exact = isqrt(k) ** 2 == k
    root = Fraction(isqrt(k)) if exact else float(k) ** 0.5
    real = as_real("target", target, above=0)
    tgt = Fraction(target) if exact and not isinstance(target, float) else real
    b = tgt
    level_bounds = [float(b)]
    worst = b
    for _ in range(levels):
        b = 1224 + 45 * b / root
        level_bounds.append(float(b))
        worst = max(worst, b)
    one_step = 1224 + 45 * tgt / root
    slack = tgt - one_step
    return AuditReport(
        k,
        float(tgt),
        bool(worst <= tgt),
        float(slack),
        float(one_step),
        level_bounds,
        exact,
    )
