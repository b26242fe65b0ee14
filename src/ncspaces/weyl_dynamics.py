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
from math import isfinite, isqrt
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .linalg import HermitianExponential, fourier_multiplier, hermiticity_defect, spectral_norm
from .symplectic import GridSpec, gaussian_state


# -- translation / modulation groups ------------------------------------------


def translation_unitary(s: float, grid: GridSpec) -> np.ndarray:
    """(u(s) f)(x) = f(x + s) as a dense unitary: the Fourier multiplier
    exp(i k s), a circulant built in O(M^2)."""
    return fourier_multiplier(np.exp(1j * grid.frequencies() * s))


def modulation_unitary(t: float, grid: GridSpec) -> np.ndarray:
    """(v(t) f)(x) = exp(i x t) f(x): a diagonal unitary."""
    return np.diag(np.exp(1j * grid.axis() * t))


@dataclass(frozen=True)
class WeylResidualReport:
    residual: float              # defect applied to the reference state
    operator_defect: float       # raw spectral norm of the defect
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
    The raw operator norm is reported alongside.

    Cost: O(M^2) for the defect (u is a circulant, v diagonal), plus one
    O(M^3) SVD for its norm unless the defect is round-off (see spectral_norm).
    """
    if not all(isfinite(x) for x in (theta, s, t)):
        raise ValidationError(f"theta, s and t must be finite, got {theta}, {s}, {t}")
    shift = theta * s
    u = translation_unitary(shift, grid)
    v = np.diag(modulation_unitary(t, grid))
    phase = np.exp(1j * s * t * theta)
    # u v - phase v u with v diagonal: scale the columns and rows of u
    defect = u * (v[None, :] - phase * v[:, None])
    psi = gaussian_state(grid, 1, grid.half_length / 32.0)
    res = float(np.linalg.norm(defect @ psi))
    tol = 1e-9
    com_s = abs(shift / grid.step - round(shift / grid.step)) < tol
    com_t = abs(t / grid.dual_step - round(t / grid.dual_step)) < tol
    return WeylResidualReport(
        res, spectral_norm(defect), shift, bool(com_s), bool(com_t)
    )


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
        tol = 1e-12
        if hermiticity_defect(a) > tol or hermiticity_defect(b) > tol:
            raise ValidationError(f"matrices must be Hermitian to {tol:g}")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @property
    def size(self) -> int:
        return self.first.shape[0]

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
    the 8 smallest when none lies below.
    """
    ts = [float(t) for t in ts if t != 0.0]
    if not ts:
        raise ValidationError("need at least one nonzero sample time")
    dnorm = pair.difference_norm()
    ea = HermitianExponential(pair.first)
    eb = HermitianExponential(pair.second)
    excess = 0.0
    ratios: List[Tuple[float, float]] = []
    for t in ts:
        gap = spectral_norm(ea.at(t) - eb.at(t))
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
    caller promises to cover and `step` is the default stencil width.
    """

    fn: Callable[[float, float], np.ndarray]
    step: float = 1e-3
    box: float = 50.0

    def sample(self, x: float, y: float) -> np.ndarray:
        if abs(x) > self.box or abs(y) > self.box:
            raise ValidationError(
                f"argument ({x:.3g},{y:.3g}) outside the sampled box {self.box}"
            )
        u = np.asarray(self.fn(x, y), dtype=complex)
        if u.ndim == 0:
            u = u.reshape(1, 1)
        defect = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > 1e-10:
            raise ValidationError(f"field sample at ({x},{y}) is not unitary ({defect:.1e})")
        return u

    def fd_x(self, x: float, y: float, h: float) -> np.ndarray:
        return (self.sample(x + h, y) - self.sample(x - h, y)) / (2.0 * h)

    def fd_y(self, x: float, y: float, h: float) -> np.ndarray:
        return (self.sample(x, y + h) - self.sample(x, y - h)) / (2.0 * h)


def _factors(w: UnitaryField, deltas: np.ndarray, j: int, x: Sequence[float]) -> List[np.ndarray]:
    """The factors w(x_k, delta_kj x_j), k < j, of the j-th composed field at x."""
    return [w.sample(x[k], deltas[k, j] * x[j]) for k in range(j)]


def _replaced(factors: List[np.ndarray], k: int, m: np.ndarray) -> np.ndarray:
    """The ordered product of factors with factor k replaced by m."""
    return reduce(np.matmul, factors[:k] + [m] + factors[k + 1:])


def composed_field(w: UnitaryField, deltas: np.ndarray, j: int) -> Callable:
    """w_j(x) = w(x_0, d_0j x_j) w(x_1, d_1j x_j) ... w(x_{j-1}, d_{j-1,j} x_j).

    Axis indices are 0-based; j >= 1.  The empty product (j = 0) is the identity.
    """

    def field(x: Sequence[float]) -> np.ndarray:
        factors = _factors(w, deltas, j, x)
        if not factors:
            return np.eye(w.sample(0.0, 0.0).shape[0], dtype=complex)
        return reduce(np.matmul, factors)

    return field


def assembled_field(w: UnitaryField, deltas: np.ndarray, d: int) -> Callable:
    """W(x) = w_1(x) w_2(x) ... w_{d-1}(x) (0-based axis labels)."""
    if d < 2:
        raise ValidationError("need d >= 2 axes")
    parts = [composed_field(w, deltas, j) for j in range(1, d)]
    return lambda x: reduce(np.matmul, [p(x) for p in parts])


def _fd_along(field: Callable, x: Sequence[float], axis: int, h: float) -> np.ndarray:
    xp = list(x)
    xm = list(x)
    xp[axis] += h
    xm[axis] -= h
    return (np.asarray(field(xp)) - np.asarray(field(xm))) / (2.0 * h)


@dataclass(frozen=True)
class AssemblyReport:
    step: float
    chain_rule_residual: float      # (a): d w_k / d x_j vs single-factor form, j < k
    diagonal_identity_residual: float  # (b): d w_j / d x_j - i sum_k d_kj x_k w_j
    triangle_ok: bool               # (c): assembled derivative bound
    triangle_slack: float
    probes: int


def check_assembly_identities(
    w: UnitaryField,
    deltas: np.ndarray,
    d: int,
    probes: Sequence[Sequence[float]],
    h: Optional[float] = None,
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

    The x-derivative and the bracket [dw/dy - i x_j w] at each pair point
    (x_j, delta_jk x_k), j < k, are built once per probe and read by all three.
    """
    if d < 2:
        raise ValidationError("need d >= 2 axes")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (d, d):
        raise ValidationError(f"deltas must be {d}x{d}")
    if h is None:
        h = w.step
    if not h > 0:
        raise ValidationError(f"finite-difference step must be > 0, got {h}")
    probes = [list(map(float, p)) for p in probes]
    if not probes:
        raise ValidationError("need at least one probe point")
    for p in probes:
        if len(p) != d:
            raise ValidationError("probe dimension mismatch")

    fields = [composed_field(w, deltas, j) for j in range(d)]
    big = assembled_field(w, deltas, d)
    res_a = 0.0
    res_b = 0.0
    tri_ok = True
    tri_slack = float("inf")
    for x in probes:
        factors = [_factors(w, deltas, k, x) for k in range(d)]
        dx = {}
        bracket = {}
        for k in range(d):
            for j in range(k):
                y = deltas[j, k] * x[k]
                dx[j, k] = w.fd_x(x[j], y, h)
                bracket[j, k] = w.fd_y(x[j], y, h) - 1j * x[j] * factors[k][j]
        drift = [1j * sum(deltas[k, j] * x[k] for k in range(j)) for j in range(d)]
        # (a) off-diagonal derivatives
        for k in range(1, d):
            for j in range(k):
                fd = _fd_along(fields[k], x, j, h)
                res_a = max(res_a, spectral_norm(fd - _replaced(factors[k], j, dx[j, k])))
        # (b) diagonal identity
        for j in range(1, d):
            lhs = _fd_along(fields[j], x, j, h) - drift[j] * reduce(np.matmul, factors[j])
            rhs = np.zeros_like(lhs)
            for k in range(j):
                rhs = rhs + deltas[k, j] * _replaced(factors[j], k, bracket[k, j])
            res_b = max(res_b, spectral_norm(lhs - rhs))
        # (c) triangle bound for the assembled field
        big_x = big(x)
        for j in range(d):
            lhs = spectral_norm(_fd_along(big, x, j, h) - drift[j] * big_x)
            bound = 0.0
            for k in range(j):
                bound += abs(deltas[k, j]) * spectral_norm(bracket[k, j])
            for k in range(j + 1, d):
                bound += spectral_norm(dx[j, k])
            slack = bound - lhs + 50.0 * h**2  # finite-difference headroom
            tri_ok = tri_ok and (lhs <= bound + 50.0 * h**2)
            tri_slack = min(tri_slack, slack)
    return AssemblyReport(h, res_a, res_b, tri_ok, tri_slack, len(probes))


def assembly_convergence_order(
    w: UnitaryField,
    deltas: np.ndarray,
    d: int,
    probes: Sequence[Sequence[float]],
    h0: float,
    halvings: int = 2,
) -> Tuple[List[float], float]:
    """Deviation of identity (b) at h0, h0/2, ...; fitted order in h."""
    if halvings < 1:
        raise ValidationError("need halvings >= 1 to fit an order")
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
    if k < 1:
        raise ValidationError("k must be >= 1")
    exact = isqrt(k) ** 2 == k
    root = Fraction(isqrt(k)) if exact else float(k) ** 0.5
    tgt = Fraction(target) if exact and not isinstance(target, float) else float(target)
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
