"""Concrete finite-dimensional unitary tuples.

Clock/shift pairs realize the d=2 commutation relation u v = e^{2 pi i p/q} v u
exactly; higher tuples are assembled so that each pair of generators shares
exactly one nontrivial tensor leg, which makes all pairwise phases come from
independent components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DENSE_CAP, ValidationError, as_index, as_real, guard
from .linalg import (
    COMPLEX_PRODUCT,
    UNIT_ROUNDOFF,
    box_points,
    gamma_n,
    holder_bound,
    kernel_dimension,
    kron,
    on_leg,
    spectral_norm,
)
from .phases import TWO_PI
from .skew import upper_pairs


@dataclass(frozen=True, eq=False)
class UnitaryTuple:
    """d unitaries u_j with u_j u_k = sigma_jk u_k u_j up to the stated tolerance.

    matrices and sigma are read-only, so relation_report, found once at
    construction (see verify_relations), cannot go stale; a tuple built from
    its matrices copies them first, leaving the caller's arrays writeable."""

    matrices: Tuple[np.ndarray, ...]
    sigma: np.ndarray
    tol: float = 1e-12
    relation_report: RelationReport = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(np.array(u) for u in self.matrices))
        object.__setattr__(self, "sigma", np.array(self.sigma, dtype=complex))
        # here, not in _admit: an assembled tuple's legs were checked here
        if not all(np.isfinite(a).all() for a in (self.sigma, *self.matrices)):
            raise ValidationError("tuple matrices and sigma must be finite")
        self._admit(_measure_relations)

    def _admit(self, report_of: Callable[[UnitaryTuple], RelationReport]) -> None:
        """Freeze and validate matrices and sigma, set relation_report to
        report_of(self) and gate it against tol: the one way into relation_report."""
        object.__setattr__(self, "tol", as_real("tolerance", self.tol, minimum=0))
        d = len(self.matrices)
        if not d:
            raise ValidationError("a tuple needs at least one matrix")
        sigma = self.sigma
        for a in (sigma, *self.matrices):
            a.flags.writeable = False
        if sigma.shape != (d, d):
            raise ValidationError(f"sigma must be {d}x{d}")
        n = self.matrices[0].shape[0]
        for u in self.matrices:
            if u.shape != (n, n):
                raise ValidationError("tuple matrices must share one square size")
        if np.abs(np.abs(sigma) - 1.0).max() > 1e-12:
            raise ValidationError("sigma entries must be unimodular")
        if np.abs(np.diag(sigma) - 1.0).max() > 1e-12:
            raise ValidationError("sigma diagonal must be 1")
        if np.abs(sigma - sigma.conj().T).max() > 1e-12:
            raise ValidationError("sigma must satisfy sigma_kj = conj(sigma_jk)")
        rep = report_of(self)
        object.__setattr__(self, "relation_report", rep)
        if max(rep.max_commutation, rep.max_unitarity) > self.tol:
            raise ValidationError(
                f"tuple violates declared tolerance {self.tol:.1e}: "
                f"commutation {rep.max_commutation:.2e}, unitarity {rep.max_unitarity:.2e}"
            )

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def dim_hilbert(self) -> int:
        return self.matrices[0].shape[0]

    @classmethod
    def identity(cls, d: int, size: int = 1) -> "UnitaryTuple":
        d = as_index("d", d, 1)
        size = guard("identity side size =", as_index("size", size, 1), DENSE_CAP)
        return cls((np.eye(size, dtype=complex),) * d, np.ones((d, d), dtype=complex), 1e-15)


@dataclass(frozen=True)
class RelationReport:
    max_commutation: float
    max_unitarity: float
    worst_pair: Optional[Tuple[int, int]]


def verify_relations(t: UnitaryTuple) -> RelationReport:
    """max_{j<k} ||u_j u_k - sigma_jk u_k u_j|| and max_j ||u_j* u_j - I||, as
    found when t was constructed: measured on the matrices of a tuple built
    from its matrices, and a certified upper bound from the legs for one
    assembled by tensor_construct or tensor_translate."""
    return t.relation_report


def _measure_relations(t: UnitaryTuple) -> RelationReport:
    eye = np.eye(t.dim_hilbert)
    max_unit = 0.0
    for u in t.matrices:
        max_unit = max(max_unit, spectral_norm(u.conj().T @ u - eye))
    max_comm = 0.0
    worst = None
    for j in range(t.d):
        for k in range(j + 1, t.d):
            uj, uk = t.matrices[j], t.matrices[k]
            r = spectral_norm(uj @ uk - t.sigma[j, k] * (uk @ uj))
            if r > max_comm:
                max_comm, worst = r, (j, k)
    return RelationReport(max_comm, max_unit, worst)


class _Leg(NamedTuple):
    """One tensor factor V of an assembled generator: the matrix, a bound on
    ||V* V - I||, holder_bound(V), and whether every entry is 0 or 1, which
    makes multiplying by it exact."""

    matrix: np.ndarray
    defect: float
    size: float
    exact: bool


def _legs_of(t: UnitaryTuple) -> Tuple[float, List[_Leg]]:
    """t's matrices as legs, and a bound on max_{j<k} ||u_j u_k - sigma_jk u_k u_j||.

    Both bounds hold for the exact products of t's matrices: they are t's
    report raised by the round-off of forming those products in floating
    point, 4 (k + 3) (eps/2) H^2, where k is the most nonzero entries in a row
    and H the largest Hoelder bound of t's matrices (complex inner products,
    Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.6)."""
    stack = np.stack(t.matrices)
    sizes = holder_bound(stack).tolist()
    exact = (~np.any((stack != 0) & (stack != 1), axis=(1, 2))).tolist()
    k = int(np.count_nonzero(stack, axis=2).max())
    slack = 4 * (k + 3) * UNIT_ROUNDOFF * max(sizes) ** 2
    rep = t.relation_report
    unit = rep.max_unitarity + slack
    legs = [_Leg(m, unit, h, e) for m, h, e in zip(t.matrices, sizes, exact)]
    return rep.max_commutation + slack, legs


def _product_excess(defects: Sequence[float]) -> float:
    """prod_l (1 + u_l) - 1, summed as u_1 + u_2 (1 + u_1) + ... so that a
    single nonzero u_l comes back exactly."""
    total, scale = 0.0, 1.0
    for u in defects:
        total += u * scale
        scale *= 1.0 + u
    return total


def _assemble(
    legs: Sequence[Sequence[_Leg]],
    sigma: np.ndarray,
    tol: float,
    exact_commutation: Callable[[int, int], float],
) -> UnitaryTuple:
    """The tuple u_g = (x)_l V_gl, with its relation report certified from the
    legs instead of measured on N x N products.

    Let M_g be the exact Kronecker product of g's legs.  Since
    ||X (x) Y|| = ||X|| ||Y|| (Horn & Johnson, *Topics in Matrix Analysis*,
    sec. 4.2), ||M_g|| <= n_g = prod_l sqrt(1 + u_l).  Each entry of the float
    u_g is a product of leg entries, and multiplying by an entry 0 or 1 is
    exact; with s legs holding other entries, it carries s - 1 rounded complex
    products, so (barring underflow) ||u_g - M_g|| <= delta_g =
    ((1 + mu)^(s-1) - 1) prod_l holder_bound(V_gl).  The count s - 1 holds for
    any order of association: kron's halving tree, contracted to the s
    inexact legs, is a binary tree with s leaves and s - 1 inner products.
    Then:
    - unitarity: ||u_g* u_g - I|| <= prod_l (1 + u_l) - 1 + delta_g (2 n_g + delta_g);
    - commutation: exact_commutation(j, k) bounds ||M_j M_k - sigma_jk M_k M_j||,
      and the float matrices add at most 2 (delta_j n_k + n_j delta_k + delta_j delta_k).

    A probe checks the legs, in their Kronecker order, against that
    certificate.  Every generator's leg sizes must be the tuple's axes (those
    of generator 0), or the probe raises a ValidationError before it applies
    anything.  For one fixed-seed random unit vector x, reshaped to the axes,
    M_g x is applied one axis at a time, a (pre, q, post) reshape and a q x q
    matmul per leg: O(N sum q) per apply instead of an O(N^2) matvec.  Identity
    legs are skipped, which is exact.  Each u_g is formed once by kron.  On
    legs with one nonzero per row, as clock, shift and identity legs have,
    its last product writes only the N q entries of the first half's nonzero
    blocks, q the side of the second half, into a zeroed N x N array.

    Round-off of the probe (barring underflow).  A leg's apply forms each entry
    as a complex inner product of length q, off by at most c_q |V| |z|
    entrywise, c_q = sqrt(2) gamma_(q+2) (Higham, sec. 3.6).  Chained as a
    product of matrices (Higham, sec. 3.5), the float M_g x is off by at most
    c_g (|V_1| (x) ... (x) |V_s|) |x| entrywise, c_g = prod_l (1 + c_l) - 1 over
    the applied legs, and so by c_g H_g in norm, where H_g = prod_l
    holder_bound(V_gl) bounds || |V_1| (x) ... (x) |V_s| || and ||M_g||.  Then
    M_j (M_k x) is formed to within ((1 + c_j)(1 + c_k) - 1) H_j H_k, the
    product by sigma_jk adds mu (1 + c_j)(1 + c_k) H_j H_k, and the subtraction
    and the 2-norm (two real dot products and a square root) scale the result
    by at most 1 + gamma_(N+3).  On a pair with certified bound r, the probe
    may so read up to (1 + gamma_(N+3)) (r + ((2 + mu)(1 + c_j)(1 + c_k) - 2)
    H_j H_k); a larger reading fails it with a ValidationError.  The dense
    probe's slack 8 (N + 2) (eps/2) H_j H_k does not cover this everywhere:
    two non-identity legs of size 2 (N = 4) need 52 (eps/2) H_j H_k against
    48, so the factored bound replaces it.  At N = 1024, with four
    non-identity legs of size 2 per generator, it is 100 (eps/2) H_j H_k
    against 8208.
    """
    axes = tuple(leg.matrix.shape[0] for leg in legs[0])
    # per generator: n_g, delta_g, H_g, its unitarity bound, the (pre, q, V)
    # of each leg its probe apply runs, and that apply's c_g; only
    # tensor_construct's own identity legs have defect 0
    norms, deltas, sizes, units, steps, roundoffs = [], [], [], [], [], []
    for g, gl in enumerate(legs):
        shape = tuple(leg.matrix.shape[0] for leg in gl)
        if shape != axes:
            raise ValidationError(
                f"assembly probe: generator {g} has leg sizes {shape}, "
                f"not the tuple's axes {axes}"
            )
        n = math.prod(math.sqrt(1.0 + leg.defect) for leg in gl)
        size = math.prod(leg.size for leg in gl)
        inexact = sum(not leg.exact for leg in gl)
        delta = ((1.0 + COMPLEX_PRODUCT) ** max(inexact - 1, 0) - 1.0) * size
        norms.append(n)
        deltas.append(delta)
        sizes.append(size)
        units.append(_product_excess([leg.defect for leg in gl]) + delta * (2.0 * n + delta))
        steps.append([
            (math.prod(axes[:axis]), q, leg.matrix)
            for axis, (q, leg) in enumerate(zip(axes, gl))
            if not (leg.defect == 0.0 and leg.exact and np.array_equal(leg.matrix, np.eye(q)))
        ])
        roundoffs.append(
            math.prod(1.0 + math.sqrt(2.0) * gamma_n(q + 2) for _, q, _ in steps[g]) - 1.0
        )

    def apply(g: int, x: np.ndarray) -> np.ndarray:
        for pre, q, v in steps[g]:
            x = np.matmul(v, x.reshape(pre, q, -1))
        return x.reshape(-1)

    def certificate(t: UnitaryTuple) -> RelationReport:
        z = np.random.default_rng(0).standard_normal((2, t.dim_hilbert))
        x = (z[0] + 1j * z[1]) / np.linalg.norm(z)
        images = [apply(g, x) for g in range(t.d)]
        widen = 1.0 + gamma_n(t.dim_hilbert + 3)
        max_comm = 0.0
        worst = None
        for j in range(t.d):
            for k in range(j + 1, t.d):
                r = exact_commutation(j, k) + 2.0 * (
                    deltas[j] * norms[k] + norms[j] * deltas[k] + deltas[j] * deltas[k]
                )
                probe = float(np.linalg.norm(
                    apply(j, images[k]) - t.sigma[j, k] * apply(k, images[j])
                ))
                slack = (2.0 + COMPLEX_PRODUCT) * (1.0 + roundoffs[j]) * (1.0 + roundoffs[k]) - 2.0
                if probe > widen * (r + slack * sizes[j] * sizes[k]):
                    raise ValidationError(
                        f"assembly probe of pair {(j, k)} reads {probe:.2e}, "
                        f"above its certified bound {r:.2e}"
                    )
                if r > max_comm:
                    max_comm, worst = r, (j, k)
        return RelationReport(max_comm, max(units), worst)

    t = object.__new__(UnitaryTuple)
    object.__setattr__(t, "matrices", tuple(kron([leg.matrix for leg in g]) for g in legs))
    object.__setattr__(t, "sigma", sigma)
    object.__setattr__(t, "tol", tol)
    t._admit(certificate)
    return t


def clock_shift(p: int, q: int) -> UnitaryTuple:
    """Clock U = diag(w^0..w^{q-1}) and cyclic shift V e_k = e_{k+1 mod q},
    w = exp(2 pi i p/q); they satisfy U V = w V U exactly, and the tuple
    declares tolerance 1e-14.  Guarded to q <= DENSE_CAP.

    Each w^j is evaluated as exp(2 pi i (p j mod q)/q): powers of the rounded
    w drift past that tolerance (1.15e-14 at p/q = 11/15)."""
    p, q = as_index("p", p), guard("clock and shift side q =", as_index("q", q, 1), DENSE_CAP)
    w = np.exp(1j * TWO_PI * (Fraction(p, q) % 1).__float__())
    u = np.diag(np.exp(1j * TWO_PI * (p % q * np.arange(q) % q) / q))
    v = np.zeros((q, q), dtype=complex)
    v[(np.arange(q) + 1) % q, np.arange(q)] = 1.0
    sigma = np.array([[1.0, w], [np.conj(w), 1.0]], dtype=complex)
    return UnitaryTuple((u, v), sigma, 1e-14)


def tensor_construct(pair_table: Dict[Tuple[int, int], UnitaryTuple]) -> UnitaryTuple:
    """Assemble d generators from one d=2 tuple per index pair (j, k), j < k.

    On the tensor product over all pairs (lexicographic), generator j carries
    the first leg of pair (j, k) for every k > j and the second leg of pair
    (i, j) for every i < j; every other leg is the identity.  Each pair of
    generators then overlaps in exactly one component, so sigma_jk is the
    phase of pair (j, k).  The relation report is certified from the pairs'
    reports (see _assemble).  Guarded to a tensor dimension <= DENSE_CAP.
    """
    if not pair_table:
        raise ValidationError("pair table is empty")
    d = max(k for _, k in pair_table) + 1
    pairs = upper_pairs(d)
    missing = [jk for jk in pairs if jk not in pair_table]
    if missing:
        raise ValidationError(f"pair table missing entries {missing}")
    extra = set(pair_table) - set(pairs)
    if extra:
        raise ValidationError(f"pair table has invalid keys {sorted(extra)}")
    total = 1
    for jk in pairs:
        pt = pair_table[jk]
        if pt.d != 2:
            raise ValidationError(f"pair {jk} is not a 2-tuple")
        total = guard("tensor dimension", total * pt.dim_hilbert, DENSE_CAP)
    comm, pair_legs = {}, {}
    for jk in pairs:
        comm[jk], pair_legs[jk] = _legs_of(pair_table[jk])
    legs = [
        [
            pair_legs[j, k][0] if g == j
            else pair_legs[j, k][1] if g == k
            else _Leg(np.eye(pair_table[j, k].dim_hilbert, dtype=complex), 0.0, 1.0, True)
            for (j, k) in pairs
        ]
        for g in range(d)
    ]
    sigma = np.ones((d, d), dtype=complex)
    for (j, k) in pairs:
        s = pair_table[(j, k)].sigma[0, 1]
        sigma[j, k] = s
        sigma[k, j] = np.conj(s)
    tol = sum(pair_table[jk].tol for jk in pairs) + 1e-13

    def exact_commutation(j: int, k: int) -> float:
        # generators j and k share only the leg of pair (j, k), and on every
        # other leg one of them is the identity: up to a leg permutation,
        # u_j u_k - s u_k u_j = (A B - s B A) (x) (j's other legs) (x) (k's)
        others = [jk for jk in pairs if jk != (j, k) and (j in jk or k in jk)]
        return comm[j, k] * math.prod(
            math.sqrt(1.0 + pair_legs[jk][0].defect) for jk in others
        )

    return _assemble(legs, sigma, tol, exact_commutation)


def tensor_translate(a: UnitaryTuple, b: UnitaryTuple) -> UnitaryTuple:
    """Componentwise tensor v_j = a_j (x) b_j; phases multiply entrywise.

    The relation report is certified from the reports r, u of a and b, each
    raised as in _legs_of (see _assemble).  With a_j a_k = s a_k a_j + R_a and
    likewise for b, the residual is s (a_k a_j) (x) R_b + R_a (x) (b_j b_k),
    so at most r_a (1 + u_b) + r_b (1 + u_a), and
    ||v_j* v_j - I|| <= u_a (1 + u_b) + u_b.
    """
    if a.d != b.d:
        raise ValidationError(f"tuples have different d: {a.d} vs {b.d}")
    (ra, a_legs), (rb, b_legs) = _legs_of(a), _legs_of(b)
    ua, ub = a_legs[0].defect, b_legs[0].defect
    comm = ra * (1.0 + ub) + rb * (1.0 + ua)
    legs = [[x, y] for x, y in zip(a_legs, b_legs)]
    return _assemble(legs, a.sigma * b.sigma, a.tol + b.tol + 1e-14, lambda j, k: comm)


@dataclass(frozen=True)
class LowerBoundReport:
    holds: bool
    lhs: float
    rhs: float
    margin: float


def distance_lower_bound_check(a: UnitaryTuple, b: UnitaryTuple) -> LowerBoundReport:
    """Check max_j ||u_j - u_j'|| >= (1/2) max_{jk} |sigma_jk - sigma'_jk|^{1/2}.

    The right-hand side is a lower bound for the distance between *any* two
    tuples realizing the respective phase systems on a common space, so a
    failure on valid tuples falsifies the construction.  If the sizes differ
    but one divides the other, the smaller tuple is padded by tensoring with
    the identity (the bound is dimension-free).
    """
    if a.d != b.d:
        raise ValidationError(f"tuples have different d: {a.d} vs {b.d}")
    na, nb = a.dim_hilbert, b.dim_hilbert
    if na != nb:
        if nb % na == 0:
            a = tensor_translate(a, UnitaryTuple.identity(a.d, nb // na))
        elif na % nb == 0:
            b = tensor_translate(b, UnitaryTuple.identity(b.d, na // nb))
        else:
            raise ValidationError(
                f"sizes {na} and {nb} admit no identity padding to a common space"
            )
    lhs = max(
        spectral_norm(x - y) for x, y in zip(a.matrices, b.matrices)
    )
    rhs = 0.5 * float(np.sqrt(np.abs(a.sigma - b.sigma).max()))
    return LowerBoundReport(lhs >= rhs - 1e-12, lhs, rhs, lhs - rhs)


# -- Clifford generators and truncated ladder operators ----------------------


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
for _pauli in (_SX, _SY, _SZ):  # read-only: kron hands a single leg back as is
    _pauli.flags.writeable = False


def clifford_generators(n: int) -> Tuple[np.ndarray, ...]:
    """n anticommuting self-adjoint involutions on C^(2^ceil(n/2)), n <= 12.

    Standard tensor ladder: c_{2m-1} = Z^(m-1) (x) X (x) I..., and
    c_{2m} = Z^(m-1) (x) Y (x) I...
    """
    n = guard("Clifford generator count", as_index("n", n, 1), 12)
    qubits = (n + 1) // 2
    mats = []
    for idx in range(1, n + 1):
        m = (idx + 1) // 2  # which qubit carries the X/Y
        legs = [_SZ] * (m - 1)
        legs.append(_SX if idx % 2 else _SY)
        legs.extend([np.eye(2, dtype=complex)] * (qubits - m))
        mats.append(kron(legs))
    return tuple(mats)


def ladder_operator(cutoff: int) -> np.ndarray:
    """Single-mode lowering operator truncated at occupation `cutoff`."""
    cutoff = as_index("cutoff", cutoff, 1)
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for m in range(1, cutoff + 1):
        a[m - 1, m] = np.sqrt(m)
    return a


@dataclass(frozen=True)
class FockReport:
    clifford_dim: int
    product_identity_residual: float   # A*A vs 1 (x) sum_j a_j a_j*
    adjoint_identity_residual: float   # AA* vs 1 (x) sum_j a_j* a_j
    number_action_residual: float      # (sum_j a_j a_j*) phi_m vs (|m|+n) phi_m
    kernel_dim: int                    # ker of A* restricted to interior vectors


def fock_identities_check(n: int, cutoff: int) -> FockReport:
    """Build A = sum_j c_j (x) a_j* on C^N (x) Fock(cutoff) and measure how the
    operator identities close on interior occupation vectors (all m_j <= cutoff-1).

    Reported, not asserted: for a single mode the product identities hold and
    ker A* = C^N (x) phi_0; for two or more modes the mixed terms
    c_k c_j (x) (a_k a_j* - a_j a_k*) do not cancel, the product residual is
    O(1), and the interior kernel acquires one C^N-worth of vectors per total
    occupation level.  Guarded to N (cutoff + 1)^n <= DENSE_CAP.
    """
    cliff = clifford_generators(n)
    N = cliff[0].shape[0]
    dim_fock = (as_index("cutoff", cutoff, 1) + 1) ** n
    guard("dimension N (cutoff + 1)^n", N * dim_fock, DENSE_CAP)
    a1 = ladder_operator(cutoff)
    modes = [on_leg(a1, j, n) for j in range(n)]
    eye_n = np.eye(N, dtype=complex)
    a_mat = sum(kron([c, am.conj().T]) for c, am in zip(cliff, modes))
    lowering_number = sum(am @ am.conj().T for am in modes)   # sum a_j a_j*
    raising_number = sum(am.conj().T @ am for am in modes)    # sum a_j* a_j

    occ = box_points(np.arange(cutoff + 1), n)
    interior = np.all(occ <= cutoff - 1, axis=1)
    mask = np.tile(interior, N)

    prod_res = np.abs(
        ((a_mat.conj().T @ a_mat) - kron([eye_n, lowering_number]))[:, mask]
    ).max()
    adj_res = np.abs(
        ((a_mat @ a_mat.conj().T) - kron([eye_n, raising_number]))[:, mask]
    ).max()

    expected = occ.sum(axis=1) + n
    number_cols = lowering_number[:, interior] - (np.eye(dim_fock) * expected)[:, interior]
    number_res = float(np.abs(number_cols).max())

    kdim = kernel_dimension(a_mat.conj().T[:, mask])
    return FockReport(N, float(prod_res), float(adj_res), number_res, kdim)
