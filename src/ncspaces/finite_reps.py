"""Concrete finite-dimensional unitary tuples.

Clock/shift pairs realize the d=2 commutation relation u v = e^{2 pi i p/q} v u
exactly; higher tuples are assembled so that each pair of generators shares
exactly one nontrivial tensor leg, which makes all pairwise phases come from
independent components.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import SizeCapError, ValidationError
from .linalg import kernel_dimension, spectral_norm
from .phases import TWO_PI
from .skew import upper_pairs

DEFAULT_SIZE_CAP = 4096


@dataclass(frozen=True, eq=False)
class UnitaryTuple:
    """d unitaries u_j with u_j u_k = sigma_jk u_k u_j up to the stated tolerance."""

    matrices: Tuple[np.ndarray, ...]
    sigma: np.ndarray
    tol: float = 1e-12

    def __post_init__(self):
        d = len(self.matrices)
        sigma = np.asarray(self.sigma, dtype=complex)
        object.__setattr__(self, "sigma", sigma)
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
        rep = _measure_relations(self)
        object.__setattr__(self, "_relation_report", rep)
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
        eye = np.eye(size, dtype=complex)
        return cls(tuple(eye.copy() for _ in range(d)), np.ones((d, d), dtype=complex), 1e-15)


@dataclass(frozen=True)
class RelationReport:
    max_commutation: float
    max_unitarity: float
    worst_pair: Optional[Tuple[int, int]]


def verify_relations(t: UnitaryTuple) -> RelationReport:
    """Measure max_{j<k} ||u_j u_k - sigma_jk u_k u_j|| and max_j ||u_j* u_j - I||.

    The report is measured once at construction and reused; the matrices are
    immutable afterwards."""
    cached = getattr(t, "_relation_report", None)
    if cached is not None:
        return cached
    return _measure_relations(t)


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


def clock_shift(p: int, q: int, tol: float = 1e-14) -> UnitaryTuple:
    """Clock U = diag(w^0..w^{q-1}) and cyclic shift V e_k = e_{k+1 mod q},
    w = exp(2 pi i p/q); they satisfy U V = w V U exactly.

    Each w^j is evaluated as exp(2 pi i (p j mod q)/q): powers of the rounded
    w drift past the default tolerance (1.15e-14 at p/q = 11/15)."""
    if q < 1:
        raise ValidationError("q must be a positive integer")
    w = np.exp(1j * TWO_PI * (Fraction(p, q) % 1).__float__())
    u = np.diag(np.exp(1j * TWO_PI * (p % q * np.arange(q) % q) / q))
    v = np.zeros((q, q), dtype=complex)
    v[(np.arange(q) + 1) % q, np.arange(q)] = 1.0
    sigma = np.array([[1.0, w], [np.conj(w), 1.0]], dtype=complex)
    return UnitaryTuple((u, v), sigma, tol)


def tensor_construct(
    pair_table: Dict[Tuple[int, int], UnitaryTuple],
    size_cap: int = DEFAULT_SIZE_CAP,
) -> UnitaryTuple:
    """Assemble d generators from one d=2 tuple per index pair (j, k), j < k.

    On the tensor product over all pairs (lexicographic), generator j carries
    the first leg of pair (j, k) for every k > j and the second leg of pair
    (i, j) for every i < j; every other leg is the identity.  Each pair of
    generators then overlaps in exactly one component, so sigma_jk is the
    phase of pair (j, k).
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
        total *= pt.dim_hilbert
        if total > size_cap:
            raise SizeCapError(
                f"tensor dimension {total}+ exceeds size cap {size_cap}"
            )
    mats: List[np.ndarray] = []
    for g in range(d):
        legs = []
        for (j, k) in pairs:
            pt = pair_table[(j, k)]
            if g == j:
                legs.append(pt.matrices[0])
            elif g == k:
                legs.append(pt.matrices[1])
            else:
                legs.append(np.eye(pt.dim_hilbert, dtype=complex))
        mats.append(reduce(np.kron, legs))
    sigma = np.ones((d, d), dtype=complex)
    for (j, k) in pairs:
        s = pair_table[(j, k)].sigma[0, 1]
        sigma[j, k] = s
        sigma[k, j] = np.conj(s)
    tol = sum(pair_table[jk].tol for jk in pairs) + 1e-13
    return UnitaryTuple(tuple(mats), sigma, tol)


def tensor_translate(a: UnitaryTuple, b: UnitaryTuple) -> UnitaryTuple:
    """Componentwise tensor v_j = a_j (x) b_j; phases multiply entrywise."""
    if a.d != b.d:
        raise ValidationError(f"tuples have different d: {a.d} vs {b.d}")
    mats = tuple(np.kron(x, y) for x, y in zip(a.matrices, b.matrices))
    return UnitaryTuple(mats, a.sigma * b.sigma, a.tol + b.tol + 1e-14)


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


@dataclass(frozen=True, eq=False)
class CliffordSet:
    n: int
    matrices: Tuple[np.ndarray, ...]

    @property
    def rep_dim(self) -> int:
        return self.matrices[0].shape[0]

    def max_relation_defect(self) -> float:
        worst = 0.0
        eye = np.eye(self.rep_dim)
        for j, cj in enumerate(self.matrices):
            for k, ck in enumerate(self.matrices):
                target = 2.0 * eye if j == k else 0.0
                worst = max(worst, spectral_norm(cj @ ck + ck @ cj - target))
        return worst


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def clifford_generators(n: int, max_n: int = 12) -> CliffordSet:
    """n anticommuting self-adjoint involutions on C^(2^ceil(n/2)).

    Standard tensor ladder: c_{2m-1} = Z^(m-1) (x) X (x) I..., and
    c_{2m} = Z^(m-1) (x) Y (x) I...
    """
    if n < 1:
        raise ValidationError("need at least one generator")
    if n > max_n:
        raise ValidationError(f"n={n} exceeds the size guard {max_n}")
    qubits = (n + 1) // 2
    mats = []
    for idx in range(1, n + 1):
        m = (idx + 1) // 2  # which qubit carries the X/Y
        legs = [_SZ] * (m - 1)
        legs.append(_SX if idx % 2 else _SY)
        legs.extend([np.eye(2, dtype=complex)] * (qubits - m))
        mats.append(reduce(np.kron, legs))
    return CliffordSet(n, tuple(mats))


def ladder_operator(cutoff: int) -> np.ndarray:
    """Single-mode lowering operator truncated at occupation `cutoff`."""
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for m in range(1, cutoff + 1):
        a[m - 1, m] = np.sqrt(m)
    return a


def _mode_operators(n: int, cutoff: int) -> List[np.ndarray]:
    a1 = ladder_operator(cutoff)
    eye = np.eye(cutoff + 1, dtype=complex)
    ops = []
    for j in range(n):
        legs = [eye] * n
        legs[j] = a1
        ops.append(reduce(np.kron, legs))
    return ops


@dataclass(frozen=True)
class FockReport:
    n: int
    cutoff: int
    clifford_dim: int
    interior_dim: int
    product_identity_residual: float   # A*A vs 1 (x) sum_j a_j a_j*
    adjoint_identity_residual: float   # AA* vs 1 (x) sum_j a_j* a_j
    number_action_residual: float      # (sum_j a_j a_j*) phi_m vs (|m|+n) phi_m
    kernel_dim: int                    # ker of A* restricted to interior vectors


def fock_identities_check(
    n: int, cutoff: int, size_cap: int = DEFAULT_SIZE_CAP
) -> FockReport:
    """Build A = sum_j c_j (x) a_j* on C^N (x) Fock(cutoff) and measure how the
    operator identities close on interior occupation vectors (all m_j <= cutoff-1).

    Reported, not asserted: for a single mode the product identities hold and
    ker A* = C^N (x) phi_0; for two or more modes the mixed terms
    c_k c_j (x) (a_k a_j* - a_j a_k*) do not cancel, the product residual is
    O(1), and the interior kernel acquires one C^N-worth of vectors per total
    occupation level.
    """
    cliff = clifford_generators(n)
    N = cliff.rep_dim
    dim_fock = (cutoff + 1) ** n
    if N * dim_fock > size_cap:
        raise SizeCapError(f"dimension {N * dim_fock} exceeds size cap {size_cap}")
    modes = _mode_operators(n, cutoff)
    eye_n = np.eye(N, dtype=complex)
    a_mat = sum(np.kron(c, am.conj().T) for c, am in zip(cliff.matrices, modes))
    lowering_number = sum(am @ am.conj().T for am in modes)   # sum a_j a_j*
    raising_number = sum(am.conj().T @ am for am in modes)    # sum a_j* a_j

    occ = np.stack(
        np.meshgrid(*([np.arange(cutoff + 1)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    interior = np.all(occ <= cutoff - 1, axis=1)
    mask = np.kron(np.ones(N, dtype=bool), interior)

    prod_res = np.abs(
        ((a_mat.conj().T @ a_mat) - np.kron(eye_n, lowering_number))[:, mask]
    ).max()
    adj_res = np.abs(
        ((a_mat @ a_mat.conj().T) - np.kron(eye_n, raising_number))[:, mask]
    ).max()

    expected = occ.sum(axis=1) + n
    number_cols = lowering_number[:, interior] - (np.eye(dim_fock) * expected)[:, interior]
    number_res = float(np.abs(number_cols).max())

    kdim = kernel_dimension(a_mat.conj().T[:, mask])
    return FockReport(
        n,
        cutoff,
        N,
        int(mask.sum()),
        float(prod_res),
        float(adj_res),
        number_res,
        kdim,
    )
