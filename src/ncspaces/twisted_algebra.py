"""Twisted group algebra of Z^d.

Monomials u^m = u_1^{m_1} ... u_d^{m_d} multiply by

    u^m u^{m'} = exp(2*pi*i * c(m, m')) u^{m+m'},
    c(m, m')   = - sum_{j<k} theta_{jk} m_k m'_j = - m'.U m,

U the strict upper triangle of theta: the multiplication induced by letting
u^m act on the l2(Z^d) basis |m'> with that same phase.  c is bilinear, so
the cocycle identity holds exactly; every phase comes from this one form on
whole exponent arrays, and for rational theta Q c is an exact integer used
mod Q = phase_order(theta).

Polynomials carry either complex (float) coefficients, held as a dict
{m: complex}, or exact coefficients in Q(zeta_Q), available whenever theta is
rational.  An exact polynomial is a finite sum of terms c zeta^r u^m, held as
integer arrays sorted by (m, r): exponent rows ``m``, root indices ``r`` in
0..Q-1 (always int64), nonzero numerators ``c`` and one positive common denominator.  These
are elements of the group ring of the central extension Z^d x Z_Q, where
product, involution, conditional expectation, trace and equality are exact
integer array work: a product sums the outer product of the numerators at
the rows (m + m', r + r' + Q c(m, m') mod Q) with one sort and one segmented
sum.  Arrays are int64 while every value an operation forms stays below
2^62 in magnitude and Python ints (dtype object) past that, through the same
code.  Two forms of one value can differ, since the powers of zeta are
dependent (zeta^(Q/2) = -1); ``==`` compares the forms first and, only when
they differ, the values in the power basis modulo Phi_Q
(``phases.reduction_matrix``); the hash is that of theta, which equal values
share and which needs no reduction.  Product, trace and involution identities
are thus checkable with zero error.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import ThetaMismatchError, ValidationError
from .phases import TWO_PI, Cyclotomic, exact_dtype, power_basis
from .skew import SkewMatrix, upper_pairs

MultiIndex = Tuple[int, ...]
Coefficient = Union[complex, Cyclotomic]

COEFF_DROP_TOL = 1e-15  # float path only: drop |c| below this during normalization


def as_multi_index(m: Sequence[int]) -> MultiIndex:
    m = tuple(m)
    t = tuple(map(int, m))
    if t != m:
        raise ValidationError(f"multi-index {m!r} has non-integer entries")
    return t


def add_index(m: MultiIndex, m2: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(m, m2))


def neg_index(m: MultiIndex) -> MultiIndex:
    return tuple(-a for a in m)


def phase_order(theta: SkewMatrix) -> int:
    """Order Q of the root-of-unity lattice holding all structure phases."""
    return lcm(4, theta.denominator_lcm())


class _Twist:
    """The structure exponent c(m, m') = -m'.U m of one theta, U the strict
    upper triangle of theta, as one bilinear form.

    For rational theta ``order`` is Q = phase_order(theta) and ``form`` is the
    integer matrix K = Q U held as Python ints (dtype object), so Q c is exact
    for exponents of any size; ``weight`` = sum |K_jk| bounds
    |Q c(m, m')| <= weight max|m| max|m'|.  Otherwise ``order`` is 1 and
    ``form`` is U.
    """

    def __init__(self, theta: SkewMatrix):
        rational = theta.is_rational
        self.order = phase_order(theta) if rational else 1
        values = [int(v * self.order) if rational else float(v) for v in theta.upper]
        self.form = np.zeros((theta.dim, theta.dim), dtype=object if rational else float)
        for (j, k), v in zip(upper_pairs(theta.dim), values):
            self.form[j, k] = v
        self.weight = sum(map(abs, values)) if rational else None

    def scaled(self, m, m2):
        """order * c(m, m') for multi-index arrays of shape (..., d), broadcast."""
        m, m2 = (np.array(x, dtype=self.form.dtype) for x in (m, m2))
        return -((m @ self.form.T) * m2).sum(axis=-1)

    def phases(self, m, m2) -> np.ndarray:
        """exp(2 pi i c(m, m')), c reduced mod 1 first (exactly, for rational theta)."""
        turns = np.asarray(self.scaled(m, m2) % self.order / self.order, dtype=float)
        return np.exp(1j * TWO_PI * turns)

    def circle_distance(self, scaled) -> np.ndarray:
        """Distance of c = scaled / order to 0 on R/Z."""
        r = scaled % self.order
        return np.asarray(np.minimum(r, self.order - r) / self.order, dtype=float)


def _max_abs(x: np.ndarray) -> int:
    return int(np.abs(x).max(initial=0))


def _collect(ms: np.ndarray, rs: np.ndarray, cs: np.ndarray, order: int):
    """The terms (ms, rs, cs) sorted by (m, r), with the cs of equal (m, r)
    summed and zero sums dropped.

    Each row gets one mixed-radix key, lexicographic in (m_0, ..., m_{d-1}, r)
    whatever the offsets: one stable argsort and one np.add.reduceat do the
    rest.  Keys are int64 while their range stays below 2^62, else Python ints.
    """
    if not len(cs):
        return ms, rs, cs
    lo = ms.min(axis=0)
    stride, strides = order, []
    for span in reversed((ms.max(axis=0) - lo + 1).tolist()):
        strides.append(stride)
        stride *= span
    dtype = exact_dtype(stride)
    key = (ms.astype(dtype, copy=False) - lo) @ np.array(strides[::-1], dtype=dtype)
    key += rs.astype(dtype, copy=False)
    perm = key.argsort(kind="stable")
    key = key[perm]
    starts = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    sums = np.add.reduceat(cs[perm], starts)
    keep = sums != 0
    rows = perm[starts[keep]]
    return ms[rows], rs[rows], sums[keep]


def structure_exponent(m: Sequence[int], m2: Sequence[int], theta: SkewMatrix):
    """Raw exponent c(m, m') = -sum_{j<k} theta_jk m_k m'_j (not reduced):
    a Fraction for rational theta, a float otherwise."""
    m, m2 = as_multi_index(m), as_multi_index(m2)
    if len(m) != theta.dim or len(m2) != theta.dim:
        raise ValidationError(
            f"multi-index dimension {len(m)}/{len(m2)} != theta dimension {theta.dim}"
        )
    twist = _Twist(theta)
    c = twist.scaled(m, m2)
    return Fraction(int(c), twist.order) if theta.is_rational else float(c)


def structure_phase(m: Sequence[int], m2: Sequence[int], theta: SkewMatrix):
    """Exponent c with u^m u^{m'} = exp(2*pi*i*c) u^{m+m'}, reduced into [0, 1):
    a Fraction for rational theta, a float otherwise."""
    return structure_exponent(m, m2, theta) % 1


class NCPolynomial:
    """Finitely supported sum a = sum_m alpha_m u^m over a fixed theta.

    ``coeffs`` is the read-only view {m: coefficient}: the dict itself for
    float polynomials and, for exact ones, {m: Cyclotomic} built from the
    term arrays on first access and kept.
    """

    __slots__ = ("theta", "exact", "_coeffs", "_order", "_twist", "_ms", "_rs", "_cs", "_den")

    def __init__(
        self,
        theta: SkewMatrix,
        coeffs: Dict[MultiIndex, Coefficient],
        exact: bool = None,
    ):
        self.theta = theta
        exact_flags = {isinstance(c, Cyclotomic) for c in coeffs.values()}
        if len(exact_flags) > 1:
            raise ValidationError("cannot mix exact and float coefficients")
        if exact is None:
            # inferred from the coefficients; empty polynomials default to float,
            # so operations pass the flag through explicitly
            self.exact = exact_flags == {True}
        else:
            if exact_flags and exact_flags != {exact}:
                raise ValidationError("coefficient types contradict the exact flag")
            self.exact = exact
        if self.exact:
            if not theta.is_rational:
                raise ValidationError("exact coefficients require rational theta")
            q = phase_order(theta)
            for c in coeffs.values():
                if c.order != q:
                    raise ValidationError(
                        f"coefficient order {c.order} != phase order {q} of theta"
                    )
        norm: Dict[MultiIndex, Coefficient] = {}
        for m, c in coeffs.items():
            mi = as_multi_index(m)
            if len(mi) != theta.dim:
                raise ValidationError(
                    f"term {mi} has dimension {len(mi)}, algebra has d={theta.dim}"
                )
            if self.exact:
                norm[mi] = c
            else:
                c = complex(c)
                if abs(c) >= COEFF_DROP_TOL:
                    norm[mi] = c
        if not self.exact:
            self._coeffs = norm
            return
        # distinct keys and nonzero terms: sorting the rows is all that is left
        self._coeffs = None
        rows = sorted((m, r, c) for m, cy in norm.items() for r, c in cy.terms.items())
        den = lcm(*(c.denominator for _, _, c in rows))
        table = [(*m, r, c.numerator * (den // c.denominator)) for m, r, c in rows]
        dtype = exact_dtype(max([q, *(abs(x) for row in table for x in row)]))
        table = np.array(table, dtype=dtype).reshape(len(rows), theta.dim + 2)
        rs = table[:, -2].astype(np.int64)
        self._from_terms(q, None, table[:, :-2], rs, table[:, -1], den)

    def _from_terms(self, order, twist, ms, rs, cs, den) -> "NCPolynomial":
        """Set the term arrays, already sorted and summed; numerators and
        denominator are reduced to lowest terms."""
        if den > 1:
            g = gcd(den, *cs.tolist())
            cs, den = cs // g, den // g
        self._order, self._twist = order, twist
        self._ms, self._rs, self._cs, self._den = ms, rs, cs, den
        return self

    def _structure(self) -> _Twist:
        """The structure form of theta, built on first use and passed on to
        every exact result computed from this polynomial."""
        if self._twist is None:
            self._twist = _Twist(self.theta)
        return self._twist

    def _exact_result(self, ms, rs, cs, den) -> "NCPolynomial":
        """An exact polynomial over this one's theta from internal term arrays,
        without the public constructor's validation."""
        out = object.__new__(NCPolynomial)
        out.theta, out.exact, out._coeffs = self.theta, True, None
        return out._from_terms(self._order, self._twist, ms, rs, cs, den)

    # -- constructors --------------------------------------------------

    @classmethod
    def monomial(cls, theta: SkewMatrix, m: Sequence[int], coeff=1.0) -> "NCPolynomial":
        return cls(theta, {as_multi_index(m): coeff})

    @classmethod
    def exact_monomial(cls, theta: SkewMatrix, m: Sequence[int], re=1, im=0) -> "NCPolynomial":
        q = phase_order(theta)
        return cls(theta, {as_multi_index(m): Cyclotomic.from_gaussian(q, re, im)})

    @classmethod
    def one(cls, theta: SkewMatrix, exact: bool = False) -> "NCPolynomial":
        if exact:
            return cls.exact_monomial(theta, (0,) * theta.dim, 1)
        return cls.monomial(theta, (0,) * theta.dim, 1.0)

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> Dict[MultiIndex, Coefficient]:
        if self._coeffs is None:
            view: Dict[MultiIndex, dict] = {}
            cs = self._cs.tolist()
            if self._den > 1:
                cs = [Fraction(c, self._den) for c in cs]
            for m, r, c in zip(self._ms.tolist(), self._rs.tolist(), cs):
                view.setdefault(tuple(m), {})[r] = c
            self._coeffs = {m: Cyclotomic(self._order, t) for m, t in view.items()}
        return self._coeffs

    @property
    def dim(self) -> int:
        return self.theta.dim

    def degree(self) -> int:
        """Max sup-norm of a supported multi-index (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0
        return max(max(abs(x) for x in m) for m in self.coeffs)

    def coefficient(self, m: Sequence[int]) -> Coefficient:
        mi = as_multi_index(m)
        if self.exact:
            key = np.array(mi, dtype=exact_dtype(max(map(abs, mi), default=0)))
            rows = (self._ms == key).all(axis=1)
            terms = zip(self._rs[rows].tolist(), self._cs[rows].tolist())
            return Cyclotomic(self._order, {r: Fraction(c, self._den) for r, c in terms})
        return self.coeffs.get(mi, 0j)

    def to_float(self) -> "NCPolynomial":
        if not self.exact:
            return self
        return NCPolynomial(
            self.theta,
            {m: c.to_complex() for m, c in self.coeffs.items()},
            exact=False,
        )

    def allclose(self, other: "NCPolynomial", tol: float = 1e-12) -> bool:
        if self.theta != other.theta:
            return False
        a, b = self.to_float(), other.to_float()
        keys = set(a.coeffs) | set(b.coeffs)
        return all(abs(a.coefficient(m) - b.coefficient(m)) <= tol for m in keys)

    def _canonical(self):
        """Exponents with a nonzero coefficient, and each such coefficient's
        coordinates in the power basis as Fractions (one row each)."""
        if not len(self._cs):
            return self._ms, None
        new = (self._ms[1:] != self._ms[:-1]).any(axis=1)
        starts = np.flatnonzero(np.concatenate(([True], new)))
        vec = power_basis(self._order, self._rs, self._cs, starts)
        keep = (vec != 0).any(axis=1)
        return self._ms[starts[keep]], vec[keep].astype(object) * Fraction(1, self._den)

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        if self.exact != other.exact or (self.theta is not other.theta and self.theta != other.theta):
            return False
        if not self.exact:
            return self._coeffs == other._coeffs
        if self._den == other._den and all(
            x.shape == y.shape and (x == y).all()
            for x, y in ((self._cs, other._cs), (self._rs, other._rs), (self._ms, other._ms))
        ):
            return True
        (ma, va), (mb, vb) = self._canonical(), other._canonical()
        if ma.shape != mb.shape or not (ma == mb).all():
            return False
        return not len(ma) or bool((va == vb).all())

    def __hash__(self):
        if self.exact:
            return hash(self.theta)
        return hash((self.theta, tuple(sorted(self._coeffs))))

    def __repr__(self):
        n = len(self.coeffs)
        return f"NCPolynomial(d={self.dim}, {n} term{'s' if n != 1 else ''})"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "NCPolynomial"):
        if self.theta is not other.theta and self.theta != other.theta:
            raise ThetaMismatchError("operands have different theta")
        if self.exact != other.exact:
            raise ValidationError("cannot mix exact and float polynomials")

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return NCPolynomial(self.theta, out, exact=self.exact)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "NCPolynomial":
        if self.exact:
            return NCPolynomial(
                self.theta,
                {m: c.scale(factor) for m, c in self.coeffs.items()},
                exact=True,
            )
        return NCPolynomial(
            self.theta, {m: c * complex(factor) for m, c in self.coeffs.items()}
        )


def poly_mul(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Product with coefficients sum_{m+m'=n} alpha_m beta_m' exp(2 pi i c(m,m')).

    The exponents of all term pairs come from one bilinear form of the two
    exponent arrays.  Exact terms multiply to c c' zeta^(r + r' + Q c(m, m'))
    u^(m + m'), summed by one sort of the term keys (see ``_collect``).
    """
    a._check_compatible(b)
    if a.exact:
        twist = a._structure()
        big, small = max(_max_abs(a._ms), 1), max(_max_abs(b._ms), 1)
        dtype = exact_dtype(max(
            twist.weight * big * small + 2 * twist.order,
            _max_abs(a._cs) * _max_abs(b._cs) * len(a._cs) * len(b._cs),
            big + small,
        ))
        ma, mb = a._ms.astype(dtype, copy=False), b._ms.astype(dtype, copy=False)
        qc = -(ma @ twist.form.T.astype(dtype)) @ mb.T
        rs = (a._rs.astype(dtype, copy=False)[:, None] + b._rs.astype(dtype, copy=False) + qc) % twist.order
        rs = rs.astype(np.int64, copy=False)
        cs = np.multiply.outer(a._cs.astype(dtype, copy=False), b._cs.astype(dtype, copy=False))
        ms = (ma[:, None, :] + mb).reshape(-1, a.dim)
        return a._exact_result(*_collect(ms, rs.ravel(), cs.ravel(), twist.order), a._den * b._den)
    if not (a.coeffs and b.coeffs):
        return NCPolynomial(a.theta, {}, exact=False)
    twist = _Twist(a.theta)
    ma, mb = [[m] for m in a.coeffs], [list(b.coeffs)]
    # per term pair: the phase exp(2 pi i c)
    factors = twist.phases(ma, mb).tolist()
    groups: Dict[MultiIndex, list] = {}
    for (m, ca), row in zip(a.coeffs.items(), factors):
        for (m2, cb), f in zip(b.coeffs.items(), row):
            groups.setdefault(add_index(m, m2), []).append((ca, cb, f))
    out = {n: reduce(lambda s, t: s + t[0] * t[1] * t[2], g, 0j) for n, g in groups.items()}
    return NCPolynomial(a.theta, out, exact=False)


def poly_adjoint(a: NCPolynomial) -> NCPolynomial:
    """Involution: (u^m)* = exp(2 pi i c(m,m)) u^{-m}, coefficients conjugated
    (c(m, m) = -c(m, -m) by bilinearity); the exact term c zeta^r u^m goes to
    c zeta^(Q c(m, m) - r) u^(-m)."""
    if a.exact:
        twist = a._structure()
        ms = a._ms.astype(exact_dtype(twist.weight * _max_abs(a._ms) ** 2 + 2 * twist.order))
        qc = -((ms @ twist.form.T.astype(ms.dtype)) * ms).sum(axis=1)
        rs = ((qc - a._rs) % twist.order).astype(np.int64, copy=False)
        return a._exact_result(*_collect(-ms, rs, a._cs, twist.order), a._den)
    if not a.coeffs:
        return NCPolynomial(a.theta, {}, exact=False)
    twist = _Twist(a.theta)
    ms, cs = list(a.coeffs), list(a.coeffs.values())
    new = [c.conjugate() * p for c, p in zip(cs, twist.phases(ms, ms).tolist())]
    return NCPolynomial(a.theta, dict(zip(map(neg_index, ms), new)), exact=False)


def trace(a: NCPolynomial) -> Coefficient:
    """The canonical trace: the coefficient at m = 0."""
    return a.coefficient((0,) * a.dim)


def cond_expectation(a: NCPolynomial, j: int) -> NCPolynomial:
    """Projection killing every term with m_j != 0 (axis j is 0-based)."""
    if not (0 <= j < a.dim):
        raise ValidationError(f"axis {j} out of range for d={a.dim}")
    if a.exact:
        keep = a._ms[:, j] == 0
        return a._exact_result(a._ms[keep], a._rs[keep], a._cs[keep], a._den)
    return NCPolynomial(
        a.theta, {m: c for m, c in a.coeffs.items() if m[j] == 0}, exact=False
    )


def transference(a: NCPolynomial, z: Sequence) -> NCPolynomial:
    """Coefficient at m multiplied by prod_j z_j^{m_j}.

    Each z_j is a unimodular complex number, or a Fraction number of turns
    (z_j = exp(2 pi i t_j)), which keeps exact polynomials exact.
    """
    if len(z) != a.dim:
        raise ValidationError(f"z has length {len(z)}, expected {a.dim}")
    turns = all(isinstance(x, (Fraction, int)) for x in z)
    if not turns:
        zc = [complex(x) for x in z]
        for x in zc:
            if abs(abs(x) - 1.0) > 1e-12:
                raise ValidationError(f"z entry {x} is not unimodular")
        af = a.to_float()
        out = {}
        for m, c in af.coeffs.items():
            w = c
            for x, mj in zip(zc, m):
                if mj:
                    w = w * x ** mj
            out[m] = w
        return NCPolynomial(a.theta, out, exact=False)
    tz = [Fraction(x) for x in z]
    out = {}
    for m, c in a.coeffs.items():
        t = sum((x * mj for x, mj in zip(tz, m)), Fraction(0))
        if a.exact:
            shift = t * c.order
            if shift.denominator != 1:
                raise ValidationError(f"rotation by {t} turns leaves the zeta_{c.order} lattice")
            out[m] = c.rotate(int(shift))
        else:
            out[m] = c * cmath.exp(1j * TWO_PI * float(t % 1))
    return NCPolynomial(a.theta, out, exact=a.exact)


# -- GNS truncation ---------------------------------------------------------


def _box_indices(dim: int, radius: int) -> np.ndarray:
    """All multi-indices with sup-norm <= radius, C-ordered, shape (count, dim)."""
    side = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([side] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def gns_matrix(a: NCPolynomial, radius: int) -> np.ndarray:
    """Matrix of a acting on basis {|m'> : sup-norm(m') <= radius}.

    The action sends |m'> to exp(2 pi i c(m, m')) |m+m'>; images leaving the
    box are dropped (hard truncation, no wraparound), so columns whose target
    escapes simply lose that contribution.
    """
    if radius < 0:
        raise ValidationError("truncation radius must be >= 0")
    d = a.dim
    box = _box_indices(d, radius)
    n = box.shape[0]
    side = 2 * radius + 1
    out = np.zeros((n, n), dtype=complex)
    af = a.to_float()
    if not af.coeffs:
        return out
    phases = _Twist(a.theta).phases([[m] for m in af.coeffs], [box])
    for (m, coeff), phase in zip(af.coeffs.items(), phases):
        target = box + np.array(m)
        ok = np.all(np.abs(target) <= radius, axis=1)
        cols = np.nonzero(ok)[0]
        shifted = target[cols] + radius
        rows = np.zeros(len(cols), dtype=int)
        for ax in range(d):
            rows = rows * side + shifted[:, ax]
        out[rows, cols] += coeff * phase[cols]
    return out


def gns_vacuum_index(radius: int, dim: int) -> int:
    """Flat index of |0> in the box basis used by gns_matrix."""
    side = 2 * radius + 1
    idx = 0
    for _ in range(dim):
        idx = idx * side + radius
    return idx


# -- cocycle diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class CocycleReport:
    samples: int
    max_associativity_defect: float
    max_normalization_defect: float
    exact: bool


def cocycle_validate(theta: SkewMatrix, triples: Iterable) -> CocycleReport:
    """Check sigma(m,m')sigma(m+m',m'') = sigma(m,m'+m'')sigma(m',m'') and
    sigma(m,0) = sigma(0,m) = 1 over the sample triples.

    Defects are circle distances of exponent differences to 0; they vanish
    identically for rational theta.
    """
    triples = [tuple(as_multi_index(m) for m in t) for t in triples]
    if not triples:
        raise ValidationError("sample list must be nonempty")
    if any(len(m) != theta.dim for t in triples for m in t):
        raise ValidationError(f"a multi-index dimension != theta dimension {theta.dim}")
    twist = _Twist(theta)
    m1, m2, m3 = (np.array(ms, dtype=twist.form.dtype) for ms in zip(*triples))
    c = twist.scaled
    assoc = c(m1, m2) + c(m1 + m2, m3) - c(m1, m2 + m3) - c(m2, m3)
    zero = 0 * m1
    norm = [c(g, zero) for g in (m1, m2, m3)] + [c(zero, g) for g in (m1, m2, m3)]
    max_assoc = float(twist.circle_distance(assoc).max())
    max_norm = max(float(twist.circle_distance(e).max()) for e in norm)
    return CocycleReport(len(triples), max_assoc, max_norm, theta.is_rational)
