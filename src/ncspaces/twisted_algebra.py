"""Twisted group algebra of Z^d.

Monomials u^m = u_1^{m_1} ... u_d^{m_d} multiply by

    u^m u^{m'} = exp(2*pi*i * c(m, m')) u^{m+m'},
    c(m, m')   = - sum_{j<k} theta_{jk} m_k m'_j = - m'.U m,

U the strict upper triangle of theta: the multiplication induced by letting
u^m act on the l2(Z^d) basis |m'> with that same phase.  c is bilinear, so
the cocycle identity holds exactly; every phase comes from this one form on
whole exponent arrays, and for rational theta Q c is an exact integer used
mod Q = phase_order(theta).

A polynomial is a finite sum of terms c zeta^r u^m, zeta = exp(2 pi i / Q),
held as arrays sorted by (m, r): exponent rows ``m``, root indices ``r`` in
0..Q-1 (always int64), numerators ``c`` and one positive common denominator.
Exact polynomials, available whenever theta is rational, have Q =
phase_order(theta), nonzero integer numerators and coefficients in Q(zeta_Q):
they are elements of the group ring of the central extension Z^d x Z_Q.
Float polynomials are the case Q = 1: r = 0, complex numerators and
denominator 1.  Each operation is one array computation for both kinds; only
the coefficient arithmetic differs.

Every polynomial carries Python-int upper bounds, set where its arrays are
first formed and derived, never rescanned, for results: ``mbound`` >= max|m|
and, when exact, ``cbound`` >= max|numerator|.  A product has deg a + deg b
and |num a| |num b| min(len a, len b) (a product row gets at most one pair per
term of either operand); an adjoint, a conditional expectation and a
transference keep the operand's bounds; a sum or a scaling gets the scaled
maxima.  ``degree()`` still scans.  From mbound each term (m, r) gets one
packed key Q sum_k m_k R^(d-1-k) + r, R = 2 mbound + 1, whose signed digits
below R/2 keep the order lexicographic in (m, r) (Kronecker substitution, as
in Monagan and Pearce, ACM Commun. Comput. Algebra 44, 2010).  A product's
pair keys are the outer sum of the operands' m keys plus each pair's root
index, an exact pair shifting r by Q c(m, m') mod Q and a float pair
multiplying by exp(2 pi i c(m, m')): one sort and one segmented sum collect
them, sums below COEFF_DROP_TOL in magnitude, for integer numerators exactly
the zero sums, are dropped, and m + m' is formed only for the rows that
survive.  An adjoint maps distinct rows to distinct rows and only re-sorts.
Exponents, numerators and Q c are int64 while the bounds keep every value an
operation forms below 2^62 in magnitude, and Python ints (dtype object) past
that, through the same code; a key takes its own dtype by the same rule from
Q R^d + Q, so large exponents can give Python-int keys beside int64
numerators.

Float arrays are canonical.  Two exact forms of one value can differ, since
the powers of zeta are dependent (zeta^(Q/2) = -1); ``==`` compares the forms
first and, only when they differ, the values in the power basis modulo Phi_Q
(``phases.canonical_form``, by which coefficients compare too).  The hash is
that of theta, which equal values share and which needs no reduction.
Product, trace and involution identities are thus checkable with zero error.
"""
from __future__ import annotations

import operator
from cmath import isfinite
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import DENSE_CAP, ThetaMismatchError, ValidationError, as_index, as_real, clip, guard
from .phases import TWO_PI, Cyclotomic, canonical_form, exact_dtype, integer_form
from .skew import SkewMatrix, upper_pairs

MultiIndex = Tuple[int, ...]
Coefficient = Union[complex, Cyclotomic]

COEFF_DROP_TOL = 1e-15  # coefficient sums below this are dropped: for integers, the zeros
FLOAT_PHASE_CAP = 2**22  # cap on the bound of |c(m, m')| for float64 structure exponents


def as_multi_index(m: Sequence[int]) -> MultiIndex:
    """m as a tuple of ints, each entry taken as as_index takes one; a float
    or bool entry is a ValidationError."""
    try:
        mi = tuple(map(operator.index, m))
    except TypeError as e:
        raise ValidationError(f"multi-index {clip(repr(m))} has non-integer entries") from e
    if bool in map(type, m):
        raise ValidationError(f"multi-index {clip(repr(m))} has non-integer entries")
    return mi


def phase_order(theta: SkewMatrix) -> int:
    """Order Q of the root-of-unity lattice holding all structure phases."""
    return lcm(4, theta.denominator_lcm())


def _root(num, den) -> np.ndarray:
    """exp(2 pi i num / den), num reduced mod den first (exactly, for integer num)."""
    return np.exp(1j * TWO_PI * np.asarray(num % den / den, dtype=float))


class _Twist:
    """The structure exponent c(m, m') = -m'.U m of one theta, U the strict
    upper triangle of theta, as one bilinear form; built once per SkewMatrix
    object, as ``theta.twist``.

    For rational theta ``order`` is Q = phase_order(theta) and ``form`` is the
    integer matrix K = Q U held as Python ints (dtype object), so Q c is exact
    for exponents of any size; ``coupling`` gives -K^T in int64, for operands
    whose bounds allow it, or in Python ints, each converted once.  Otherwise
    ``order`` is 1 and ``form`` is U in float64.  Either way ``weight`` = sum |form_jk| bounds
    |order c(m, m')| <= weight max|m| max|m'|.  In float64 that bound B also
    sets the error of c: while B <= FLOAT_PHASE_CAP = 2^22 an ulp of c is at
    most 2^-30 turns, and past it c mod 1 loses its digits, so float
    exponents past it are rejected.
    """

    def __init__(self, theta: SkewMatrix):
        rational = theta.is_rational
        self.order = phase_order(theta) if rational else 1
        values = [int(v * self.order) if rational else float(v) for v in theta.upper]
        self.form = np.zeros((theta.dim, theta.dim), dtype=object if rational else float)
        for (j, k), v in zip(upper_pairs(theta.dim), values):
            self.form[j, k] = v
        self.weight = sum(map(abs, values))
        self._coupling = {}

    def _bounded(self, m, m2):
        """m and m' in the form's dtype, float exponents past FLOAT_PHASE_CAP
        rejected; the bound is checked before any exponent becomes a float, so
        an exponent past the float range is a ValidationError too."""
        if self.order == 1:
            top, top2 = (as_real("float structure exponent", _max_abs(x)) for x in (m, m2))
            guard("float structure exponent bound", self.weight * top * top2, FLOAT_PHASE_CAP)
        return tuple(np.array(x, dtype=self.form.dtype) for x in (m, m2))

    def coupling(self, dtype) -> np.ndarray:
        """-form.T in ``dtype`` (int64 or object), converted once: at rational
        theta, Q c(m, m') = (m @ coupling) . m'."""
        if dtype not in self._coupling:
            self._coupling[dtype] = -self.form.T.astype(dtype)
        return self._coupling[dtype]

    def scaled(self, m, m2):
        """order * c(m, m') for multi-index arrays of shape (..., d), broadcast."""
        m, m2 = self._bounded(m, m2)
        return -((m @ self.form.T) * m2).sum(axis=-1)

    def axis_roots(self, m, axis) -> np.ndarray:
        """exp(2 pi i c(m, m')) factored over the axes of m': for v = form m,
        the (..., d, len(axis)) roots exp(-2 pi i v_k x / order) at x in axis,
        whose product over k at x = m'_k is the phase.  Rational v is reduced
        mod Q first, so each root's exponent is exact."""
        m, axis = self._bounded(m, axis)
        v = m @ self.form.T
        if self.order > 1:
            v = (v % self.order).astype(exact_dtype(self.order * max(_max_abs(axis), 1)))
            axis = axis.astype(v.dtype)
        return _root(-v[..., None] * axis, self.order)

    def phases(self, m, m2) -> np.ndarray:
        """exp(2 pi i c(m, m')), c reduced mod 1 first (exactly, for rational theta)."""
        return _root(self.scaled(m, m2), self.order)

    def circle_distance(self, scaled) -> np.ndarray:
        """Distance of c = scaled / order to 0 on R/Z."""
        r = scaled % self.order
        return np.asarray(np.minimum(r, self.order - r) / self.order, dtype=float)


def _max_abs(x: np.ndarray) -> int:
    return int(np.abs(x).max(initial=0))


def _scaled(cs: np.ndarray, bound: int, f: int) -> np.ndarray:
    """Integer numerators, max|cs| <= bound, times f, as Python ints where a
    product may reach 2^62 (a sum of two such products still fits int64)."""
    return cs.astype(exact_dtype(max(bound, 1) * abs(f)), copy=False) * f


@lru_cache(maxsize=1024)
def _strides(order: int, bound: int, d: int) -> np.ndarray:
    """Strides of the packed key Q sum_k m_k R^(d-1-k) + r, R = 2 bound + 1,
    of the terms with max|m| <= bound: digits of magnitude below R/2 keep the
    key lexicographic in (m_0, ..., m_{d-1}, r).  int64 while Q R^d + Q, which
    caps |key|, stays below 2^62, else Python ints.  Read-only, as cached."""
    radix = 2 * bound + 1
    dtype = exact_dtype(order * radix**d + order)
    strides = np.array([order * radix ** (d - 1 - k) for k in range(d)], dtype=dtype)
    strides.flags.writeable = False
    return strides


def _key(ms: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """The m part of each row's packed key (``_strides``)."""
    return ms.astype(strides.dtype, copy=False).dot(strides)


def _sum_equal(key: np.ndarray, cs: np.ndarray):
    """One row of each distinct key, in key order, and the sum of the cs of
    the rows sharing it; sums below COEFF_DROP_TOL in magnitude are dropped.
    One stable argsort and one np.add.reduceat."""
    perm = key.argsort(kind="stable")
    if not len(perm):
        return perm, cs
    key = key[perm]
    starts = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    sums = np.add.reduceat(cs[perm], starts)
    keep = np.abs(sums) >= COEFF_DROP_TOL
    return perm[starts[keep]], sums[keep]


def _collect(ms: np.ndarray, rs: np.ndarray, cs: np.ndarray, order: int, bound: int):
    """The terms (ms, rs, cs), max|m| <= bound, sorted by (m, r), with the cs
    of equal (m, r) summed and sums below COEFF_DROP_TOL in magnitude dropped."""
    rows, sums = _sum_equal(_key(ms, _strides(order, bound, ms.shape[1])) + rs, cs)
    return ms[rows], rs[rows], sums


class NCPolynomial:
    """Finitely supported sum a = sum_m alpha_m u^m over a fixed theta.

    Held as the term arrays of the module docstring, of order Q =
    phase_order(theta) when exact and 1 when float.  ``coeffs`` is a new dict
    {m: coefficient}, complex or Cyclotomic, built from the arrays on each
    access, so writing into it leaves the polynomial as it was.  The structure
    form is theta's (``SkewMatrix.twist``).
    """

    __slots__ = ("theta", "_order", "_ms", "_rs", "_cs", "_den", "_mbound", "_cbound")

    def __init__(
        self,
        theta: SkewMatrix,
        coeffs: Dict[MultiIndex, Coefficient],
        exact: bool = None,
    ):
        exact_flags = {isinstance(c, Cyclotomic) for c in coeffs.values()}
        if len(exact_flags) > 1:
            raise ValidationError("cannot mix exact and float coefficients")
        if exact is None:
            # inferred from the coefficients; empty polynomials default to float,
            # so operations pass the flag through explicitly
            exact = exact_flags == {True}
        elif exact_flags and exact_flags != {exact}:
            raise ValidationError("coefficient types contradict the exact flag")
        items = []
        for m, c in coeffs.items():
            mi = as_multi_index(m)
            if len(mi) != theta.dim:
                raise ValidationError(
                    f"term {mi} has dimension {len(mi)}, algebra has d={theta.dim}"
                )
            items.append((mi, c))
        if exact:
            if not theta.is_rational:
                raise ValidationError("exact coefficients require rational theta")
            q = phase_order(theta)
            for _, c in items:
                if c.order != q:
                    raise ValidationError(
                        f"coefficient order {c.order} != phase order {q} of theta"
                    )
            rows = sorted((m, r, c) for m, cy in items for r, c in cy.terms.items())
            cs, den = integer_form(c for _, _, c in rows)
            cbound = max(map(abs, cs.tolist()), default=0)
        else:
            q, den, cbound = 1, 1, None
            values = [(m, complex(c)) for m, c in items]
            for m, c in values:
                if not isfinite(c):
                    raise ValidationError(f"coefficient {c} of term {m} is not finite")
            rows = sorted((m, 0, c) for m, c in values if abs(c) >= COEFF_DROP_TOL)
            cs = np.array([c for _, _, c in rows], dtype=complex)
        # distinct keys and nonzero terms: sorting the rows was all there was to do
        mbound = max((abs(x) for m, _, _ in rows for x in m), default=0)
        table = np.array([(*m, r) for m, r, _ in rows], dtype=exact_dtype(max(q, mbound)))
        table = table.reshape(len(rows), theta.dim + 1)
        self._from_terms(theta, q, table[:, :-1], table[:, -1].astype(np.int64), cs, den, mbound,
                         cbound)

    def _from_terms(self, theta, order, ms, rs, cs, den, mbound, cbound) -> "NCPolynomial":
        """Set theta, the order, the term arrays, already sorted and summed, and
        the upper bounds mbound >= max|m| and, when exact, cbound >= max|numerator|
        (None when float); numerators and denominator are reduced to lowest terms."""
        if den > 1:
            g = gcd(den, *cs.tolist())
            cs, den, cbound = cs // g, den // g, cbound // g
        self.theta, self._order, self._den = theta, order, den
        self._ms, self._rs, self._cs = ms, rs, cs
        self._mbound, self._cbound = mbound, cbound
        return self

    def _result(self, order, ms, rs, cs, den, mbound, cbound) -> "NCPolynomial":
        """A polynomial of the given order over this one's theta from internal
        term arrays and their bounds, without the public constructor's
        validation."""
        return object.__new__(NCPolynomial)._from_terms(self.theta, order, ms, rs, cs, den,
                                                        mbound, cbound)

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
    def exact(self) -> bool:
        """Coefficients in Q(zeta_Q), Q >= 4, rather than complex (Q = 1)."""
        return self._order > 1

    @property
    def coeffs(self) -> Dict[MultiIndex, Coefficient]:
        keys = map(tuple, self._ms.tolist())
        if not self.exact:
            return dict(zip(keys, self._cs.tolist()))
        rows: Dict[MultiIndex, list] = {}
        for m, r, c in zip(keys, self._rs.tolist(), self._cs.tolist()):
            rows.setdefault(m, []).append((r, c))
        return {m: self._cyclotomic(t) for m, t in rows.items()}

    def _cyclotomic(self, rows) -> Cyclotomic:
        """The exact coefficient sum c / den zeta^r over the (r, c) rows of one
        exponent."""
        return Cyclotomic(self._order, {r: Fraction(c, self._den) for r, c in rows})

    @property
    def dim(self) -> int:
        return self.theta.dim

    def degree(self) -> int:
        """Max sup-norm of a supported multi-index (0 for the zero polynomial)."""
        return _max_abs(self._ms)

    def coefficient(self, m: Sequence[int]) -> Coefficient:
        mi = as_multi_index(m)
        if len(mi) != self.dim:
            raise ValidationError(
                f"multi-index {mi} has dimension {len(mi)}, algebra has d={self.dim}"
            )
        key = np.array(mi, dtype=exact_dtype(max(map(abs, mi), default=0)))
        rows = (self._ms == key).all(axis=1)
        rs, cs = self._rs[rows].tolist(), self._cs[rows].tolist()
        if not self.exact:
            return cs[0] if cs else 0j
        return self._cyclotomic(zip(rs, cs))

    def to_float(self) -> "NCPolynomial":
        if not self.exact:
            return self
        values = np.asarray(self._cs / self._den, dtype=float) * _root(self._rs, self._order)
        terms = _collect(self._ms, np.zeros_like(self._rs), values, 1, self._mbound)
        return self._result(1, *terms, 1, self._mbound, None)

    def _canonical(self):
        """Exponents with a nonzero coefficient, and each such coefficient's
        coordinates in the power basis (``phases.canonical_form``)."""
        new = (self._ms[1:] != self._ms[:-1]).any(axis=1)
        starts = np.flatnonzero(np.concatenate(([True], new)))
        keep, coords = canonical_form(self._order, self._rs, self._cs, self._den, starts)
        return self._ms[starts[keep]], coords

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        if self.exact != other.exact or (
            self.theta is not other.theta and self.theta != other.theta
        ):
            return False
        if self._den == other._den and all(
            x.shape == y.shape and (x == y).all()
            for x, y in ((self._cs, other._cs), (self._rs, other._rs), (self._ms, other._ms))
        ):
            return True
        if not self.exact:  # float forms are canonical
            return False
        (ma, va), (mb, vb) = self._canonical(), other._canonical()
        return np.array_equal(ma, mb) and va.tolist() == vb.tolist()

    def __hash__(self):
        return hash(self.theta)

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
        den = lcm(self._den, other._den)
        ms = np.concatenate((self._ms, other._ms))
        rs = np.concatenate((self._rs, other._rs))
        if self.exact:
            parts = [(p, den // p._den) for p in (self, other)]
            cs = np.concatenate([_scaled(p._cs, p._cbound, f) for p, f in parts])
            cbound = sum(p._cbound * f for p, f in parts)
        else:
            cs, cbound = np.concatenate((self._cs, other._cs)), None
        mbound = max(self._mbound, other._mbound)
        return self._result(self._order, *_collect(ms, rs, cs, self._order, mbound), den,
                            mbound, cbound)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "NCPolynomial":
        if self.exact:
            f = Fraction(factor)
            cs, den = _scaled(self._cs, self._cbound, f.numerator), self._den * f.denominator
            cbound = self._cbound * abs(f.numerator)
        else:
            cs, den, cbound = self._cs * complex(factor), 1, None
        terms = _collect(self._ms, self._rs, cs, self._order, self._mbound)
        return self._result(self._order, *terms, den, self._mbound, cbound)


def poly_mul(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Product with coefficients sum_{m+m'=n} alpha_m beta_m' exp(2 pi i c(m,m')).

    The exponents of all term pairs come from one bilinear form of the two
    exponent arrays.  Exact terms multiply to c c' zeta^(r + r' + Q c(m, m'))
    u^(m + m'), float terms to c c' exp(2 pi i c(m, m')) u^(m + m').  The
    packed key of a pair (``_strides``, radix from deg a + deg b) is the sum
    of its two terms' m keys plus its root index: one sort of the pair keys
    sums the pairs, and m + m' is formed only for the rows that survive.
    """
    a._check_compatible(b)
    twist, q = a.theta.twist, a._order
    deg = a._mbound + b._mbound
    if a.exact:
        # distinct (m', r') rows: a product row gets at most one pair per term of a or b
        cbound = a._cbound * b._cbound * min(len(a._cs), len(b._cs))
        qc_bound = twist.weight * max(a._mbound, 1) * max(b._mbound, 1) + 2 * q
        dtype = exact_dtype(max(deg, qc_bound, cbound))
    else:
        cbound, dtype = None, exact_dtype(deg)
    ma, mb = a._ms.astype(dtype, copy=False), b._ms.astype(dtype, copy=False)
    if a.exact:
        qc = (ma @ twist.coupling(dtype)) @ mb.T
        rs = (a._rs.astype(dtype, copy=False)[:, None] + b._rs.astype(dtype, copy=False) + qc) % q
        cs = np.multiply.outer(a._cs.astype(dtype, copy=False), b._cs.astype(dtype, copy=False))
    else:
        rs = np.zeros((len(ma), len(mb)), dtype=np.int64)
        cs = np.multiply.outer(a._cs, b._cs) * twist.phases(ma[:, None, :], mb)
    strides = _strides(q, deg, a.dim)
    key = _key(ma, strides)[:, None] + _key(mb, strides) + rs.astype(strides.dtype, copy=False)
    rows, cs = _sum_equal(key.ravel(), cs.ravel())
    i, j = np.divmod(rows, len(mb))
    rs = rs.ravel()[rows].astype(np.int64, copy=False)
    return a._result(q, ma[i] + mb[j], rs, cs, a._den * b._den, deg, cbound)


def poly_adjoint(a: NCPolynomial) -> NCPolynomial:
    """Involution: (u^m)* = exp(2 pi i c(m,m)) u^{-m}, coefficients conjugated
    (c(m, m) = -c(m, -m) by bilinearity); the exact term c zeta^r u^m goes to
    c zeta^(Q c(m, m) - r) u^(-m).  Distinct (m, r) rows go to distinct rows,
    so the terms are only re-sorted, never summed."""
    twist, q = a.theta.twist, a._order
    if a.exact:
        ms = a._ms.astype(exact_dtype(twist.weight * max(a._mbound, 1) ** 2 + 2 * q))
        qc = ((ms @ twist.coupling(ms.dtype)) * ms).sum(axis=1)
        rs, cs = ((qc - a._rs) % q).astype(np.int64, copy=False), a._cs
    else:
        ms, rs = a._ms, a._rs
        cs = a._cs.conj() * twist.phases(ms, ms)
    ms = -ms
    perm = (_key(ms, _strides(q, a._mbound, a.dim)) + rs).argsort()
    return a._result(q, ms[perm], rs[perm], cs[perm], a._den, a._mbound, a._cbound)


def trace(a: NCPolynomial) -> Coefficient:
    """The canonical trace: the coefficient at m = 0."""
    return a.coefficient((0,) * a.dim)


def cond_expectation(a: NCPolynomial, j: int) -> NCPolynomial:
    """Projection killing every term with m_j != 0 (axis j is 0-based)."""
    j = as_index("axis", j, 0)
    if j >= a.dim:
        raise ValidationError(f"axis {j} out of range for d={a.dim}")
    keep = a._ms[:, j] == 0
    return a._result(a._order, a._ms[keep], a._rs[keep], a._cs[keep], a._den, a._mbound,
                     a._cbound)


def transference(a: NCPolynomial, z: Sequence) -> NCPolynomial:
    """Coefficient at m multiplied by prod_j z_j^{m_j}.

    Each z_j is a unimodular complex number, or a Fraction number of turns
    (z_j = exp(2 pi i t_j)), which keeps exact polynomials exact.
    """
    if len(z) != a.dim:
        raise ValidationError(f"z has length {len(z)}, expected {a.dim}")
    if all(isinstance(x, (Fraction, int)) for x in z):
        nums, den = integer_form(Fraction(x) for x in z)
        # s = den * (t . m), exact, for every row
        dtype = exact_dtype(max(a._mbound, 1) * max(_max_abs(nums) * a.dim, 1) * a._order)
        s = a._ms.astype(dtype, copy=False) @ nums.astype(dtype)
        if a.exact:
            off = s * a._order % den
            if off.any():
                t = Fraction(int(s[off.nonzero()[0][0]]), den)
                raise ValidationError(f"rotation by {t} turns leaves the zeta_{a._order} lattice")
            rs, cs = (a._rs + s * a._order // den) % a._order, a._cs
        else:
            rs, cs = a._rs, a._cs * _root(s, den)
    else:
        zc = [complex(x) for x in z]
        for x in zc:
            if not abs(abs(x) - 1.0) <= 1e-12:  # NaN fails this test too
                raise ValidationError(f"z entry {x} is not unimodular")
        a = a.to_float()
        rs, cs = a._rs, a._cs * np.prod(np.array(zc) ** a._ms, axis=1)
    rs = rs.astype(np.int64, copy=False)
    terms = _collect(a._ms, rs, cs, a._order, a._mbound)
    return a._result(a._order, *terms, a._den, a._mbound, a._cbound)


# -- GNS truncation ---------------------------------------------------------


def gns_matrix(a: NCPolynomial, radius: int) -> np.ndarray:
    """Matrix of a acting on basis {|m'> : sup-norm(m') <= radius}.

    The action sends |m'> to exp(2 pi i c(m, m')) |m+m'>; images leaving the
    box are dropped (hard truncation, no wraparound), so columns whose target
    escapes simply lose that contribution.  Guarded to (2 radius + 1)^d <=
    DENSE_CAP basis vectors.

    c(m, m') is linear in m', so each term's phases over the box are the outer
    product of d per-axis root tables.  Cost: T (2 radius + 1) roots per axis
    for the T terms near the box, one put of at most T n entries, and the
    n x n zeros.
    """
    radius = as_index("truncation radius", radius, 0)
    d, side = a.dim, 2 * radius + 1
    n = guard("GNS basis (2 radius + 1)^d =", side**d, DENSE_CAP)
    # the output before the (t, n) temporaries, so that they are not laid out
    # below it: allocated after them, it raised the benchmark's peak RSS by
    # about one matrix
    out = np.zeros(n * n + 1, dtype=complex)
    af = a.to_float()
    near = (np.abs(af._ms) <= 2 * radius).all(axis=1)  # terms keeping some |m'> inside
    ms = af._ms[near].astype(np.int64)
    t = len(ms)
    axis = np.arange(-radius, radius + 1)
    roots = a.theta.twist.axis_roots(ms, axis)  # (t, d, side)
    # per axis k, the image coordinate m_k + x and the part of the flat index
    # row * n + col that axis contributes; an image leaving the box gets the
    # index n * n, past every entry, so its sum lands there whatever the rest
    image = ms[:, :, None] + axis
    stride = side ** np.arange(d - 1, -1, -1)[:, None]
    index = np.where(np.abs(image) <= radius, ((image + radius) * n + axis + radius) * stride, n * n)
    values, flat = af._cs[near], np.zeros(t, dtype=np.int64)
    for k in range(d):  # broadcast over (t, side, ..., side), C order as the basis
        shape = (t,) + (1,) * k + (side,)
        values = values[..., None] * roots[:, k].reshape(shape)
        flat = flat[..., None] + index[:, k].reshape(shape)
    # distinct terms send a column to distinct rows: one put writes them all,
    # the images that left the box onto the one extra entry
    np.put(out, flat, values, mode="clip")
    return out[:-1].reshape(n, n)


def gns_vacuum_index(radius: int, dim: int) -> int:
    """Flat index of |0> in the box basis used by gns_matrix."""
    radius = as_index("truncation radius", radius, 0)
    return (2 * radius + 1) ** as_index("dimension", dim, 1) // 2


# -- cocycle diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class CocycleReport:
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
    twist = theta.twist
    m1, m2, m3 = (np.array(ms, dtype=twist.form.dtype) for ms in zip(*triples))
    c = twist.scaled
    assoc = c(m1, m2) + c(m1 + m2, m3) - c(m1, m2 + m3) - c(m2, m3)
    zero = 0 * m1
    norm = [c(g, zero) for g in (m1, m2, m3)] + [c(zero, g) for g in (m1, m2, m3)]
    max_assoc = float(twist.circle_distance(assoc).max())
    max_norm = max(float(twist.circle_distance(e).max()) for e in norm)
    return CocycleReport(max_assoc, max_norm, theta.is_rational)
