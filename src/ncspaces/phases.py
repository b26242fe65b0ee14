"""Exact cyclotomic scalars.

``Cyclotomic`` is an exact scalar sum_r c_r * zeta^r with zeta = exp(2*pi*i/Q)
and rational c_r: the coefficient value of an exact polynomial when the
deformation is rational, where a structure phase exp(2*pi*i*c) with Q*c an
integer rotates exponents by that integer mod Q.  Gaussian-rational inputs
embed via i = zeta^(Q/4).  Products are formed in the term arrays of
``twisted_algebra``, not here.

The powers zeta^0 .. zeta^(Q-1) are not linearly independent over the
rationals (zeta^(Q/2) = -1, for one), so a term dict is not a canonical form.
``reduction_matrix`` gives each power in the power basis 1, zeta, ...,
zeta^(phi(Q)-1) modulo the cyclotomic polynomial Phi_Q (Washington,
*Introduction to Cyclotomic Fields*, ch. 2), which is canonical;
``canonical_form`` sums combinations of powers in that basis, and is the one
route by which exact coefficients and exact polynomials compare.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import ValidationError, as_index, guard

TWO_PI = 2.0 * 3.141592653589793

# Exact integer arrays are int64 while every value an operation forms stays
# below this bound in magnitude, and Python ints (dtype object) past it.
INT64_SAFE = 2**62
# entries of one reduction matrix, Q * phi(Q) (1451520 at Q = 2520); its
# int64 build array takes 8 bytes per entry
REDUCTION_CAP = 2**22


def exact_dtype(bound: int):
    """int64 if ``bound`` caps every intermediate magnitude below INT64_SAFE,
    else object (Python ints, no wraparound)."""
    return np.int64 if bound < INT64_SAFE else object


def _prime_factors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _divide_monic(num: list, den: list) -> list:
    """Exact quotient of integer polynomials (constant term first), den monic."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = t = num[k + len(den) - 1]
        if t:
            for j, c in enumerate(den):
                num[k + j] -= t * c
    return quot


def cyclotomic_polynomial(n: int) -> list:
    """Integer coefficients of Phi_n, constant term first.

    Phi_{mp}(x) = Phi_m(x^p) / Phi_m(x) for a prime p not dividing m builds
    Phi of the radical of n one prime at a time, and Phi_n(x) = Phi_rad(x^(n/rad)).
    """
    poly, rad = [-1, 1], 1
    for p in _prime_factors(n):
        stretched = [0] * ((len(poly) - 1) * p + 1)
        stretched[::p] = poly
        poly, rad = _divide_monic(stretched, poly), rad * p
    out = [0] * ((len(poly) - 1) * (n // rad) + 1)
    out[:: n // rad] = poly
    return out


@lru_cache(maxsize=16)
def reduction_matrix(order: int) -> np.ndarray:
    """R_Q, Q x phi(Q) integers (read-only): row r is zeta^r in the power
    basis, i.e. the coefficients of x^r mod Phi_Q.

    Built on first use for each Q, row by row from x^r = x * x^(r-1), and
    stored in the narrowest signed integer dtype that holds its entries.
    Guarded to Q * phi(Q) <= REDUCTION_CAP.
    """
    totient = order
    for p in _prime_factors(order):
        totient = totient // p * (p - 1)
    guard(f"reduction matrix of Q = {order}: Q phi(Q) =", order * totient, REDUCTION_CAP)
    cyc = cyclotomic_polynomial(order)
    deg = len(cyc) - 1
    low = np.array(cyc[:-1], dtype=np.int64)  # x^deg = -low(x) mod Phi_Q
    rows = np.zeros((order, deg), dtype=np.int64)
    rows[:deg] = np.eye(deg, dtype=np.int64)
    for r in range(deg, order):
        prev = rows[r - 1]
        rows[r, 1:] = prev[:-1]
        rows[r] -= prev[-1] * low
    out = rows.astype(np.min_scalar_type(-1 - int(np.abs(rows).max())))
    out.setflags(write=False)
    return out


def integer_form(values) -> tuple:
    """Rationals as (integer numerators in an exact_dtype array, one positive
    common denominator)."""
    values = list(values)
    den = lcm(*(c.denominator for c in values))
    nums = [c.numerator * (den // c.denominator) for c in values]
    return np.array(nums, dtype=exact_dtype(max(map(abs, nums), default=0))), den


def canonical_form(order: int, rs: np.ndarray, cs: np.ndarray, den: int, starts) -> tuple:
    """For the groups of terms beginning at ``starts``, each sum_rows cs / den
    zeta^rs (rs in 0..Q-1, cs integers): the indices of the nonzero groups and
    their coordinates in the power basis as Fractions, one row each, which are
    equal exactly when the values are."""
    if not len(cs):
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=object)
    rows = reduction_matrix(order)[rs]
    dtype = exact_dtype(int(np.abs(cs).max()) * int(np.abs(rows).max()) * len(cs))
    vec = np.add.reduceat(cs.astype(dtype)[:, None] * rows.astype(dtype), starts, axis=0)
    keep = np.flatnonzero((vec != 0).any(axis=1))
    return keep, vec[keep].astype(object) * Fraction(1, den)


class Cyclotomic:
    """Exact element of Q(zeta_Q), a value: a dict {r: Fraction} meaning
    sum c_r zeta^r, with r reduced mod Q and no zero c_r.  Products are formed
    in the term arrays of ``twisted_algebra``; a coefficient only adds.

    Equality is that of Q(zeta_Q): equal dicts are equal at once, and
    differing ones are compared through ``canonical_form``, so 1 == -zeta^(Q/2)
    and c == Cyclotomic.zero(Q) tests for zero.  That needs R_Q and raises
    SizeCapError for Q past the reduction cap.  The hash is that of Q alone,
    which equal values share and which needs no R_Q.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        order = as_index("cyclotomic order", order, 4)
        if order % 4:
            raise ValidationError("order must be divisible by 4 (so that i is a power of zeta)")
        out: dict = {}
        for r, c in terms.items():
            r = as_index("cyclotomic root index", r) % order
            try:
                c = Fraction(c)
            except (TypeError, ValueError, OverflowError) as e:
                raise ValidationError(f"cyclotomic coefficient {c!r} is not rational") from e
            out[r] = out[r] + c if r in out else c
        self.order, self.terms = order, {r: c for r, c in out.items() if c}

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls(order, {0: 1})

    @classmethod
    def from_gaussian(cls, order: int, re, im=0) -> "Cyclotomic":
        """re + i*im with rational re, im."""
        order = as_index("cyclotomic order", order, 4)
        return cls(order, {0: re, order // 4: im})

    @classmethod
    def root(cls, order: int, r: int, scale=1) -> "Cyclotomic":
        return cls(order, {r: scale})

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self.order != other.order:
            raise ValidationError("cyclotomic orders differ")
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out[r] + c if r in out else c
        return Cyclotomic(self.order, out)

    def _canonical(self) -> list:
        """The value's coordinates in the power basis ([] for zero)."""
        rs = np.fromiter(self.terms, dtype=np.int64, count=len(self.terms))
        return canonical_form(self.order, rs, *integer_form(self.terms.values()), [0])[1].tolist()

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and (
            self.terms == other.terms or self._canonical() == other._canonical()
        )

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        if not self.terms:
            return f"Cyclotomic({self.order}, 0)"
        body = " + ".join(f"({c})*z^{r}" for r, c in sorted(self.terms.items()))
        return f"Cyclotomic({self.order}, {body})"
