"""Exact phase bookkeeping.

Phases of the form exp(2*pi*i*c) are tracked through their exponents c taken
mod 1.  For rational deformation parameters the exponents are Fractions and
all identities can be checked with zero error; the float path reduces the
exponent into [0, 1) before exponentiating so large multi-indices do not
lose precision.

``Cyclotomic`` is an exact scalar sum_r c_r * zeta^r with zeta = exp(2*pi*i/Q)
and rational c_r.  It is the coefficient ring that keeps products of torus
monomials exact when the deformation is rational: structure phases rotate
exponents by integers, Gaussian-rational inputs embed via i = zeta^(Q/4).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

TWO_PI = 2.0 * 3.141592653589793


@dataclass(frozen=True)
class PhaseExponent:
    """A phase exp(2*pi*i*value); exact rational exponent kept when available."""

    value: float
    exact: Optional[Fraction] = None

    @classmethod
    def from_fraction(cls, f: Fraction) -> "PhaseExponent":
        f = f % 1
        return cls(float(f), f)

    @classmethod
    def from_float(cls, x: float) -> "PhaseExponent":
        return cls(x % 1.0, None)

    def phase(self) -> complex:
        e = float(self.exact) if self.exact is not None else self.value
        return cmath.exp(1j * TWO_PI * e)

    def circle_distance_to_zero(self) -> float:
        """Distance of the exponent to 0 on R/Z."""
        if self.exact is not None:
            f = self.exact % 1
            return float(min(f, 1 - f))
        v = self.value % 1.0
        return min(v, 1.0 - v)


class Cyclotomic:
    """Exact element of Q(zeta_Q): a dict {r: Fraction} meaning sum c_r zeta^r.

    Equality is dict equality after dropping zero terms.  That is the right
    notion here: the algebra identities under test produce matching phase
    rotations term by term, so equal values arrive in identical form.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict):
        if order % 4:
            raise ValueError("order must be divisible by 4 (so that i is a power of zeta)")
        self.order = order
        self.terms = {r % order: Fraction(c) for r, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls(order, {0: Fraction(1)})

    @classmethod
    def from_gaussian(cls, order: int, re, im=0) -> "Cyclotomic":
        """re + i*im with rational re, im."""
        return cls(order, {0: Fraction(re), order // 4: Fraction(im)})

    @classmethod
    def root(cls, order: int, r: int, scale=1) -> "Cyclotomic":
        return cls(order, {r: Fraction(scale)})

    def rotate(self, turns: Fraction) -> "Cyclotomic":
        """Multiply by exp(2*pi*i*turns); turns*order must be an integer."""
        shift = turns * self.order
        if shift.denominator != 1:
            raise ValueError(f"rotation by {turns} leaves the zeta_{self.order} lattice")
        s = int(shift)
        return Cyclotomic(self.order, {r + s: c for r, c in self.terms.items()})

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, Fraction(0)) + c
        return Cyclotomic(self.order, out)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, {r: -c for r, c in self.terms.items()})

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        out: dict = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                r = (r1 + r2) % self.order
                out[r] = out.get(r, Fraction(0)) + c1 * c2
        return Cyclotomic(self.order, out)

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.order, {-r: c for r, c in self.terms.items()})

    def scale(self, f) -> "Cyclotomic":
        f = Fraction(f)
        return Cyclotomic(self.order, {r: c * f for r, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_complex(self) -> complex:
        return sum(
            float(c) * cmath.exp(1j * TWO_PI * r / self.order)
            for r, c in self.terms.items()
        ) + 0j

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("cyclotomic orders differ")

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return f"Cyclotomic({self.order}, 0)"
        body = " + ".join(f"({c})*z^{r}" for r, c in sorted(self.terms.items()))
        return f"Cyclotomic({self.order}, {body})"
