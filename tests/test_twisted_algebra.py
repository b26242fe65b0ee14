"""Tests for the twisted polynomial algebra over Z^d."""
import cmath
import itertools
import math

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ncspaces.checks import random_exact_poly, random_rational_theta
from ncspaces.errors import SizeCapError, ThetaMismatchError, ValidationError
from ncspaces import phases
from ncspaces.phases import Cyclotomic
from ncspaces.skew import SkewMatrix
from ncspaces import twisted_algebra as ta
from ncspaces.twisted_algebra import (
    NCPolynomial,
    cocycle_validate,
    cond_expectation,
    gns_matrix,
    gns_vacuum_index,
    poly_adjoint,
    poly_mul,
    structure_phase,
    trace,
    transference,
)
from ncspaces.finite_reps import clock_shift

THETA_QUARTER = SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 4)})
THETA_THIRD = SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 3)})


def assert_close(a, b, tol):
    """Every coefficient of a - b, taken in floats, is at most tol in magnitude."""
    gap = (a.to_float() - b.to_float()).coeffs.values()
    assert max(map(abs, gap), default=0.0) <= tol


def random_poly(rng, theta, terms=5, max_exp=2):
    coeffs = {}
    for _ in range(terms):
        m = tuple(int(x) for x in rng.integers(-max_exp, max_exp + 1, size=theta.dim))
        coeffs[m] = coeffs.get(m, 0.0) + complex(rng.standard_normal(), rng.standard_normal())
    return NCPolynomial(theta, coeffs)


class TestStructurePhase:
    def test_no_cross_term(self):
        assert structure_phase((1, 0), (0, 1), THETA_QUARTER) == 0

    def test_quarter_phase_value(self):
        c = structure_phase((0, 1), (1, 0), THETA_QUARTER)
        assert c == Fraction(3, 4)  # -1/4 mod 1
        assert cmath.exp(2j * cmath.pi * c) == pytest.approx(-1j, abs=1e-15)

    def test_quarter_phase_against_clock_shift(self):
        # independent oracle: 4x4 clock/shift matrices at 1/4
        u, v = clock_shift(1, 4).matrices
        vu = v @ u
        uv = u @ v
        scalar = vu[np.abs(uv) > 0.5][0] / uv[np.abs(uv) > 0.5][0]
        c = structure_phase((0, 1), (1, 0), THETA_QUARTER)
        assert scalar == pytest.approx(cmath.exp(2j * cmath.pi * c), abs=1e-14)

    def test_zero_theta(self):
        theta = SkewMatrix.zero(3)
        assert structure_phase((2, -1, 3), (1, 4, -2), theta) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            structure_phase((1, 0, 0), (0, 1), THETA_QUARTER)


def definition(theta, m, m2):
    """c(m, m') = -sum_{j<k} theta_jk m_k m'_j from the Fraction entries."""
    d = theta.dim
    return -sum(theta.entry(j, k) * m[k] * m2[j] for j in range(d) for k in range(j + 1, d))


def reference(a, b):
    """The term-pair loop on term dicts {r: rational}, each phase from the
    Fraction definition: an oracle independent of the term arrays."""
    q, want = ta.phase_order(a.theta), {}
    for (m, ca), (m2, cb) in itertools.product(a.coeffs.items(), b.coeffs.items()):
        shift = int(definition(a.theta, m, m2) * q)
        out = want.setdefault(tuple(x + y for x, y in zip(m, m2)), {})
        for (r1, c1), (r2, c2) in itertools.product(ca.terms.items(), cb.terms.items()):
            r = (r1 + r2 + shift) % q
            out[r] = out.get(r, 0) + c1 * c2
    return NCPolynomial(a.theta, {n: Cyclotomic(q, t) for n, t in want.items()}, exact=True)


def reference_adjoint(a):
    """The adjoint term by term: c zeta^r u^m goes to c zeta^(Q c(m, m) - r) u^(-m)."""
    q, want = ta.phase_order(a.theta), {}
    for m, c in a.coeffs.items():
        shift = int(definition(a.theta, m, m) * q)
        want[tuple(-x for x in m)] = Cyclotomic(q, {shift - r: x for r, x in c.terms.items()})
    return NCPolynomial(a.theta, want, exact=True)


def assert_rows_increase(p):
    """The term rows (m, r) of p are strictly increasing."""
    rows = [(*m, r) for m, r in zip(p._ms.tolist(), p._rs.tolist())]
    assert all(x < y for x, y in zip(rows, rows[1:]))


class TestLargeExponents:
    # Q = lcm(4, 9, 5, 7) = 1260; exponents near 2^40 make the products
    # m_k m'_j near 2^80, which int64 arithmetic would wrap
    THETA = SkewMatrix.from_upper(3, [Fraction(4, 9), Fraction(-3, 5), Fraction(5, 7)])
    M = (2**40 + 3, -(2**40) + 7, 2**40 - 11)
    M2 = (-(2**40) - 5, 2**40 + 13, -(2**40) + 1)

    def definition(self, m, m2):
        return definition(self.THETA, m, m2)

    def test_phase_order(self):
        assert ta.phase_order(self.THETA) == 1260

    def test_structure_exponent_matches_fraction_definition(self):
        for m, m2 in ((self.M, self.M2), (self.M2, self.M), (self.M, self.M)):
            assert ta.structure_exponent(m, m2, self.THETA) == self.definition(m, m2)
            assert structure_phase(m, m2, self.THETA) == self.definition(m, m2) % 1

    def test_exact_monomial_product_matches_fraction_definition(self):
        a = NCPolynomial.exact_monomial(self.THETA, self.M)
        b = NCPolynomial.exact_monomial(self.THETA, self.M2)
        shift = self.definition(self.M, self.M2) * 1260
        assert shift.denominator == 1
        n = tuple(x + y for x, y in zip(self.M, self.M2))
        assert poly_mul(a, b).coeffs == {n: Cyclotomic.root(1260, int(shift))}

    def reference(self, a, b):
        return reference(a, b)

    def rand_exact(self, rng, terms=6):
        coeffs = {}
        for _ in range(terms):
            m = tuple(int(x) + 2**40 * int(s) for x, s in
                      zip(rng.integers(-2, 3, size=3), rng.integers(-1, 2, size=3)))
            c = Cyclotomic.root(1260, int(rng.integers(0, 1260)), int(rng.integers(1, 4)))
            coeffs[m] = coeffs[m] + c if m in coeffs else c
        return NCPolynomial(self.THETA, coeffs)

    def test_exact_product_matches_pairwise_definition(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            a, b = self.rand_exact(rng), self.rand_exact(rng)
            assert poly_mul(a, b) == self.reference(a, b)

    def test_fractional_coefficients(self):
        # a common denominator above 1 on both operands and on the product
        rng = np.random.default_rng(16)
        half_plus_i = Cyclotomic.from_gaussian(1260, Fraction(1, 2), 1)
        for _ in range(5):
            a = self.rand_exact(rng).scale(Fraction(1, 3))
            b = self.rand_exact(rng) + NCPolynomial(self.THETA, {self.M2: half_plus_i})
            prod = poly_mul(a, b)
            assert prod == self.reference(a, b)
            assert max(c.denominator for cy in prod.coeffs.values() for c in cy.terms.values()) > 1
            assert poly_adjoint(poly_adjoint(prod)) == prod

    def test_products_on_both_sides_of_the_int64_bound(self):
        # Q c is computed in int64 while weight * max|m| * max|m'| + 2Q < 2^62
        # (weight = sum |Q theta_jk| = 2216) and with Python ints past it
        below = math.isqrt((2**62 - 2 * 1260 - 1) // 2216)
        for edge, dtype in ((below, np.int64), (below + 1, object)):
            a = NCPolynomial(self.THETA, {
                (edge, -edge, edge - 1): Cyclotomic.root(1260, 5, 2),
                (edge - 3, edge, -edge): Cyclotomic.root(1260, 700, -1),
            })
            b = NCPolynomial(self.THETA, {
                (-edge, edge - 2, edge): Cyclotomic.root(1260, 1, 3),
                (edge, edge, -edge + 5): Cyclotomic.root(1260, 1259, 1),
            })
            prod = poly_mul(a, b)
            assert prod._cs.dtype == dtype and prod._rs.dtype == np.int64
            assert prod == self.reference(a, b)
            # differing forms go through the power basis, whatever the dtype
            assert prod != prod.scale(2) and prod == prod.scale(2).scale(Fraction(1, 2))
            assert len({prod, prod.scale(1), poly_adjoint(poly_adjoint(prod))}) == 1
            adj = {}  # the adjoint oracle: c zeta^r u^m goes to c zeta^(shift - r) u^(-m)
            for m, c in a.coeffs.items():
                terms = {int(self.definition(m, m) * 1260) - r: x for r, x in c.terms.items()}
                adj[tuple(-x for x in m)] = Cyclotomic(1260, terms)
            assert poly_adjoint(a) == NCPolynomial(self.THETA, adj)

    def test_cancelling_terms(self):
        rng = np.random.default_rng(17)
        m1, m2, m3 = self.M, self.M2, tuple(x + 1 for x in self.M2)
        m4 = tuple(x + y - z for x, y, z in zip(m2, m3, m1))  # m1 + m4 = m2 + m3
        t = int((self.definition(m2, m3) - self.definition(m1, m4)) * 1260)
        a = NCPolynomial(self.THETA, {m1: Cyclotomic.one(1260), m2: Cyclotomic.one(1260)})
        b = NCPolynomial(self.THETA, {m3: Cyclotomic.one(1260), m4: Cyclotomic.root(1260, t, -1)})
        prod = poly_mul(a, b)
        assert prod == self.reference(a, b)
        assert set(prod.coeffs) == {
            tuple(x + y for x, y in zip(m1, m3)), tuple(x + y for x, y in zip(m2, m4))
        }
        # (1 - zeta) (1 + zeta + ... + zeta^(Q-1)) = 1 - zeta^Q: every term cancels
        a = NCPolynomial(self.THETA, {self.M: Cyclotomic(1260, {0: 1, 1: -1})})
        b = NCPolynomial(self.THETA, {self.M2: Cyclotomic(1260, dict.fromkeys(range(1260), 1))})
        prod = poly_mul(a, b)
        assert not prod.coeffs and not self.reference(a, b).coeffs
        assert prod == NCPolynomial(self.THETA, {}, exact=True)
        c = self.rand_exact(rng)
        assert not (c - c).coeffs and not poly_mul(c, c.scale(0)).coeffs

    def test_view_round_trip(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            a, b = self.rand_exact(rng).scale(Fraction(2, 7)), self.rand_exact(rng)
            for p in (a, poly_mul(a, b), poly_adjoint(poly_mul(b, a))):
                again = NCPolynomial(self.THETA, p.coeffs, exact=True)
                assert again == p and again.coeffs == p.coeffs


class TestPackedKeys:
    """Products and adjoints on packed keys, from the carried bounds."""

    @staticmethod
    def draws(rng, d, count):
        """Pairs of random exact polynomials at d, exponents in -2..2 or
        -40..40, some with a common denominator above 1."""
        theta = random_rational_theta(rng, d)
        for k in range(count):
            a, b = random_exact_poly(rng, theta), random_exact_poly(rng, theta)
            if k % 3 == 1:
                a = a + NCPolynomial.exact_monomial(theta, rng.integers(-40, 41, size=d), 2, -1)
            if k % 3 == 2:
                b = b.scale(Fraction(3, 4))
            yield a, b

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_products_and_adjoints_match_the_oracles(self, d):
        rng = np.random.default_rng(40 + d)
        for a, b in self.draws(rng, d, 25):
            ab = poly_mul(a, b)
            for got, want in ((ab, reference(a, b)), (poly_adjoint(a), reference_adjoint(a)),
                              (poly_adjoint(ab), reference_adjoint(ab))):
                assert got == want and got.coeffs == want.coeffs
                assert_rows_increase(got)

    def test_carried_bounds_cover_the_terms(self, monkeypatch):
        rng = np.random.default_rng(45)
        pairs = [pair for d in (1, 2, 3, 4) for pair in self.draws(rng, d, 6)]
        # derived bounds: no result of the chain scans its arrays
        monkeypatch.setattr(ta, "_max_abs", None)
        for a, b in pairs:
            steps = (poly_adjoint, lambda p: p + a, lambda p: p.scale(Fraction(-2, 3)),
                     lambda p: poly_mul(p, b), lambda p: cond_expectation(p, 0),
                     lambda p: poly_mul(b, p) - a)
            p = poly_mul(a, b)
            chain = [p, a + a, a.scale(-4)]
            for step in steps:
                p = step(p)
                chain.append(p)
            for p in chain:
                assert_rows_increase(p)
                assert p._mbound >= int(np.abs(p._ms).max(initial=0))
                assert p._cbound >= int(np.abs(p._cs).max(initial=0))

    def test_key_past_int64_beside_int64_numerators(self):
        # d = 3, Q = 1260, exponents near 10^6: Q c stays near 2216 * 10^12, in
        # int64, while Q (2 deg + 1)^3 is near 10^23, so the keys are Python ints
        theta, e = TestLargeExponents.THETA, 10**6
        rng = np.random.default_rng(46)
        for _ in range(5):
            a, b = (NCPolynomial(theta, {
                tuple(int(x) for x in e * rng.integers(-1, 2, size=3) + rng.integers(-2, 3, size=3)):
                Cyclotomic.root(1260, int(rng.integers(0, 1260)), int(rng.integers(1, 4)))
                for _ in range(6)}) for _ in range(2))
            ab = poly_mul(a, b)
            assert ta._strides(1260, a._mbound + b._mbound, 3).dtype == object
            assert ab._cs.dtype == np.int64 and ab._ms.dtype == np.int64
            assert ab == reference(a, b) and ab.coeffs == reference(a, b).coeffs
            assert poly_adjoint(ab) == reference_adjoint(ab)
            for p in (ab, poly_adjoint(ab)):
                assert_rows_increase(p)


class TestCanonicalEquality:
    def test_cyclotomic_zero(self):
        assert Cyclotomic(4, {0: 1, 2: 1}) == Cyclotomic.zero(4)
        assert Cyclotomic(4, {0: 1, 2: 2}) != Cyclotomic.zero(4)

    def test_cyclotomic_equal_forms(self):
        one, minus_zeta6 = Cyclotomic(12, {0: 1}), Cyclotomic(12, {6: -1})
        assert one == minus_zeta6 and hash(one) == hash(minus_zeta6)
        assert one != Cyclotomic(12, {6: 1})
        # zeta^4 + zeta^8 = -1 at Q = 12 (the primitive cube roots of unity)
        assert Cyclotomic(12, {4: 1, 8: 1}) == Cyclotomic(12, {0: -1})
        assert Cyclotomic(12, {0: Fraction(1, 2), 6: Fraction(-1, 2)}) == one
        # roots equal mod Q name one root, whose coefficients add
        assert Cyclotomic(12, {1: 1, 13: 1, -11: 1}).terms == {1: 3}

    def test_polynomial_equal_forms(self):
        # THETA_THIRD has Q = 12, THETA_QUARTER Q = 4
        a = NCPolynomial(THETA_THIRD, {(1, 2): Cyclotomic(12, {0: 1})})
        b = NCPolynomial(THETA_THIRD, {(1, 2): Cyclotomic(12, {6: -1})})
        assert a == b and hash(a) == hash(b)
        assert a != NCPolynomial(THETA_THIRD, {(1, 2): Cyclotomic(12, {6: 1})})
        assert a != NCPolynomial(THETA_THIRD, {(2, 1): Cyclotomic(12, {6: -1})})
        half = NCPolynomial(THETA_THIRD, {(1, 2): Cyclotomic(12, {0: Fraction(1, 2), 6: Fraction(-1, 2)})})
        assert half == a
        zero = NCPolynomial(THETA_QUARTER, {(1, 0): Cyclotomic(4, {0: 1, 2: 1})}, exact=True)
        empty = NCPolynomial(THETA_QUARTER, {}, exact=True)
        assert zero == empty and empty == zero and hash(zero) == hash(empty)

    @pytest.mark.parametrize("theta", [THETA_THIRD, TestLargeExponents.THETA],
                             ids=["Q12", "Q1260"])
    def test_coefficient_and_polynomial_equality_agree(self, theta):
        # each term c zeta^r of the value is written as -c zeta^(r + Q/2) or as
        # -c zeta^(r + Q/3) - c zeta^(r + 2Q/3); every other form gets one more term
        q = ta.phase_order(theta)
        rng = np.random.default_rng(q)
        for changed in [False, True] * 20:
            value, form = Cyclotomic.zero(q), Cyclotomic(q, {int(rng.integers(0, q)): int(changed)})
            for n, den in rng.integers(1, 4, size=(3, 2)).tolist():
                r, c = int(rng.integers(0, q)), Fraction(n, den)
                shifts = (q // 2,) if rng.random() < 0.5 else (q // 3, 2 * q // 3)
                value += Cyclotomic.root(q, r, c)
                form += Cyclotomic(q, {r + k: -c for k in shifts})
            pa, pb = (NCPolynomial(theta, {(1,) * theta.dim: c}, exact=True) for c in (value, form))
            assert value.terms != form.terms
            assert (value == form) == (pa == pb) == (not changed)

    def test_reduction_is_guarded(self):
        # Q = 4 * 97 * 89 = 34532: Q * phi(Q) is over the cap, so equal forms
        # still compare, and differing ones raise instead of building R_Q
        theta = SkewMatrix.from_upper(3, [Fraction(1, 97), Fraction(1, 89), Fraction(0)])
        q = ta.phase_order(theta)
        with pytest.raises(SizeCapError):
            phases.reduction_matrix(q)
        a = NCPolynomial(theta, {(1, 0, 0): Cyclotomic(q, {0: 1})})
        assert poly_mul(a, poly_adjoint(a)) == NCPolynomial.one(theta, exact=True)
        with pytest.raises(SizeCapError):
            a == NCPolynomial(theta, {(1, 0, 0): Cyclotomic(q, {q // 2: -1})})
        # hashing needs no R_Q, so equal forms work as keys; comparing a
        # nonempty form with zero needs R_Q
        assert {a: 1}[NCPolynomial(theta, dict(a.coeffs))] == 1
        assert {Cyclotomic(q, {1: 2}): 1}[Cyclotomic(q, {1: 2})] == 1
        assert Cyclotomic.zero(q) == Cyclotomic.zero(q)
        with pytest.raises(SizeCapError):
            Cyclotomic(q, {0: 1}) == Cyclotomic.zero(q)

    def test_reduction_matrix_rows_are_powers_of_zeta(self):
        assert phases.cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
        assert -2 in phases.cyclotomic_polynomial(105)
        for q in (4, 12, 60, 420):
            basis = phases.reduction_matrix(q)
            zeta = np.exp(2j * np.pi / q)
            assert basis.shape == (q, len(phases.cyclotomic_polynomial(q)) - 1)
            values = basis @ zeta ** np.arange(basis.shape[1])
            assert np.abs(values - zeta ** np.arange(q)).max() < 1e-9


class TestPolyMul:
    def test_uv_coefficient(self):
        u = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        v = NCPolynomial.monomial(THETA_QUARTER, (0, 1))
        prod = poly_mul(u, v)
        assert set(prod.coeffs) == {(1, 1)}
        assert prod.coeffs[(1, 1)] == pytest.approx(1.0)

    def test_vu_coefficient(self):
        u = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        v = NCPolynomial.monomial(THETA_QUARTER, (0, 1))
        prod = poly_mul(v, u)
        assert prod.coeffs[(1, 1)] == pytest.approx(np.exp(-0.5j * np.pi), abs=1e-15)

    def test_gns_oracle_for_products(self):
        # multiply in the truncated l2(Z^2) picture and read the coefficient back
        u = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        v = NCPolynomial.monomial(THETA_QUARTER, (0, 1))
        radius = 3
        g = gns_matrix(u, radius) @ gns_matrix(v, radius)
        vac = gns_vacuum_index(radius, 2)
        target = gns_vacuum_index(radius, 2) + (2 * radius + 1) + 1  # |(1,1)>
        assert g[target, vac] == pytest.approx(poly_mul(u, v).coeffs[(1, 1)], abs=1e-14)
        g2 = gns_matrix(v, radius) @ gns_matrix(u, radius)
        assert g2[target, vac] == pytest.approx(poly_mul(v, u).coeffs[(1, 1)], abs=1e-14)

    def test_unit_element(self):
        rng = np.random.default_rng(0)
        theta = random_rational_theta(rng, 3)
        b = random_poly(rng, theta)
        one = NCPolynomial.one(theta)
        assert_close(poly_mul(one, b), b, 1e-14)
        assert_close(poly_mul(b, one), b, 1e-14)

    def test_theta_mismatch_rejected(self):
        u = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        w = NCPolynomial.monomial(THETA_THIRD, (1, 0))
        with pytest.raises(ThetaMismatchError):
            poly_mul(u, w)

    def test_commutation_phase_identity(self):
        # u_j u_k = exp(2 pi i theta_jk) u_k u_j as single-term polynomials
        rng = np.random.default_rng(1)
        theta = random_rational_theta(rng, 4)
        for j in range(4):
            for k in range(4):
                if j == k:
                    continue
                ej = tuple(int(a == j) for a in range(4))
                ek = tuple(int(a == k) for a in range(4))
                lhs = poly_mul(
                    NCPolynomial.monomial(theta, ej), NCPolynomial.monomial(theta, ek)
                )
                rhs = poly_mul(
                    NCPolynomial.monomial(theta, ek), NCPolynomial.monomial(theta, ej)
                )
                phase = np.exp(2j * np.pi * float(theta.entry(j, k)))
                assert lhs.coeffs[tuple(a + b for a, b in zip(ej, ek))] == pytest.approx(
                    phase * rhs.coeffs[tuple(a + b for a, b in zip(ej, ek))], abs=1e-14
                )


class TestExactArithmetic:
    def test_exact_associativity_dict_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            theta = random_rational_theta(rng, d)
            a, b, c = (random_exact_poly(rng, theta) for _ in range(3))
            assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))

    def test_float_associativity_irrational(self):
        rng = np.random.default_rng(3)
        theta = SkewMatrix.from_upper(3, [np.sqrt(2) / 10, np.pi / 7, 0.31])
        for _ in range(20):
            a, b, c = (random_poly(rng, theta, terms=6) for _ in range(3))
            assert_close(poly_mul(poly_mul(a, b), c), poly_mul(a, poly_mul(b, c)), 1e-12)

    def test_exact_monomial_unitarity(self):
        a = NCPolynomial.exact_monomial(THETA_THIRD, (1, 1))
        prod = poly_mul(a, poly_adjoint(a))
        assert prod == NCPolynomial.one(THETA_THIRD, exact=True)


class TestAdjoint:
    def test_monomial_adjoint(self):
        a = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        b = poly_adjoint(a)
        assert set(b.coeffs) == {(-1, 0)}
        assert b.coeffs[(-1, 0)] == pytest.approx(1.0)

    def test_scalar_conjugation(self):
        a = NCPolynomial.monomial(THETA_QUARTER, (0, 0), 2 + 1j)
        assert poly_adjoint(a).coeffs[(0, 0)] == pytest.approx(2 - 1j)

    def test_unitarity_of_monomials(self):
        a = NCPolynomial.monomial(THETA_THIRD, (1, 1))
        assert_close(poly_mul(a, poly_adjoint(a)), NCPolynomial.one(THETA_THIRD), 1e-14)

    def test_involution_is_involutive(self):
        rng = np.random.default_rng(4)
        theta = random_rational_theta(rng, 3)
        a = random_poly(rng, theta)
        assert_close(poly_adjoint(poly_adjoint(a)), a, 1e-14)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(5)
        theta = random_rational_theta(rng, 2)
        a, b = random_poly(rng, theta), random_poly(rng, theta)
        assert_close(poly_adjoint(poly_mul(a, b)), poly_mul(poly_adjoint(b), poly_adjoint(a)),
                     1e-12)

    def test_positivity_of_trace(self):
        rng = np.random.default_rng(6)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta)
        val = trace(poly_mul(poly_adjoint(a), a))
        expected = sum(abs(c) ** 2 for c in a.coeffs.values())
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(expected, rel=1e-12)


class TestTrace:
    def test_unit(self):
        assert trace(NCPolynomial.one(THETA_QUARTER)) == pytest.approx(1.0)

    def test_offdiagonal_vanishes(self):
        assert trace(NCPolynomial.monomial(THETA_QUARTER, (2, -1))) == 0

    def test_linearity(self):
        a = NCPolynomial(THETA_QUARTER, {(0, 0): 3.0, (1, 0): 5.0})
        assert trace(a) == pytest.approx(3.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_commutation(self, seed):
        rng = np.random.default_rng(seed)
        theta = random_rational_theta(rng, int(rng.integers(1, 4)))
        a, b = random_poly(rng, theta, 4), random_poly(rng, theta, 4)
        assert trace(poly_mul(a, b)) == pytest.approx(trace(poly_mul(b, a)), abs=1e-12)


class TestConditionalExpectation:
    def test_kills_moving_axis(self):
        a = NCPolynomial(THETA_QUARTER, {(1, 0): 1.0, (0, 1): 1.0})
        out = cond_expectation(a, 0)
        assert set(out.coeffs) == {(0, 1)}

    def test_full_chain_is_trace(self):
        rng = np.random.default_rng(7)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta)
        out = cond_expectation(cond_expectation(a, 0), 1)
        expected = trace(a)
        if abs(expected) < 1e-15:
            assert not out.coeffs
        else:
            assert set(out.coeffs) == {(0, 0)}
            assert out.coeffs[(0, 0)] == pytest.approx(expected)

    def test_idempotent_and_commuting(self):
        rng = np.random.default_rng(8)
        theta = random_rational_theta(rng, 3)
        a = random_poly(rng, theta, 7)
        p1 = cond_expectation(a, 1)
        assert cond_expectation(p1, 1) == p1
        assert cond_expectation(cond_expectation(a, 0), 2) == cond_expectation(
            cond_expectation(a, 2), 0
        )

    def test_coefficientwise_contraction(self):
        rng = np.random.default_rng(9)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta, 6)
        out = cond_expectation(a, 0)
        for m, c in out.coeffs.items():
            assert abs(c) <= abs(a.coeffs[m]) + 1e-15

    def test_axis_out_of_range(self):
        a = NCPolynomial.one(THETA_QUARTER)
        with pytest.raises(ValidationError):
            cond_expectation(a, 2)
        with pytest.raises(ValidationError):
            cond_expectation(a, -1)


class TestTransference:
    def test_identity(self):
        rng = np.random.default_rng(10)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta)
        assert_close(transference(a, [1.0, 1.0]), a, 1e-15)

    def test_single_factor(self):
        a = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        out = transference(a, [1j, 1.0])
        assert out.coeffs[(1, 0)] == pytest.approx(1j)

    def test_multiplicative(self):
        rng = np.random.default_rng(11)
        a = random_poly(rng, THETA_THIRD, 5)
        b = random_poly(rng, THETA_THIRD, 5)
        angles = rng.uniform(0, 2 * np.pi, size=2)
        z = [np.exp(1j * t) for t in angles]
        assert_close(transference(poly_mul(a, b), z),
                     poly_mul(transference(a, z), transference(b, z)), 1e-12)

    def test_exact_turns(self):
        a = NCPolynomial.exact_monomial(THETA_THIRD, (1, 2))
        out = transference(a, [Fraction(1, 4), Fraction(1, 3)])
        # z^m rotates by 1/4 + 2/3 = 11/12
        assert out.coeffs[(1, 2)] == Cyclotomic.root(12, 11)  # Q = 12

    def test_rejects_non_unimodular(self):
        a = NCPolynomial.one(THETA_QUARTER)
        with pytest.raises(ValidationError):
            transference(a, [0.5, 1.0])

    def test_exact_turns_off_the_lattice_rejected(self):
        # 1/5 of a turn is no power of the order-12 root the coefficients live on
        a = NCPolynomial.exact_monomial(THETA_THIRD, (1, 2))
        with pytest.raises(ValidationError, match="rotation by 1/5 turns leaves the zeta_12 lattice"):
            transference(a, [Fraction(1, 5), Fraction(0)])

    def test_exact_turns_on_a_float_polynomial(self):
        # turns t act on float coefficients as the unimodular z = exp(2 pi i t)
        a = random_poly(np.random.default_rng(12), THETA_THIRD, 6)
        turns = [Fraction(1, 4), Fraction(-2, 3)]
        out = transference(a, turns)
        assert not out.exact
        assert_close(out, transference(a, [cmath.exp(2j * math.pi * t) for t in turns]), 1e-14)


class TestGnsMatrix:
    def test_identity_polynomial(self):
        g = gns_matrix(NCPolynomial.one(THETA_QUARTER), 2)
        assert g.shape == (25, 25)
        assert np.abs(g - np.eye(25)).max() == 0

    def test_generator_entries_match_phase_formula(self):
        # action on |m'>: phase exp(-2 pi i theta_01 m_1 m'_0) for m = (1, 0): no phase
        g = gns_matrix(NCPolynomial.monomial(THETA_QUARTER, (1, 0)), 2)
        side = 5
        for m0 in range(-2, 2):  # target must stay in the box
            for m1 in range(-2, 3):
                col = (m0 + 2) * side + (m1 + 2)
                row = (m0 + 3) * side + (m1 + 2)
                assert g[row, col] == pytest.approx(1.0)
        # and u_2 = u^{(0,1)} picks up exp(-2 pi i theta m'_0)
        g2 = gns_matrix(NCPolynomial.monomial(THETA_QUARTER, (0, 1)), 2)
        for m0 in range(-2, 3):
            for m1 in range(-2, 2):
                col = (m0 + 2) * side + (m1 + 2)
                row = (m0 + 2) * side + (m1 + 3)
                assert g2[row, col] == pytest.approx(
                    np.exp(-2j * np.pi * 0.25 * m0), abs=1e-14
                )

    def test_interior_block_multiplicativity(self):
        rng = np.random.default_rng(12)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta, 3, max_exp=1)
        b = random_poly(rng, theta, 3, max_exp=1)
        radius = 4
        ga, gb = gns_matrix(a, radius), gns_matrix(b, radius)
        gab = gns_matrix(poly_mul(a, b), radius)
        # vectors supported in radius - deg(a) - deg(b) see the exact action
        inner = radius - a.degree() - b.degree()
        side = 2 * radius + 1
        vec = np.zeros(side * side, dtype=complex)
        for m0 in range(-inner, inner + 1):
            for m1 in range(-inner, inner + 1):
                vec[(m0 + radius) * side + (m1 + radius)] = rng.standard_normal()
        assert np.abs(gab @ vec - ga @ (gb @ vec)).max() < 1e-13

    def test_trace_as_vacuum_expectation(self):
        rng = np.random.default_rng(13)
        theta = random_rational_theta(rng, 2)
        a = random_poly(rng, theta, 5)
        radius = a.degree()
        g = gns_matrix(a, radius)
        vac = gns_vacuum_index(radius, 2)
        assert g[vac, vac] == pytest.approx(trace(a), abs=1e-14)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            gns_matrix(NCPolynomial.one(THETA_QUARTER), -1)

    def test_size_guard(self):
        # (2 * 32 + 1)^2 = 4225 basis vectors, over DENSE_CAP = 4096: raised before
        # the 4225 x 4225 matrix is allocated
        with pytest.raises(SizeCapError):
            gns_matrix(NCPolynomial.one(THETA_QUARTER), 32)

    @staticmethod
    def oracle(p, radius):
        """<m + m'| p |m'> = alpha_m exp(2 pi i c(m, m')), term by term and
        entry by entry, with c from structure_phase."""
        d = p.dim
        box = list(itertools.product(range(-radius, radius + 1), repeat=d))
        index = {m: k for k, m in enumerate(box)}
        out = np.zeros((len(box), len(box)), dtype=complex)
        for m, alpha in p.coeffs.items():
            if isinstance(alpha, Cyclotomic):
                alpha = sum(float(c) * cmath.exp(2j * cmath.pi * r / alpha.order)
                            for r, c in alpha.terms.items())
            for col, m2 in enumerate(box):
                row = index.get(tuple(x + y for x, y in zip(m, m2)))
                if row is not None:
                    c = float(structure_phase(m, m2, p.theta))
                    out[row, col] += alpha * cmath.exp(2j * cmath.pi * c)
        return out

    def test_every_entry_matches_the_action(self):
        # multi-term float and exact polynomials whose exponents reach past the
        # box, so that images leave it
        rng = np.random.default_rng(19)
        for d in (1, 2, 3):
            rational = random_rational_theta(rng, d)
            q = ta.phase_order(rational)
            for radius in (1, 2):
                polys = [random_poly(rng, SkewMatrix.random(d, rng), 6, max_exp=3),
                         random_poly(rng, rational, 6, max_exp=3)]
                exact = {}
                for m in polys[1].coeffs:
                    exact[m] = Cyclotomic(q, {int(rng.integers(0, q)): int(rng.integers(1, 4)),
                                              int(rng.integers(0, q)): Fraction(1, 2)})
                polys.append(NCPolynomial(rational, exact))
                for p in polys:
                    g = gns_matrix(p, radius)
                    assert np.abs(g - self.oracle(p, radius)).max() < 1e-13

    def test_every_entry_matches_the_action_at_the_benchmark_shape(self):
        # d = 4 at radius 1, and d = 3 at radius 4 (9^3 = 729 basis vectors)
        # on float and exact products of two 8-term polynomials, about 50
        # terms each: the sizes of the benchmark's float items
        rng = np.random.default_rng(29)

        def exact_poly(theta, terms):
            q = ta.phase_order(theta)
            box = list(itertools.product(range(-2, 3), repeat=theta.dim))
            picks = rng.choice(len(box), size=terms, replace=False)
            return NCPolynomial(theta, {box[k]: Cyclotomic.root(q, int(rng.integers(0, q)),
                                                                Fraction(int(rng.integers(1, 4))))
                                        for k in picks})

        for d, radius in ((4, 1), (3, 4)):
            rational, irrational = random_rational_theta(rng, d), SkewMatrix.random(d, rng)
            polys = [poly_mul(random_poly(rng, irrational, 8), random_poly(rng, irrational, 8)),
                     poly_mul(exact_poly(rational, 8), exact_poly(rational, 8))]
            for p in polys:
                assert len(p.coeffs) >= 30
                g = gns_matrix(p, radius)
                assert g.shape == ((2 * radius + 1) ** d,) * 2
                assert np.abs(g - self.oracle(p, radius)).max() < 1e-13

    def test_float_exponent_guard(self):
        # sum |theta_jk| max|m| radius = 3000.5 * 62 * 31 = 5,766,961 > 2^22:
        # float phases there would have lost their digits
        theta = SkewMatrix.rotation(3000.5)
        with pytest.raises(SizeCapError, match="5766961"):
            gns_matrix(NCPolynomial.monomial(theta, (62, 0)), 31)
        # 3000.5 * 30 * 31 = 2,790,465 is below it; u^(30, 0) has c = 0, so a 1
        # in each of the 33 * 63 columns whose image stays in the box
        g = gns_matrix(NCPolynomial.monomial(theta, (30, 0)), 31)
        assert np.count_nonzero(g) == 33 * 63 and (g[g != 0] == 1).all()

    def test_vacuum_index_rejects_bad_arguments(self):
        assert gns_vacuum_index(2, 2) == 12
        for radius, dim in ((-1, 2), (2, -1), (2, 0), (1.0, 2)):
            with pytest.raises(ValidationError):
                gns_vacuum_index(radius, dim)

    def test_clock_shift_relation_on_interior(self):
        # commutator of the GNS generators reproduces the clock/shift phase
        g1 = gns_matrix(NCPolynomial.monomial(THETA_QUARTER, (1, 0)), 3)
        g2 = gns_matrix(NCPolynomial.monomial(THETA_QUARTER, (0, 1)), 3)
        side = 7
        vec = np.zeros(side * side, dtype=complex)
        for m0 in range(-1, 2):
            for m1 in range(-1, 2):
                vec[(m0 + 3) * side + (m1 + 3)] = 1.0 + m0 - 0.5 * m1
        sigma = np.exp(2j * np.pi * 0.25)
        assert np.abs(g1 @ (g2 @ vec) - sigma * (g2 @ (g1 @ vec))).max() < 1e-13


class TestCocycle:
    def test_zero_theta(self):
        rep = cocycle_validate(SkewMatrix.zero(2), [((1, 2), (3, -1), (0, 4))])
        assert rep.max_associativity_defect == 0
        assert rep.max_normalization_defect == 0

    def test_exhaustive_small_box_rational(self):
        theta = THETA_THIRD
        rng_range = range(-2, 3)
        triples = [
            ((a, b), (c, d), (e, f))
            for a in rng_range for b in rng_range
            for c in rng_range for d in rng_range
            for e in rng_range for f in rng_range
        ]
        rep = cocycle_validate(theta, triples[:: 7])  # decimated but wide coverage
        assert rep.exact
        assert rep.max_associativity_defect == 0
        assert rep.max_normalization_defect == 0

    def test_irrational_defect_small(self):
        theta = SkewMatrix.from_upper(2, [np.sqrt(2) / 10])
        rng = np.random.default_rng(14)
        triples = [tuple(map(tuple, rng.integers(-50, 51, size=(3, 2)))) for _ in range(1000)]
        rep = cocycle_validate(theta, triples)
        assert rep.max_associativity_defect <= 1e-12

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            cocycle_validate(THETA_THIRD, [])


class TestFloatPhaseGuard:
    THETA = SkewMatrix.from_upper(2, [math.sqrt(2) / 10])

    def test_lost_phase_rejected(self):
        big = 2**40
        with pytest.raises(ValidationError):
            structure_phase((big + 3, big - 5), (big + 7, -big + 1), self.THETA)
        a = NCPolynomial.monomial(self.THETA, (0, 4096))
        with pytest.raises(ValidationError):
            poly_mul(a, NCPolynomial.monomial(self.THETA, (7241, 0)))

    def test_product_below_cap_matches_exact_phase(self):
        # sqrt(2)/10 * 4096 * 7240 is just below 2^22 turns
        m, m2 = (0, 4096), (7240, 0)
        exact = -Fraction(self.THETA.entry(0, 1)) * m[1] * m2[0] % 1
        prod = poly_mul(NCPolynomial.monomial(self.THETA, m), NCPolynomial.monomial(self.THETA, m2))
        assert abs(structure_phase(m, m2, self.THETA) - float(exact)) <= 2.0**-30
        expected = cmath.exp(2j * math.pi * float(exact))
        assert abs(prod.coefficient((7240, 4096)) - expected) <= 2 * math.pi * 2.0**-30

    @pytest.mark.parametrize("operation", [
        pytest.param(poly_adjoint, id="adjoint"),
        pytest.param(lambda a: poly_mul(a, a), id="square"),
        # max|m'| = 0 makes the bound 0: the exponent itself is past the float range
        pytest.param(lambda a: poly_mul(a, NCPolynomial.monomial(a.theta, (0, 0))), id="times-one"),
    ])
    def test_exponent_past_float_range_rejected(self, operation):
        # each ended in OverflowError: int too large to convert to float
        a = NCPolynomial.monomial(SkewMatrix.from_upper(2, [0.5]), (10**400, 0))
        with pytest.raises(ValidationError, match="float structure exponent"):
            operation(a)


class TestNormalization:
    def test_zero_coefficients_dropped(self):
        a = NCPolynomial(THETA_QUARTER, {(1, 0): 1e-16, (0, 1): 1.0})
        assert set(a.coeffs) == {(0, 1)}

    def test_cancellation_normalizes(self):
        a = NCPolynomial.monomial(THETA_QUARTER, (1, 0))
        assert not (a - a).coeffs

    def test_wrong_dimension_key_rejected(self):
        with pytest.raises(ValidationError):
            NCPolynomial(THETA_QUARTER, {(1, 0, 0): 1.0})

    def test_coefficient_rejects_wrong_length(self):
        for p in (NCPolynomial.monomial(THETA_QUARTER, (1, 1), 5.0),
                  NCPolynomial.exact_monomial(THETA_QUARTER, (1, 1), 5)):
            for m in ((1,), (1, 1, 0)):
                with pytest.raises(ValidationError):
                    p.coefficient(m)

    def test_float_view_round_trip(self):
        rng = np.random.default_rng(20)
        for theta in (THETA_THIRD, SkewMatrix.from_upper(3, [np.sqrt(2) / 10, np.pi / 7, 0.31])):
            a, b = random_poly(rng, theta, 6), random_poly(rng, theta, 6)
            for p in (a, poly_mul(a, b), poly_adjoint(poly_mul(b, a))):
                again = NCPolynomial(theta, p.coeffs)
                assert again == p and again.coeffs == p.coeffs

    def test_float_product_cancellation_dropped(self):
        # at (1, 0) the product sums 1 * 1 and 1 * (-1 + 4e-16): a nonzero sum
        # below COEFF_DROP_TOL, which is dropped like an exact zero
        near = -1 + 4e-16
        assert 0 < 1 + near < ta.COEFF_DROP_TOL
        a = NCPolynomial(THETA_QUARTER, {(0, 0): 1.0, (1, 0): 1.0})
        b = NCPolynomial(THETA_QUARTER, {(1, 0): 1.0, (0, 0): near})
        prod = poly_mul(a, b)
        assert set(prod.coeffs) == {(0, 0), (2, 0)}
        assert prod == NCPolynomial(THETA_QUARTER, {(0, 0): near, (2, 0): 1.0})


class TestCyclotomicInput:
    def test_bad_order_and_mixed_orders_rejected(self):
        with pytest.raises(ValidationError):
            Cyclotomic(6, {0: 1})
        with pytest.raises(ValidationError):
            Cyclotomic.one(4) + Cyclotomic.one(8)
