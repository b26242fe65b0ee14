"""Tests for clock/shift pairs, tensor assemblies, and Clifford/ladder checks."""
from functools import reduce

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from ncspaces import finite_reps
from ncspaces.checks import random_pair_table, random_tuple_pair
from ncspaces.errors import DENSE_CAP, SizeCapError, ValidationError
from ncspaces.finite_reps import (
    UnitaryTuple,
    clifford_generators,
    clock_shift,
    distance_lower_bound_check,
    fock_identities_check,
    ladder_operator,
    tensor_construct,
    tensor_translate,
    verify_relations,
)
from ncspaces.linalg import COMPLEX_PRODUCT, UNIT_ROUNDOFF, kron, on_leg
from ncspaces.skew import upper_pairs


def pair_table(d, factory):
    return {jk: factory(jk) for jk in upper_pairs(d)}


def near_unitary_pair(p, q, rng):
    """clock_shift(p, q) conjugated by W = I + 2e-13 G/||G||, W* W != I: its
    defects come out at a few tenths of the declared tolerance 1e-12."""
    base = clock_shift(p, q)
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    w = np.eye(q) + 2e-13 * g / np.linalg.norm(g, 2)
    return UnitaryTuple(tuple(w @ m @ w.conj().T for m in base.matrices), base.sigma, 1e-12)


def assert_certified(t):
    """The dense measurement of t (the test oracle) stays below the
    certificate its constructor reported, which stays below t.tol."""
    oracle = finite_reps._measure_relations(t)
    rep = verify_relations(t)
    assert oracle.max_commutation <= rep.max_commutation <= t.tol
    assert oracle.max_unitarity <= rep.max_unitarity <= t.tol


class TestClockShift:
    def test_half_flux_matrices(self):
        u, v = clock_shift(1, 2).matrices
        assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-15)
        assert np.array_equal(v, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.abs(u @ v + v @ u).max() <= 1e-15  # UV = -VU

    def test_commuting_at_zero_flux(self):
        t = clock_shift(0, 3)
        rep = verify_relations(t)
        assert rep.max_commutation == 0

    def test_quarter_flux_relation(self):
        t = clock_shift(1, 4)
        u, v = t.matrices
        assert np.abs(u @ v - 1j * (v @ u)).max() <= 1e-15
        assert verify_relations(t).max_commutation <= 1e-15

    def test_invalid_size(self):
        with pytest.raises(ValidationError):
            clock_shift(1, 0)

    @pytest.mark.parametrize("size", [DENSE_CAP + 1, 10**7])
    def test_dense_cap(self, size):
        # checked before any size x size matrix is built; 10^7 was numpy's MemoryError
        with pytest.raises(SizeCapError, match=f"clock and shift side q = {size} exceeds cap"):
            clock_shift(1, size)
        with pytest.raises(SizeCapError, match=f"identity side size = {size} exceeds cap"):
            UnitaryTuple.identity(2, size)

    def test_default_tolerance_holds_for_every_flux(self):
        for q in range(1, 33):
            for p in range(q):
                assert verify_relations(clock_shift(p, q)).max_commutation <= 5e-15


class TestVerifyRelations:
    def test_detects_seeded_defect(self):
        base = clock_shift(1, 2)
        bad_sigma = base.sigma.copy()
        bad_sigma[0, 1] *= np.exp(1e-3j)
        bad_sigma[1, 0] = np.conj(bad_sigma[0, 1])
        t = UnitaryTuple(base.matrices, bad_sigma, tol=5e-3)
        rep = verify_relations(t)
        assert rep.max_commutation == pytest.approx(1e-3, rel=0.1)
        assert rep.worst_pair == (0, 1)

    def test_single_generator_vacuous(self):
        t = UnitaryTuple((np.eye(3, dtype=complex),), np.ones((1, 1), dtype=complex))
        rep = verify_relations(t)
        assert rep.max_commutation == 0
        assert rep.worst_pair is None

    def test_empty_tuple_rejected(self):
        # it raised IndexError from matrices[0]
        with pytest.raises(ValidationError, match="at least one matrix"):
            UnitaryTuple((), np.ones((0, 0), dtype=complex))

    @pytest.mark.parametrize("matrices, sigma, message", [
        pytest.param((np.eye(2), np.eye(2)), np.ones((3, 3)), "sigma must be 2x2", id="sigma-shape"),
        pytest.param((np.eye(2), np.eye(3)), np.ones((2, 2)), "share one square size",
                     id="matrix-sizes"),
        pytest.param((np.eye(2), np.eye(2)), [[1, 0.5], [0.5, 1]], "unimodular",
                     id="sigma-not-unimodular"),
        pytest.param((np.eye(2), np.eye(2)), [[-1, 1], [1, 1]], "diagonal must be 1",
                     id="sigma-diagonal"),
        pytest.param((np.eye(2), np.eye(2)), [[1, 1j], [1j, 1]], "sigma_kj = conj",
                     id="sigma-not-hermitian"),
    ])
    def test_malformed_sigma_or_sizes_rejected(self, matrices, sigma, message):
        with pytest.raises(ValidationError, match=message):
            UnitaryTuple(matrices, sigma)

    def test_tolerance_enforced_at_construction(self):
        base = clock_shift(1, 2)
        bad_sigma = base.sigma.copy()
        bad_sigma[0, 1] *= np.exp(1e-3j)
        bad_sigma[1, 0] = np.conj(bad_sigma[0, 1])
        with pytest.raises(ValidationError):
            UnitaryTuple(base.matrices, bad_sigma, tol=1e-12)


class TestTensorConstruct:
    def test_three_generators_anticommute(self):
        t = tensor_construct(pair_table(3, lambda jk: clock_shift(1, 2)))
        assert t.dim_hilbert == 8
        for j in range(3):
            for k in range(j + 1, 3):
                uj, uk = t.matrices[j], t.matrices[k]
                assert np.abs(uj @ uk + uk @ uj).max() <= 1e-14
        assert verify_relations(t).max_commutation <= 1e-14

    def test_two_generators_degenerate(self):
        pair = clock_shift(1, 5)
        t = tensor_construct({(0, 1): pair})
        assert np.array_equal(t.matrices[0], pair.matrices[0])
        assert np.array_equal(t.matrices[1], pair.matrices[1])

    def test_tuples_are_read_only(self):
        # the relation report is found once, so no write may reach what it
        # certifies; a measured tuple holds copies of the caller's arrays
        base = clock_shift(1, 2)
        mats, sigma = [m.copy() for m in base.matrices], base.sigma.copy()
        measured = UnitaryTuple(tuple(mats), sigma, 1e-14)
        tuples = (
            measured,
            tensor_construct({(0, 1): measured}),
            tensor_construct(pair_table(3, lambda jk: measured)),
            tensor_translate(measured, measured),
        )
        for t in tuples:
            for a in (*t.matrices, t.sigma):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 5
        mats[0][0, 0] = sigma[0, 0] = 5
        assert measured.matrices[0][0, 0] == measured.sigma[0, 0] == 1

    def test_four_generators_q3(self):
        t = tensor_construct(pair_table(4, lambda jk: clock_shift(1, 3)))
        assert t.dim_hilbert == 3**6
        rep = verify_relations(t)
        assert rep.max_commutation <= 1e-13
        assert rep.max_unitarity <= 1e-13

    def test_sigma_matches_pairs(self):
        table = {
            (0, 1): clock_shift(1, 2),
            (0, 2): clock_shift(1, 3),
            (1, 2): clock_shift(1, 4),
        }
        t = tensor_construct(table)
        assert t.sigma[0, 1] == pytest.approx(-1.0)
        assert t.sigma[0, 2] == pytest.approx(np.exp(2j * np.pi / 3))
        assert t.sigma[1, 2] == pytest.approx(1j)

    def test_missing_pair_rejected(self):
        table = pair_table(3, lambda jk: clock_shift(1, 2))
        del table[(0, 2)]
        with pytest.raises(ValidationError):
            tensor_construct(table)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            tensor_construct(pair_table(5, lambda jk: clock_shift(1, 3)))

    @pytest.mark.parametrize("table, message", [
        pytest.param({(0, 1): clock_shift(1, 2), (1, 1): clock_shift(1, 2)},
                     r"invalid keys \[\(1, 1\)\]", id="diagonal-key"),
        pytest.param({(0, 1): UnitaryTuple.identity(3)}, r"pair \(0, 1\) is not a 2-tuple",
                     id="three-tuple"),
    ])
    def test_malformed_pair_table_rejected(self, table, message):
        with pytest.raises(ValidationError, match=message):
            tensor_construct(table)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_randomized_residual_additivity(self, seed):
        rng = np.random.default_rng(seed)
        table = random_pair_table(rng, int(rng.integers(2, 6)))
        rep = verify_relations(tensor_construct(table))
        assert rep.max_commutation <= sum(p.tol for p in table.values()) + 1e-13


class TestLegCertificate:
    # d = 5 draws are always 1024-dimensional (every pair at q = 2)
    @pytest.mark.parametrize(
        "d, seed", [(2, s) for s in range(6)] + [(3, s) for s in range(4)] + [(4, 0), (4, 1), (5, 0)]
    )
    def test_random_pair_tables(self, d, seed):
        t = tensor_construct(random_pair_table(np.random.default_rng(seed), d))
        assert t.d == d
        assert_certified(t)

    @pytest.mark.parametrize("d, qs", [(3, (3, 4, 5)), (4, (2, 3, 2, 2, 3, 2))])
    def test_legs_near_their_tolerance(self, d, qs):
        rng = np.random.default_rng(d)
        table = {jk: near_unitary_pair(1, q, rng) for jk, q in zip(upper_pairs(d), qs)}
        for pt in table.values():
            rep = verify_relations(pt)
            assert max(rep.max_commutation, rep.max_unitarity) >= 0.1 * pt.tol
        assert_certified(tensor_construct(table))

    def test_translated_pairs(self):
        rng = np.random.default_rng(1)
        skewed = near_unitary_pair(1, 3, rng)
        three = tensor_construct(pair_table(3, lambda jk: clock_shift(1, 2 + sum(jk) % 2)))
        cases = [
            (clock_shift(1, 3), clock_shift(1, 4)),
            (clock_shift(1, 2), UnitaryTuple.identity(2, 3)),
            (UnitaryTuple.identity(2, 2), clock_shift(2, 5)),
            (skewed, clock_shift(2, 3)),
            (UnitaryTuple.identity(2, 4), skewed),
            (three, three),
        ]
        for a, b in cases:
            assert_certified(tensor_translate(a, b))

    def test_leg_out_of_kron_order_fails_the_probe(self, monkeypatch):
        # generator 1 assembled as I_3 (x) B_01 (x) A_12 instead of
        # B_01 (x) I_3 (x) A_12: the legs, and so the certificate, are the
        # same; only the probe of the assembly can see it
        assemble = finite_reps._assemble

        def swapped(legs, *rest):
            legs = [list(g) for g in legs]
            legs[1][0], legs[1][1] = legs[1][1], legs[1][0]
            return assemble(legs, *rest)

        monkeypatch.setattr(finite_reps, "_assemble", swapped)
        # legs of sizes 2 and 3: generator 1's leg sizes are not the axes
        table = {(0, 1): clock_shift(1, 2), (0, 2): clock_shift(1, 3), (1, 2): clock_shift(1, 4)}
        with pytest.raises(ValidationError, match="probe: generator 1 has leg sizes"):
            tensor_construct(table)
        # two legs of size 3: the axes agree, and only the probe's numbers
        # see that u_0 and u_1 now meet on pair (0, 2)'s leg
        table = {(0, 1): clock_shift(1, 3), (0, 2): clock_shift(2, 3), (1, 2): clock_shift(1, 4)}
        with pytest.raises(ValidationError, match="probe of pair"):
            tensor_construct(table)


class TestKron:
    @staticmethod
    def legs(rng, count, draw):
        # shapes from 1 to 5 per side, shrunk to 1 once the product passes 64
        rows = cols = 1
        legs = []
        for _ in range(count):
            m, n = (int(rng.integers(1, 6)) if rows * cols <= 64 else 1 for _ in range(2))
            rows, cols = rows * m, cols * n
            legs.append(draw((m, n)))
        return legs

    @pytest.mark.parametrize("count", range(1, 11))
    def test_exact_legs_equal_np_kron(self, count):
        # every entry exact, so every nonzero part bit for bit; only the sign
        # of a zero part may differ, as the two associate the products apart
        rng = np.random.default_rng(count)
        units = np.array([0, 1, -1, 1j, -1j], dtype=complex)
        legs = self.legs(rng, count, lambda shape: rng.choice(units, size=shape))
        expected = reduce(np.kron, legs)
        got = kron(legs)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # on_leg: an exact square leg at k, the identity on the other legs
        n = min(count, 5)
        op, k = rng.choice(units, size=(2, 2)), int(rng.integers(n))
        eyes = [op if leg == k else np.eye(2, dtype=complex) for leg in range(n)]
        assert np.array_equal(on_leg(op, k, n), reduce(np.kron, eyes))

    @pytest.mark.parametrize("count", range(1, 11))
    def test_complex_legs_agree_with_np_kron_to_round_off(self, count):
        # each entry of either product is the exact one to within
        # (1 + mu)^(s-1) - 1 times the product of the entries' moduli, s legs
        rng = np.random.default_rng(100 + count)
        legs = self.legs(
            rng, count, lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        got, expected = kron(legs), reduce(np.kron, legs)
        moduli = reduce(np.kron, [np.abs(v) for v in legs]) * (1 + UNIT_ROUNDOFF) ** count
        bound = 2 * ((1 + COMPLEX_PRODUCT) ** (count - 1) - 1) * moduli
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= bound)

    # exact legs: entries 0, +-1, +-i (and one leg of other values among
    # them), so every product is exact and both sides agree bit for bit
    UNITS = np.array([1, -1, 1j, -1j])

    @staticmethod
    def assert_equals_np_kron(legs):
        got, expected = kron(legs), reduce(np.kron, legs)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)
        return got

    def monomial_leg(self, rng, q):
        # a clock diag(i^(s j)), the cyclic shift or the identity, of side q
        kind = int(rng.integers(3))
        if kind == 0:
            powers = np.array([1, 1j, -1, -1j])
            return np.diag(powers[int(rng.integers(1, 4)) * np.arange(q) % 4])
        if kind == 1:
            return np.roll(np.eye(q, dtype=complex), 1, axis=0)
        return np.eye(q, dtype=complex)

    @pytest.mark.parametrize("count", range(1, 11))
    def test_monomial_legs_equal_np_kron(self, count):
        # sides 2..5, drawn so that the product stays at most 1024 square
        rng = np.random.default_rng(200 + count)
        legs, dim = [], 1
        for left in reversed(range(count)):
            q = int(rng.integers(2, 6))
            q = q if dim * q * 2**left <= 1024 else 2
            dim *= q
            legs.append(self.monomial_leg(rng, q))
        self.assert_equals_np_kron(legs)

    @pytest.mark.parametrize("special", [
        # a truncated lowering operator: its last row and first column are 0
        pytest.param(ladder_operator(3), id="zero-row"),
        pytest.param(np.zeros((3, 3), dtype=complex), id="all-zero"),
    ])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_legs_with_zero_rows_equal_np_kron(self, special, at):
        rng = np.random.default_rng(300 + at)
        legs = [self.monomial_leg(rng, int(rng.integers(2, 4))) for _ in range(4)]
        legs.insert(at, special)
        got = self.assert_equals_np_kron(legs)
        assert np.count_nonzero(got) == np.prod([np.count_nonzero(v) for v in legs])

    def test_real_legs_stay_real(self):
        rng = np.random.default_rng(400)
        legs = [rng.choice([0.0, 1.0, -1.0, 0.5, 2.0], size=(q, q)) for q in (2, 3, 4, 2, 3)]
        legs[1] = np.roll(np.eye(3), 1, axis=0)
        assert self.assert_equals_np_kron(legs).dtype == np.float64

    def test_mixed_real_and_complex_legs(self):
        rng = np.random.default_rng(500)
        legs = [np.roll(np.eye(3), 1, axis=0), self.monomial_leg(rng, 2),
                rng.choice([0.0, 1.0, -2.0], size=(2, 2)), np.eye(4), self.monomial_leg(rng, 3)]
        assert self.assert_equals_np_kron(legs).dtype == np.complex128

    @pytest.mark.parametrize("density", [0.2, 1.0])
    def test_non_square_legs(self, density):
        rng = np.random.default_rng(int(density * 10))
        shapes = [(2, 3), (3, 1), (1, 4), (4, 2), (2, 5)]
        legs = [rng.choice(self.UNITS, size=s) * (rng.random(s) < density) for s in shapes]
        self.assert_equals_np_kron(legs)

    @pytest.mark.parametrize("a, sparse", [
        # at most half of a's entries nonzero: only a's nonzero blocks are written
        pytest.param([[1.0, -1.0], [0.0, 0.0]], True, id="half-filled-written-by-blocks"),
        pytest.param([[1.0, -1.0], [2.0, 0.0]], False, id="denser-broadcast"),
    ])
    def test_each_branch_equals_np_kron(self, a, sparse):
        a = np.array(a)
        self.assert_equals_np_kron([a, np.array([[2.0, 0.0, -1.0], [0.5, 1.0, 0.0]])])
        # which branch ran: the broadcast multiply writes 0 * inf = nan at a
        # zero of a, a skipped block stays 0
        with np.errstate(invalid="ignore"):
            got = kron([a, np.array([[np.inf]])])
        assert np.isnan(got).any() != sparse

    def test_identity_pairs_generators_equal_np_kron(self):
        # the N = 1024 table of relations --theta identity-pairs --d 5: on the
        # pairs (j, k) in order, generator g's leg is U if g = j, V if g = k,
        # and the identity otherwise
        pair = clock_shift(1, 2)
        u, v = pair.matrices
        t = tensor_construct(pair_table(5, lambda jk: pair))
        assert t.dim_hilbert == 1024
        for g, got in enumerate(t.matrices):
            legs = [u if g == j else v if g == k else np.eye(2) for j, k in upper_pairs(5)]
            assert np.array_equal(got, reduce(np.kron, legs))

    @pytest.mark.parametrize("k", [3, -1])
    def test_on_leg_outside_the_legs_rejected(self, k):
        # both returned the 8 x 8 identity, dropping the operator
        with pytest.raises(ValidationError, match="not one of the 3 legs"):
            on_leg(np.diag([1.0, -1.0]), k, 3)

    @pytest.mark.parametrize("leg", [np.ones(2), np.ones((2, 2, 2)), 1.0])
    def test_leg_not_2d_rejected(self, leg):
        # a bare ValueError from unpacking its shape
        with pytest.raises(ValidationError, match="must be 2-D"):
            kron([np.eye(2), leg])


class TestTensorTranslate:
    def test_phase_cancellation(self):
        t = tensor_translate(clock_shift(1, 2), clock_shift(1, 2))
        assert t.dim_hilbert == 4
        assert t.sigma[0, 1] == pytest.approx(1.0)
        assert verify_relations(t).max_commutation <= 1e-14

    def test_identity_neutral(self):
        a = clock_shift(1, 3)
        t = tensor_translate(a, UnitaryTuple.identity(2, 2))
        assert np.abs(t.sigma - a.sigma).max() == 0

    def test_phase_multiplicativity(self):
        t = tensor_translate(clock_shift(1, 3), clock_shift(1, 4))
        assert t.sigma[0, 1] == pytest.approx(np.exp(2j * np.pi * 7 / 12))
        assert verify_relations(t).max_commutation <= 1e-13

    def test_dimension_mismatch(self):
        three = tensor_construct(pair_table(3, lambda jk: clock_shift(1, 2)))
        with pytest.raises(ValidationError):
            tensor_translate(clock_shift(1, 2), three)


class TestDistanceLowerBound:
    def test_equal_tuples(self):
        a = clock_shift(1, 3)
        rep = distance_lower_bound_check(a, a)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == 0.0

    def test_conjugated_same_sigma(self):
        rng = np.random.default_rng(0)
        a = clock_shift(1, 4)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        b = UnitaryTuple(tuple(u @ m @ u.conj().T for m in a.matrices), a.sigma, 1e-12)
        rep = distance_lower_bound_check(a, b)
        assert rep.rhs == 0.0
        assert rep.holds

    def test_padded_comparison(self):
        rep = distance_lower_bound_check(clock_shift(1, 2), clock_shift(1, 4))
        assert rep.holds
        assert rep.margin > 0

    def test_incompatible_sizes(self):
        with pytest.raises(ValidationError):
            distance_lower_bound_check(clock_shift(1, 2), clock_shift(1, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_never_fails_on_valid_tuples(self, seed):
        a, b = random_tuple_pair(np.random.default_rng(seed))
        assert distance_lower_bound_check(a, b).holds


class TestGnsClockShiftConsistency:
    def test_truncated_gns_commutator_matches_clock_shift_phase(self):
        # on interior vectors both models realize the same commutation unitary:
        # u_1 u_2 u_1* u_2* acts as sigma_12 I, so its interior block has unit
        # singular values and scalar action sigma_12
        from fractions import Fraction as F

        from ncspaces.skew import SkewMatrix
        from ncspaces.twisted_algebra import NCPolynomial, gns_matrix

        theta = SkewMatrix.from_upper(2, {(0, 1): F(1, 4)})
        sigma = clock_shift(1, 4).sigma[0, 1]
        radius = 4
        g1 = gns_matrix(NCPolynomial.monomial(theta, (1, 0)), radius)
        g2 = gns_matrix(NCPolynomial.monomial(theta, (0, 1)), radius)
        g1s = gns_matrix(NCPolynomial.monomial(theta, (-1, 0)), radius)
        g2s = gns_matrix(NCPolynomial.monomial(theta, (0, -1)), radius)
        comm = g1 @ g2 @ g1s @ g2s
        side = 2 * radius + 1
        interior = [
            (m0 + radius) * side + (m1 + radius)
            for m0 in range(-2, 3)
            for m1 in range(-2, 3)
        ]
        block = comm[np.ix_(interior, interior)]
        assert np.abs(block - sigma * np.eye(len(interior))).max() <= 1e-13
        svals = np.linalg.svd(block, compute_uv=False)
        assert np.abs(svals - 1.0).max() <= 1e-13


class TestClifford:
    def test_single_involution(self):
        (c,) = clifford_generators(1)
        assert np.abs(c - c.conj().T).max() == 0
        assert np.abs(c @ c - np.eye(2)).max() == 0

    @staticmethod
    def assert_anticommute(cs):
        eye = np.eye(cs[0].shape[0])
        for j, cj in enumerate(cs):
            for k, ck in enumerate(cs):
                target = 2.0 * eye if j == k else 0.0
                assert np.linalg.norm(cj @ ck + ck @ cj - target, 2) <= 1e-14

    def test_pair_anticommutes(self):
        cs = clifford_generators(2)
        c1, c2 = cs
        assert np.abs(c1 @ c2 + c2 @ c1).max() == 0
        self.assert_anticommute(cs)

    def test_three_generators(self):
        cs = clifford_generators(3)
        assert cs[0].shape == (4, 4)
        self.assert_anticommute(cs)

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            clifford_generators(13)


class TestFock:
    def test_ladder_matrices_explicit(self):
        a = ladder_operator(2)
        lowering_number = a @ a.conj().T
        raising_number = a.conj().T @ a
        assert np.allclose(np.diag(raising_number), [0, 1, 2])
        # truncation zeroes the top of a a*; the interior entries are exact
        assert np.allclose(np.diag(lowering_number)[:2], [1, 2])

    def test_single_mode_number_action(self):
        rep = fock_identities_check(1, 6)
        assert rep.number_action_residual <= 1e-12
        assert rep.product_identity_residual <= 1e-12
        assert rep.adjoint_identity_residual <= 1e-12

    def test_single_mode_kernel(self):
        rep = fock_identities_check(1, 6)
        assert rep.kernel_dim == rep.clifford_dim == 2

    def test_two_modes_product_identity_fails_structurally(self):
        # mixed-mode cross terms c_k c_j (a_k a_j* - a_j a_k*) survive: the
        # claimed closure is a single-mode accident, and the measured residual
        # is O(1), not a truncation artifact.
        rep = fock_identities_check(2, 6)
        assert rep.product_identity_residual > 1.0

    def test_two_modes_kernel_one_copy_per_level(self):
        # analytic count: per total occupation level X <= cutoff-1 the chain
        # xi_{(X,0)} -> xi_{(X-1,1)} -> ... is determined by xi_{(X,0)},
        # giving one C^2 of kernel per level.
        for cutoff in (4, 6):
            rep = fock_identities_check(2, cutoff)
            assert rep.kernel_dim == 2 * cutoff

    def test_two_modes_explicit_kernel_vector(self):
        # direct check of the level-1 kernel construction: A*(e1 x phi_{10}
        # + i e1 x phi_{01}) = (c1 + i c2) e1 x phi_00 = 0 for c1 = X, c2 = Y
        c1, c2 = clifford_generators(2)
        cutoff = 3
        a = ladder_operator(cutoff)
        eye = np.eye(cutoff + 1)
        a1, a2 = np.kron(a, eye), np.kron(eye, a)
        big = sum(np.kron(c, m.conj().T) for c, m in zip((c1, c2), (a1, a2)))
        dim = (cutoff + 1) ** 2
        phi10 = np.zeros(dim); phi10[(cutoff + 1) * 1 + 0] = 1.0
        phi01 = np.zeros(dim); phi01[1] = 1.0
        e1 = np.array([1.0, 0.0])
        vec = np.kron(e1, phi10) + 1j * np.kron(e1, phi01)
        assert np.abs(big.conj().T @ vec).max() <= 1e-14

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            fock_identities_check(4, 8)
