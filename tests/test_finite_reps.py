"""Tests for clock/shift pairs, tensor assemblies, and Clifford/ladder checks."""
import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from ncspaces.errors import SizeCapError, ValidationError
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
from ncspaces.skew import upper_pairs


def pair_table(d, factory):
    return {jk: factory(jk) for jk in upper_pairs(d)}


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

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_randomized_residual_additivity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        qmax = {2: 16, 3: 5, 4: 3, 5: 2}[d]
        table = {}
        for jk in upper_pairs(d):
            q = int(rng.integers(2, qmax + 1))
            table[jk] = clock_shift(int(rng.integers(0, q)), q)
        t = tensor_construct(table)
        rep = verify_relations(t)
        assert rep.max_commutation <= sum(p.tol for p in table.values()) + 1e-13


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
        rng = np.random.default_rng(seed)
        qa, qb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = tensor_translate(
            clock_shift(int(rng.integers(0, qa)), qa), UnitaryTuple.identity(2, qb)
        )
        b = tensor_translate(
            UnitaryTuple.identity(2, qa), clock_shift(int(rng.integers(0, qb)), qb)
        )
        z = rng.standard_normal((qa * qb, qa * qb)) + 1j * rng.standard_normal((qa * qb, qa * qb))
        u, _ = np.linalg.qr(z)
        b = UnitaryTuple(tuple(u @ m @ u.conj().T for m in b.matrices), b.sigma, b.tol + 1e-12)
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
        cs = clifford_generators(1)
        c = cs.matrices[0]
        assert np.abs(c - c.conj().T).max() == 0
        assert np.abs(c @ c - np.eye(2)).max() == 0

    def test_pair_anticommutes(self):
        cs = clifford_generators(2)
        c1, c2 = cs.matrices
        assert np.abs(c1 @ c2 + c2 @ c1).max() == 0
        assert cs.max_relation_defect() <= 1e-14

    def test_three_generators(self):
        cs = clifford_generators(3)
        assert cs.rep_dim == 4
        assert cs.max_relation_defect() <= 1e-14

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
        cs = clifford_generators(2)
        c1, c2 = cs.matrices
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
