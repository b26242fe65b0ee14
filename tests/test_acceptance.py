"""Acceptance suite: one test per entry of ncspaces.checks.CRITERIA.  Each
prints its criterion's result lines (run with -s to see them) and asserts that
all pass; a documented negative result fails with its entry's reason."""
import pytest

from ncspaces.checks import CRITERIA, run_criterion


def assert_criterion(criterion):
    results = run_criterion(criterion)
    for result in results:
        print(f"criterion-{criterion}: {result.line()}")
    assert all(result.passed for result in results), CRITERIA[criterion].reason


def test_criterion_01_algebraic_exactness():
    assert_criterion("01")


def test_criterion_02_tensor_construction():
    assert_criterion("02")


def test_criterion_03_constant_audit():
    assert_criterion("03")


def test_criterion_04_symplectic_normalization():
    assert_criterion("04")


def test_criterion_05_metric_lower_bound():
    assert_criterion("05")


@pytest.mark.filterwarnings("ignore::UserWarning")  # the offsets span 1.2 decades
def test_criterion_06_holder_continuity():
    assert_criterion("06")


def test_criterion_07_moyal_engine():
    assert_criterion("07")


def test_criterion_08_generator_group_equivalence():
    assert_criterion("08")


def test_criterion_09_assembly_convergence():
    assert_criterion("09")


def test_criterion_10_fock_clifford_single_mode():
    assert_criterion("10a")


def test_criterion_10_fock_clifford_two_modes():
    assert_criterion("10b")
