"""Acceptance suite: one test per entry of ncspaces.checks.CRITERIA, named by
the test's criterion marker.  Each prints its criterion's result lines (run
with -s to see them) and asserts that all pass; a documented negative result
fails with its entry's reason, and the ledger of conftest.py lists it apart
from any other failure."""
import pytest

from ncspaces.checks import CRITERIA, run_criterion


def assert_criterion(criterion):
    results = run_criterion(criterion)
    for result in results:
        print(f"criterion-{criterion}: {result.line()}")
    assert all(result.passed for result in results), CRITERIA[criterion].reason


@pytest.mark.criterion("01")
def test_criterion_01_algebraic_exactness(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("02")
def test_criterion_02_tensor_construction(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("03")
def test_criterion_03_constant_audit(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("04")
def test_criterion_04_symplectic_normalization(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("05")
def test_criterion_05_metric_lower_bound(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("06")
def test_criterion_06_holder_continuity(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("07")
def test_criterion_07_moyal_engine(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("08")
def test_criterion_08_generator_group_equivalence(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("09")
def test_criterion_09_assembly_convergence(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("10a")
def test_criterion_10_fock_clifford_single_mode(criterion):
    assert_criterion(criterion)


@pytest.mark.criterion("10b")
def test_criterion_10_fock_clifford_two_modes(criterion):
    assert_criterion(criterion)
