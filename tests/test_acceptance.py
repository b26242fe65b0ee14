"""Acceptance suite: one test per entry of ncspaces.checks.CRITERIA.  It prints
the criterion's result lines (see them with -s) and records the names of its
failing results for the ledger of conftest.py (user property failed_results)."""
import pytest

from ncspaces.checks import CRITERIA, run_criterion


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(criterion, record_property):
    results = run_criterion(criterion)
    for result in results:
        print(f"criterion-{criterion}: {result.line()}")
    failed = [result.name for result in results if not result.passed]
    record_property("failed_results", failed)
    assert not failed
