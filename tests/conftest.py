"""The expected-failure ledger, written after pytest's summary whenever a test
failed or an acceptance test ran.  Each acceptance test records its failing
result names (user property failed_results); any other failure, or a test that
raised before recording, names none.  ncspaces.checks.sort_failures sorts them;
the ledger only reads the reports, and no outcome or exit status changes."""
import functools

import pytest

pytest_plugins = ["pytester"]  # for the inner sessions of test_ledger.py


@pytest.fixture(scope="session")
def criterion_results():
    """ncspaces.checks.run_criterion, run once per criterion in a session.  A
    session fixture, not a process-wide cache: the inner sessions of
    test_ledger.py patch the criteria and must run them afresh."""
    from ncspaces.checks import run_criterion

    return functools.cache(run_criterion)


def pytest_terminal_summary(terminalreporter):
    def recorded(report):
        """The failing result names the report's test call recorded, or None."""
        if report.when == "call":
            return dict(report.user_properties).get("failed_results")

    stats = terminalreporter.stats
    failed = [report for kind in ("failed", "error") for report in stats.get(kind, ())]
    if not failed and all(recorded(report) is None for report in stats.get("passed", ())):
        return
    from ncspaces.checks import DOCUMENTED, sort_failures

    documented, unexpected, not_failed = sort_failures(
        (report.nodeid, name) for report in failed for name in recorded(report) or [None])
    terminalreporter.section("expected-failure ledger")
    for title, lines in (
        ("expected (documented)", [f"{at} {name}: {DOCUMENTED[name]}" for at, name in documented]),
        ("unexpected", [at if name is None else f"{at} {name}" for at, name in unexpected]),
        ("documented, not failed", [f"{name}: {DOCUMENTED[name]}" for name in not_failed]),
    ):
        terminalreporter.line(f"{title}: {len(lines)}")
        for line in lines:
            terminalreporter.line(f"  {line}")
