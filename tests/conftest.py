"""The expected-failure ledger: after pytest's summary, each failed test is
listed either as a documented negative result, a criterion of
ncspaces.checks.CRITERIA with a reason, or as unexpected.  The ledger only
reads the reports; no outcome and no exit status changes."""
import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "criterion(id): the entry of ncspaces.checks.CRITERIA "
                                       "that the test runs")


def pytest_collection_modifyitems(items):
    # the reports carry user_properties, so the ledger can read the id back
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            item.user_properties.append(("criterion", marker.args[0]))


@pytest.fixture
def criterion(request) -> str:
    """The id named by the test's criterion marker."""
    return request.node.get_closest_marker("criterion").args[0]


def pytest_terminal_summary(terminalreporter):
    failed = [report for kind in ("failed", "error") for report in terminalreporter.stats.get(kind, ())]
    if not failed:
        return
    from ncspaces.checks import CRITERIA

    expected, unexpected = [], []
    for report in failed:
        entry = CRITERIA.get(dict(getattr(report, "user_properties", ())).get("criterion"))
        if report.when == "call" and entry is not None and entry.reason:
            expected.append(f"{report.nodeid}: {entry.reason}")
        else:
            unexpected.append(report.nodeid)
    terminalreporter.section("expected-failure ledger")
    for title, lines in (("expected (documented)", expected), ("unexpected", unexpected)):
        terminalreporter.line(f"{title}: {len(lines)}")
        for line in lines:
            terminalreporter.line(f"  {line}")
