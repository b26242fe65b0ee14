"""The expected-failure ledger: after pytest's summary, each failed test is
listed either as a documented negative result, a criterion of
ncspaces.checks.CRITERIA with a reason, or as unexpected, and each criterion
with a reason that did not fail (it passed or did not run) is listed as
documented, not failed.  The ledger is written whenever a test failed or an
acceptance test ran; it only reads the reports, and no outcome and no exit
status changes."""
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
    def criterion_of(report):
        return dict(getattr(report, "user_properties", ())).get("criterion")

    stats = terminalreporter.stats
    failed = [report for kind in ("failed", "error") for report in stats.get(kind, ())]
    if not failed and not any(map(criterion_of, stats.get("passed", ()))):
        return
    from ncspaces.checks import CRITERIA

    expected, unexpected, documented_failed = [], [], set()
    for report in failed:
        entry = CRITERIA.get(criterion_of(report))
        if report.when == "call" and entry is not None and entry.reason:
            expected.append(f"{report.nodeid}: {entry.reason}")
            documented_failed.add(criterion_of(report))
        else:
            unexpected.append(report.nodeid)
    not_failed = [f"criterion {key}: {entry.reason}" for key, entry in CRITERIA.items()
                  if entry.reason and key not in documented_failed]
    terminalreporter.section("expected-failure ledger")
    for title, lines in (("expected (documented)", expected), ("unexpected", unexpected),
                         ("documented, not failed", not_failed)):
        terminalreporter.line(f"{title}: {len(lines)}")
        for line in lines:
            terminalreporter.line(f"  {line}")
