"""The per-result verdict, ncspaces.checks.sort_failures, and the ledger of
conftest.py, read from an inner pytest session over the acceptance tests of
criteria 06 and 10b with one fault put into them."""
from pathlib import Path

import pytest

from ncspaces import checks, spectra
from ncspaces.checks import sort_failures

WINDOW, TWO_MODES = ("06", "spectra/exponent-window"), ("10b", "fock/two-mode-identities")
LIP = ("06", "spectra/lip-half-pointwise")
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


@pytest.mark.parametrize("failures, verdict", [
    ([WINDOW, TWO_MODES], ([WINDOW, TWO_MODES], [], [])),
    ([TWO_MODES], ([TWO_MODES], [], [WINDOW[1]])),
    ([LIP, WINDOW, TWO_MODES], ([WINDOW, TWO_MODES], [LIP], [])),
], ids=["both-documented", "a-documented-result-passes", "undocumented-beside-documented"])
def test_sort_failures(failures, verdict):
    assert sort_failures(failures) == verdict


@pytest.mark.parametrize("fault, unexpected", [
    (lambda mp: mp.setattr(spectra, "LIP_HALF_BOUND", 1.0), "[06] spectra/lip-half-pointwise"),
    (lambda mp: mp.setitem(checks.CRITERIA, "06", checks.CRITERIA["06"]._replace(budget=0.0)),
     "[06] time"),
    (lambda mp: mp.setitem(checks.CRITERIA, "10b", checks.Criterion((lambda cfg: {}["modes"],))),
     "[10b]"),
], ids=["06-lip-half-record", "06-past-budget", "10b-raises"])
def test_a_fault_in_a_documented_criterion_is_unexpected(pytester, monkeypatch, fault, unexpected):
    fault(monkeypatch)
    lines = pytester.runpytest("-p", "no:cacheprovider", "-p", "no:hypothesispytest",
                               *(f"{ACCEPTANCE}::test_criterion[{c}]" for c in ("06", "10b")),
                               ).stdout.lines
    assert lines[lines.index("unexpected: 1") + 1] == (
        f"  tests/test_acceptance.py::test_criterion{unexpected}")
