"""Shared pytest wiring.

Collects the acceptance-suite outcomes and prints one line per criterion at
the end of the run, so the pinned regression set is auditable at a glance.
The ``remainder_sequence`` fixture turns the divisibility shortcut and the
heuristic gcd off, so the gcd tests that take it reach the remainder sequence
over Z.
"""

import pytest

from gbgeom import intgcd

_CRITERIA = {}
_OUTCOMES = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py::test_criterion_" not in item.nodeid:
            continue
        number = item.name.split("_")[2]
        doc = (item.function.__doc__ or "").strip().splitlines()
        label = doc[0].rstrip(".") if doc else item.name
        _CRITERIA[item.nodeid] = (number, label)


def pytest_runtest_logreport(report):
    if report.nodeid not in _CRITERIA:
        return
    if report.when == "call":
        _OUTCOMES[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and not report.passed:
        _OUTCOMES[report.nodeid] = "SKIP" if report.skipped else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    entries = sorted(_CRITERIA.items(), key=lambda kv: kv[1][0])
    for nodeid, (number, label) in entries:
        outcome = _OUTCOMES.get(nodeid, "NOT RUN")
        terminalreporter.write_line(f"criterion {number}: {label}: {outcome}")


@pytest.fixture
def remainder_sequence(monkeypatch):
    """Every parameter gcd the coprimality proof leaves open runs the remainder sequence."""
    monkeypatch.setattr(intgcd, "_divisor_gcd", lambda f, g: None)
    monkeypatch.setattr(intgcd, "_heuristic_gcd", lambda f, g: None)
