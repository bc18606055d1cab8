"""Terminal reporting for the acceptance gate: one verdict line per criterion,
and the one Hypothesis profile of the property tests."""

import re

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Derandomized: every run draws the same examples, so tier-1 stays
    # deterministic; no example database is written.
    settings.register_profile(
        "tier1", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("tier1")

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = re.match(r"test_criterion_(\d+)_(\w+)", report.nodeid.split("::")[-1])
    if m:
        _results[int(m.group(1))] = (m.group(2).replace("_", " "), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        label, outcome = _results[num]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} ({label}): {verdict}")
