"""Terminal reporting for the acceptance gate: one verdict line per criterion,
the one Hypothesis profile of the property tests, and ``prepared``, the
tests' way from a sparse matrix to a counting operator."""

import re

import numpy as np

from displab.discretize import DiagonalStack, diagonal_slots
from displab.eigensolve import SymmetricOperator

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


def prepared(mat):
    """The operator of a chunk of one (``SymmetricOperator.chunk``) whose
    matrix has the data, indices and indptr of ``mat``, bit for bit.

    ``mat`` is the stack's stencil, so it must keep a stencil's contract:
    a real canonical CSR matrix, exactly symmetric, that stores every
    diagonal entry; any other is a ``ValueError``.  The stack's diagonal is
    -0.0 at every slot, which adds nothing (x + -0.0 is x, sign of a zero
    included).
    """
    mat = mat.tocsr()
    if not mat.has_canonical_format or np.iscomplexobj(mat) or (mat != mat.T).nnz:
        raise ValueError("prepared takes a real, canonical, exactly symmetric CSR matrix")
    slots = diagonal_slots(mat)  # a ValueError unless every diagonal entry is stored
    (op,) = SymmetricOperator.chunk(DiagonalStack(mat, slots, np.full((1, slots.size), -0.0)))
    return op


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
