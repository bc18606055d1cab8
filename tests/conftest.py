"""Terminal reporting for the acceptance gate: one verdict line per criterion,
the one Hypothesis profile of the property tests, ``prepared`` and
``prepared_counts``, the tests' way from a sparse matrix that no stencil
gives to ``count_below_stack`` and ``ground_bisect``, and ``failing_merge``,
which makes one LAPACK routine of ``dense_levels``' top-merge path report a
failure."""

import re

import numpy as np

import displab.eigensolve as es
from displab.discretize import DiagonalStack, diagonal_slots
from displab.eigensolve import count_below_stack

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


def prepared(mat, chain=True):
    """The one-operator ``DiagonalStack`` whose stencil is the sparse matrix
    ``mat``: its operator has the arrays of ``mat``, bit for bit.

    Counting trusts a stencil's contract, so ``mat`` must keep it: a real
    canonical CSR matrix, exactly symmetric, that stores every diagonal
    entry; any other is a ``ValueError``.  The stack is on a ring -- counted
    by the chain paths -- when ``chain`` is true and ``mat`` is a periodic
    chain (N >= 3, entries only at (i, i) and (i, i +- 1 mod N)) that stores
    every (i, i + 1 mod N) entry; otherwise every threshold takes the
    per-threshold factorization.
    """
    mat = mat.tocsr()
    if not mat.has_canonical_format or np.iscomplexobj(mat) or (mat != mat.T).nnz:
        raise ValueError("prepared takes a real, canonical, exactly symmetric CSR matrix")
    slots = diagonal_slots(mat)  # a ValueError unless every diagonal entry is stored
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    up = np.flatnonzero(mat.indices == (rows + 1) % n)
    ring = n >= 3 and up.size == n and np.all(np.isin((mat.indices - rows) % n, (0, 1, n - 1)))
    return DiagonalStack(mat, slots, up if chain and ring else None, np.zeros((1, n)))


def prepared_counts(mat, energies, chain=True):
    """The counts of ``prepared(mat, chain)`` below ``energies``: one row of
    ``count_below_stack``."""
    return count_below_stack(prepared(mat, chain), energies)[0]


def failing_merge(routine):
    """A stand-in for ``eigensolve._merge_routines`` whose ``routine``
    (``dlaed0``, ``dlaed2`` or ``dlaed4``) runs and then reports LAPACK info
    1 through its last argument, as LAPACK reports a failure."""
    real = dict(zip(("dlaed0", "dlaed2", "dlaed4"), es._merge_routines()))

    def failed(*args):
        real[routine](*args)
        args[-1]._obj.value = 1  # the c_int that byref(info) points at

    return lambda: tuple(failed if name == routine else call for name, call in real.items())


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
