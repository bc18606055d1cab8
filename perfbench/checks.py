"""Output checks for one benchmark run directory.

Every seed: the run completed and its outputs keep seed-free invariants
(counts never decrease in energy, ground levels agree with the counts, all
Wegner audits agree, no strict IDS chain violation).  On a workload's default
seed the outputs must also match the reference captured from the program:
integer columns exactly, floating-point outputs within ``RTOL``/``ATOL``
(a rewrite of the ground solver may move their last bits).

    python3 perfbench/checks.py capture <workload> <run-dir>

rewrites ``perfbench/reference/<workload>.json`` from a run directory made
with the workload's default seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
RTOL = 1e-9
ATOL = 1e-12


def _table(rundir, name):
    with open(os.path.join(rundir, name), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(header, rows, name, cast=float):
    j = header.index(name)
    return [cast(row[j]) for row in rows]


def _prefixed_columns(header, rows, prefix):
    cols = [j for j, name in enumerate(header) if name.startswith(prefix)]
    return [[row[j] for j in cols] for row in rows]


def _digest(table):
    text = "\n".join(",".join(row) for row in table)
    return hashlib.sha256(text.encode()).hexdigest()


def _nondecreasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


# -- per-kind extraction: (exact, floats, problems from seed-free invariants) --


def _lifshitz(rundir, samples):
    problems = []
    header, rows = _table(rundir, "cache.csv")
    counts = [[int(c) for c in row] for row in _prefixed_columns(header, rows, "c_")]
    grounds = _column(header, rows, "ground")
    ch, curve = _table(rundir, "curve.csv")
    energies = _column(ch, curve, "energy")
    fh, fit = _table(rundir, "fit.csv")
    if len(rows) != samples:
        problems.append(f"cache has {len(rows)} rows, expected {samples}")
    for s, (row, ground) in enumerate(zip(counts, grounds)):
        if not _nondecreasing(row):
            problems.append(f"sample {s}: counts decrease in energy")
        tol = RTOL * abs(ground) + ATOL
        for e, c in zip(energies, row):
            if (e > ground + tol and c < 1) or (e < ground - tol and c > 0):
                problems.append(f"sample {s}: ground {ground!r} disagrees with count {c} at {e!r}")
                break
    exact = {
        "cache_counts_sha256": _digest(_prefixed_columns(header, rows, "c_")),
        "fit_n_points": _column(fh, fit, "n_points", int),
    }
    floats = {
        "grounds": grounds,
        "curve_values": _column(ch, curve, "value"),
        "fit_slopes": _column(fh, fit, "slope") + _column(fh, fit, "half_window_slope"),
    }
    return exact, floats, problems


def _wegner(rundir, samples):
    problems = []
    header, rows = _table(rundir, "cache.csv")
    hits = _prefixed_columns(header, rows, "hit_")
    rh, records = _table(rundir, "records.csv")
    fh, fit = _table(rundir, "fit.csv")
    if len(rows) != samples:
        problems.append(f"cache has {len(rows)} rows, expected {samples}")
    for s, row in enumerate(hits):
        if not _nondecreasing([h == "true" for h in row]):
            problems.append(f"cache row {s}: a hit at a window is lost at a wider one")
    record_hits = _column(rh, records, "hits", int)
    record_n = _column(rh, records, "n", int)
    for n in sorted(set(record_n)):
        if not _nondecreasing([h for h, m in zip(record_hits, record_n) if m == n]):
            problems.append(f"records.csv: hits decrease in eps at n={n}")
    agree = _column(fh, fit, "audits_agree", int)[0]
    total = _column(fh, fit, "audits_total", int)[0]
    if total == 0 or agree != total:
        problems.append(f"dense audits: {agree}/{total} agree")
    exact = {
        "cache_hits_sha256": _digest(hits),
        "records_hits": record_hits,
        "audits": [agree, total],
    }
    floats = {
        "grounds": [float(g) for g in _column(header, rows, "ground", str) if g],
        "fit_slopes": _column(fh, fit, "nu_hat") + _column(fh, fit, "dim_hat"),
    }
    return exact, floats, problems


def _ids(rundir, samples):
    problems = []
    header, rows = _table(rundir, "cache.csv")
    ch, curves = _table(rundir, "curves.csv")
    if len(rows) != samples:
        problems.append(f"cache has {len(rows)} rows, expected {samples}")
    by_family = {}
    for row in rows:
        counts = [int(c) for c in row[2:]]
        if not _nondecreasing(counts):
            problems.append(f"{row[0]} sample {row[1]}: counts decrease in energy")
        by_family[(row[0], row[1])] = counts
    for (family, s), counts in by_family.items():
        if family != "middle":
            continue
        plus, minus = by_family.get(("plus", s)), by_family.get(("minus", s))
        if plus is None or minus is None or any(
            not a <= b <= c for a, b, c in zip(plus, counts, minus)
        ):
            problems.append(f"sample {s}: strict counting-chain violation")
    exact = {"cache_counts_sha256": _digest(rows)}
    floats = {
        name: _column(ch, curves, name) for name in ("mean_plus", "mean_middle", "mean_minus")
    }
    return exact, floats, problems


EXTRACT = {"lifshitz": _lifshitz, "wegner": _wegner, "ids": _ids}


def _close(a, b):
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def check_run(workload, kind, rundir, samples, seed, default_seed):
    """Problems found in a finished run directory; an empty list means correct."""
    try:
        with open(os.path.join(rundir, "summary.txt"), encoding="utf-8") as fh:
            last = fh.read().rstrip("\n").splitlines()[-1:]
        if last != ["status: complete"]:
            return [f"summary.txt ends with {last!r}, not 'status: complete'"]
        exact, floats, problems = EXTRACT[kind](rundir, samples)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if seed != default_seed:
        return problems
    try:
        with open(os.path.join(REFERENCE_DIR, workload + ".json"), encoding="utf-8") as fh:
            ref = json.load(fh)
    except OSError as exc:
        return problems + [f"no reference outputs: {exc}"]
    for key, want in ref["exact"].items():
        if exact.get(key) != want:
            problems.append(f"{key} differs from the reference")
    for key, want in ref["floats"].items():
        got = floats.get(key, [])
        if len(got) != len(want) or not all(map(_close, got, want)):
            problems.append(f"{key} outside rel {RTOL:g} / abs {ATOL:g} of the reference")
    return problems


def capture(workload, kind, rundir, samples, seed):
    exact, floats, problems = EXTRACT[kind](rundir, samples)
    if problems:
        raise SystemExit("refusing to capture a run that fails its invariants:\n" + "\n".join(problems))
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "exact": exact, "floats": floats}, fh, indent=1)
        fh.write("\n")
    return path


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "capture":
        raise SystemExit(__doc__)
    from run import WORKLOADS

    wl = WORKLOADS[sys.argv[2]]
    print(capture(sys.argv[2], wl.kind, sys.argv[3], wl.samples(), wl.default_seed()))
