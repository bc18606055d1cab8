"""Paired benchmark runs of two checkouts, and the gain rule applied to them.

    python tests/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        [--seed S] [--seconds T]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T`` once in
the PARENT checkout and once in the CHANGE checkout, the parent first in even
pairs and the change first in odd ones, so drift on the host falls on both
sides alike.  ``--seconds`` defaults to ``run_seconds`` of CHANGE's
``BENCHMARK.json``.  Pick seeds that were not used while the change was
made.

For each end-to-end metric of ``BENCHMARK.json`` it prints every pair's two
values, both sides' medians and quartiles over the pairs, the pairs the
change won (ties count for neither side), and whether the gain rule holds:
the change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the distance between the parent's quartiles.
Any pair in which a side's run was not ``correct`` is reported and counted
as lost.  The script writes no file; run.py removes its run directories
under each checkout's ``.perfbench/`` when the runs pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The last stdout line of one ``perfbench/run.py`` run, as a dict."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}, "error": done.stderr.strip()[-300:]}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better):
    """Pairs won by the change, and whether the gain rule holds."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    holds = won >= 0.9 * len(parent) and sign * (cmed - pmed) > p3 - p1
    return won, holds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    values = {"parent": {n: [] for n in names}, "change": {n: [] for n in names}}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, seed, seconds) for side in order}
        for side in order:
            if not got[side].get("correct"):
                print(f"pair {i} seed {seed}: {side} run not correct: {got[side]}")
            for n in names:
                value = got[side].get("metrics", {}).get(n, {}).get("value")
                values[side][n].append(float("nan") if value is None else value)
        print(f"pair {i} seed {seed} ({order[0]} first): " + "  ".join(
            f"{n} {values['parent'][n][-1]:.6g} -> {values['change'][n][-1]:.6g}" for n in names
        ), flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s per run")
    print(f"{'metric':<16}{'parent q1/med/q3':>36}{'change q1/med/q3':>36}  won  rule")
    for m in spec["end_to_end"]:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        won, holds = verdict(parent, change, m["better"])
        fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
        print(
            f"{m['name']:<16}{fmt(parent):>36}{fmt(change):>36}  "
            f"{won:>2}/{len(parent)}  {'holds' if holds else 'not met'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
