"""displab benchmark: whole Monte-Carlo runs, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is a fresh ``displab <kind>`` process (``perfbench/child.py``
calling ``displab.cli.main``) with ``--threads 1``, BLAS pinned to one
thread, the workload seed passed only through ``--seed``, and a fresh output
directory under ``.perfbench/``.  Every run's outputs are checked
(``checks.py``).

``--trace 0`` makes whole runs back to back for ``--seconds`` (at least one,
none that would end past the window) and reports the end-to-end metrics of
``BENCHMARK.json`` as medians over them; set-up is timed in every run, from
spawn to its first full-volume assembly.  ``--trace 1`` makes one untraced
and one traced run, checks that their run directories are byte-identical,
and reports the per-layer metrics: calls, self and inclusive seconds of
every public displab function (``tracer.py``) plus counts computed from
their arguments and results.

The last line of standard output is the JSON result; the line before it is a
``record`` with provenance and sample counts.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    kind: str
    config: str  # relative to the repository root

    def _read(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        with open(os.path.join(ROOT, self.config), encoding="utf-8") as fh:
            parser.read_file(fh)
        return parser

    def default_seed(self):
        return self._read().getint("run", "seed", fallback=0)

    def samples(self):
        """Samples the config asks for, independent of how they are computed."""
        sec = self._read()[self.kind]
        if self.kind == "ids":
            return 3 * sec.getint("n_samples", 100)
        if self.kind == "lifshitz":
            return sec.getint("n_samples", 200)
        n_list = sec.get("n_list", "1 2 3").replace(",", " ").split()
        return len(n_list) * sec.getint("samples_per_cell", 400)


WORKLOADS = {
    "lifshitz-1d": Workload("lifshitz", "perfbench/configs/lifshitz-1d.ini"),
    "wegner-1d": Workload("wegner", "perfbench/configs/wegner-1d.ini"),
    "ids-2d": Workload("ids", "perfbench/configs/ids-2d.ini"),
}


@dataclass
class Run:
    rundir: str
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    trace: dict | None
    problems: list


def spawn(wl, seed, rundir, deadline, trace=False):
    """One child process, waited for with ``wait4`` to get its own peak RSS."""
    mark = rundir + ".mark"
    trace_path = rundir + ".trace.json"
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "--mark", mark]
    if trace:
        argv += ["--trace", trace_path]
    argv += [
        "--", wl.kind, "--config", os.path.join(ROOT, wl.config), "--out", rundir,
        "--seed", str(seed), "--threads", "1",
    ]
    env = dict(os.environ, **BLAS_ENV)
    log = os.open(rundir + ".log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.monotonic()
        pid = os.posix_spawn(
            sys.executable, argv, env,
            file_actions=[(os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2)],
        )
        killer = threading.Timer(max(0.0, deadline - t0), os.kill, (pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(pid, 0)
        t1 = time.monotonic()
        killer.cancel()
    finally:
        os.close(log)
    code = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(mark):
        with open(mark, encoding="utf-8") as fh:
            setup = float(fh.read()) - t0
    report = None
    if trace and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["t_spawn"] = t0
    problems = []
    if code != 0:
        with open(rundir + ".log", encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        problems.append(f"exit code {code}: {' '.join(tail)}")
    if setup is None:
        problems.append("no full-volume assembly was reached")
    return Run(rundir, code, t1 - t0, setup, usage.ru_maxrss / 1024.0, report, problems)


def full_run(name, wl, seed, rundir, deadline, trace=False):
    run = spawn(wl, seed, rundir, deadline, trace=trace)
    if run.code == 0:
        run.problems += checks.check_run(
            name, wl.kind, rundir, wl.samples(), seed, wl.default_seed()
        )
    return run


def _tree_bytes(path):
    out = {}
    for base, _, files in os.walk(path):
        for f in files:
            full = os.path.join(base, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name, wl, seed, seconds, workdir, deadline):
    """End-to-end metrics: medians over whole runs made for ``seconds``.

    The machine's speed moves by tens of percent from one few-second window
    to the next, so a run is short and the window holds many of them; the
    medians ignore the windows in which another tenant slowed the host.  No
    run is started that would end past the window, judged by the median of
    the runs before it.
    """
    runs = []
    start = time.monotonic()
    while not runs or (
        time.monotonic() - start + _median([r.wall_s for r in runs]) < seconds
        and time.monotonic() + max(r.wall_s for r in runs) < deadline
    ):
        runs.append(full_run(name, wl, seed, os.path.join(workdir, f"run{len(runs)}"), deadline))
    samples = wl.samples()
    ok = [r for r in runs if not r.problems]
    values = {
        "wall_s": _median([r.wall_s for r in ok]),
        "setup_s": _median([r.setup_s for r in ok]),
        "samples_per_s": _median([samples / (r.wall_s - r.setup_s) for r in ok]),
        "peak_rss_mb": _median([r.rss_mb for r in ok]),
    }
    counts = {
        "wall_s": f"median of {len(ok)} run(s)",
        "setup_s": f"median of {len(ok)} run(s), each set up once",
        "samples_per_s": f"median of {len(ok)} run(s), {samples} samples each",
        "peak_rss_mb": f"median of {len(ok)} run(s)",
    }
    return runs, values, counts


def trace_layers(name, wl, seed, workdir, deadline):
    """Per-layer metrics from one traced run, checked against an untraced one."""
    plain = full_run(name, wl, seed, os.path.join(workdir, "untraced"), deadline)
    traced = full_run(name, wl, seed, os.path.join(workdir, "traced"), deadline, trace=True)
    if not plain.problems and not traced.problems:
        if _tree_bytes(plain.rundir) != _tree_bytes(traced.rundir):
            traced.problems.append("traced run directory differs from the untraced one")
    report = traced.trace
    if report is None:
        traced.problems.append("traced run wrote no trace")
        return [plain, traced], {}, {}
    values = {}
    for layer, (calls, self_s, incl_s) in report["layers"].items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.incl_s"] = incl_s
    values.update(report["counters"])
    n_counts = values.get("eigensolve.count_below.calls", 0)
    if n_counts:
        values["eigensolve.count_below.mean_n"] = (
            values.pop("eigensolve.count_below.sum_n") / n_counts
        )
    startup = report["startup"]
    values["startup.interpreter.self_s"] = startup["t_start"] - report["t_spawn"]
    values["startup.import.self_s"] = startup["t_imported"] - startup["t_start"]
    named = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["other.self_s"] = traced.wall_s - named
    values["trace.coverage"] = named / traced.wall_s
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = plain.wall_s
    return [plain, traced], values, {}


def provenance():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "displab")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            full = os.path.join(base, f)
            digest.update(os.path.relpath(full, src).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(name, seed, seconds, trace, spec):
    """Measure one workload and print its report.

    Returns (runs, failed runs, metrics, record).
    """
    wl = WORKLOADS[name]
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench", f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    print(f"workload {name}: displab {wl.kind} --config {wl.config} --seed {seed}")
    if trace:
        runs, values, counts = trace_layers(name, wl, seed, workdir, deadline)
        wanted = spec["per_layer"]
    else:
        runs, values, counts = measure(name, wl, seed, seconds, workdir, deadline)
        wanted = spec["end_to_end"]
    failed = [r for r in runs if r.problems]
    for r in failed:
        for problem in r.problems[:10]:
            print(f"FAILED {os.path.basename(r.rundir)}: {problem}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    for key, m in metrics.items():
        print(f"  {key:<52} {m['value']:>14.6g} {m['unit']:<8} {counts.get(key, '')}")
    if trace and "trace.wall_s" in values:
        _print_layer_shares(values)
    counts["fail_frac"] = f"{len(failed)} of {len(runs)} runs failed"
    print(f"  fail_frac {len(failed) / len(runs):g} ({counts['fail_frac']})")
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": name, "seed": seed, "trace": trace, "sample_counts": counts}
    return runs, failed, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [
        path
        for path in ["src/displab/cli.py", "BENCHMARK.json"] + [WORKLOADS[n].config for n in names]
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"error: missing under {ROOT}: {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    attempted = failed = 0
    metrics, records = {}, []
    for name in names:
        runs, bad, wl_metrics, record = run_workload(
            name, args.seed, args.seconds, args.trace, spec
        )
        attempted += len(runs)
        failed += len(bad)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        records.append(record)
    prov = provenance()
    for record in records:
        print("record " + json.dumps(dict(record, provenance=prov), sort_keys=True))
    result = {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _print_layer_shares(values):
    wall = values["trace.wall_s"]
    rows = sorted(
        ((v, k.removesuffix(".self_s")) for k, v in values.items() if k.endswith(".self_s")),
        reverse=True,
    )
    print(f"  where the traced {wall:.3f} s went (self time, share of wall):")
    for v, layer in rows:
        if v >= 0.001 * wall:
            print(f"    {layer:<44} {v:10.4f} s {100 * v / wall:6.2f} %")
    print(
        f"  named layers cover {100 * values['trace.coverage']:.2f} % of wall; "
        f"tracing overhead {values['trace.wall_s']:.3f} s traced vs "
        f"{values['trace.untraced_wall_s']:.3f} s untraced"
    )


if __name__ == "__main__":
    sys.exit(main())
