"""Command-line front end: config-driven experiments with resumable runs.

Every run is an INI config (see ``presets/``) executed into an output
directory containing

  manifest.txt   canonical config + content hash; identifies the run
  summary.txt    human-readable results, final line ``status: complete``
  *.csv          deterministic tables (shortest round-trip float format)
  cache.csv      per-sample Monte-Carlo state for resumable kinds

Reruns of the same config are byte-identical; ``--resume DIR`` picks up a
partially computed cache and finishes it, producing the same bytes as a
one-shot run.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import gc
import glob
import hashlib
import io
import itertools
import math
import os
import sys
from configparser import ConfigParser, Error as ConfigParserError
from typing import NamedTuple

import numpy as np

from . import __version__
from .assumptions import (
    coercivity_constant,
    exhaustive_field_scan,
    gap_ratio_table,
    minimize_over_field,
    minimize_over_support,
    robust_linear_minimizer,
)
from .discretize import (
    GridSpec,
    assemble_fiber,
    assemble_periodic,
    free_fiber_eigenvalues,
)
from .eigensolve import DENSE_CUTOFF, CountBreakdownError
from .floquet import (
    band_bottom,
    band_table,
    build_projectors,
    feynman_hellmann_residual,
    v_vector,
)
from .potentials import FieldChunk, constant_field, periodic_family, single_site_family
from .randomfields import DisplacementDistribution, sample_fields
from .reduced import (
    band_symbol_ratio,
    build_reduced,
    calibrate_sandwich,
    ground_zero_iff_constant,
    symbol_kinetic,
)
from .spectral_stats import (
    ContinuumFamily,
    FitError,
    IDSCurve,
    IDSSandwichReport,
    ReducedFamily,
    count_rows,
    lifshitz_fit,
    lifshitz_rows,
    sandwich_families,
    wegner_report,
    wegner_rows,
)
from . import supports

SIZE_GUARD = 200_000
# Samples per chunk in the ids, lifshitz and wegner runners: each chunk's
# fields are drawn at once, assembled at once and counted in one stacked
# count per family (ids: per family, on the shared fields).  A row
# of the chain sweep costs about 0.85 us (two NumPy calls) plus 1 ns per
# column, and a lifshitz-reduced-1d sample has 44 columns: at 16 samples a
# chunk's share of the fixed part is down to its column part, while each
# sample held adds about 0.1 MB (its CSR matrix and chain).
SAMPLE_CHUNK = 16
SEED_LIMIT = 2**63  # [run] seed keys Philox streams: 0 <= seed < 2^63


class ConfigError(ValueError):
    pass


# -- formatting ------------------------------------------------------------


def fmt(x):
    """Deterministic scalar formatting: shortest round-trip for floats."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    """Atomic deterministic CSV write (quote-minimal, LF lines)."""
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# -- config handling ---------------------------------------------------------

def load_config_text(text):
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    if "run" not in cfg:
        raise ConfigError("missing [run] section")
    kind = cfg["run"].get("kind")
    if kind not in KINDS:
        raise ConfigError(f"run.kind must be one of {', '.join(KINDS)}; got {kind!r}")
    return cfg


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def canonical_config(cfg):
    lines = []
    for section in sorted(cfg):
        if cfg[section]:
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v.strip()}" for k, v in sorted(cfg[section].items()))
            lines.append("")
    return "\n".join(lines)


def config_sha(cfg):
    return hashlib.sha256(canonical_config(cfg).encode("utf-8")).hexdigest()


class Key(NamedTuple):
    """One config key.  ``many`` reads a list of one or more values, split at
    spaces or commas; each number must be finite, >= ``lo``, > ``above`` and
    in ``choices``, where set.  A ``per_axis`` list holds exactly model.d
    values.  A default of "auto" also admits that word, for which the runner
    works the value out."""

    type: type
    default: object = None
    required: bool = False
    many: bool = False
    lo: float | None = None
    above: float | None = None
    choices: tuple | range | None = None
    per_axis: bool = False


# Every key of every section, as "section.key".  A config holds the common
# sections and its own kind's section ([verify] for verify-all), no other.
SCHEMA = {
    "run.kind": Key(str, required=True),
    "run.seed": Key(int, 0, choices=range(SEED_LIMIT)),
    "model.d": Key(int, required=True, choices=(1, 2)),
    "model.lam": Key(float, required=True, lo=0),
    "model.m": Key(int, required=True, lo=4),
    "model.n": Key(int, 1, lo=0),
    "periodic.family": Key(str, "zero"),
    "periodic.coefficients": Key(float, many=True),
    "site.family": Key(str, "zero"),
    "site.amplitude": Key(float, 0.5),
    "site.radius": Key(float, 0.45),
    "support.kind": Key(str, "ball"),
    "support.center": Key(float, many=True, per_axis=True),
    "support.radius": Key(float, 1.0),
    "support.semi_axes": Key(float, many=True, per_axis=True),
    "support.lo": Key(float, many=True, per_axis=True),
    "support.hi": Key(float, many=True, per_axis=True),
    "support.vertices": Key(str),
    "distribution.kind": Key(str, "uniform-ball"),
    "distribution.radial_exponent": Key(float),
    "band.zeta": Key(float, many=True, per_axis=True),
    "band.nbands": Key(int, 3, lo=1),
    "band.theta_n": Key(int, 2, lo=0),
    "minimize.restarts": Key(int, 8, lo=1),
    "minimize.gap_lams": Key(float, (0.2, 0.1, 0.05), many=True, above=0),
    "theorem1.restarts": Key(int, 16, lo=1),
    "theorem1.site_tol": Key(float, 1e-3),
    "theorem1.energy_tol": Key(float, 1e-8),
    "theorem1.grid_points": Key(int, 0, lo=0),
    "ids.c0": Key(float, required=True, lo=1),
    "ids.alpha": Key(float, required=True, above=0),
    "ids.zeta": Key(float, required=True, many=True, per_axis=True),
    "ids.n_samples": Key(int, 100, lo=1),
    "ids.n_offsets": Key(int, 12, lo=1),
    "lifshitz.n": Key(int, 1000, lo=1),
    "lifshitz.n_samples": Key(int, 200, lo=1),
    "lifshitz.sign": Key(int, 1, choices=(-1, 1)),
    "lifshitz.c0": Key(float, required=True, lo=1),
    "lifshitz.alpha": Key(float, required=True, above=0),
    "lifshitz.zeta": Key(float, required=True, many=True, per_axis=True),
    "lifshitz.v": Key(float, "auto", many=True, per_axis=True),
    "lifshitz.e_min": Key(float, required=True, above=0),
    "lifshitz.e_max": Key(float, required=True),
    "lifshitz.n_energies": Key(int, 24, lo=3),  # the tail fit needs 3 points
    "lifshitz.ground_hi": Key(float, 4.0, above=0),
    "wegner.zeta": Key(float, required=True, many=True, per_axis=True),
    "wegner.n_list": Key(int, (1, 2, 3), many=True, lo=0),
    "wegner.samples_per_cell": Key(int, 400, lo=1),
    "wegner.ground_samples": Key(int, 50, lo=0),
    "wegner.audit_per_n": Key(int, 17, lo=0),
    "wegner.e_center": Key(float, "auto"),
    "wegner.n_eps": Key(int, 6, lo=1),
    "wegner.eps_frac": Key(float, 0.25, above=0),
    "reduce.zeta": Key(float, required=True, many=True, per_axis=True),
    "reduce.c0": Key(float, required=True, lo=1),
    "reduce.alpha": Key(float, required=True, above=0),
    "reduce.n": Key(int, 1, lo=1),
    "reduce.grid_points": Key(int, 9, lo=1),
    "sandwich.zeta": Key(float, "auto", many=True, per_axis=True),
    "sandwich.alpha0": Key(float, "auto"),
    "sandwich.c0_list": Key(float, (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0), many=True, lo=1),
    "sandwich.n_fields": Key(int, 20, lo=1),
    "sandwich.trials": Key(int, 40, lo=1),
    "verify.c0": Key(float, 8.0, lo=1),
}


def _own_section(kind):
    return "verify" if kind == "verify-all" else kind


def read_config(cfg):
    """Every key of a loaded config's run, typed: ``{section: {key: value}}``.

    Absent keys take their defaults.  An unknown section or key, a missing
    required key, a malformed or out-of-range value and a per-axis list
    without one value per axis are ConfigErrors.
    """
    kind = cfg["run"]["kind"]
    sections = ("run", "model", "periodic", "site", "support", "distribution", _own_section(kind))
    for section, raw in cfg.items():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}] in a {kind} config")
        for name in raw:
            if f"{section}.{name}" not in SCHEMA:
                raise ConfigError(f"unknown key {section}.{name}")
    typed = {section: {} for section in sections}
    for where, key in SCHEMA.items():
        section, name = where.split(".")
        if section in typed:
            typed[section][name] = _read_value(where, name, key, cfg.get(section, {}).get(name))
    d = typed["model"]["d"]
    for where, key in SCHEMA.items():
        section, name = where.split(".")
        value = typed.get(section, {}).get(name)
        if key.per_axis and value not in (None, "auto") and len(value) != d:
            raise ConfigError(f"{where} needs one value per axis (model.d = {d}), got {len(value)}")
    return typed


def _read_value(where, name, key, raw):
    if raw is None:
        if key.required:
            raise ConfigError(f"missing {where}")
        return key.default
    raw = raw.strip()
    if key.type is str or (raw == "auto" and key.default == "auto"):
        return raw
    values = []
    for token in raw.replace(",", " ").split() if key.many else [raw]:
        try:
            x = key.type(token)
        except ValueError:
            noun = "an integer" if key.type is int else "a number"
            raise ConfigError(f"{where}: {token!r} is not {noun}") from None
        if not math.isfinite(x):
            raise ConfigError(f"{where} must be finite, got {token}")
        if key.lo is not None and x < key.lo:
            raise ConfigError(f"{where} must be >= {key.lo}, got {x}")
        if key.above is not None and x <= key.above:
            raise ConfigError(f"{where} must be > {key.above}, got {x}")
        if key.choices is not None and x not in key.choices:
            raise ConfigError(f"{where} must satisfy {name} in {key.choices}, got {x}")
        values.append(x)
    if not values:
        raise ConfigError(f"{where} needs at least one value")
    return values if key.many else values[0]


def build_model(cfg):
    """Potentials, coupling and grid from [model], [periodic], [site]."""
    model, periodic, site = cfg["model"], cfg["periodic"], cfg["site"]
    d, n, m = model["d"], model["n"], model["m"]
    try:
        p = periodic_family(periodic["family"], d, coefficients=periodic["coefficients"])
        q = single_site_family(
            site["family"], d, amplitude=site["amplitude"], radius=site["radius"]
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if ((2 * n + 1) * m) ** d > SIZE_GUARD:
        raise ConfigError(
            f"size guard: ((2n+1) m)^d = {((2 * n + 1) * m) ** d} exceeds {SIZE_GUARD}"
        )
    return p, q, model["lam"], n, m


def _size_guard(base, power, what):
    """A ConfigError when a run would build ``base ** power`` ``what`` (rows,
    sites or scan configurations), more than SIZE_GUARD.  The power takes at
    most SIZE_GUARD.bit_length() factors, past which any base >= 2 is over."""
    if base ** min(power, SIZE_GUARD.bit_length()) > SIZE_GUARD:
        raise ConfigError(f"size guard: {what}: {base}^{power} > {SIZE_GUARD}")


def _need_torus(n, run):
    """A ConfigError unless model.n makes a torus of side 2n + 1 >= 3, which
    the sandwich operators of an ``ids`` or ``sandwich`` run need."""
    if n < 1:
        raise ConfigError(f"model.n must be >= 1 for {run} (a torus side 2n+1 >= 3), got {n}")


def _need_coupling(lam, run):
    """A ConfigError unless model.lam > 0: the growth constant alpha0 that
    ``verify-all`` and an auto ``sandwich.alpha0`` measure divides by lam."""
    if not lam > 0:
        raise ConfigError(
            f"model.lam must be > 0 for {run} (the growth constant alpha0 divides by it), got {lam}"
        )


def build_support(cfg, d):
    """The [support] set; a ConfigError unless its dimension is model.d."""
    sup = cfg["support"]
    kind, center = sup["kind"], sup["center"] or [0.0] * d

    def need(key):
        if sup[key] is None:
            raise ConfigError(f"missing support.{key}")
        return sup[key]

    try:
        if kind == "ball":
            support = supports.ball(center, sup["radius"])
        elif kind == "sphere":
            support = supports.sphere(center, sup["radius"])
        elif kind in ("ellipsoid", "ellipsoid-boundary"):
            boundary = kind.endswith("boundary")
            support = supports.ellipsoid(center, need("semi_axes"), boundary_only=boundary)
        elif kind == "interval":
            lo, hi = sup["lo"] or [-1.0], sup["hi"] or [1.0]
            if len(lo) != 1 or len(hi) != 1:
                raise ConfigError("support.lo and support.hi of an interval are numbers")
            support = supports.interval(lo[0], hi[0])
        elif kind == "box":
            support = supports.box(need("lo"), need("hi"))
        elif kind == "polygon":
            verts = [[float(t) for t in chunk.split()] for chunk in need("vertices").split(";")]
            support = supports.polygon(verts)
        else:
            raise ConfigError(f"unknown support kind {kind!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad support: {exc}") from exc
    if support.d != d:
        raise ConfigError(f"support.kind = {kind} is {support.d}-dimensional, but model.d = {d}")
    return support


def build_distribution(cfg, support):
    dist = cfg["distribution"]
    try:
        return DisplacementDistribution(
            kind=dist["kind"], support=support, radial_exponent=dist["radial_exponent"]
        )
    except ValueError as exc:
        raise ConfigError(f"bad distribution: {exc}") from exc


# -- run directory helpers ---------------------------------------------------


class RunDir:
    def __init__(self, path):
        self.path = path

    def file(self, name):
        return os.path.join(self.path, name)

    @property
    def manifest(self):
        return self.file("manifest.txt")

    @property
    def summary(self):
        return self.file("summary.txt")

    @property
    def cache(self):
        return self.file("cache.csv")

    def is_complete(self):
        try:
            with open(self.summary, "r", encoding="utf-8") as fh:
                lines = fh.read().rstrip("\n").splitlines()
            return bool(lines) and lines[-1] == "status: complete"
        except OSError:
            return False

    def write_manifest(self, cfg):
        text = (
            f"# displab run manifest\nversion = {__version__}\n"
            f"kind = {cfg['run']['kind']}\nconfig_sha256 = {config_sha(cfg)}\n"
            f"--- config ---\n{canonical_config(cfg)}"
        )
        _atomic_write(self.manifest, text)

    def read_manifest_config(self):
        try:
            with open(self.manifest, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read manifest in {self.path}: {exc}") from exc
        marker = "--- config ---\n"
        pos = text.find(marker)
        if pos < 0:
            raise ConfigError("manifest has no embedded config")
        return load_config_text(text[pos + len(marker) :])

    def finish(self, lines, ok=True):
        status = "complete" if ok else "failed"
        _atomic_write(self.summary, "\n".join(lines + [f"status: {status}"]) + "\n")
        return 0 if ok else 1


def _prepare_rundir(cfg, out):
    """The run directory of ``cfg`` at ``out``, with its manifest written.

    A directory that holds another run's manifest is refused, unless the
    manifest is all it holds: a run stopped by a config error before it
    wrote anything leaves no results to protect.
    """
    rd = RunDir(out)
    os.makedirs(out, exist_ok=True)
    if os.path.exists(rd.manifest) and os.listdir(out) != ["manifest.txt"]:
        existing = rd.read_manifest_config()
        if config_sha(existing) != config_sha(cfg):
            raise ConfigError(
                f"output dir {out} holds a different run (config hash mismatch); "
                "refusing to overwrite"
            )
    rd.write_manifest(cfg)
    return rd


# -- Monte-Carlo cache -------------------------------------------------------


def _load_cache(path, header):
    """Rows of a (possibly partial) cache.

    A run killed while appending can leave a last line that is cut short yet
    still has the right field count (``true`` -> ``tr``), so a final line
    without its newline is dropped.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError:
        return []
    try:
        rows = list(csv.reader(io.StringIO(text[: text.rfind("\n") + 1])))
    except csv.Error:
        return []
    if not rows or rows[0] != header:
        return []
    return [row for row in rows[1:] if len(row) == len(header)]


def _sample_cache(rd, header, key, tasks, compute, chunk):
    """Every task's cache row: replayed from ``cache.csv``, else computed.

    ``key(row)`` recovers the task from a cached row and ``compute(batch)``
    returns the rows of a tuple of up to ``chunk`` missing tasks, in order,
    from ``spectral_stats`` batch functions (``count_rows``,
    ``lifshitz_rows`` or ``wegner_rows``).  The batches are computed in
    order and each finished batch's rows are appended to ``cache.csv``
    (made with the first batch), so a Ctrl-C, an error or a kill keeps
    every finished batch for ``--resume``.  A solver failure in a batch is
    raised again with the batch's first and last task, named by the key
    columns of ``header``.  On the way out the cache is rewritten once, in
    task order, which gives a resumed run the bytes of a one-shot run.
    """
    rows = {key(row): row for row in _load_cache(rd.cache, header)}
    todo = [t for t in tasks if t not in rows]
    if os.path.exists(rd.cache):  # drop a torn or foreign tail before appending
        _write_cache(rd, header, rows)
    try:
        for i in range(0, len(todo), chunk):
            batch = tuple(todo[i : i + chunk])
            try:
                done = [[fmt(x) for x in row] for row in compute(batch)]
            except (CountBreakdownError, np.linalg.LinAlgError) as exc:
                first, last = (_task_text(header, task) for task in (batch[0], batch[-1]))
                raise type(exc)(f"{exc} (in the chunk from {first} to {last})") from exc
            rows.update(zip(batch, done))
            _append_rows(rd.cache, header, done)
    finally:
        _write_cache(rd, header, rows)
    return rows


def _task_text(header, task):
    """A task by its key columns as ``cache.csv`` stores them: ``sample 4`` or
    ``family plus, sample 4``.  An ``ids`` task holds its family's index in
    ``_IDS_FAMILIES``, which orders the cache; the cache stores the name."""
    values = task if isinstance(task, tuple) else (task,)
    if header[0] == "family":
        values = (_IDS_FAMILIES[values[0]],) + values[1:]
    return ", ".join(f"{name} {value}" for name, value in zip(header, values))


def _runs(batch):
    """The (family, samples) runs of a batch of (family, sample) tasks, in order."""
    for family, group in itertools.groupby(batch, key=lambda task: task[0]):
        yield family, tuple(s for _, s in group)


def _append_rows(path, header, rows):
    """Append rows to a CSV file, starting it with ``header`` if it is new."""
    with open(path, "a", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        if not fh.tell():
            w.writerow(header)
        w.writerows(rows)


def _write_cache(rd, header, rows):
    write_csv(rd.cache, header, [rows[task] for task in sorted(rows)])


# -- experiment runners ------------------------------------------------------


def run_band(cfg, rd, zeta, nbands, theta_n):
    p, q, lam, n, m = build_model(cfg)
    if nbands > m**q.d:
        raise ConfigError(
            f"band.nbands = {nbands} exceeds the {m**q.d} levels of a fiber (model.m ** model.d)"
        )
    zeta = np.asarray(zeta or [0.0] * q.d)
    rows = band_table(p, q, lam, zeta, m, nbands=nbands, n=theta_n)
    header = [f"theta_{j + 1}" for j in range(q.d)] + [
        f"e_{k + 1}" for k in range(nbands)
    ]
    write_csv(rd.file("bands.csv"), header, rows)
    lines = [f"band table: {rows.shape[0]} momenta x {nbands} bands"]
    if q.is_zero and p.name == "zero" and q.d == 1:
        worst = 0.0
        for row in rows:
            exact = free_fiber_eigenvalues(row[0], m)[:nbands]
            worst = max(worst, float(np.max(np.abs(np.sort(row[1:]) - exact))))
        lines.append(f"free closed-form deviation: {fmt(worst)}")
    bb = band_bottom(p, q, lam, zeta, m)
    fh = feynman_hellmann_residual(p, q, lam, zeta, m)
    lines += [
        f"bottom energy: {fmt(bb.energy)}",
        f"fiber gap at theta=0: {fmt(bb.gap)}",
        f"drift vector: {' '.join(fmt(x) for x in bb.v)}",
        f"gradient residual (delta={fmt(fh.delta)}): {fmt(fh.residual)}",
    ]
    return rd.finish(lines)


def run_minimize(cfg, rd, restarts, gap_lams):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    seed = cfg["run"]["seed"]
    cert = minimize_over_support(p, q, lam, support, m, restarts=restarts, seed=seed)
    write_csv(
        rd.file("minimizer.csv"),
        [f"zeta_{j + 1}" for j in range(q.d)] + ["energy", "iterations", "converged"],
        [
            list(cert.endpoints[i]) + [cert.endpoint_energies[i], cert.iterations[i], cert.converged[i]]
            for i in range(len(cert.iterations))
        ],
    )
    lines = [
        f"minimizer: {' '.join(fmt(x) for x in cert.zeta)}",
        f"energy: {fmt(cert.energy)}",
        f"cluster diameter: {fmt(cert.cluster_diameter)}",
        f"unique: {fmt(cert.unique)}  flat: {fmt(cert.flat)}",
    ]
    checks = []
    if not cert.flat:
        coer = coercivity_constant(p, q, lam, support, cert.zeta, m, seed=seed + 1)
        checks.append(("alpha0", coer.alpha0, coer.positive))
        lines.append(f"growth constant alpha0: {fmt(coer.alpha0)} (positive: {fmt(coer.positive)})")
    curv = support.min_curvature()
    checks.append(("min_curvature", curv.value, curv.strictly_convex))
    lines.append(f"boundary curvature: {fmt(curv.value)} ({curv.note})")
    v_q = v_vector(p, q, 0.0, np.zeros(q.d), m)
    eps_robust = 0.5 * float(np.linalg.norm(v_q))
    rob = robust_linear_minimizer(support, v_q, eps_robust, seed=seed + 2)
    checks.append(("robust_margin", rob.margin, rob.ok))
    lines.append(
        f"robust linear minimizer at eps={fmt(eps_robust)}: "
        f"{' '.join(fmt(x) for x in rob.zeta0)} margin {fmt(rob.margin)} ok {fmt(rob.ok)}"
    )
    gaps = gap_ratio_table(p, q, gap_lams, support, m, seed=seed + 3)
    write_csv(
        rd.file("gap_ratios.csv"),
        ["lam", "energy", "ratio"],
        list(zip(gaps.lams, gaps.energies, gaps.ratios)),
    )
    checks.append(("gap_ratio_min", gaps.min_ratio, gaps.all_positive))
    lines.append(f"gap ratios positive: {fmt(gaps.all_positive)} (min {fmt(gaps.min_ratio)})")
    write_csv(rd.file("checks.csv"), ["name", "value", "ok"], checks)
    return rd.finish(lines)


def run_theorem1(cfg, rd, restarts, site_tol, energy_tol, grid_points):
    p, q, lam, n, m = build_model(cfg)
    _size_guard(grid_points, (2 * n + 1) ** q.d, "configurations theorem1.grid_points^((2n+1)^d)")
    if grid_points >= 2 and q.d != 1:
        raise ConfigError("theorem1 scan (theorem1.grid_points >= 2) is d = 1 only")
    support = build_support(cfg, q.d)
    seed = cfg["run"]["seed"]
    rep = minimize_over_field(
        p, q, lam, support, n, m,
        restarts=restarts, seed=seed, energy_tol=energy_tol, site_tol=site_tol,
    )
    write_csv(
        rd.file("restarts.csv"),
        ["restart", "energy", "max_site_deviation", "iterations", "converged"],
        [
            [i, r.energy, r.max_site_deviation, r.iterations, r.converged]
            for i, r in enumerate(rep.restarts)
        ],
    )
    write_csv(
        rd.file("field.csv"),
        ["site"] + [f"omega_{j + 1}" for j in range(q.d)],
        [[i] + list(row) for i, row in enumerate(rep.best_field)],
    )
    ok = rep.all_converged_to_constant
    lines = [
        f"reference zeta: {' '.join(fmt(x) for x in rep.reference_zeta)}",
        f"reference energy: {fmt(rep.reference_energy)}",
        f"best descent energy: {fmt(rep.best_energy)} (gap {fmt(rep.energy_gap)})",
        f"all restarts at constant field: {fmt(ok)} "
        f"(site tol {fmt(site_tol)}, energy tol {fmt(energy_tol)})",
    ]
    if grid_points >= 2:
        scan = exhaustive_field_scan(p, q, lam, support, n, m, grid_points=grid_points)
        lines += [
            f"exhaustive scan ({grid_points}^{(2 * n + 1) ** q.d} configs): "
            f"argmin constant {fmt(scan.argmin_is_constant)} at {fmt(scan.constant_value)}",
            f"scan argmin energy: {fmt(scan.argmin_energy)} margin {fmt(scan.margin)}",
        ]
        ok = ok and scan.argmin_is_constant
    return rd.finish(lines, ok=ok)


_IDS_FAMILIES = ("plus", "middle", "minus")


def run_ids(cfg, rd, c0, alpha, zeta, n_samples, n_offsets):
    p, q, lam, n, m = build_model(cfg)
    _need_torus(n, "ids")
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = cfg["run"]["seed"]
    top = 0.9 / c0**2
    offsets = np.geomspace(top / 50.0, top, n_offsets)
    e_ref, families = sandwich_families(p, q, lam, dist, zeta, n, m, c0, alpha, offsets)

    def compute(batch):
        # The families share each sample's field: draw the batch's fields once.
        samples = list(dict.fromkeys(s for _, s in batch))
        fields = sample_fields(dist, n, seed, samples)
        rows = {}
        for k, (fam, energies) in enumerate(families):
            mine = tuple(s for j, s in batch if j == k)
            if mine:
                shared = fields.take(samples.index(s) for s in mine)
                counts = count_rows(fam, energies, shared)
                rows.update(
                    ((k, s), [_IDS_FAMILIES[k], s] + c.tolist()) for s, c in zip(mine, counts)
                )
        return [rows[task] for task in batch]

    rows = _sample_cache(
        rd,
        ["family", "sample"] + [f"c_{g}" for g in range(len(offsets))],
        lambda row: (_IDS_FAMILIES.index(row[0]), int(row[1])),
        [(k, s) for s in range(n_samples) for k in range(len(families))],
        compute,
        chunk=len(families) * SAMPLE_CHUNK,
    )
    curves = [
        IDSCurve(
            counts=np.array(
                [[int(x) for x in rows[(k, s)][2:]] for s in range(n_samples)], dtype=int
            ),
            n_cells=fam.n_cells,
        )
        for k, (fam, _) in enumerate(families)
    ]
    rep = IDSSandwichReport.from_curves(*curves)
    columns = [offsets]
    for curve in curves:
        columns += [curve.values(), curve.stderr()]
    write_csv(
        rd.file("curves.csv"),
        [
            "offset", "mean_plus", "se_plus", "mean_middle", "se_middle",
            "mean_minus", "se_minus", "ok_lower", "ok_upper",
        ],
        zip(*columns, rep.lower_ok(), rep.upper_ok()),
    )
    lines = [
        f"counting chain at c0={fmt(c0)} alpha={fmt(alpha)} over {n_samples} samples",
        f"reference bottom: {fmt(e_ref)}",
        f"chain within 3 sigma at every offset: {fmt(rep.all_ok)}",
        f"strict per-sample violations: {rep.sample_violations}",
    ]
    return rd.finish(lines, ok=rep.all_ok)


def run_lifshitz(
    cfg, rd, n, n_samples, sign, c0, alpha, zeta, v, e_min, e_max, n_energies, ground_hi
):
    p, q, lam, n_model, m = build_model(cfg)
    _size_guard(2 * n + 1, q.d, "sites (2 lifshitz.n + 1)^d")
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = cfg["run"]["seed"]
    zeta = np.asarray(zeta)
    v = v_vector(p, q, lam, zeta, m) if v == "auto" else np.asarray(v)
    if not e_min < e_max:
        raise ConfigError("need 0 < lifshitz.e_min < lifshitz.e_max")
    energies = np.geomspace(e_min, e_max, n_energies)
    fam = ReducedFamily(sign, v, lam, zeta, dist, n, c0, alpha)

    def compute(batch):
        grounds, counts = lifshitz_rows(fam, seed, batch, energies, ground_hi)
        return [[s, g] + c.tolist() for s, g, c in zip(batch, grounds, counts)]

    rows = _sample_cache(
        rd,
        ["sample", "ground"] + [f"c_{g}" for g in range(n_energies)],
        lambda row: int(row[0]),
        range(n_samples),
        compute,
        chunk=SAMPLE_CHUNK,
    )
    counts = np.array(
        [[int(x) for x in rows[s][2:]] for s in range(n_samples)], dtype=int
    )
    grounds = np.array([float(rows[s][1]) for s in range(n_samples)], dtype=float)
    # Finite-volume bottom: lowest sampled ground level minus 3 standard errors.
    # The deterministic bottom of the signed model (constant field at zeta) is 0.
    ground_se = float(grounds.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    e_hat = max(0.0, float(grounds.min()) - 3.0 * ground_se)
    curve = IDSCurve(counts=counts, n_cells=fam.n_cells)
    vals, ses = curve.values(), curve.stderr()
    write_csv(
        rd.file("curve.csv"),
        ["energy", "value", "stderr"],
        list(zip(energies, vals, ses)),
    )
    # ground_bisect returns ground_hi itself for a sample with no level below it.
    missed = int(np.sum(grounds >= ground_hi))
    lines = [
        f"finite-volume bottom estimate: {fmt(e_hat)} (deterministic bottom: 0.0)",
        f"sampled ground levels: min {fmt(float(grounds.min()))} se {fmt(ground_se)}",
    ]
    try:
        fit = lifshitz_fit(energies, vals, e_bottom=e_hat)
    except FitError as err:  # no fit: its columns are NaN and the run fails
        fitted, tail = [math.nan] * 6, False
        lines.append(f"no fit: {err}")
    else:
        fitted = [
            fit.slope, fit.intercept, fit.rms_residual, fit.half_window_slope,
            fit.n_points, fit.no_tail,
        ]
        tail = not fit.no_tail
        lines[:0] = [
            f"tail fit over {fit.n_points} points: slope {fmt(fit.slope)}",
            f"half-window slope: {fmt(fit.half_window_slope)}",
        ]
        lines.append(f"doubly-log tail visible: {fmt(tail)}")
    write_csv(
        rd.file("fit.csv"),
        [
            "slope", "intercept", "rms_residual", "half_window_slope", "n_points",
            "no_tail", "e_bottom_used", "e_bottom_deterministic", "ground_min", "ground_se",
        ],
        [fitted + [e_hat, 0.0, float(grounds.min()), ground_se]],
    )
    if missed:
        lines.append(
            f"no level below lifshitz.ground_hi = {fmt(ground_hi)} in {missed} of {n_samples} samples"
        )
    return rd.finish(lines, ok=tail and not missed)


def run_wegner(
    cfg, rd, zeta, n_list, samples_per_cell, ground_samples, audit_per_n,
    e_center, n_eps, eps_frac,
):
    p, q, lam, n_model, m = build_model(cfg)
    for n in n_list:
        _size_guard((2 * n + 1) * m, q.d, f"rows ((2n+1) m)^d of wegner.n_list n = {n}")
        rows = ((2 * n + 1) * m) ** q.d
        if audit_per_n > 0 and rows > DENSE_CUTOFF:
            raise ConfigError(
                f"wegner.audit_per_n = {audit_per_n} audits dense spectra, of at most "
                f"{DENSE_CUTOFF} rows, but wegner.n_list n = {n} has ((2n+1) m)^d = {rows}"
            )
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = cfg["run"]["seed"]
    e_lam = band_bottom(p, q, lam, np.asarray(zeta), m).energy
    e_top = band_bottom(p, q, 0.0, np.zeros(q.d), m).energy
    if e_center == "auto":
        e_center = 0.5 * (e_lam + e_top)
    eps_hi = eps_frac * (e_top - e_lam)
    if not eps_hi > 0:
        raise ConfigError(
            f"wegner.eps_frac scales the band gap e_top - e_lam = {fmt(e_top - e_lam)} "
            "(the band bottom at lam = 0 minus the one at model.lam), which must be > 0"
        )
    eps_list = np.geomspace(eps_hi / 10**1.5, eps_hi, n_eps).tolist()
    families = {n: ContinuumFamily(p=p, q=q, lam=lam, dist=dist, n=n, m=m) for n in n_list}
    if len(set(eps_list)) < 2 or len(families) < 2:
        raise ConfigError(
            f"the joint fit of log p on log eps and log volume needs at least 2 windows "
            f"and 2 sizes, got {len(set(eps_list))} (wegner.n_eps) and "
            f"{len(families)} (wegner.n_list)"
        )

    fresh_audits = {}  # (n, sample) -> dense hit decisions; never written to disk

    def compute(batch):
        rows = []
        for n, samples in _runs(batch):
            hits, grounds, audits = wegner_rows(
                families[n], seed, samples, e_center, eps_list, ground_samples, audit_per_n
            )
            fresh_audits.update(
                ((n, s), a) for s, a in zip(samples, audits) if a is not None
            )
            rows += [
                [n, s, "" if e0 is None else e0] + h.tolist()
                for s, h, e0 in zip(samples, hits, grounds)
            ]
        return rows

    rows = _sample_cache(
        rd,
        ["n", "sample", "ground"] + [f"hit_{k}" for k in range(len(eps_list))],
        lambda row: (int(row[0]), int(row[1])),
        [(n, s) for n in families for s in range(samples_per_cell)],
        compute,
        chunk=SAMPLE_CHUNK,
    )
    cached = {n: [rows[(n, s)] for s in range(samples_per_cell)] for n in families}
    rep = wegner_report(families, e_center, eps_list, seed, audit_per_n, {
        n: (
            np.array([r[3:] for r in got]) == "true",
            [float(r[2]) if r[2] else None for r in got],
            [fresh_audits.get((n, s)) for s in range(samples_per_cell)],
        )
        for n, got in cached.items()
    })
    write_csv(
        rd.file("records.csv"),
        ["n", "eps", "hits", "samples", "p_hat", "stderr"],
        [[r.n, r.eps, r.hits, r.samples, r.p_hat, r.stderr] for r in rep.records],
    )
    write_csv(
        rd.file("fit.csv"),
        [
            "nu_hat", "nu_stderr", "dim_hat", "dim_stderr", "e_center",
            "excluded_cells", "audits_total", "audits_agree",
        ],
        [[
            rep.nu_hat, rep.nu_stderr, rep.dim_hat, rep.dim_stderr, e_center,
            rep.n_excluded, rep.audits_total, rep.audits_agree,
        ]],
    )
    lines = [
        f"window exponent nu_hat: {fmt(rep.nu_hat)} +- {fmt(rep.nu_stderr)}",
        f"volume exponent dim_hat: {fmt(rep.dim_hat)} +- {fmt(rep.dim_stderr)}",
        f"window center: {fmt(e_center)} in [{fmt(e_lam)}, {fmt(e_top)}]",
        f"audits: {rep.audits_agree}/{rep.audits_total} agree",
    ]
    for n, gmin, gse in rep.ground_stats:
        lines.append(f"ground min at n={n}: {fmt(gmin)} (est. bottom {fmt(gmin - 3 * gse)})")
    if not rep.fitted:
        lines.append("no fit: the cells with 0 < hits < samples do not fix the three coefficients")
    return rd.finish(lines, ok=rep.audit_clean and rep.fitted)


def run_reduce(cfg, rd, zeta, c0, alpha, n, grid_points):
    p, q, lam, n_model, m = build_model(cfg)
    _size_guard(grid_points, 2 * n + 1, "configurations reduce.grid_points^(2 reduce.n + 1)")
    _size_guard(2 * n + 1, 2, "dense entries (2 reduce.n + 1)^2 of each scanned operator")
    zeta = np.asarray(zeta)
    v = v_vector(p, q, lam, zeta, m)
    support = build_support(cfg, q.d)
    if q.d != 1:
        raise ConfigError("reduce scan is d = 1 only")
    lo = support.project(np.array([-1e9]))[0]
    hi = support.project(np.array([1e9]))[0]
    values = np.linspace(lo, hi, grid_points)
    n_sites = 2 * n + 1
    configs = values[np.array(list(np.ndindex(*([grid_points] * n_sites))))]
    fields = FieldChunk(n=n, d=1, values=configs[..., None])
    reports = ground_zero_iff_constant(build_reduced(-1, v, lam, zeta, fields, c0, alpha))
    worst_ok = all(rep.consistent for rep in reports)
    rows = [
        list(config) + [rep.min_eigenvalue, rep.lower_bound, rep.field_is_constant, rep.consistent]
        for config, rep in zip(configs, reports)
    ]
    write_csv(
        rd.file("scan.csv"),
        [f"omega_{i + 1}" for i in range(n_sites)]
        + ["bottom", "floor", "constant", "ok"],
        rows,
    )
    thetas = GridSpec(d=q.d, n=3, m=m).thetas()
    table = band_symbol_ratio(p, q, lam, zeta, m, thetas)
    write_csv(
        rd.file("symbol_ratios.csv"),
        [f"theta_{j + 1}" for j in range(q.d)] + ["ratio"],
        [list(t) + [r] for t, r in zip(table.thetas, table.ratios)],
    )
    lines = [
        f"zero-ground characterization over {grid_points}^{n_sites} configs: {fmt(worst_ok)}",
        f"band/symbol ratios in [{fmt(table.min_ratio)}, {fmt(table.max_ratio)}] "
        f"(spread {fmt(table.spread)})",
    ]
    return rd.finish(lines, ok=worst_ok and table.min_ratio > 0)


def run_sandwich(cfg, rd, zeta, alpha0, c0_list, n_fields, trials):
    p, q, lam, n, m = build_model(cfg)
    _need_torus(n, "sandwich")
    if alpha0 == "auto":
        _need_coupling(lam, "sandwich with alpha0 = auto")
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = cfg["run"]["seed"]
    if zeta == "auto":
        zeta = minimize_over_support(p, q, lam, support, m, seed=seed).zeta
    else:
        zeta = np.asarray(zeta)
    if alpha0 == "auto":
        alpha0 = coercivity_constant(p, q, lam, support, zeta, m, seed=seed + 1).alpha0
    if alpha0 <= 0:
        raise ConfigError("sandwich needs a positive growth constant alpha0")
    grid = GridSpec(d=q.d, n=n, m=m)
    cal = calibrate_sandwich(
        p, q, lam, zeta, grid, alpha0, dist,
        c0_values=tuple(c0_list), n_fields=n_fields, master_seed=seed, trials=trials,
    )
    write_csv(
        rd.file("calibration.csv"),
        ["c0", "alpha", "min_eig_lower", "min_eig_upper", "min_quad_lower", "min_quad_upper", "passed"],
        [
            [r.c0, r.alpha, r.min_eig_lower, r.min_eig_upper, r.min_quad_lower, r.min_quad_upper, r.passed]
            for r in cal.reports
        ],
    )
    lines = [
        f"zeta: {' '.join(fmt(x) for x in np.atleast_1d(zeta))}  alpha0: {fmt(alpha0)}",
        f"first enclosing c0: {fmt(cal.passing_c0) if cal.ok else 'none'}",
    ]
    return rd.finish(lines, ok=cal.ok)


def run_verify_all(cfg, rd, c0):
    p, q, lam, n, m = build_model(cfg)
    _need_coupling(lam, "verify-all")
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = cfg["run"]["seed"]
    checks = []

    def check(name, value, ok):
        checks.append((name, value, bool(ok)))

    # free fiber exactness at a few sizes
    worst = 0.0
    zero_p = periodic_family("zero", 1)
    zero_q = single_site_family("zero", 1)
    for mm in (4, 8, 16):
        for theta in (0.0, 0.7, 2.0):
            got = np.sort(
                np.linalg.eigvalsh(
                    assemble_fiber(zero_p, zero_q, 0.0, [0.0], [theta], mm).toarray()
                )
            )
            worst = max(worst, float(np.max(np.abs(got - free_fiber_eigenvalues(theta, mm)))))
    check("free_fiber_exact", worst, worst <= 1e-10)

    # fiber completeness on a small torus
    grid = GridSpec(d=q.d, n=1, m=min(m, 16))
    pack = build_projectors(p, q, lam, np.full(q.d, -1.0), grid)
    check("frame_orthonormal", pack.isometry_defect(), pack.isometry_defect() <= 1e-10)
    full = assemble_periodic(
        p, q, lam, constant_field(1, q.d, np.full(q.d, -1.0)), grid
    ).matrix[0].toarray()
    resid = float(
        np.max(
            np.linalg.norm(
                full @ pack.psi - pack.psi * pack.energies[None, :], axis=0
            )
        )
    )
    check("frame_invariant", resid, resid <= 1e-8)

    # drift vector facts
    cert = minimize_over_support(p, q, lam, support, min(m, 32), restarts=4, seed=seed)
    fh = feynman_hellmann_residual(p, q, lam, cert.zeta, min(m, 32))
    check("gradient_residual", fh.residual, fh.residual <= 1e-4 * (1 + np.linalg.norm(fh.lam_v)))
    sym_q = single_site_family("sym-bump", q.d, amplitude=0.5, radius=q.radius)
    v_sym = v_vector(p, sym_q, 0.0, np.zeros(q.d), min(m, 32))
    check("symmetric_drift_zero", float(np.linalg.norm(v_sym)), np.linalg.norm(v_sym) <= 1e-8)

    coer = coercivity_constant(p, q, lam, support, cert.zeta, min(m, 32), seed=seed + 1)
    check("alpha0_positive", coer.alpha0, coer.positive)

    # kinetic symbol identity
    worst_sym = 0.0
    for d_ in (1, 2):
        for side in (3, 5, 7):
            gs = GridSpec(d=d_, n=(side - 1) // 2, m=4)
            thetas = gs.thetas()
            gamma = np.stack(
                np.meshgrid(*([np.arange(-gs.n, gs.n + 1)] * d_), indexing="ij"), -1
            ).reshape(-1, d_)
            omega = np.exp(1j * thetas @ gamma.T) / np.sqrt(side**d_)
            symbol = np.sum(1.0 - np.cos(thetas), axis=1)
            rebuilt = omega.conj().T @ np.diag(symbol) @ omega
            dev = float(np.max(np.abs(rebuilt - symbol_kinetic(d_, side).toarray())))
            worst_sym = max(worst_sym, dev)
    check("kinetic_symbol_identity", worst_sym, worst_sym <= 1e-12)

    # band/symbol ratios
    table = band_symbol_ratio(
        p, q, lam, cert.zeta, min(m, 32), GridSpec(d=q.d, n=2, m=4).thetas()
    )
    check("symbol_ratio_positive", table.min_ratio, table.min_ratio > 0)
    check("symbol_ratio_spread", table.spread, table.spread <= 50.0)

    # sandwich at one c0 (growth constant re-measured on the sandwich grid)
    if coer.positive:
        m_s = min(m, 16)
        coer_s = coercivity_constant(p, q, lam, support, cert.zeta, m_s, seed=seed + 1)
        cal = calibrate_sandwich(
            p, q, lam, cert.zeta, GridSpec(d=q.d, n=1, m=m_s),
            coer_s.alpha0, dist, c0_values=(c0,), n_fields=5, master_seed=seed, trials=20,
        )
        check("sandwich_encloses", c0, cal.ok)

    write_csv(rd.file("checks.csv"), ["name", "value", "ok"], checks)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {fmt(val)}" for name, val, ok in checks
    ]
    all_ok = all(ok for _, _, ok in checks)
    return rd.finish(lines, ok=all_ok)


_RUNNERS = {
    "band": run_band,
    "minimize": run_minimize,
    "theorem1": run_theorem1,
    "ids": run_ids,
    "lifshitz": run_lifshitz,
    "wegner": run_wegner,
    "reduce": run_reduce,
    "sandwich": run_sandwich,
    "verify-all": run_verify_all,
}
KINDS = tuple(_RUNNERS)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="displab",
        description="finite-volume spectral laboratory for random displacement models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="override [run] seed")
        # Runs are serial.  The flag stays, with 1 as its only value, for callers
        # that pass it (perfbench/run.py).
        sp.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
        sp.add_argument(
            "--resume",
            metavar="DIR",
            help="continue a partially computed run directory",
        )
    return parser


# The OpenBLAS each wheel bundles: (package, library file pattern in the
# wheel's ``<package>.libs`` directory, its thread-count setter).
_WHEEL_BLAS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread():
    """Set the OpenBLAS of NumPy's and of SciPy's wheel to one thread each.

    Samples run one after another on small dense matrices, where a BLAS
    thread pool only costs time: after a multithreaded NumPy call its idle
    threads keep spinning, and a dense spectrum through SciPy's library at
    N = 96 took 10.0 ms instead of 2.1 ms on 2 cores.  An explicit
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is left alone, and a library that
    is not loaded (another BLAS, another build) is skipped.  Returns the
    paths of the libraries set.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return []
    done = []
    for package, pattern, setter in _WHEEL_BLAS:
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:  # RTLD_NOLOAD: only a library this process has loaded already
                set_threads = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            done.append(path)
    return done


def main(argv=None):
    # Move the objects NumPy and SciPy made at import out of the cyclic
    # collector's reach: they live until exit anyway, and the interpreter's
    # last collections over them cost each run about 50 ms.  Reference
    # counting still frees everything else and open files are still flushed.
    # Only the first call in a process freezes, so a caller that runs main
    # again and again does not pin the cyclic garbage of its earlier runs.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    # glibc serves a block above its mmap threshold (128 KiB at start) from a
    # fresh mapping, faulted in page by page, and raises the threshold to the
    # size of each mapped block freed.  Freeing one 1 MiB block here lets a
    # run's dense arrays (392 KiB at N = 224) reuse heap pages from the first
    # sample on, whatever blocks the imports happened to free: without it a
    # perfbench wegner-1d run takes about 16,600 page faults instead of 470.
    bytearray(1 << 20)
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            raw = load_config_file(args.config)
            if args.seed is not None:
                raw["run"]["seed"] = str(args.seed)
        if args.resume:
            out = args.resume
            manifest_cfg = RunDir(out).read_manifest_config()
            if args.config and config_sha(raw) != config_sha(manifest_cfg):
                raise ConfigError("--config disagrees with the manifest being resumed")
            raw = manifest_cfg
        elif not args.config:
            raise ConfigError("--config is required (or --resume DIR)")
        kind = raw["run"]["kind"]
        if kind != args.command:
            raise ConfigError(
                f"config kind {kind!r} does not match subcommand {args.command!r}"
            )
        cfg = read_config(raw)
        if args.resume:
            if args.seed is not None and args.seed != cfg["run"]["seed"]:
                raise ConfigError("--seed disagrees with the manifest being resumed")
            rd = RunDir(out)
            if rd.is_complete():
                print(f"{out}: already complete")
                return 0
        else:
            out = args.out
            if not out:
                raise ConfigError("no output directory (--out DIR)")
            rd = _prepare_rundir(raw, out)
        try:
            code = _RUNNERS[kind](cfg, rd, **cfg[_own_section(kind)])
        except KeyboardInterrupt:
            print(f"interrupted; resume with --resume {out}", file=sys.stderr)
            return 130
        except (CountBreakdownError, np.linalg.LinAlgError) as exc:
            print(
                f"solver error in the {kind} run: {exc}; resume with --resume {out}",
                file=sys.stderr,
            )
            return 3
        status = "ok" if code == 0 else "FAILED CHECKS"
        print(f"{out}: {status} (see summary.txt)")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
