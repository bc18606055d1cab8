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
import csv
import hashlib
import io
import os
import sys
from configparser import ConfigParser, Error as ConfigParserError

import numpy as np

from . import __version__
from .assumptions import (
    coercivity_constant,
    exhaustive_field_scan,
    gap_ratio_table,
    minimize_over_field,
    minimize_over_support,
    prop1_geometry,
    robust_linear_minimizer,
)
from .discretize import (
    GridSpec,
    assemble_fiber,
    assemble_periodic,
    free_fiber_eigenvalues,
)
from .eigensolve import SymmetricOperator, count_below_stack, ground_bisect
from .floquet import (
    band_bottom,
    band_table,
    build_projectors,
    feynman_hellmann_residual,
    v_vector,
)
from .potentials import constant_field, periodic_family, single_site_family
from .randomfields import DisplacementDistribution
from .reduced import (
    band_symbol_ratio,
    build_reduced,
    calibrate_sandwich,
    ground_zero_iff_constant,
    symbol_kinetic,
)
from .spectral_stats import (
    ContinuumFamily,
    IDSCurve,
    IDSSandwichReport,
    ReducedFamily,
    count_row,
    lifshitz_fit,
    sandwich_families,
    stream_samples,
    wegner_report,
    wegner_sample,
    wegner_windows,
)
from . import supports

KINDS = (
    "band",
    "minimize",
    "theorem1",
    "ids",
    "lifshitz",
    "wegner",
    "reduce",
    "sandwich",
    "verify-all",
)
MC_KINDS = ("ids", "lifshitz", "wegner")
SIZE_GUARD = 200_000
CACHE_EVERY = 50  # Monte-Carlo rows between rewrites of cache.csv
# Lifshitz samples per stacked count.  A row of the chain sweep costs about
# 0.85 us (two NumPy calls) plus 1 ns per column, and a lifshitz-reduced-1d
# sample has 44 columns: at 16 samples a chunk's share of the fixed part is
# down to its column part, while each sample held adds about 0.1 MB (its CSR
# matrix and chain).
LIFSHITZ_CHUNK = 16
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


def read_csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


# -- config handling ---------------------------------------------------------

_CANON_SKIP = {("run", "out"), ("run", "threads")}


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
        body = [
            f"{k} = {v.strip()}"
            for k, v in sorted(cfg[section].items())
            if (section, k) not in _CANON_SKIP
        ]
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)


def config_sha(cfg):
    return hashlib.sha256(canonical_config(cfg).encode("utf-8")).hexdigest()


def _section(cfg, name):
    return cfg.get(name, {})


def _get(cfg, section, key, default=None, required=False):
    sec = _section(cfg, section)
    if key in sec:
        return sec[key].strip()
    if required:
        raise ConfigError(f"missing {section}.{key}")
    return default


def _get_float(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, None, required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc


def _get_int(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, None, required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc


def _get_count(cfg, section, key, default):
    """A count of samples or offsets: an integer of at least 1."""
    count = _get_int(cfg, section, key, default)
    if count < 1:
        raise ConfigError(f"{section}.{key} must be >= 1, got {count}")
    return count


def _get_floats(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, None, required)
    if raw is None:
        return default
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a list of numbers") from exc


def _get_ints(cfg, section, key, default=None, required=False):
    vals = _get_floats(cfg, section, key, None, required)
    if vals is None:
        return default
    out = [int(v) for v in vals]
    if any(abs(v - w) > 0 for v, w in zip(vals, out)):
        raise ConfigError(f"{section}.{key} must be integers")
    return out


def build_model(cfg):
    """Potentials, coupling and grid from [model], [periodic], [site]."""
    d = _get_int(cfg, "model", "d", required=True)
    if d not in (1, 2):
        raise ConfigError("model.d must be 1 or 2")
    lam = _get_float(cfg, "model", "lam", required=True)
    if lam < 0:
        raise ConfigError("model.lam must be >= 0")
    m = _get_int(cfg, "model", "m", required=True)
    n = _get_int(cfg, "model", "n", 1)
    pfam = _get(cfg, "periodic", "family", "zero")
    coeffs = _get_floats(cfg, "periodic", "coefficients", None)
    try:
        p = periodic_family(pfam, d, coefficients=coeffs)
        q = single_site_family(
            _get(cfg, "site", "family", "zero"),
            d,
            amplitude=_get_float(cfg, "site", "amplitude", 0.5),
            radius=_get_float(cfg, "site", "radius", 0.45),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if ((2 * n + 1) * m) ** d > SIZE_GUARD:
        raise ConfigError(
            f"size guard: ((2n+1) m)^d = {((2 * n + 1) * m) ** d} exceeds {SIZE_GUARD}"
        )
    return p, q, lam, n, m


def build_support(cfg, d):
    kind = _get(cfg, "support", "kind", "ball")
    try:
        if kind == "ball":
            c = _get_floats(cfg, "support", "center", [0.0] * d)
            return supports.ball(c, _get_float(cfg, "support", "radius", 1.0))
        if kind == "sphere":
            c = _get_floats(cfg, "support", "center", [0.0] * d)
            return supports.sphere(c, _get_float(cfg, "support", "radius", 1.0))
        if kind in ("ellipsoid", "ellipsoid-boundary"):
            c = _get_floats(cfg, "support", "center", [0.0] * d)
            axes = _get_floats(cfg, "support", "semi_axes", required=True)
            return supports.ellipsoid(c, axes, boundary_only=kind.endswith("boundary"))
        if kind == "interval":
            return supports.interval(
                _get_float(cfg, "support", "lo", -1.0),
                _get_float(cfg, "support", "hi", 1.0),
            )
        if kind == "box":
            return supports.box(
                _get_floats(cfg, "support", "lo", required=True),
                _get_floats(cfg, "support", "hi", required=True),
            )
        if kind == "polygon":
            raw = _get(cfg, "support", "vertices", required=True)
            verts = [[float(t) for t in chunk.split()] for chunk in raw.split(";")]
            return supports.polygon(verts)
    except (ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad support: {exc}") from exc
    raise ConfigError(f"unknown support kind {kind!r}")


def build_distribution(cfg, support):
    kind = _get(cfg, "distribution", "kind", "uniform-ball")
    expo = _get_float(cfg, "distribution", "radial_exponent", None)
    try:
        return DisplacementDistribution(kind=kind, support=support, radial_exponent=expo)
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


def _prepare_rundir(cfg, out, resuming):
    rd = RunDir(out)
    os.makedirs(out, exist_ok=True)
    if os.path.exists(rd.manifest):
        existing = rd.read_manifest_config()
        if config_sha(existing) != config_sha(cfg):
            raise ConfigError(
                f"output dir {out} holds a different run (config hash mismatch); "
                "refusing to overwrite"
            )
    elif resuming:
        raise ConfigError(f"--resume: no manifest in {out}")
    rd.write_manifest(cfg)
    return rd


# -- Monte-Carlo cache -------------------------------------------------------


def _load_cache(path, header):
    """Rows of a (possibly partial) cache; tolerates a torn final line."""
    if not os.path.exists(path):
        return []
    try:
        got_header, rows = read_csv_rows(path)
    except (OSError, csv.Error):
        return []
    if got_header != header:
        return []
    return [row for row in rows if len(row) == len(header)]


def _sample_cache(rd, header, key, tasks, compute, threads, chunk=1):
    """Every task's cache row: replayed from ``cache.csv``, else computed.

    ``key(row)`` recovers the task from a cached row and ``compute(batch)``
    returns the rows of a tuple of up to ``chunk`` missing tasks, in order.
    The batches stream through the sample driver in order; the cache is
    rewritten whenever the row count passes a multiple of CACHE_EVERY and
    once more on the way out, also when Ctrl-C or an error stops the stream,
    so finished batches are kept for ``--resume``.
    """
    rows = {key(row): row for row in _load_cache(rd.cache, header)}
    todo = [t for t in tasks if t not in rows]
    batches = [tuple(todo[i : i + chunk]) for i in range(0, len(todo), chunk)]
    stream = stream_samples(compute, batches, threads)
    try:
        for batch, batch_rows in stream:
            flushed = len(rows) // CACHE_EVERY
            for task, row in zip(batch, batch_rows):
                rows[task] = [fmt(x) for x in row]
            if len(rows) // CACHE_EVERY > flushed:
                _write_cache(rd, header, rows)
    finally:
        stream.close()
        _write_cache(rd, header, rows)
    return rows


def _write_cache(rd, header, rows):
    write_csv(rd.cache, header, [rows[task] for task in sorted(rows)])


# -- experiment runners ------------------------------------------------------


def run_band(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    zeta = np.asarray(_get_floats(cfg, "band", "zeta", [0.0] * q.d))
    nbands = _get_int(cfg, "band", "nbands", 3)
    theta_n = _get_int(cfg, "band", "theta_n", 2)
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
        f"drift vector: {' '.join(fmt(x) for x in v_vector(p, q, lam, zeta, m))}",
        f"gradient residual (delta={fmt(fh.delta)}): {fmt(fh.residual)}",
    ]
    return rd.finish(lines)


def run_minimize(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    restarts = _get_int(cfg, "minimize", "restarts", 8)
    seed = _get_int(cfg, "run", "seed", 0)
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
    curv = prop1_geometry(support)
    checks.append(("min_curvature", curv.value, curv.strictly_convex))
    lines.append(f"boundary curvature: {fmt(curv.value)} ({curv.note})")
    v_q = v_vector(p, q, 0.0, np.zeros(q.d), m)
    eps_rob = _get_float(cfg, "minimize", "eps_robust", 0.5 * float(np.linalg.norm(v_q)))
    rob = robust_linear_minimizer(support, v_q, eps_rob, seed=seed + 2)
    checks.append(("robust_margin", rob.margin, rob.ok))
    lines.append(
        f"robust linear minimizer at eps={fmt(eps_rob)}: "
        f"{' '.join(fmt(x) for x in rob.zeta0)} margin {fmt(rob.margin)} ok {fmt(rob.ok)}"
    )
    lams = _get_floats(cfg, "minimize", "gap_lams", [0.2, 0.1, 0.05])
    gaps = gap_ratio_table(p, q, lams, support, m, seed=seed + 3)
    write_csv(
        rd.file("gap_ratios.csv"),
        ["lam", "energy", "ratio"],
        list(zip(gaps.lams, gaps.energies, gaps.ratios)),
    )
    checks.append(("gap_ratio_min", gaps.min_ratio, gaps.all_positive))
    lines.append(f"gap ratios positive: {fmt(gaps.all_positive)} (min {fmt(gaps.min_ratio)})")
    write_csv(rd.file("checks.csv"), ["name", "value", "ok"], checks)
    return rd.finish(lines)


def run_theorem1(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    seed = _get_int(cfg, "run", "seed", 0)
    restarts = _get_int(cfg, "theorem1", "restarts", 16)
    site_tol = _get_float(cfg, "theorem1", "site_tol", 1e-3)
    energy_tol = _get_float(cfg, "theorem1", "energy_tol", 1e-8)
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
    gp = _get_int(cfg, "theorem1", "grid_points", 0)
    if gp >= 2:
        scan = exhaustive_field_scan(p, q, lam, support, n, m, grid_points=gp)
        lines += [
            f"exhaustive scan ({gp}^{(2 * n + 1) ** q.d} configs): "
            f"argmin constant {fmt(scan.argmin_is_constant)} at {fmt(scan.constant_value)}",
            f"scan argmin energy: {fmt(scan.argmin_energy)} margin {fmt(scan.margin)}",
        ]
        ok = ok and scan.argmin_is_constant
    return rd.finish(lines, ok=ok)


_IDS_FAMILIES = ("plus", "middle", "minus")


def run_ids(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = _get_int(cfg, "run", "seed", 0)
    c0 = _get_float(cfg, "ids", "c0", required=True)
    alpha = _get_float(cfg, "ids", "alpha", required=True)
    zeta = np.asarray(_get_floats(cfg, "ids", "zeta", required=True))
    n_samples = _get_count(cfg, "ids", "n_samples", 100)
    offsets = _get_floats(cfg, "ids", "offsets", None)
    if offsets is None:
        n_off = _get_count(cfg, "ids", "n_offsets", 12)
        top = 0.9 / c0**2
        offsets = list(np.geomspace(top / 50.0, top, n_off))
    offsets = np.asarray(offsets, dtype=float)
    try:
        e_ref, families = sandwich_families(p, q, lam, dist, zeta, n, m, c0, alpha, offsets)
    except ValueError as exc:
        raise ConfigError(f"ids.offsets: {exc}") from exc

    def compute(batch):
        [(k, s)] = batch
        fam, energies = families[k]
        return [[_IDS_FAMILIES[k], s] + count_row(fam, seed, s, energies)]

    rows = _sample_cache(
        rd,
        ["family", "sample"] + [f"c_{g}" for g in range(len(offsets))],
        lambda row: (_IDS_FAMILIES.index(row[0]), int(row[1])),
        [(k, s) for k in range(len(families)) for s in range(n_samples)],
        compute,
        threads,
    )
    curves = [
        IDSCurve(
            energies=energies,
            counts=np.array(
                [[int(x) for x in rows[(k, s)][2:]] for s in range(n_samples)], dtype=int
            ),
            n_cells=fam.n_cells,
            label=fam.label,
        )
        for k, (fam, energies) in enumerate(families)
    ]
    rep = IDSSandwichReport.from_curves(offsets, e_ref, c0, *curves)
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


def run_lifshitz(cfg, rd, threads):
    p, q, lam, n_model, m = build_model(cfg)
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = _get_int(cfg, "run", "seed", 0)
    n = _get_int(cfg, "lifshitz", "n", 1000)
    n_samples = _get_count(cfg, "lifshitz", "n_samples", 200)
    sign = _get_int(cfg, "lifshitz", "sign", 1)
    if sign not in (-1, 1):
        raise ConfigError("lifshitz.sign must be -1 or 1")
    c0 = _get_float(cfg, "lifshitz", "c0", required=True)
    alpha = _get_float(cfg, "lifshitz", "alpha", required=True)
    zeta = np.asarray(_get_floats(cfg, "lifshitz", "zeta", required=True))
    v_raw = _get(cfg, "lifshitz", "v", "auto")
    if v_raw == "auto":
        v = v_vector(p, q, lam, zeta, m)
    else:
        v = np.asarray(_get_floats(cfg, "lifshitz", "v", required=True))
    e_min = _get_float(cfg, "lifshitz", "e_min", required=True)
    e_max = _get_float(cfg, "lifshitz", "e_max", required=True)
    n_energies = _get_int(cfg, "lifshitz", "n_energies", 24)
    ground_hi = _get_float(cfg, "lifshitz", "ground_hi", 4.0)
    if not 0 < e_min < e_max:
        raise ConfigError("need 0 < lifshitz.e_min < lifshitz.e_max")
    if n_energies < 3:
        raise ConfigError(f"lifshitz.n_energies must be >= 3 for the tail fit, got {n_energies}")
    energies = np.geomspace(e_min, e_max, n_energies)
    fam = ReducedFamily(sign, v, lam, zeta, dist, n, c0, alpha)

    def compute(batch):
        ops = [SymmetricOperator(fam.assemble(seed, s)) for s in batch]
        grounds = [ground_bisect(op, ground_hi) for op in ops]
        counts = count_below_stack(ops, energies)
        return [[s, g] + c.tolist() for s, g, c in zip(batch, grounds, counts)]

    rows = _sample_cache(
        rd,
        ["sample", "ground"] + [f"c_{g}" for g in range(n_energies)],
        lambda row: int(row[0]),
        range(n_samples),
        compute,
        threads,
        chunk=LIFSHITZ_CHUNK,
    )
    counts = np.array(
        [[int(x) for x in rows[s][2:]] for s in range(n_samples)], dtype=int
    )
    grounds = np.array([float(rows[s][1]) for s in range(n_samples)], dtype=float)
    # Finite-volume bottom: lowest sampled ground level minus 3 standard errors.
    # The deterministic bottom of the signed model (constant field at zeta) is 0.
    ground_se = float(grounds.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    e_hat = max(0.0, float(grounds.min()) - 3.0 * ground_se)
    curve = IDSCurve(energies=energies, counts=counts, n_cells=fam.n_cells, label=fam.label)
    vals, ses = curve.values(), curve.stderr()
    write_csv(
        rd.file("curve.csv"),
        ["energy", "value", "stderr"],
        list(zip(energies, vals, ses)),
    )
    fit = lifshitz_fit(energies, vals, e_bottom=e_hat)
    write_csv(
        rd.file("fit.csv"),
        [
            "slope", "intercept", "rms_residual", "half_window_slope", "n_points",
            "no_tail", "e_bottom_used", "e_bottom_deterministic", "ground_min", "ground_se",
        ],
        [[
            fit.slope, fit.intercept, fit.rms_residual, fit.half_window_slope,
            fit.n_points, fit.no_tail, e_hat, 0.0, float(grounds.min()), ground_se,
        ]],
    )
    lines = [
        f"tail fit over {fit.n_points} points: slope {fmt(fit.slope)}",
        f"half-window slope: {fmt(fit.half_window_slope)}",
        f"finite-volume bottom estimate: {fmt(e_hat)} (deterministic bottom: 0.0)",
        f"sampled ground levels: min {fmt(float(grounds.min()))} se {fmt(ground_se)}",
        f"doubly-log tail visible: {fmt(not fit.no_tail)}",
    ]
    return rd.finish(lines, ok=not fit.no_tail)


def run_wegner(cfg, rd, threads):
    p, q, lam, n_model, m = build_model(cfg)
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = _get_int(cfg, "run", "seed", 0)
    zeta = np.asarray(_get_floats(cfg, "wegner", "zeta", required=True))
    n_list = _get_ints(cfg, "wegner", "n_list", [1, 2, 3])
    samples = _get_count(cfg, "wegner", "samples_per_cell", 400)
    ground_samples = _get_int(cfg, "wegner", "ground_samples", 50)
    audit_per_n = _get_int(cfg, "wegner", "audit_per_n", 17)
    e_lam = band_bottom(p, q, lam, zeta, m).energy
    e_top = band_bottom(p, q, 0.0, np.zeros(q.d), m).energy
    e_raw = _get(cfg, "wegner", "e_center", "auto")
    if e_raw == "auto":
        e_center = 0.5 * (e_lam + e_top)
    else:
        e_center = _get_float(cfg, "wegner", "e_center")
    eps_list = _get_floats(cfg, "wegner", "eps_list", None)
    if eps_list is None:
        n_eps = _get_int(cfg, "wegner", "n_eps", 6)
        eps_frac = _get_float(cfg, "wegner", "eps_frac", 0.25)
        eps_hi = _get_float(cfg, "wegner", "eps_hi", eps_frac * (e_top - e_lam))
        eps_list = list(np.geomspace(eps_hi / 10**1.5, eps_hi, n_eps))
    try:
        eps_list = wegner_windows(eps_list)
    except ValueError as exc:
        raise ConfigError(f"wegner.eps_list: {exc}") from exc
    families = {n: ContinuumFamily(p=p, q=q, lam=lam, dist=dist, n=n, m=m) for n in n_list}

    def compute(batch):
        [(n, s)] = batch
        hits, e0 = wegner_sample(
            families[n], seed, s, e_center, eps_list, s < ground_samples
        )
        return [[n, s, "" if e0 is None else e0] + hits]

    rows = _sample_cache(
        rd,
        ["n", "sample", "ground"] + [f"hit_{k}" for k in range(len(eps_list))],
        lambda row: (int(row[0]), int(row[1])),
        [(n, s) for n in families for s in range(samples)],
        compute,
        threads,
    )
    rep = wegner_report(
        families, e_center, eps_list, samples, seed, audit_per_n,
        {
            task: ([h == "true" for h in row[3:]], float(row[2]) if row[2] else None)
            for task, row in rows.items()
        },
    )
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
    for n, gmin, _, gse in rep.ground_stats:
        lines.append(f"ground min at n={n}: {fmt(gmin)} (est. bottom {fmt(gmin - 3 * gse)})")
    return rd.finish(lines, ok=rep.audit_clean)


def run_reduce(cfg, rd, threads):
    p, q, lam, n_model, m = build_model(cfg)
    seed = _get_int(cfg, "run", "seed", 0)
    zeta = np.asarray(_get_floats(cfg, "reduce", "zeta", required=True))
    c0 = _get_float(cfg, "reduce", "c0", required=True)
    alpha = _get_float(cfg, "reduce", "alpha", required=True)
    n = _get_int(cfg, "reduce", "n", 1)
    gp = _get_int(cfg, "reduce", "grid_points", 9)
    v = v_vector(p, q, lam, zeta, m)
    support = build_support(cfg, q.d)
    if q.d != 1:
        raise ConfigError("reduce scan is d = 1 only")
    lo = support.project(np.array([-1e9]))[0]
    hi = support.project(np.array([1e9]))[0]
    values = np.linspace(lo, hi, gp)
    n_sites = 2 * n + 1
    rows = []
    worst_ok = True
    from .potentials import DisplacementField

    for cfg_idx in np.ndindex(*([gp] * n_sites)):
        fld = DisplacementField(n=n, d=1, values=values[np.array(cfg_idx)][:, None])
        model = build_reduced(-1, v, lam, zeta, fld, c0, alpha)
        rep = ground_zero_iff_constant(model)
        worst_ok = worst_ok and rep.consistent
        rows.append(
            list(values[np.array(cfg_idx)])
            + [rep.min_eigenvalue, rep.lower_bound, rep.field_is_constant, rep.consistent]
        )
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
        f"zero-ground characterization over {gp}^{n_sites} configs: {fmt(worst_ok)}",
        f"band/symbol ratios in [{fmt(table.min_ratio)}, {fmt(table.max_ratio)}] "
        f"(spread {fmt(table.spread)})",
    ]
    return rd.finish(lines, ok=worst_ok and table.min_ratio > 0)


def run_sandwich(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = _get_int(cfg, "run", "seed", 0)
    zeta_raw = _get(cfg, "sandwich", "zeta", "auto")
    if zeta_raw == "auto":
        zeta = minimize_over_support(p, q, lam, support, m, seed=seed).zeta
    else:
        zeta = np.asarray(_get_floats(cfg, "sandwich", "zeta", required=True))
    alpha0_raw = _get(cfg, "sandwich", "alpha0", "auto")
    if alpha0_raw == "auto":
        alpha0 = coercivity_constant(p, q, lam, support, zeta, m, seed=seed + 1).alpha0
    else:
        alpha0 = _get_float(cfg, "sandwich", "alpha0")
    if alpha0 <= 0:
        raise ConfigError("sandwich needs a positive growth constant alpha0")
    c0_values = _get_floats(cfg, "sandwich", "c0_list", [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    n_fields = _get_int(cfg, "sandwich", "n_fields", 20)
    trials = _get_int(cfg, "sandwich", "trials", 40)
    grid = GridSpec(d=q.d, n=n, m=m)
    cal = calibrate_sandwich(
        p, q, lam, zeta, grid, alpha0, dist,
        c0_values=tuple(c0_values), n_fields=n_fields, master_seed=seed, trials=trials,
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


def run_verify_all(cfg, rd, threads):
    p, q, lam, n, m = build_model(cfg)
    support = build_support(cfg, q.d)
    dist = build_distribution(cfg, support)
    seed = _get_int(cfg, "run", "seed", 0)
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
                    assemble_fiber(zero_p, zero_q, 0.0, [0.0], [theta], mm).matrix.toarray()
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
    ).matrix.toarray()
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
        c0 = _get_float(cfg, "verify", "c0", 8.0)
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
        sp.add_argument("--threads", type=int, default=None, help="worker threads")
        sp.add_argument(
            "--resume",
            metavar="DIR",
            help="continue a partially computed run directory",
        )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.resume:
            rd_path = args.resume
            cfg = RunDir(rd_path).read_manifest_config()
            if args.config:
                file_cfg = load_config_file(args.config)
                if args.seed is not None:
                    file_cfg["run"]["seed"] = str(args.seed)
                if config_sha(file_cfg) != config_sha(cfg):
                    raise ConfigError(
                        "--config disagrees with the manifest being resumed"
                    )
            out = rd_path
        else:
            if not args.config:
                raise ConfigError("--config is required (or --resume DIR)")
            cfg = load_config_file(args.config)
            if args.seed is not None:
                cfg["run"]["seed"] = str(args.seed)
            out = args.out or cfg.get("run", {}).get("out")
            if not out:
                raise ConfigError("no output directory (--out or [run] out)")
        kind = cfg["run"]["kind"]
        if kind != args.command:
            raise ConfigError(
                f"config kind {kind!r} does not match subcommand {args.command!r}"
            )
        seed = _get_int(cfg, "run", "seed", 0)
        if not 0 <= seed < SEED_LIMIT:
            raise ConfigError(f"run.seed must satisfy 0 <= seed < 2^63, got {seed}")
        threads = args.threads if args.threads is not None else _get_int(cfg, "run", "threads", 1)
        if args.resume:
            rd = RunDir(out)
            if not os.path.exists(rd.manifest):
                raise ConfigError(f"--resume: no manifest in {out}")
            if rd.is_complete():
                print(f"{out}: already complete")
                return 0
        else:
            rd = _prepare_rundir(cfg, out, resuming=False)
        try:
            code = _RUNNERS[kind](cfg, rd, max(1, threads or 1))
        except KeyboardInterrupt:
            print(f"interrupted; resume with --resume {out}", file=sys.stderr)
            return 130
        status = "ok" if code == 0 else "FAILED CHECKS"
        print(f"{out}: {status} (see summary.txt)")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
