"""Monte-Carlo spectral statistics: integrated density of states, band-edge
tail fits, and eigenvalue-proximity (level-repulsion) scans.

All sampling is indexed by (master_seed, sample_index) through the
counter-based field sampler, so curves are reproducible sample-by-sample.
Each statistic has one batch function -- ``count_rows``, ``lifshitz_rows``,
``wegner_rows`` -- that draws a tuple of samples' fields in one
``sample_fields`` call (``count_rows`` takes the fields its caller drew for
several families), assembles them in one pass and counts them in one
``count_below_stack`` call.  A row never depends on the batch it was
computed in.  The CLI runners (``displab.cli.run_ids``, ``run_lifshitz``,
``run_wegner``) are the Monte-Carlo drivers: they call the batch functions
on the chunks their resumable cache misses and build the reports with
``sandwich_families``, ``IDSSandwichReport.from_curves`` and
``wegner_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .discretize import GridSpec, assemble_periodic
from .eigensolve import count_below_stack, dense_levels, ground_bisect, smallest_eigenpairs
from .floquet import band_bottom
from .randomfields import sample_fields
from .reduced import build_reduced


# -- operator families ----------------------------------------------------


class _SampledFamily:
    """Sampling shared by the families; each has ``dist``, ``n`` and
    ``stack(fields)``."""

    def operators(self, master_seed, samples):
        """The samples' operators, as a ``DiagonalStack``."""
        return self.stack(sample_fields(self.dist, self.n, master_seed, samples))


@dataclass(frozen=True)
class ContinuumFamily(_SampledFamily):
    """Random torus operators H_{lam, omega} at fixed discretization."""

    p: object
    q: object
    lam: float
    dist: object
    n: int
    m: int

    @property
    def n_cells(self):
        return (2 * self.n + 1) ** self.q.d

    @property
    def grid(self):
        return GridSpec(d=self.q.d, n=self.n, m=self.m)

    def stack(self, fields):
        """The operators of a ``FieldChunk``, as a ``DiagonalStack``."""
        return assemble_periodic(self.p, self.q, self.lam, fields, self.grid).matrix


@dataclass(frozen=True)
class ReducedFamily(_SampledFamily):
    """Random signed comparison operators on the site lattice."""

    sign: int
    v: np.ndarray
    lam: float
    zeta: np.ndarray
    dist: object
    n: int
    c0: float
    alpha: float

    @property
    def n_cells(self):
        return (2 * self.n + 1) ** self.dist.d

    def stack(self, fields):
        """The operators of a ``FieldChunk``, as a ``DiagonalStack``."""
        return build_reduced(
            self.sign, self.v, self.lam, self.zeta, fields, self.c0, self.alpha
        ).matrix


# -- integrated density of states ------------------------------------------


@dataclass(frozen=True)
class IDSCurve:
    """Per-cell eigenvalue counting function, sample by sample."""

    counts: np.ndarray  # (S, G) integer counts below each energy
    n_cells: int

    @property
    def n_samples(self):
        return self.counts.shape[0]

    def values(self):
        return self.counts.mean(axis=0) / self.n_cells

    def stderr(self):
        if self.n_samples < 2:
            return np.zeros(self.counts.shape[1])
        return self.counts.std(axis=0, ddof=1) / np.sqrt(self.n_samples) / self.n_cells


def count_rows(family, energies, fields):
    """Counts below ``energies`` of the operator of each field of the
    ``FieldChunk`` ``fields``: a (K, T) int array.

    The caller draws the fields, once for all the families that share them.
    """
    return count_below_stack(family.stack(fields), energies)


@dataclass(frozen=True)
class IDSSandwichReport:
    """Counting chain N+(E/c0) <= N_mid(E_ref + E) <= N-(c0 E), same fields."""

    plus: IDSCurve
    middle: IDSCurve
    minus: IDSCurve
    sample_violations: int

    @classmethod
    def from_curves(cls, plus, middle, minus):
        """Report on three curves counted on shared fields, sample by sample."""
        violations = int(
            np.sum(plus.counts > middle.counts) + np.sum(middle.counts > minus.counts)
        )
        return cls(plus, middle, minus, violations)

    def _sig(self, a, b):
        return 3.0 * np.sqrt(a.stderr() ** 2 + b.stderr() ** 2)

    def lower_ok(self):
        return self.plus.values() <= self.middle.values() + self._sig(self.plus, self.middle)

    def upper_ok(self):
        return self.middle.values() <= self.minus.values() + self._sig(self.middle, self.minus)

    @property
    def all_ok(self):
        return bool(np.all(self.lower_ok()) and np.all(self.upper_ok()))


def sandwich_families(p, q, lam, dist, zeta, n, m, c0, alpha, energies):
    """Reference bottom and the (family, thresholds) pairs plus, middle, minus.

    ``energies`` are offsets above the band bottom.  They must increase
    strictly and stay inside (0, 1/c0^2), where the complementary blocks are
    spectrally inert; the thresholds are E/c0, E_ref + E and c0 E.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("need at least one offset")
    if np.any(np.diff(energies) <= 0):
        raise ValueError("offsets must be strictly increasing")
    if np.any(energies <= 0) or np.any(energies >= 1.0 / c0**2):
        raise ValueError("offsets must lie strictly inside (0, 1/c0^2)")
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    bottom = band_bottom(p, q, lam, zeta, m)
    e_ref = bottom.energy
    reduced = dict(v=bottom.v, lam=lam, zeta=zeta, dist=dist, n=n, c0=c0, alpha=alpha)
    return e_ref, (
        (ReducedFamily(sign=+1, **reduced), energies / c0),
        (ContinuumFamily(p=p, q=q, lam=lam, dist=dist, n=n, m=m), e_ref + energies),
        (ReducedFamily(sign=-1, **reduced), c0 * energies),
    )


# -- band-edge tail fit -----------------------------------------------------


def lifshitz_rows(family, master_seed, samples, energies, ground_hi):
    """Each sample's ``ground_bisect`` level below ``ground_hi`` and its
    counts below ``energies``: a list of K floats and a (K, T) int array."""
    stack = family.operators(master_seed, samples)
    return ground_bisect(stack, ground_hi), count_below_stack(stack, energies)


class FitError(ValueError):
    """The data cannot fix a fit: too few usable points for the tail fit, or
    proximity cells that do not fix the three coefficients of the joint fit."""


@dataclass(frozen=True)
class LifshitzFit:
    """Least-squares line through log|log(N - N0)| vs log(E - E0).

    A doubly-logarithmic tail exp(-c (E-E0)^(-kappa)) shows up as slope
    -kappa; a power-law (van Hove) edge flattens toward zero.  The
    ``no_tail`` flag trips when the slope is above -0.2.
    """

    slope: float
    intercept: float
    n_points: int
    rms_residual: float
    half_window_slope: float
    no_tail: bool


def lifshitz_fit(energies, values, e_bottom):
    """The ``LifshitzFit`` through the usable points: E above ``e_bottom``
    with 0 < N(E) < 1.  Fewer than 3 of them is a ``FitError`` that says how
    many there are."""
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    rel = energies - e_bottom
    mask = (rel > 0) & (values > 0) & (values < 1.0)
    if int(mask.sum()) < 3:
        raise FitError(
            f"{int(mask.sum())} of {energies.size} energies lie above the bottom estimate "
            "with 0 < N(E) < 1; the tail fit needs 3"
        )
    x = np.log(rel[mask])
    y = np.log(-np.log(values[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    half_cut = np.median(x)
    half = x <= half_cut
    if int(half.sum()) >= 3:
        half_slope = float(np.polyfit(x[half], y[half], 1)[0])
    else:
        half_slope = float(slope)
    return LifshitzFit(
        slope=float(slope),
        intercept=float(intercept),
        n_points=int(mask.sum()),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        half_window_slope=half_slope,
        no_tail=bool(slope > -0.2),
    )


def synthetic_tail_curve(e_bottom, kappa, energies):
    """Reference curve N(E) = exp(-(E - E0)^(-kappa)) for fit validation."""
    rel = np.asarray(energies, dtype=float) - e_bottom
    if np.any(rel <= 0):
        raise ValueError("energies must exceed the bottom")
    return np.exp(-(rel ** (-kappa)))


# -- eigenvalue-proximity scan ----------------------------------------------


@dataclass(frozen=True)
class WegnerRecord:
    n: int
    eps: float
    hits: int
    samples: int

    @property
    def p_hat(self):
        return self.hits / self.samples

    @property
    def stderr(self):
        p = self.p_hat
        return float(np.sqrt(max(p * (1.0 - p), 1e-12) / self.samples))


@dataclass(frozen=True)
class WegnerReport:
    records: tuple
    nu_hat: float
    nu_stderr: float
    dim_hat: float
    dim_stderr: float
    n_excluded: int
    audits_total: int
    audits_agree: int
    ground_stats: tuple  # rows (n, min_ground, se_ground)

    @property
    def audit_clean(self):
        return self.audits_total > 0 and self.audits_agree == self.audits_total

    @property
    def fitted(self):
        """Whether the informative cells gave the exponents (see ``_fit_loglog``)."""
        return bool(np.isfinite(self.nu_hat))


def _informative(records):
    """Cells with 0 < hits < samples, the ones a log-log fit can use."""
    return [r for r in records if 0 < r.hits < r.samples]


def _fit_loglog(records, d):
    """OLS of log p on [1, log eps, log volume]; returns coefficients and SEs.

    Raises FitError unless the informative cells give a design of rank 3:
    at least 3 of them, not all of one window or one size.
    """
    rows = _informative(records)
    excluded = len(records) - len(rows)
    x = np.array([[1.0, np.log(r.eps), np.log(float((2 * r.n + 1) ** d))] for r in rows])
    if len(rows) < 3 or np.linalg.matrix_rank(x) < 3:
        raise FitError("not enough informative proximity cells for the fit")
    y = np.log([r.p_hat for r in rows])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    dof = max(len(rows) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    ses = np.sqrt(np.diag(cov))
    return coef, ses, excluded


def _level_hits(levels, e_center, eps):
    """Whether some of the ascending ``levels`` lies within each eps of ``e_center``."""
    upper, lower = np.searchsorted(levels, [e_center + eps, e_center - eps])
    return upper > lower


def _audit_window(e_center, eps):
    """The levels ``_level_hits`` reads for every one of the windows ``eps``:
    [e_center - max eps, e_center + max eps]."""
    return e_center - eps.max(), e_center + eps.max()


def wegner_rows(family, master_seed, samples, e_center, eps_list, ground_samples, audit_per_n):
    """Each sample's hit decisions, one per window, its ground energy and
    the dense audit of its hit decisions.

    A hit means some eigenvalue lies within eps of ``e_center``; the hits
    come as a (K, len(eps_list)) bool array, counted by Sylvester inertia.
    The grounds and the audits are lists of K entries, None for samples at
    or above ``ground_samples`` and ``audit_per_n`` respectively.  A sample
    below either gets one dense spectrum (``eigensolve.dense_levels``:
    ``eigh``'s lowest eigenvalue and those in a window, bit for bit,
    without the eigenvectors): its first level is the ground
    ``smallest_eigenpairs`` would give, and the audit is a bool array of hit
    decisions read off the levels in the widest window, ``e_center`` plus or
    minus the largest eps, which are all that any window's decision reads.
    A sample that is not audited asks for the lowest level alone.  Above
    ``eigensolve.DENSE_CUTOFF`` rows (read at call time, as
    ``smallest_eigenpairs`` reads it) the ground comes from
    ``smallest_eigenpairs`` (ARPACK) instead.
    """
    stack = family.operators(master_seed, samples)
    eps = np.asarray(eps_list, dtype=float)
    counts = count_below_stack(stack, np.concatenate([e_center + eps, e_center - eps]))
    upper, lower = np.hsplit(counts, 2)
    grounds, audits = [], []
    for i, s in enumerate(samples):
        dense_ground = s < ground_samples and stack.shape[0] <= eigensolve.DENSE_CUTOFF
        window = _audit_window(e_center, eps) if s < audit_per_n else (-np.inf, -np.inf)
        levels = dense_levels(stack[i], *window) if dense_ground or s < audit_per_n else None
        if dense_ground:
            grounds.append(float(levels[0]))
        elif s < ground_samples:
            grounds.append(smallest_eigenpairs(stack[i], k=1).ground_energy)
        else:
            grounds.append(None)
        audits.append(_level_hits(levels, e_center, eps) if s < audit_per_n else None)
    return upper > lower, grounds, audits


def wegner_report(families, e_center, eps_list, master_seed, audit_per_n, results):
    """Records, joint fit, dense audits and ground statistics of a finished scan.

    ``families`` maps each torus size n to its ContinuumFamily and ``results``
    maps n to what ``wegner_rows`` returns for its samples 0, 1, ...; records
    and ground statistics come out in ascending n.  When the informative
    cells cannot fix the fit (see ``_fit_loglog``) its exponents and standard
    errors are NaN and the report's ``fitted`` is false.

    The first ``audit_per_n`` samples of each size are audited: their hit
    decisions from the dense spectrum must equal the counted ones.  An audit
    entry that is None (a sample replayed from a cache) is taken from the
    spectrum of the sample assembled again from (master_seed, sample), by the
    same function as a fresh sample's (one ``operators`` call per size for
    all of them), so replayed results are audited as well as fresh ones and
    a resumed scan gives the report of a one-shot one.
    """
    records, ground_stats = [], []
    audits_total = audits_agree = 0
    eps = np.asarray(eps_list, dtype=float)
    for n in sorted(families):
        hits, grounds, audits = results[n]
        samples = len(hits)
        records += [
            WegnerRecord(n=n, eps=e, hits=int(h), samples=samples)
            for e, h in zip(eps_list, np.sum(hits, axis=0))
        ]
        audits = list(audits[: min(audit_per_n, samples)])
        replayed = [s for s, dense_hits in enumerate(audits) if dense_hits is None]
        if replayed:
            stack = families[n].operators(master_seed, replayed)
            for i, s in enumerate(replayed):
                levels = dense_levels(stack[i], *_audit_window(e_center, eps))
                audits[s] = _level_hits(levels, e_center, eps)
        for s, dense_hits in enumerate(audits):
            audits_total += len(eps_list)
            audits_agree += int(np.sum(dense_hits == hits[s]))
        g = np.array([e0 for e0 in grounds if e0 is not None])
        if g.size:
            se = float(g.std(ddof=1) / np.sqrt(g.size)) if g.size > 1 else 0.0
            ground_stats.append((n, float(g.min()), se))
    d = next(iter(families.values())).q.d
    try:
        coef, ses, excluded = _fit_loglog(records, d)
    except FitError:  # no fit: the exponents are NaN and ``fitted`` is false
        coef = ses = np.full(3, np.nan)
        excluded = len(records) - len(_informative(records))
    return WegnerReport(
        records=tuple(records),
        nu_hat=float(coef[1]),
        nu_stderr=float(ses[1]),
        dim_hat=float(coef[2]),
        dim_stderr=float(ses[2]),
        n_excluded=excluded,
        audits_total=audits_total,
        audits_agree=audits_agree,
        ground_stats=tuple(ground_stats),
    )
