"""Certified checks of the model hypotheses at finite volume.

Covers: existence/uniqueness of the constant displacement minimizer, the
quadratic coercivity constant of the band bottom around it, the robust
linear minimizer (the other geometric side condition, boundary curvature, is
``SupportSet.min_curvature``), lower bounds on the spectral shift per unit
coupling, and minimization of the torus ground energy over full displacement
fields (both local descent from many starts and exhaustive small grids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import GridSpec, assemble_periodic
from .eigensolve import count_below_stack, dense_levels, smallest_eigenpairs
from .floquet import band_bottom, v_vector
from .potentials import FieldChunk, site_lattice, wrap_nearest


# -- projected gradient descent (shared by both minimizers) -------------


def _pgd(f_and_grad, project, x0, gtol, max_iter, t0):
    """Monotone projected gradient with Armijo backtracking.

    ``f_and_grad(x) -> (f, g)``; ``project`` maps onto the feasible set.
    Returns (x, f, g, iterations, converged).
    """
    x = project(np.asarray(x0, dtype=float))
    fx, gx = f_and_grad(x)
    t = t0
    for it in range(max_iter):
        step = project(x - t * gx)
        if np.linalg.norm(step - x) <= gtol * max(1.0, t):
            return x, fx, gx, it, True
        accepted = False
        for _ in range(60):
            fs, gs = f_and_grad(step)
            if fs <= fx + 1e-4 * float(np.vdot(gx, step - x).real):
                x, fx, gx = step, fs, gs
                t = min(t * 2.0, 1e6)
                accepted = True
                break
            t *= 0.25
            step = project(x - t * gx)
            if np.linalg.norm(step - x) <= gtol * max(1.0, t):
                return x, fx, gx, it, True
        if not accepted:
            return x, fx, gx, it, np.linalg.norm(gx) <= gtol
    return x, fx, gx, max_iter, False


# -- constant-displacement minimizer (single zeta over the support) -----


@dataclass(frozen=True)
class MinimizerCertificate:
    zeta: np.ndarray
    energy: float
    endpoints: np.ndarray
    endpoint_energies: np.ndarray
    iterations: tuple
    converged: tuple
    cluster_diameter: float
    unique: bool
    flat: bool


def minimize_over_support(p, q, lam, support, m, seed, restarts=8):
    """Minimize the band bottom over constant displacements in the support.

    Projected gradient (step tolerance 1e-9, at most 300 iterations) from
    ``restarts`` random starts plus the center.  The certificate records
    every endpoint; ``unique`` means all endpoints whose energy ties the
    best (within 1e-10) sit within 1e-4 of each other, ``flat`` that the
    landscape is constant to rounding.
    """
    d = q.d

    def f_and_grad(z):
        bb = band_bottom(p, q, lam, z, m)
        return bb.energy, lam * bb.v

    rng = np.random.default_rng(seed)
    starts = [support.center.copy()]
    if restarts > 1:
        starts.extend(support.sample(rng, restarts - 1))
    t0 = max(support.bounding_radius(), 1.0) / max(lam, 1e-12) * 10.0
    ends, energies, grads, iters, convs = [], [], [], [], []
    for x0 in starts:
        x, fx, gx, it, ok = _pgd(f_and_grad, support.project, x0, 1e-9, 300, t0)
        ends.append(x)
        energies.append(fx)
        grads.append(gx)
        iters.append(it)
        convs.append(ok)
    ends = np.asarray(ends)
    energies = np.asarray(energies)
    best = int(np.argmin(energies))
    tied = ends[energies <= energies[best] + 1e-10]
    diam = 0.0
    for i in range(len(tied)):
        for j in range(i + 1, len(tied)):
            diam = max(diam, float(np.linalg.norm(tied[i] - tied[j])))
    spread = float(energies.max() - energies.min())
    flat = spread < 1e-13 * max(1.0, abs(energies[best])) and all(
        np.linalg.norm(g) < 1e-12 for g in grads
    )
    return MinimizerCertificate(
        zeta=ends[best],
        energy=float(energies[best]),
        endpoints=ends,
        endpoint_energies=energies,
        iterations=tuple(iters),
        converged=tuple(convs),
        cluster_diameter=diam,
        unique=bool(not flat and diam <= 1e-4),
        flat=bool(flat),
    )


# -- quadratic coercivity around the minimizer --------------------------


@dataclass(frozen=True)
class CoercivityReport:
    alpha0: float
    positive: bool


def coercivity_constant(p, q, lam, support, zeta_min, m, seed):
    """alpha0 = min over zeta != zeta_min of grad E(zeta_min).(zeta - zeta_min) / (lam |zeta - zeta_min|^2).

    Sampled over 256 interior draws, 64 boundary pushes and the extreme
    points; the extremes matter because for a linear-in-zeta energy the ratio
    decays like 1/|zeta - zeta_min| and bottoms out at the far end of the
    support.
    """
    zeta_min = np.atleast_1d(np.asarray(zeta_min, dtype=float))
    grad = lam * v_vector(p, q, lam, zeta_min, m)
    rng = np.random.default_rng(seed)
    pts = [support.sample(rng, 256)]
    dirs = rng.standard_normal((64, support.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    reach = 2.0 * support.bounding_radius()
    pts.append(np.array([support.project(support.center + reach * u) for u in dirs]))
    pts.append(support.extreme_points())
    pts = np.concatenate(pts, axis=0)
    best = np.inf
    for z in pts:
        dz = z - zeta_min
        r2 = float(np.dot(dz, dz))
        if r2 < 1e-18:
            continue
        best = min(best, float(np.dot(grad, dz)) / (lam * r2))
    return CoercivityReport(alpha0=float(best), positive=bool(best > 0.0))


# -- geometric side conditions -------------------------------------------


@dataclass(frozen=True)
class RobustMinimizerReport:
    zeta0: np.ndarray
    margin: float
    ok: bool


def robust_linear_minimizer(support, v_q, eps, seed):
    """Find zeta0 minimizing w . zeta simultaneously for all |w - v_q| <= eps.

    Such a point exists iff some extreme point's normal cone contains the
    whole eps-ball around v_q, i.e. min over the support of
    v_q.(zeta - zeta0) - eps |zeta - zeta0| is >= 0.  Smooth strictly convex
    boundaries never pass for eps > 0; polytope corners can.
    """
    v_q = np.atleast_1d(np.asarray(v_q, dtype=float))
    if eps < 0:
        raise ValueError("eps must be >= 0")
    cands = support.extreme_points()
    if support.kind != "polytope":
        cands = np.vstack([cands, support.support_point(v_q)])
    rng = np.random.default_rng(seed)
    probe = np.vstack([support.sample(rng, 512), support.extreme_points(), cands])
    scale = max(1.0, float(np.linalg.norm(v_q)), support.bounding_radius())
    best_margin, best_z = -np.inf, cands[0]
    for z0 in cands:
        dz = probe - z0
        margins = dz @ v_q - eps * np.linalg.norm(dz, axis=1)
        margin = float(np.min(margins))
        if margin > best_margin:
            best_margin, best_z = margin, z0
    return RobustMinimizerReport(
        zeta0=np.asarray(best_z),
        margin=best_margin,
        ok=bool(best_margin >= -1e-12 * scale),
    )


# -- spectral shift per unit coupling ------------------------------------


@dataclass(frozen=True)
class GapRatioTable:
    lams: tuple
    energies: tuple
    ratios: tuple

    @property
    def all_positive(self):
        return all(r > 0 for r in self.ratios)

    @property
    def min_ratio(self):
        return min(self.ratios)


def gap_ratio_table(p, q, lams, support, m, seed):
    """(E_0 - E(lam, zeta_lam)) / lam for each coupling; E_0 is the lam = 0 bottom
    and zeta_lam the minimizer ``minimize_over_support`` finds with 6 restarts."""
    e0 = band_bottom(p, q, 0.0, np.zeros(q.d), m).energy
    energies, ratios = [], []
    for lam in lams:
        cert = minimize_over_support(p, q, lam, support, m, restarts=6, seed=seed)
        energies.append(cert.energy)
        ratios.append((e0 - cert.energy) / lam)
    return GapRatioTable(
        lams=tuple(float(x) for x in lams), energies=tuple(energies), ratios=tuple(ratios)
    )


# -- full displacement-field minimization --------------------------------


def field_energy_and_gradient(p, q, lam, field, grid):
    """Torus ground energy and its per-site derivative in the displacements
    of one field, given as its chunk of one.

    The gradient row for site gamma is -lam * sum_i |psi_i|^2 grad q at the
    sampled offsets, i.e. exact first-order perturbation of the assembled
    matrix (psi is the ell^2-normalized ground vector).
    """
    res = smallest_eigenpairs(assemble_periodic(p, q, lam, field, grid).matrix[0], k=1)
    psi2 = np.abs(res.ground_vector) ** 2
    pts = grid.points()
    period = float(grid.side_cells)
    sites = site_lattice(grid.n, grid.d)
    grad = np.zeros((sites.shape[0], grid.d))
    for idx, gamma in enumerate(sites):
        offs = wrap_nearest(pts - gamma - lam * field.values[0, idx], period)
        grad[idx] = -lam * psi2 @ q.gradient(offs)
    return res.ground_energy, grad


@dataclass(frozen=True)
class RestartRecord:
    energy: float
    max_site_deviation: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FieldMinimizerReport:
    reference_zeta: np.ndarray
    reference_energy: float
    best_energy: float
    best_field: np.ndarray
    restarts: tuple
    energy_tol: float
    site_tol: float

    @property
    def energy_gap(self):
        return self.best_energy - self.reference_energy

    @property
    def all_converged_to_constant(self):
        return all(
            r.max_site_deviation <= self.site_tol and abs(r.energy - self.reference_energy) <= self.energy_tol
            for r in self.restarts
        )


def minimize_over_field(
    p,
    q,
    lam,
    support,
    n,
    m,
    restarts,
    seed,
    energy_tol,
    site_tol,
):
    """Descend the torus ground energy over all per-site displacements.

    Every restart starts from an independent random field (sites drawn from
    the support) and descends by projected gradient (step tolerance 1e-10,
    at most 400 iterations), projected back into the support sitewise.  The
    report compares endpoints against the constant field at the single-cell
    minimizer: matching energies within ``energy_tol`` and sitewise distance
    within ``site_tol`` certifies that constant fields minimize at this size.
    The single-cell minimizer comes from ``minimize_over_support`` with 6
    restarts, seeded ``seed + 1``.
    """
    grid = GridSpec(d=q.d, n=n, m=m)
    n_sites = (2 * n + 1) ** q.d
    reference = minimize_over_support(p, q, lam, support, m, restarts=6, seed=seed + 1)
    zeta_ref = np.atleast_1d(np.asarray(reference.zeta, dtype=float))
    ref_energy = band_bottom(p, q, lam, zeta_ref, m).energy

    def f_and_grad(flat):
        fld = FieldChunk(n=n, d=q.d, values=flat.reshape(1, n_sites, q.d))
        e, g = field_energy_and_gradient(p, q, lam, fld, grid)
        return e, g.ravel()

    def project(flat):
        pts = flat.reshape(n_sites, q.d)
        return np.array([support.project(z) for z in pts]).ravel()

    rng = np.random.default_rng(seed)
    t0 = max(support.bounding_radius(), 1.0) / max(lam, 1e-12) * 10.0
    records, best_energy, best_field = [], np.inf, None
    for _ in range(restarts):
        x0 = support.sample(rng, n_sites).ravel()
        x, fx, _, it, ok = _pgd(f_and_grad, project, x0, 1e-10, 400, t0)
        endpoint = x.reshape(n_sites, q.d)
        dev = float(np.max(np.linalg.norm(endpoint - zeta_ref, axis=1)))
        records.append(
            RestartRecord(energy=float(fx), max_site_deviation=dev, iterations=it, converged=ok)
        )
        if fx < best_energy:
            best_energy, best_field = float(fx), endpoint
    return FieldMinimizerReport(
        reference_zeta=zeta_ref,
        reference_energy=float(ref_energy),
        best_energy=best_energy,
        best_field=best_field,
        restarts=tuple(records),
        energy_tol=energy_tol,
        site_tol=site_tol,
    )


@dataclass(frozen=True)
class FieldScanReport:
    argmin_config: np.ndarray
    argmin_energy: float
    runner_up_energy: float
    argmin_is_constant: bool
    constant_value: float

    @property
    def margin(self):
        return self.runner_up_energy - self.argmin_energy


def exhaustive_field_scan(p, q, lam, support, n, m, grid_points):
    """Brute-force the torus ground energy over a per-site value grid (d = 1).

    Enumerates all grid_points^(2n+1) displacement configurations, assembled
    as one chunk; reports the global argmin, the runner-up energy and whether
    the argmin is a constant configuration.  Each ground is ``dense_levels``
    with the empty window, ``eigh``'s lowest eigenvalue without the others
    or the eigenvectors, so up to ``DENSE_CUTOFF`` rows it is the
    ``smallest_eigenpairs`` ground to the bit.

    Only configurations that can hold one of the two smallest grounds are
    diagonalized.  The second-smallest ground U of the constant
    configurations bounds the runner-up from above, and one stacked count
    at U + delta, delta = 1e-9 * max(1, largest ||A||_inf), well above the
    eigensolver's backward error O(N eps ||A||), drops every configuration
    with no eigenvalue below it: its ground exceeds U.  The rest go through
    the comparison loop in ``ndindex`` order, so ties resolve as in the full
    loop.  With fewer than two constant configurations every one does.
    """
    if q.d != 1:
        raise NotImplementedError("exhaustive scan is d = 1 only")
    grid = GridSpec(d=1, n=n, m=m)
    n_sites = 2 * n + 1
    lo = support.project(np.array([-1e9]))[0]
    hi = support.project(np.array([1e9]))[0]
    values = np.linspace(lo, hi, grid_points)
    cfgs = list(np.ndindex(*([grid_points] * n_sites)))
    chunk = FieldChunk(n=n, d=1, values=values[np.array(cfgs)][..., None])
    stack = assemble_periodic(p, q, lam, chunk, grid).matrix
    constant = [k for k, cfg in enumerate(cfgs) if len(set(cfg)) == 1]
    survivors = range(len(cfgs))
    if len(constant) >= 2:
        bound = sorted(dense_levels(stack[k], -np.inf, -np.inf)[0] for k in constant)[1]
        delta = 1e-9 * max(1.0, stack.norms().max())
        survivors = np.flatnonzero(count_below_stack(stack, [bound + delta])[:, 0] > 0)
    best_e, best_cfg, second = np.inf, None, np.inf
    for k in survivors:
        e = dense_levels(stack[k], -np.inf, -np.inf)[0]
        if e < best_e:
            second = best_e
            best_e, best_cfg = e, np.array(cfgs[k])
        elif e < second:
            second = e
    is_const = bool(np.all(best_cfg == best_cfg[0]))
    return FieldScanReport(
        argmin_config=best_cfg,
        argmin_energy=float(best_e),
        runner_up_energy=float(second),
        argmin_is_constant=is_const,
        constant_value=float(values[best_cfg[0]]) if is_const else float("nan"),
    )
