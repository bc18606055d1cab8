"""Hypothesis checks on the band-edge landscape.

Everything in here pins behavior of the verification layer itself: the
constant-displacement minimizer, the coercivity constant around it, the
robustness of a linear minimizer under gradient perturbations, and the full
per-site field descent that backs the finite-volume minimization statement.
"""

import numpy as np
import pytest

from displab import assumptions, floquet
from displab.assumptions import (
    coercivity_constant,
    exhaustive_field_scan,
    field_energy_and_gradient,
    gap_ratio_table,
    minimize_over_field,
    minimize_over_support,
    robust_linear_minimizer,
)
from displab.discretize import GridSpec, assemble_periodic
from displab.eigensolve import smallest_eigenpairs
from displab.floquet import v_vector
from displab.potentials import (
    FieldChunk,
    periodic_family,
    single_site_family,
)
from displab.supports import ball, box, ellipsoid, interval

P1 = periodic_family("cosine", 1, coefficients=[-1.0])
Q1 = single_site_family("asym-bump", 1)
K = interval(-1.0, 1.0)


def test_minimizer_lands_on_left_endpoint():
    """The asymmetric site drives the constant displacement to zeta = -1."""
    cert = minimize_over_support(P1, Q1, 0.1, K, 32, restarts=6, seed=0)
    assert cert.zeta[0] == pytest.approx(-1.0, abs=1e-9)
    assert cert.energy == pytest.approx(0.0622533610920, abs=1e-9)
    assert cert.unique
    assert not cert.flat
    assert cert.cluster_diameter == 0.0
    assert all(cert.converged)


def test_one_fiber_solve_per_descent_evaluation(monkeypatch):
    """Each energy-and-gradient evaluation of the constant-displacement
    descent reads both off one fiber solve (the minimize-1d model)."""
    solves, evaluations = [], []
    solve, pgd = floquet.smallest_eigenpairs, assumptions._pgd

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_pgd(f_and_grad, *args):
        def counted(x):
            evaluations.append(1)
            return f_and_grad(x)

        return pgd(counted, *args)

    monkeypatch.setattr(floquet, "smallest_eigenpairs", counted_solve)
    monkeypatch.setattr(assumptions, "_pgd", counted_pgd)
    minimize_over_support(P1, Q1, 0.1, ball(np.zeros(1), 1.0), 32, restarts=8, seed=0)
    assert len(evaluations) > 8
    assert len(solves) == len(evaluations)


def test_minimizer_flat_when_site_potential_vanishes():
    q0 = single_site_family("zero", 1)
    cert = minimize_over_support(P1, q0, 0.1, K, 16, restarts=4, seed=0)
    assert cert.flat
    assert not cert.unique


def test_coercivity_equals_half_drift_on_symmetric_interval():
    """For an energy that is linear in zeta, the worst ratio over [-1, 1]
    around zeta_min = -1 is grad/(lam * |dz|) at the far end dz = 2, i.e.
    alpha0 = v/2 -- a hand-computable pin for the sampler."""
    for m in (16, 32):
        coer = coercivity_constant(P1, Q1, 0.1, ball(np.zeros(1), 1.0), np.array([-1.0]), m, seed=1)
        v = v_vector(P1, Q1, 0.1, np.array([-1.0]), m)[0]
        assert coer.positive
        assert coer.alpha0 == pytest.approx(v / 2.0, rel=1e-9)


def test_coercivity_frozen_values():
    coer = coercivity_constant(P1, Q1, 0.1, ball(np.zeros(1), 1.0), np.array([-1.0]), 32, seed=1)
    assert coer.alpha0 == pytest.approx(0.00807360185, abs=1e-9)


def test_prop1_geometry_dispatch():
    """Boundary curvature: strict convexity is what a curvature-based
    coercivity bound needs, so flat-faced supports come back flagged."""
    ellipse = ellipsoid(np.zeros(2), [2.0, 1.0], boundary_only=False)
    assert ellipse.min_curvature().value == pytest.approx(0.25)
    assert ball(np.zeros(1), 1.0).min_curvature().value == np.inf
    for flat_set in (interval(-1.0, 1.0), box([-1.0, -1.0], [1.0, 1.0])):
        rep = flat_set.min_curvature()
        assert rep.value == 0.0 and not rep.strictly_convex


def test_robust_minimizer_interval_hand_check():
    # v_q = 0.5 pulls to the left endpoint; the choice survives any gradient
    # perturbation smaller than v_q itself and fails beyond it
    ok = robust_linear_minimizer(K, np.array([0.5]), eps=0.3, seed=2)
    assert ok.ok
    assert ok.zeta0[0] == -1.0
    assert ok.margin >= -1e-12
    bad = robust_linear_minimizer(K, np.array([0.5]), eps=0.7, seed=2)
    assert not bad.ok
    assert bad.margin == pytest.approx(2 * (0.5 - 0.7), abs=1e-9)


def test_robust_minimizer_smooth_boundary_never_robust():
    """A strictly convex boundary has singleton normal cones, so any eps > 0
    breaks the common minimizer; eps = 0 keeps the support point."""
    s = ball(np.zeros(2), 1.0)
    v_q = np.array([0.3, 0.4])
    assert robust_linear_minimizer(s, v_q, eps=0.0, seed=2).ok
    assert not robust_linear_minimizer(s, v_q, eps=0.05, seed=2).ok
    with pytest.raises(ValueError):
        robust_linear_minimizer(s, v_q, eps=-0.1, seed=2)


def test_gap_ratio_table_positive_and_stable():
    tab = gap_ratio_table(P1, Q1, [0.2, 0.1, 0.05], K, 32, seed=3)
    assert tab.all_positive
    assert max(tab.ratios) / min(tab.ratios) < 50
    # deeper coupling digs a lower band edge (below the lam = 0 bottom: all_positive)
    assert tab.energies[0] < tab.energies[1] < tab.energies[2]


def test_field_gradient_matches_finite_differences():
    grid = GridSpec(d=1, n=1, m=8)
    vals = np.random.default_rng(4).uniform(-0.9, 0.9, size=(1, 3, 1))
    fld = FieldChunk(n=1, d=1, values=vals)
    _, grad = field_energy_and_gradient(P1, Q1, 0.1, fld, grid)
    h = 1e-6
    for i in range(3):
        vp, vm = vals.copy(), vals.copy()
        vp[0, i, 0] += h
        vm[0, i, 0] -= h
        ep, _ = field_energy_and_gradient(P1, Q1, 0.1, FieldChunk(n=1, d=1, values=vp), grid)
        em, _ = field_energy_and_gradient(P1, Q1, 0.1, FieldChunk(n=1, d=1, values=vm), grid)
        assert (ep - em) / (2 * h) == pytest.approx(grad[i, 0], abs=1e-6)


def test_field_descent_reaches_constant_configuration():
    rep = minimize_over_field(
        P1, Q1, 0.1, K, 0, 64, restarts=4, seed=0, energy_tol=1e-8, site_tol=1e-3
    )
    assert rep.all_converged_to_constant
    assert rep.reference_zeta[0] == pytest.approx(-1.0)
    assert abs(rep.energy_gap) < 1e-10
    assert np.allclose(rep.best_field, -1.0)


def test_field_descent_n1():
    rep = minimize_over_field(
        P1, Q1, 0.1, K, 1, 64, restarts=3, seed=0, energy_tol=1e-8, site_tol=1e-3
    )
    assert rep.all_converged_to_constant
    assert max(r.max_site_deviation for r in rep.restarts) <= 1e-3


def test_exhaustive_scan_prefers_constant_field():
    scan = exhaustive_field_scan(P1, Q1, 0.1, K, 1, 16, grid_points=3)
    assert scan.argmin_is_constant
    assert scan.constant_value == -1.0
    assert scan.margin > 0


def _reference_scan(p, q, lam, support, n, m, grid_points):
    """The scan as it was before ``dense_levels`` and before one chunk: one
    ``smallest_eigenpairs`` ground per configuration, each assembled as its
    own chunk of one, through the same comparison loop."""
    grid = GridSpec(d=1, n=n, m=m)
    lo = support.project(np.array([-1e9]))[0]
    hi = support.project(np.array([1e9]))[0]
    values = np.linspace(lo, hi, grid_points)
    best_e, best_cfg, second = np.inf, None, np.inf
    for cfg in np.ndindex(*([grid_points] * (2 * n + 1))):
        fld = FieldChunk(n=n, d=1, values=values[np.array(cfg)][None, :, None])
        e = smallest_eigenpairs(assemble_periodic(p, q, lam, fld, grid).matrix[0], k=1).ground_energy
        if e < best_e:
            second = best_e
            best_e, best_cfg = e, np.array(cfg)
        elif e < second:
            second = e
    return best_cfg, best_e, second


@pytest.mark.parametrize("grid_points", [1, 3, 4, 5])
@pytest.mark.parametrize("site", ["asym-bump", "sym-bump", "zero"])
def test_exhaustive_scan_equals_the_smallest_eigenpairs_loop(monkeypatch, site, grid_points):
    """Same argmin, ground and runner-up bits as the per-configuration
    ``smallest_eigenpairs`` loop; the symmetric bump makes mirrored
    configurations tie, so the first minimum in ``ndindex`` order must win.
    The scan diagonalizes only what its stacked count keeps: with the zero
    site every ground ties, so the bound U comes from a tie and every
    configuration is kept; with one grid point there is one constant
    configuration, no U, and the plain loop."""
    q = single_site_family(site, 1)
    levels = []
    real = assumptions.dense_levels
    monkeypatch.setattr(assumptions, "dense_levels", lambda m, lo, hi: levels.append(1) or real(m, lo, hi))
    scan = exhaustive_field_scan(P1, q, 0.1, K, 1, 16, grid_points=grid_points)
    monkeypatch.undo()
    configs = grid_points**3
    if site == "zero" or grid_points == 1:  # the constants' grounds, then every configuration
        assert len(levels) == (grid_points if grid_points > 1 else 0) + configs
    else:
        assert len(levels) < configs
    cfg, best, second = _reference_scan(P1, q, 0.1, K, 1, 16, grid_points)
    assert np.array_equal(scan.argmin_config, cfg)
    assert scan.argmin_energy == best
    assert scan.runner_up_energy == second
    assert scan.argmin_is_constant == bool(np.all(cfg == cfg[0]))


def test_exhaustive_scan_rejects_d2():
    q2 = single_site_family("asym-bump", 2)
    p2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
    with pytest.raises(NotImplementedError):
        exhaustive_field_scan(p2, q2, 0.1, ball(np.zeros(2), 1.0), 0, 8, grid_points=3)
