"""Acceptance gate: every release criterion, at its stated tolerance and budget.

Each test carries a wall-clock budget assertion alongside the numerical
tolerance, and the conftest hook prints one PASS/FAIL line per criterion at
the end of the session.  Monte-Carlo criteria run the shipped presets through
the real CLI entry point.
"""

import os
import time
from importlib.resources import files

import numpy as np
import pytest

from displab.assumptions import (
    coercivity_constant,
    exhaustive_field_scan,
    minimize_over_field,
    minimize_over_support,
)
from displab.cli import main
from preset_pins import pinned_differences
from test_cli import read_csv_rows
from displab.discretize import (
    GridSpec,
    assemble_fiber,
    assemble_periodic,
    free_fiber_eigenvalues,
)
from displab.eigensolve import smallest_eigenpairs
from displab.floquet import (
    feynman_hellmann_residual,
    gradient_limit_check,
    v_vector,
)
from displab.potentials import (
    FieldChunk,
    constant_field,
    periodic_family,
    single_site_family,
)
from displab.randomfields import DisplacementDistribution
from displab.reduced import (
    band_symbol_ratio,
    build_reduced,
    calibrate_sandwich,
    ground_zero_iff_constant,
    symbol_kinetic,
)
from displab.spectral_stats import lifshitz_fit, synthetic_tail_curve
from displab.supports import ball, interval

P1 = periodic_family("cosine", 1, coefficients=[-1.0])
Q1 = single_site_family("asym-bump", 1)
ZETA = np.array([-1.0])
K = interval(-1.0, 1.0)
DIST = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(1), 1.0))

_PRESETS = files("displab") / "presets"


def _preset(name):
    return str(_PRESETS / f"{name}.ini")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_01_free_operator_exactness():
    """d=1, p=q=0: fiber and periodic spectra equal the closed forms to 1e-10."""
    t0 = time.monotonic()
    p0 = periodic_family("zero", 1)
    q0 = single_site_family("zero", 1)
    z0 = np.array([0.0])
    for m in (4, 8, 16):
        grid = GridSpec(d=1, n=1, m=m)
        exact_union = []
        for theta in grid.thetas():
            op = assemble_fiber(p0, q0, 0.0, z0, theta, m)
            got = np.linalg.eigvalsh(op.toarray())
            want = free_fiber_eigenvalues(theta[0], m)
            assert np.max(np.abs(got - want)) <= 1e-10
            exact_union.append(want)
        per = assemble_periodic(p0, q0, 0.0, constant_field(1, 1, z0), grid)
        got_per = np.linalg.eigvalsh(per.matrix[0].toarray())
        want_per = np.sort(np.concatenate(exact_union))
        assert np.max(np.abs(got_per - want_per)) <= 1e-10
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_floquet_completeness():
    """d=1, cosine p, asymmetric q, lam=0.1, n=1, m=16: periodic spectrum equals
    the union of the 3 fiber spectra as a multiset, to 1e-10."""
    t0 = time.monotonic()
    grid = GridSpec(d=1, n=1, m=16)
    fibers = []
    for theta in grid.thetas():
        op = assemble_fiber(P1, Q1, 0.1, ZETA, theta, 16)
        fibers.append(np.linalg.eigvalsh(op.toarray()))
    union = np.sort(np.concatenate(fibers))
    per = assemble_periodic(P1, Q1, 0.1, constant_field(1, 1, ZETA), grid)
    full = np.linalg.eigvalsh(per.matrix[0].toarray())
    assert full.shape == union.shape == (48,)
    assert np.max(np.abs(full - union)) <= 1e-10
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_feynman_hellmann():
    """|grad_zeta E - lam v| <= 1e-4 (1 + |lam v|), central differences, delta=1e-3."""
    t0 = time.monotonic()
    res1 = feynman_hellmann_residual(P1, Q1, 0.1, ZETA, 32)
    assert res1.residual <= 1e-4 * (1.0 + float(np.linalg.norm(res1.lam_v)))
    p2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
    q2 = single_site_family("asym-bump", 2)
    res2 = feynman_hellmann_residual(p2, q2, 0.1, np.array([-1.0, 0.0]), 16)
    assert res2.residual <= 1e-4 * (1.0 + float(np.linalg.norm(res2.lam_v)))
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_symmetry_null():
    """Reflection-symmetric p and q leave no drift: |v(q)| <= 1e-8."""
    qs1 = single_site_family("sym-bump", 1)
    v1 = v_vector(P1, qs1, 0.0, np.array([0.0]), 32)
    assert float(np.linalg.norm(v1)) <= 1e-8
    p2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
    qs2 = single_site_family("sym-bump", 2)
    v2 = v_vector(p2, qs2, 0.0, np.array([0.0, 0.0]), 8)
    assert float(np.linalg.norm(v2)) <= 1e-8


def test_criterion_05_small_coupling_gradient_limit():
    """sup over a 9-point zeta grid of |v(lam,.) - v(q)| decreases with
    ratio >= 1.5 per halving of lam over {0.2, 0.1, 0.05}."""
    grid = [np.array([z]) for z in np.linspace(-1.0, 1.0, 9)]
    tab = gradient_limit_check(P1, Q1, grid, [0.2, 0.1, 0.05], 64)
    assert tab.decreasing
    assert tab.min_ratio >= 1.5


def test_criterion_06_constant_field_minimizes():
    """d=1, K=[-1,1], lam=0.1: 16 restarts land on the constant field at
    n in {0,1,2} (1e-3 per site, 1e-8 in energy); the exhaustive 11^3 grid
    at n=1 finds nothing lower."""
    t0 = time.monotonic()
    cert = minimize_over_support(P1, Q1, 0.1, K, 64, restarts=8, seed=1)
    assert cert.zeta[0] == pytest.approx(-1.0, abs=1e-9)
    best_n1 = None
    for n in (0, 1, 2):
        rep = minimize_over_field(
            P1, Q1, 0.1, K, n, 64,
            restarts=16, seed=0, energy_tol=1e-8, site_tol=1e-3,
        )
        assert rep.all_converged_to_constant, (
            n, [(r.energy, r.max_site_deviation) for r in rep.restarts])
        assert abs(rep.best_energy - rep.reference_energy) <= 1e-8
        if n == 1:
            best_n1 = rep.best_energy
    scan = exhaustive_field_scan(P1, Q1, 0.1, K, 1, 64, grid_points=11)
    assert scan.argmin_is_constant
    assert scan.constant_value == -1.0
    assert scan.argmin_energy >= best_n1 - 1e-8
    assert time.monotonic() - t0 < 600.0


def test_criterion_07_reduced_symbol_identity():
    """DFT conjugation of the site kinetic part reproduces the dispersion
    multiplier to 1e-12 for d = 1, 2 and sides 3..9."""
    for d in (1, 2):
        for side in range(3, 10):
            kin = symbol_kinetic(d, side).toarray()
            ks = np.arange(side)
            one = np.exp(2j * np.pi * np.outer(ks, ks) / side) / np.sqrt(side)
            f = one
            for _ in range(d - 1):
                f = np.kron(f, one)
            diag = f.conj().T @ kin @ f
            mesh = np.meshgrid(*([2 * np.pi * ks / side] * d), indexing="ij")
            expected = sum(1.0 - np.cos(t) for t in mesh).ravel()
            assert np.max(np.abs(diag - np.diag(expected))) <= 1e-12


def test_criterion_08_reduced_ground_zero_iff_constant():
    """Exhaustive 3-site scan of the lower model: zero bottom exactly at the
    constant configuration, quadratic floor everywhere else."""
    t0 = time.monotonic()
    v = v_vector(P1, Q1, 0.1, ZETA, 32)
    alpha0 = coercivity_constant(P1, Q1, 0.1, ball(np.zeros(1), 1.0), ZETA, 32, seed=1).alpha0
    c0, alpha = 8.0, alpha0 / 16.0
    values = np.linspace(-1.0, 1.0, 5)
    n_constant = 0
    for cfg in np.ndindex(5, 5, 5):
        field = FieldChunk(n=1, d=1, values=values[np.array(cfg)][None, :, None])
        mod = build_reduced(-1, v, 0.1, ZETA, field, c0, alpha)
        (rep,) = ground_zero_iff_constant(mod)
        assert rep.consistent, (cfg, rep.min_eigenvalue, rep.lower_bound)
        if rep.field_is_constant:
            n_constant += 1
            assert abs(rep.min_eigenvalue) <= 1e-12
        else:
            assert rep.min_eigenvalue > 0
            assert rep.min_eigenvalue >= rep.lower_bound - 1e-13
    assert n_constant == 1
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_band_symbol_ratios_bounded():
    """(E_0(theta) - E(lam)) / dispersion positive with max/min <= 50 on the
    shipped 1-d configuration for lam in {0.05, 0.1, 0.2}."""
    thetas = GridSpec(d=1, n=2, m=32).thetas()
    for lam in (0.05, 0.1, 0.2):
        tab = band_symbol_ratio(P1, Q1, lam, ZETA, 32, thetas)
        assert tab.min_ratio > 0
        assert tab.spread <= 50.0


def test_criterion_10_sandwich_inequality():
    """d=1, n=1, m=16: some C0 <= 128 with alpha = alpha0/(2 C0) keeps both
    difference forms above -1e-8 on 100 probe vectors plus the bottom eigenvalue."""
    t0 = time.monotonic()
    grid = GridSpec(d=1, n=1, m=16)
    alpha0 = coercivity_constant(P1, Q1, 0.1, ball(np.zeros(1), 1.0), ZETA, 16, seed=1).alpha0
    cal = calibrate_sandwich(
        P1, Q1, 0.1, ZETA, grid, alpha0, DIST,
        c0_values=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        n_fields=20, master_seed=0, trials=100,
    )
    assert cal.ok
    assert cal.passing_c0 is not None and cal.passing_c0 <= 128.0
    passing = [r for r in cal.reports if r.c0 == cal.passing_c0][0]
    assert passing.alpha == pytest.approx(alpha0 / (2.0 * cal.passing_c0))
    assert min(passing.min_quad_lower, passing.min_quad_upper,
               passing.min_eig_lower, passing.min_eig_upper) >= -1e-8
    assert time.monotonic() - t0 < 300.0


def test_criterion_11_ids_counting_chain(tmp_path):
    """Counting chain on shared fields, d=1, n=2, 100 samples, 12 offsets
    (the CLI's default geomspace(top / 50, top, 12), top = 0.9 / c0^2), run
    by ``displab ids``: both inequalities hold within 3-sigma bands at every
    offset, and no sample breaks the integer chain."""
    t0 = time.monotonic()
    c0 = 8.0
    alpha0 = coercivity_constant(P1, Q1, 0.1, ball(np.zeros(1), 1.0), ZETA, 32, seed=1).alpha0
    config = tmp_path / "ids.ini"
    config.write_text(
        "[run]\nkind = ids\nseed = 0\n"
        "[model]\nd = 1\nn = 2\nm = 32\nlam = 0.1\n"
        "[periodic]\nfamily = cosine\ncoefficients = -1.0\n"
        "[site]\nfamily = asym-bump\n"
        f"[ids]\nc0 = {c0!r}\nalpha = {alpha0 / (2.0 * c0)!r}\nzeta = -1.0\n"
        "n_samples = 100\nn_offsets = 12\n"
    )
    out = tmp_path / "ids"
    assert main(["ids", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv_rows(out / "curves.csv")
    assert len(rows) == 12
    ok = [dict(zip(header, row)) for row in rows]
    assert all(r["ok_lower"] == r["ok_upper"] == "true" for r in ok), ok
    assert "strict per-sample violations: 0" in (out / "summary.txt").read_text().splitlines()
    assert time.monotonic() - t0 < 600.0


def test_criterion_12_lifshitz_tail_machinery(tmp_path):
    """Fitter recovers -d/2 on synthetic doubly-log tails to 0.02; the reduced
    1-d model (2001 sites, 200 samples) lands in the loose band [-0.9, -0.25],
    and every output matches its pinned reference."""
    t0 = time.monotonic()
    for d, kappa in ((1, 0.5), (2, 1.0)):
        energies = 0.3 + np.geomspace(1e-3, 0.5, 36)
        vals = synthetic_tail_curve(0.3, kappa, energies)
        fit = lifshitz_fit(energies, vals, e_bottom=0.3)
        assert abs(fit.slope - (-d / 2.0)) <= 0.02
    out = str(tmp_path / "lifshitz")
    assert main(["lifshitz", "--config", _preset("lifshitz-reduced-1d"), "--out", out]) == 0
    header, rows = read_csv_rows(os.path.join(out, "fit.csv"))
    fitrow = dict(zip(header, rows[0]))
    assert -0.9 <= float(fitrow["slope"]) <= -0.25, fitrow
    assert int(fitrow["n_points"]) >= 10
    assert fitrow["no_tail"] == "false"
    assert pinned_differences(out, "lifshitz-reduced-1d") == []
    assert time.monotonic() - t0 < 900.0


def test_criterion_13_wegner_window_scaling(tmp_path):
    """Shipped proximity preset: nu_hat >= 0.8, dim_hat in [0.5, 1.5],
    400 samples per cell, and >= 50 audited instances all agreeing with
    dense diagonalization; every output matches its pinned reference."""
    t0 = time.monotonic()
    out = str(tmp_path / "wegner")
    assert main(["wegner", "--config", _preset("wegner-1d"), "--out", out]) == 0
    header, rows = read_csv_rows(os.path.join(out, "fit.csv"))
    fit = dict(zip(header, rows[0]))
    assert float(fit["nu_hat"]) >= 0.8, fit
    assert 0.5 <= float(fit["dim_hat"]) <= 1.5, fit
    assert fit["audits_total"] == fit["audits_agree"]
    rheader, rrows = read_csv_rows(os.path.join(out, "records.csv"))
    recs = [dict(zip(rheader, r)) for r in rrows]
    assert all(int(r["samples"]) == 400 for r in recs)
    n_eps = len({r["eps"] for r in recs})
    audited_instances = int(fit["audits_total"]) // n_eps
    assert audited_instances >= 50
    assert pinned_differences(out, "wegner-1d") == []
    assert time.monotonic() - t0 < 1200.0


def test_criterion_14_determinism_and_resume(tmp_path):
    """Equal configs give byte-identical CSVs; resuming a truncated cache
    reproduces the one-shot outputs exactly; the free-1d and ids-1d outputs
    match their pinned references."""
    # plain rerun, smallest deterministic preset
    a, b = str(tmp_path / "free_a"), str(tmp_path / "free_b")
    assert main(["band", "--config", _preset("free-1d"), "--out", a]) == 0
    assert main(["band", "--config", _preset("free-1d"), "--out", b]) == 0
    assert _read(os.path.join(a, "bands.csv")) == _read(os.path.join(b, "bands.csv"))
    assert _read(os.path.join(a, "summary.txt")) == _read(os.path.join(b, "summary.txt"))
    assert pinned_differences(a, "free-1d") == []

    # Monte-Carlo rerun + resume-equals-one-shot on the sampling preset
    full, again = str(tmp_path / "ids_full"), str(tmp_path / "ids_again")
    assert main(["ids", "--config", _preset("ids-1d"), "--out", full]) == 0
    assert pinned_differences(full, "ids-1d") == []
    assert main(["ids", "--config", _preset("ids-1d"), "--out", again]) == 0
    for name in ("curves.csv", "cache.csv", "summary.txt"):
        assert _read(os.path.join(full, name)) == _read(os.path.join(again, name)), name

    cache = os.path.join(again, "cache.csv")
    lines = open(cache, encoding="utf-8").read().splitlines(keepends=True)
    with open(cache, "w", encoding="utf-8") as fh:
        fh.write("".join(lines[: len(lines) // 2]))
    os.remove(os.path.join(again, "summary.txt"))
    assert main(["ids", "--resume", again]) == 0
    for name in ("curves.csv", "cache.csv", "summary.txt"):
        assert _read(os.path.join(full, name)) == _read(os.path.join(again, name)), name
