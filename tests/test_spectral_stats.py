"""Monte-Carlo spectral statistics: IDS curves, tail fits, proximity scans.

Estimators are validated on inputs with known answers -- deterministic
operators, synthetic tail curves, exactly constructed hit tables -- so
failures localize to the estimator, not the physics upstream of it.
"""

import numpy as np
import pytest

from displab.eigensolve import count_below_stack, ground_bisect, smallest_eigenpairs
from displab.floquet import band_bottom
from displab.potentials import periodic_family, single_site_family
from displab.randomfields import DisplacementDistribution, sample_fields
from displab.spectral_stats import (
    ContinuumFamily,
    FitError,
    IDSCurve,
    IDSSandwichReport,
    ReducedFamily,
    WegnerRecord,
    _fit_loglog,
    count_rows,
    lifshitz_fit,
    lifshitz_rows,
    sandwich_families,
    synthetic_tail_curve,
    wegner_report,
    wegner_rows,
)
from displab.supports import ball

P0 = periodic_family("zero", 1)
Q0 = single_site_family("zero", 1)
P1 = periodic_family("cosine", 1, coefficients=[-1.0])
Q1 = single_site_family("asym-bump", 1)
DIST = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(1), 1.0))


def _one_matrix(family, master_seed, sample):
    """One sample's CSR matrix: its field drawn and assembled as a chunk of one."""
    return family.stack(sample_fields(family.dist, family.n, master_seed, (sample,)))[0]


def _near_point_dist(center):
    return DisplacementDistribution(
        kind="uniform-ball", support=ball(np.asarray(center, dtype=float), 1e-9)
    )


def _own_counts(family, seed, samples, energies):
    """``count_rows`` on the family's own draw of the samples' fields."""
    return count_rows(family, energies, sample_fields(family.dist, family.n, seed, samples))


def test_ids_curve_deterministic_operator_zero_variance():
    """With q = 0 the operator ignores the displacement field entirely, so
    every sample counts the same free spectrum: zero standard error."""
    fam = ContinuumFamily(p=P0, q=Q0, lam=0.1, dist=DIST, n=1, m=4)
    energies = np.array([1.0, 10.0, 50.0, 130.0])
    curve = IDSCurve(_own_counts(fam, 3, range(5), energies), fam.n_cells)
    assert np.all(curve.stderr() == 0.0)
    free = np.sort(32.0 * (1.0 - np.cos(np.pi * np.arange(12) / 6.0)))
    expected = np.array([np.sum(free < e) for e in energies]) / 3.0
    assert np.allclose(curve.values(), expected)


def test_ids_curve_input_validation():
    """The offsets of the three curves must be nonempty, strictly
    increasing and inside (0, 1/c0^2)."""
    args = (P1, Q1, 0.1, DIST, [-1.0], 1, 16, 8.0, 1e-3)
    e_ref, families = sandwich_families(*args, [0.001, 0.002])
    assert [type(fam) for fam, _ in families] == [ReducedFamily, ContinuumFamily, ReducedFamily]
    assert [families[0][0].sign, families[2][0].sign] == [1, -1]
    assert np.allclose(families[1][1], e_ref + np.array([0.001, 0.002]))
    for offsets in ([], [0.002, 0.001], [0.001, 0.001], [0.0, 0.001], [0.001, 1.0 / 64.0]):
        with pytest.raises(ValueError):
            sandwich_families(*args, offsets)


def test_reduced_family_jump_positions():
    """Displacements pinned (radius 1e-9) at zeta: the lower model collapses
    to kinetic / c0, whose 3-site spectrum is {0, 1.5, 1.5} / c0."""
    zeta = np.array([-1.0])
    fam = ReducedFamily(sign=-1, v=np.array([0.016]), lam=0.1, zeta=zeta,
                        dist=_near_point_dist(zeta), n=1, c0=2.0, alpha=0.001)
    energies = np.array([0.01, 0.5, 0.8])
    curve = IDSCurve(_own_counts(fam, 0, range(4), energies), fam.n_cells)
    assert np.allclose(curve.values(), [1.0 / 3.0, 1.0 / 3.0, 1.0])
    assert np.all(curve.stderr() == 0.0)


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_lifshitz_fit_recovers_synthetic_exponent(kappa):
    """The doubly-logarithmic transform linearizes the synthetic tail exactly,
    so the fitted slope is -kappa to rounding."""
    energies = 0.2 + np.geomspace(1e-3, 0.5, 40)
    vals = synthetic_tail_curve(0.2, kappa, energies)
    fit = lifshitz_fit(energies, vals, e_bottom=0.2)
    assert fit.slope == pytest.approx(-kappa, abs=1e-10)
    assert fit.rms_residual < 1e-12
    assert not fit.no_tail
    assert abs(fit.slope - fit.half_window_slope) < 1e-9


def test_lifshitz_fit_flags_van_hove_edge():
    """A power-law edge N ~ (E - E0)^{3/2} has no doubly-log tail: deep in
    the tail the transformed slope 1/log(E - E0) flattens toward zero and
    the no_tail flag trips."""
    energies = 0.1 + np.geomspace(1e-8, 1e-4, 30)
    vals = (energies - 0.1) ** 1.5
    fit = lifshitz_fit(energies, vals, e_bottom=0.1)
    assert fit.no_tail
    assert fit.slope > -0.2


def test_lifshitz_fit_excludes_saturated_and_validates():
    energies = 0.0 + np.geomspace(0.01, 2.0, 20)
    vals = synthetic_tail_curve(0.0, 0.5, energies)
    vals = np.where(energies > 1.0, 1.2, vals)  # saturate the top of the window
    fit = lifshitz_fit(energies, vals, e_bottom=0.0)
    assert fit.n_points == int(np.sum(energies <= 1.0))
    with pytest.raises(ValueError):
        lifshitz_fit(np.array([1.0, 2.0]), np.array([0.5, 0.6]), e_bottom=0.0)
    with pytest.raises(ValueError):
        synthetic_tail_curve(0.5, 1.0, np.array([0.4, 0.6]))


def test_loglog_fit_exact_power_law():
    """Hit table built from p = 0.004 eps V exactly: the joint fit returns
    nu = 1, d = 1 with zero residual, and degenerate cells drop out."""
    records = []
    for n in (1, 2, 4):
        vol = 2 * n + 1
        for eps in (0.5, 1.0, 2.0):
            samples = 10000
            hits = int(round(0.004 * eps * vol * samples))
            records.append(WegnerRecord(n=n, eps=eps, hits=hits, samples=samples))
    records.append(WegnerRecord(n=1, eps=1e-9, hits=0, samples=10000))
    records.append(WegnerRecord(n=1, eps=1e9, hits=10000, samples=10000))
    coef, ses, excluded = _fit_loglog(records, d=1)
    assert excluded == 2
    assert coef[1] == pytest.approx(1.0, abs=1e-12)
    assert coef[2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(ses < 1e-10)
    with pytest.raises(FitError):
        _fit_loglog(records[:2], d=1)
    for one_window_or_size in (
        [r for r in records if r.eps == 1.0], [r for r in records if r.n == 2],
    ):
        assert len(one_window_or_size) == 3
        with pytest.raises(FitError):
            _fit_loglog(one_window_or_size, d=1)


def test_wegner_record_stats():
    r = WegnerRecord(n=1, eps=0.1, hits=25, samples=100)
    assert r.p_hat == 0.25
    assert r.stderr == pytest.approx(np.sqrt(0.25 * 0.75 / 100))


def test_wegner_scan_audits_agree_with_dense():
    """Small proximity scan on the deep-well background: every audited hit
    decision must match a dense diagonalization of the same instance."""
    p = periodic_family("cosine", 1, coefficients=[-200.0])
    e_lam = band_bottom(p, Q1, 0.1, np.array([-1.0]), 32).energy
    e_top = band_bottom(p, Q1, 0.0, np.array([-1.0]), 32).energy
    e_center = 0.5 * (e_lam + e_top)
    eps_hi = 0.05 * (e_top - e_lam)
    eps_list = np.geomspace(eps_hi / 10**1.5, eps_hi, 4).tolist()
    families = {n: ContinuumFamily(p=p, q=Q1, lam=0.1, dist=DIST, n=n, m=32) for n in (1, 2)}
    results = {
        n: wegner_rows(fam, 2026, range(40), e_center, eps_list, ground_samples=5, audit_per_n=4)
        for n, fam in families.items()
    }
    rep = wegner_report(families, e_center, eps_list, 2026, 4, results)
    assert rep.audits_total > 0
    assert rep.audit_clean
    assert len(rep.records) == 8
    assert all(r.samples == 40 for r in rep.records)
    assert np.isfinite(rep.nu_hat) and np.isfinite(rep.dim_hat)
    # hit rates grow with the window at fixed size
    for n in (1, 2):
        ps = [r.p_hat for r in rep.records if r.n == n]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


def _eigvalsh_audits(family, master_seed, e_center, eps_list, audited):
    """Reference audit, a pass of its own: each audited sample assembled
    again and its hit decisions read off ``eigvalsh``."""
    edges = [[e_center + eps, e_center - eps] for eps in eps_list]
    decisions = []
    for s in range(audited):
        dense = np.sort(np.linalg.eigvalsh(_one_matrix(family, master_seed, s).toarray()))
        upper, lower = np.searchsorted(dense, edges).T
        decisions.append(upper > lower)
    return decisions


@pytest.mark.parametrize("audit_per_n", [4, 25])
def test_wegner_audits_equal_a_separate_eigvalsh_pass(audit_per_n):
    """The audit reads the spectrum the ground came from (and takes one of
    its own past ``ground_samples``); its decisions equal those of a
    separate ``eigvalsh`` pass over the re-assembled samples, fresh or
    replayed, on the CLI tests' deep-well scan (25 audited > 5 grounds)."""
    p = periodic_family("cosine", 1, coefficients=[-200.0])
    q = single_site_family("asym-bump", 1, amplitude=0.5, radius=0.45)
    e_lam = band_bottom(p, q, 0.1, np.array([-1.0]), 32).energy
    e_top = band_bottom(p, q, 0.0, np.array([-1.0]), 32).energy
    e_center = 0.5 * (e_lam + e_top)
    eps_hi = 0.05 * (e_top - e_lam)
    eps_list = list(np.geomspace(eps_hi / 10**1.5, eps_hi, 4))
    families = {n: ContinuumFamily(p=p, q=q, lam=0.1, dist=DIST, n=n, m=32) for n in (1, 2)}
    results, total, agree = {}, 0, 0
    for n, fam in families.items():
        hits, grounds, audits = results[n] = wegner_rows(
            fam, 2026, range(40), e_center, eps_list, ground_samples=5, audit_per_n=audit_per_n
        )
        want = _eigvalsh_audits(fam, 2026, e_center, eps_list, audit_per_n)
        assert all(a is None for a in audits[audit_per_n:])
        for s, decided in enumerate(want):
            assert np.array_equal(audits[s], decided), (n, s)
            agree += int(np.sum(decided == hits[s]))
        total += len(want) * len(eps_list)
    assert total == 2 * audit_per_n * 4 and agree == total
    replayed = {n: (hits, grounds, [None] * 40) for n, (hits, grounds, _) in results.items()}
    for res in (results, replayed):
        rep = wegner_report(families, e_center, eps_list, 2026, audit_per_n, res)
        assert (rep.audits_total, rep.audits_agree) == (total, agree)


def test_wegner_grounds_follow_the_patched_dense_cutoff():
    """``wegner_rows`` reads ``eigensolve.DENSE_CUTOFF`` at call time, as
    ``smallest_eigenpairs`` does: below the patched cutoff's N its grounds
    come from ``smallest_eigenpairs`` (ARPACK), and they agree with the
    dense ones."""
    from unittest import mock

    import displab.eigensolve as es
    import displab.spectral_stats as ss

    fam = ContinuumFamily(p=P1, q=Q1, lam=0.1, dist=DIST, n=1, m=8)
    calls, pairs = [], ss.smallest_eigenpairs

    def counted(op, k):
        calls.append(pairs(op, k=k))
        return calls[-1]

    args = (fam, 7, range(3), 0.06, [0.01, 0.1], 2, 0)
    _, dense, _ = wegner_rows(*args)
    with mock.patch.object(ss, "smallest_eigenpairs", counted), mock.patch.object(es, "DENSE_CUTOFF", 10):
        _, grounds, _ = wegner_rows(*args)
    assert [r.method for r in calls] == ["arpack", "arpack"]
    assert grounds[2] is None and np.allclose(grounds[:2], dense[:2], rtol=0, atol=1e-9)


def test_ids_sandwich_chain_small():
    alpha = 0.024083227206936605 / 16.0  # alpha0(m=16) / (2 c0), c0 = 8
    energies = np.geomspace(0.002, 0.012, 5)
    _, families = sandwich_families(
        P1, Q1, 0.1, DIST, np.array([-1.0]), 1, 16, 8.0, alpha, energies
    )
    # each family draws the fields of (seed 5, sample s) itself: the same ones
    curves = [
        IDSCurve(_own_counts(fam, 5, range(25), thresholds), fam.n_cells)
        for fam, thresholds in families
    ]
    rep = IDSSandwichReport.from_curves(*curves)
    assert rep.all_ok
    assert rep.sample_violations == 0
    assert np.all(np.diff(rep.middle.counts, axis=1) >= 0)


# -- batch functions: a row never depends on the batch it was computed in ----

P2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
Q2 = single_site_family("asym-bump", 2)
DIST2 = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(2), 1.0))
RING = ReducedFamily(
    sign=1, v=np.array([5.0]), lam=0.1, zeta=np.array([-1.0]), dist=DIST, n=30, c0=1.0,
    alpha=0.05,
)


@pytest.mark.parametrize(
    "family",
    # a reduced ring (one stacked chain sweep) and a d = 2 torus of 729
    # points (SuperLU at the top threshold, Ritz intervals settle the rest)
    [RING, ContinuumFamily(p=P2, q=Q2, lam=0.1, dist=DIST2, n=1, m=9)],
    ids=["reduced-ring", "continuum-2d"],
)
def test_count_rows_equal_one_count_below_per_sample(family):
    levels = np.linalg.eigvalsh(_one_matrix(family, 7, 0).toarray())
    energies = 0.5 * (levels[[0, 2, 4, 8]] + levels[[1, 3, 5, 9]])
    rows = _own_counts(family, 7, range(4), energies)
    assert rows.shape == (4, 4) and len(np.unique(rows)) > 4
    for s in range(4):
        assert np.array_equal(_own_counts(family, 7, (s,), energies), rows[s : s + 1])
        one = family.operators(7, (s,))
        assert np.array_equal(count_below_stack(one, energies)[0], rows[s])


@pytest.mark.parametrize("n", [1, 2])
def test_wegner_rows_equal_one_sample_at_a_time(n):
    family = ContinuumFamily(p=P1, q=Q1, lam=0.1, dist=DIST, n=n, m=16)
    e_center = np.linalg.eigvalsh(_one_matrix(family, 5, 0).toarray())[2 * n + 1]
    eps = np.array([1e-3, 1e-2, 1e-1, 1.0])
    hits, grounds, audits = wegner_rows(
        family, 5, range(6), e_center, eps, ground_samples=3, audit_per_n=4
    )
    assert hits.shape == (6, 4) and hits.any() and not hits.all()
    assert [g is None for g in grounds] == [False] * 3 + [True] * 3
    assert [a is None for a in audits] == [False] * 4 + [True] * 2
    for s in range(6):
        one_hits, one_grounds, one_audits = wegner_rows(
            family, 5, (s,), e_center, eps, ground_samples=3, audit_per_n=4
        )
        assert np.array_equal(one_hits, hits[s : s + 1]) and one_grounds == [grounds[s]]
        assert len(one_audits) == 1 and np.array_equal(one_audits[0], audits[s])
        one = family.operators(5, (s,))
        upper = count_below_stack(one, e_center + eps)[0]
        lower = count_below_stack(one, e_center - eps)[0]
        assert np.array_equal(hits[s], upper > lower)
        if s < 3:
            assert grounds[s] == smallest_eigenpairs(one[0], k=1).ground_energy


def test_lifshitz_rows_equal_one_sample_at_a_time():
    energies = np.geomspace(0.1, 0.8, 6)
    grounds, counts = lifshitz_rows(RING, 0, range(5), energies, 4.0)
    assert counts.shape == (5, 6) and counts[:, -1].min() > 0 and counts[:, 0].max() == 0
    for s in range(5):
        one_grounds, one_counts = lifshitz_rows(RING, 0, (s,), energies, 4.0)
        assert one_grounds == [grounds[s]] and np.array_equal(one_counts, counts[s : s + 1])
        one = RING.operators(0, (s,))
        assert [grounds[s]] == ground_bisect(one, 4.0)
        assert np.array_equal(counts[s], count_below_stack(one, energies)[0])
