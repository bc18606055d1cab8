"""Differential property tests for eigenvalue counting.

Hypothesis draws lists of random symmetric periodic chains (generic, zero
corner, zero or tiny couplings; N from 3 to 60, mixed within a list), which
no stencil gives, so they reach the per-operator layer that
``count_below_stack`` and ``ground_bisect`` drive as ``prepared`` records, and
thresholds far from, between and exactly on the ``eigvalsh`` levels.  The
stacked count must equal the one-operator count, the per-threshold
factorization and, where the gap to every level is clear, ``eigvalsh`` plus
``searchsorted``; the ground bisection must equal the reference bisection
bit for bit.  It also draws random symmetric 2-d torus operators (sides 4
to 12; generic, or separable so that levels come in exact or nearly exact
pairs) counted through SuperLU: the counts settled from the top threshold's
factor must equal the per-threshold path's and, where the gap is clear,
``eigvalsh`` plus ``searchsorted``.  Random dense symmetric matrices
(generic, repeated levels, a multiple zero level, norm 1e4) go through dense
LDL^T, and random sparse symmetric matrices through dense LDL^T, SuperLU
and the Ritz route by patching ``COUNT_DENSE_CUTOFF``: every count must equal
``eigvalsh`` plus ``searchsorted`` where the gap is clear and lie inside the
tie band elsewhere.  Random dense symmetric matrices (N up to 64) and
chains also go through ``dense_levels``, whose levels must be LAPACK
``dsyevd``'s to the bit.  The profile in ``conftest.py`` makes every run
draw the same examples.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dsyevd

import displab.eigensolve as es
from conftest import prepared, prepared_counts

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

VARIANTS = ("generic", "zero-corner", "zero-couplings", "tiny-couplings")


def _cyclic(diag, off):
    """Sparse periodic chain with A[i, i + 1 mod N] = off[i]; zeros stay unstored."""
    n = len(diag)
    rows = np.concatenate([np.arange(n), np.arange(n), (np.arange(n) + 1) % n])
    cols = np.concatenate([np.arange(n), (np.arange(n) + 1) % n, np.arange(n)])
    mat = sp.csr_matrix((np.concatenate([diag, off, off]), (rows, cols)), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def _chain(n, variant, seed):
    rng = np.random.default_rng(seed)
    diag, off = rng.uniform(-1.0, 3.0, n), rng.uniform(-1.0, 1.0, n)
    if variant == "zero-corner":
        off[-1] = 0.0
    elif variant == "zero-couplings":
        off[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    elif variant == "tiny-couplings":
        off *= 10.0 ** rng.uniform(-9.0, 0.0, n)
    return _cyclic(diag, off)


chains = st.builds(
    _chain, st.integers(3, 60), st.sampled_from(VARIANTS), st.integers(0, 2**32 - 1)
)


def _thresholds(mats, seed):
    """Thresholds far from, between and exactly on the levels of every matrix."""
    rng = np.random.default_rng(seed)
    picks = []
    for mat in mats:
        levels = np.linalg.eigvalsh(mat.toarray())
        mids = 0.5 * (levels[1:] + levels[:-1])
        picks += [levels[0] - 1.0, levels[-1] + 1.0]
        picks += list(rng.choice(levels, size=min(3, levels.size), replace=False))
        picks += list(rng.choice(mids, size=min(3, mids.size), replace=False))
    return np.array(picks)


def _per_threshold(mat, energies):
    """One count per threshold, with the chain sweep switched off."""
    op = prepared(mat, chain=False)
    return np.array([prepared_counts([op], [float(e)])[0, 0] for e in energies])


def _reference_chain_sweep(diag, off, energies, norm):
    """The one-chain sweep as it was before stacking: one (N - 1) x C array,
    one Python step per row, sums over the whole column at once."""
    n = diag.shape[0]
    zero = es._ZERO_PIVOT * np.maximum(max(1.0, norm), np.abs(energies))
    b2 = off**2
    piv = diag[: n - 1, None] - energies[None, :]
    with np.errstate(all="ignore"):
        for i in range(1, n - 1):
            piv[i] -= b2[i - 1] / piv[i - 1]
        corner, tail = off[n - 1], off[n - 2]
        fill = np.divide(-off[: n - 2, None], piv[: n - 2])
        np.cumprod(fill, axis=0, out=fill)
        fill *= corner
        u_tail = fill[-1] + tail
        size_tail = np.abs(fill[-1]) + abs(tail)
        terms = fill[:-1]
        np.square(terms, out=terms)
        np.divide(terms, piv[1 : n - 2], out=terms)
        signed = corner**2 / piv[0] + terms.sum(axis=0) + u_tail**2 / piv[n - 2]
        np.abs(terms, out=terms)
        shifted_last = diag[n - 1] - energies
        total = (
            np.abs(shifted_last)
            + corner**2 / np.abs(piv[0])
            + terms.sum(axis=0)
            + size_tail**2 / np.abs(piv[n - 2])
        )
        last = shifted_last - signed
        cancel = 10.0 * n * np.finfo(float).eps * total
    ok = (
        np.all(np.isfinite(piv), axis=0)
        & ~np.any((piv <= zero) & (piv >= -zero), axis=0)
        & (np.abs(last) > np.maximum(zero, cancel))
    )
    neg = np.sum(piv < 0.0, axis=0) + (last < 0.0)
    return np.where(ok, neg, -1)


@given(st.lists(chains, min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_stacked_counts_equal_every_other_path(mats, seed):
    energies = _thresholds(mats, seed)
    ops = [prepared(mat) for mat in mats]
    got = prepared_counts(ops, energies)
    assert got.shape == (len(mats), energies.size) and got.dtype.kind == "i"
    for mat, op, row in zip(mats, ops, got):
        assert np.array_equal(row, prepared_counts([op], energies)[0])
        assert np.array_equal(row, _per_threshold(mat, energies))
        levels = np.linalg.eigvalsh(mat.toarray())
        gap = np.min(np.abs(energies[:, None] - levels[None, :]), axis=1)
        clear = gap > 1e-8 * max(1.0, op.norm, np.max(np.abs(energies)))
        want = np.searchsorted(levels, energies, side="left")
        assert np.array_equal(row[clear], want[clear])


@given(st.lists(chains, min_size=1, max_size=5), st.integers(0, 2**32 - 1), st.integers(4, 400))
def test_blocked_stacked_sweep_equals_the_one_chain_sweep(mats, seed, cells):
    """Same-size chains in one sweep, forced into blocks of a few rows, give
    every column the counts and flags of the unblocked one-chain sweep."""
    n = mats[0].shape[0]
    mats = [m for m in mats if m.shape[0] == n] + [_chain(n, "generic", seed)]
    ops = [prepared(m) for m in mats]
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-2.0, 4.0, (len(ops), 6)), axis=1)
    energies[:, 0] = np.linalg.eigvalsh(mats[0].toarray())[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(es, "_SWEEP_CELLS", cells)
        got = es._chain_sweep(
            np.column_stack([op.chain[0] for op in ops]),
            np.column_stack([op.chain[1] for op in ops]),
            energies,
            np.array([op.norm for op in ops]),
        )
    for op, e, row in zip(ops, energies, got):
        assert np.array_equal(row, _reference_chain_sweep(*op.chain, e, op.norm))


def _reference_ground(mat, hi):
    """The ground bisection as it was: one per-threshold count per step."""
    op = prepared(mat, chain=False)
    if prepared_counts([op], [hi])[0, 0] == 0:
        return hi
    lo = 0.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if prepared_counts([op], [mid])[0, 0] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@given(chains, st.floats(0.0, 2.0), st.floats(0.5, 10.0))
def test_ground_bisect_equals_reference_bisection_bitwise(mat, bottom, hi):
    n = mat.shape[0]
    lowest = np.linalg.eigvalsh(mat.toarray())[0]
    mat = (mat + (bottom - lowest) * sp.identity(n, format="csr")).tocsr()
    assert es._ground(prepared(mat), hi) == _reference_ground(mat, hi)


TORUS_VARIANTS = ("generic", "pairs", "near-pairs", "constant")


def _torus(side, variant, seed):
    """A symmetric operator on the side x side torus; "pairs" is separable,
    f(x) + f(y) with unit couplings, so its levels mu_i + mu_j come in
    pairs, which "near-pairs" splits by 1e-12 to 1e-7."""
    rng = np.random.default_rng(seed)
    n = side * side
    couplings = -np.ones((2, n))
    if variant == "generic":
        diag = rng.uniform(-1.0, 3.0, n)
        couplings = -rng.uniform(0.2, 1.5, (2, n))
    elif variant == "constant":
        diag = np.full(n, rng.uniform(-1.0, 3.0))
    else:
        f = rng.uniform(-1.0, 3.0, side)
        diag = (f[:, None] + f[None, :]).ravel()
        if variant == "near-pairs":
            diag = diag + 10.0 ** rng.uniform(-12.0, -7.0) * rng.standard_normal(n)
    site = np.arange(n).reshape(side, side)
    right, down = np.roll(site, -1, axis=1).ravel(), np.roll(site, -1, axis=0).ravel()
    rows = np.concatenate([site.ravel(), site.ravel(), right, site.ravel(), down])
    cols = np.concatenate([site.ravel(), right, site.ravel(), down, site.ravel()])
    vals = np.concatenate([diag, couplings[0], couplings[0], couplings[1], couplings[1]])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


tori = st.builds(
    _torus, st.integers(4, 12), st.sampled_from(TORUS_VARIANTS), st.integers(0, 2**32 - 1)
)


@given(tori, st.integers(0, 2**32 - 1))
def test_torus_counts_from_the_top_factor_equal_the_per_threshold_path(mat, seed):
    rng = np.random.default_rng(seed)
    levels = np.linalg.eigvalsh(mat.toarray())
    low = levels[: es.RITZ_CAP - 4]  # mostly within the cap, so the route runs
    mids = 0.5 * (low[1:] + low[:-1])
    picks = [levels[0] - 1.0]
    picks += list(rng.choice(low, size=2, replace=False))
    picks += list(rng.choice(mids, size=3, replace=False))
    picks += [rng.choice(low) + side * 1e-9 for side in (-1.0, 1.0)]
    if rng.random() < 0.25:
        picks.append(levels[-1] + 1.0)
    energies = rng.permutation(np.array(picks))
    op = prepared(mat)
    assert op.chain is None
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = prepared_counts([op], energies)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(es, "_ritz_counts", lambda mat, norm, count_one, e: np.full(e.size, -1))
            assert np.array_equal(got, prepared_counts([op], energies)[0])
    gap = np.min(np.abs(energies[:, None] - levels[None, :]), axis=1)
    clear = gap > 1e-8 * max(1.0, op.norm, np.max(np.abs(energies)))
    want = np.searchsorted(levels, energies, side="left")
    assert np.array_equal(got[clear], want[clear])


@given(tori, st.sampled_from([0, 1, 2, 3, 5]), st.booleans(), st.integers(0, 2**32 - 1))
def test_lanczos_counts_equal_the_per_threshold_path(mat, below, cut, seed):
    """K = ``below`` levels under the top threshold (0, 1 or several), lower
    thresholds on a level (inside its interval), 1e-9 to 1e-5 of scale off
    one or off the top (at the edge of an interval or of the top shift) and
    far from every level.  With ``cut`` the Lanczos run has a budget of one
    step, which certifies little, so the thresholds it leaves take the
    per-threshold path.  Every count equals that path's."""
    rng = np.random.default_rng(seed)
    levels = np.linalg.eigvalsh(mat.toarray())
    op = prepared(mat)
    scale = max(1.0, op.norm)
    top = levels[0] - 0.5 if below == 0 else 0.5 * (levels[below - 1] + levels[below])
    near = 10.0 ** rng.uniform(-9.0, -5.0) * scale
    picks = [top, levels[0] - 1.0, top - near]
    if below:
        level = rng.choice(levels[:below])
        picks += [level, level + rng.choice([-1.0, 1.0]) * near]
    if below > 1:
        picks.append(0.5 * (levels[0] + levels[1]))
    energies = rng.permutation(np.minimum(np.array(picks), top))
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10), pytest.MonkeyPatch.context() as mp:
        if cut:
            mp.setattr(es, "_RITZ_EXTRA", 1 - 2 * below)
        got = prepared_counts([op], energies)[0]
        mp.setattr(es, "_ritz_counts", lambda mat, norm, count_one, e: np.full(e.size, -1))
        assert np.array_equal(got, prepared_counts([op], energies)[0])
    assert _clear_counts(got, levels, energies, max(scale, np.max(np.abs(energies))))


def _in_band(counts, levels, energies, scale):
    """Each count lies between the levels clearly below its threshold and
    those at or below the threshold plus the largest tie nudge."""
    lo = np.searchsorted(levels, energies - 1e-8 * scale, side="left")
    hi = np.searchsorted(levels, energies + 2e-8 * scale, side="right")
    return np.all((lo <= counts) & (counts <= hi))


def _clear_counts(got, levels, energies, scale):
    gap = np.min(np.abs(energies[:, None] - levels[None, :]), axis=1)
    clear = gap > 1e-8 * scale
    want = np.searchsorted(levels, energies, side="left")
    return np.array_equal(got[clear], want[clear])


DENSE_VARIANTS = ("generic", "repeated", "low-rank", "large")


def _dense(n, variant, seed):
    """A random dense symmetric matrix; "repeated" has levels of multiplicity
    up to 3 and "low-rank" a multiple zero level, both up to rounding."""
    rng = np.random.default_rng(seed)
    if variant in ("generic", "large"):
        g = rng.standard_normal((n, n))
        mat = 0.5 * (g + g.T)
        return 1e4 * mat if variant == "large" else mat
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if variant == "repeated":
        levels = np.repeat(rng.uniform(-2.0, 2.0, n), 3)[:n]
    else:
        levels = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-2.0, 2.0, n))
    mat = (q * levels) @ q.T
    return 0.5 * (mat + mat.T)


dense_mats = st.builds(
    _dense, st.integers(1, 40), st.sampled_from(DENSE_VARIANTS), st.integers(0, 2**32 - 1)
)


@given(dense_mats, st.integers(0, 2**32 - 1))
def test_dense_counts_equal_eigvalsh_where_the_gap_is_clear(mat, seed):
    """Dense LDL^T on the sparse form of a dense matrix, every entry stored
    (N = 3 is a periodic chain, counted by the sweep): eigvalsh plus searchsorted wherever no
    level is within 1e-8 * scale of the threshold, and a count inside the
    tie band everywhere else."""
    n = mat.shape[0]
    # every entry stored, zeros too: a stencil stores its whole diagonal
    sparse = sp.csr_matrix((mat.ravel(), np.tile(np.arange(n), n), n * np.arange(n + 1)), shape=(n, n))
    energies = _thresholds([sparse], seed)
    levels = np.linalg.eigvalsh(mat)
    op = prepared(sparse)
    scale = max(1.0, op.norm, np.max(np.abs(energies)))
    got = prepared_counts([op], energies)[0]
    assert got.dtype.kind == "i"
    assert _clear_counts(got, levels, energies, scale)
    assert _in_band(got, levels, energies, scale)


def _sparse(n, density, seed):
    """A random sparse symmetric matrix: an Erdos-Renyi pattern plus the diagonal."""
    rng = np.random.default_rng(seed)
    upper = sp.random(n, n, density=density, random_state=rng, format="csr")
    return (upper + upper.T + sp.diags(rng.uniform(-1.0, 1.0, n))).tocsr()


sparse_mats = st.builds(
    _sparse, st.integers(5, 60), st.floats(0.02, 0.3), st.integers(0, 2**32 - 1)
)


@given(sparse_mats, st.integers(0, 2**32 - 1))
def test_superlu_and_dense_ldlt_count_the_same_sparse_operator(mat, seed):
    """One sparse operator counted by dense LDL^T (``COUNT_DENSE_CUTOFF`` =
    N), by SuperLU threshold by threshold and by SuperLU with the Ritz route
    (``COUNT_DENSE_CUTOFF`` = 0), the chain sweep switched off: equal counts
    wherever the gap is clear, and each inside the tie band elsewhere."""
    energies = _thresholds([mat], seed)
    levels = np.linalg.eigvalsh(mat.toarray())
    n = mat.shape[0]
    op = prepared(mat, chain=False)
    with pytest.MonkeyPatch.context() as mp:
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", n):
            dense = prepared_counts([op], energies)[0]
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 0):
            ritz = prepared_counts([op], energies)[0]
            mp.setattr(es, "_ritz_counts", lambda mat, norm, count_one, e: np.full(e.size, -1))
            superlu = prepared_counts([op], energies)[0]
    scale = max(1.0, op.norm, np.max(np.abs(energies)))
    for got in (dense, superlu, ritz):
        assert _clear_counts(got, levels, energies, scale)
        assert _in_band(got, levels, energies, scale)


def _split_tridiagonal(n, seed):
    """A random tridiagonal matrix with one or more exact zeros on its
    off-diagonal: ``dsytrd`` keeps it, and ``dstedc`` splits it there."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    off[rng.choice(n - 1, size=rng.integers(1, min(n, 4)), replace=False)] = 0.0
    return sp.diags([off, rng.uniform(-1.0, 3.0, n), off], [-1, 0, 1], format="csr")


# Sizes past dstedc's 25-row blocks: all but 50 2^k + 1 take dense_levels'
# top-merge path; 51, 101 and 201, whose two halves dlaed0 halves a
# different number of times, take dstevd.
MERGE_SIZES = st.one_of(
    st.sampled_from([26, 50, 51, 96, 101, 103, 160, 201, 205, 224, 260]), st.integers(26, 260)
)
SEEDS = st.integers(0, 2**32 - 1)


@given(
    st.one_of(
        st.builds(_dense, st.integers(1, 64), st.sampled_from(DENSE_VARIANTS), SEEDS),
        st.builds(_dense, MERGE_SIZES, st.sampled_from(DENSE_VARIANTS), SEEDS),
        chains,
        st.builds(_chain, MERGE_SIZES, st.sampled_from(VARIANTS), SEEDS),
        st.builds(_split_tridiagonal, st.integers(2, 120), SEEDS),
    ),
    SEEDS,
)
def test_dense_levels_are_dsyevds_eigenvalues_bit_for_bit(mat, seed):
    """``dense_levels`` runs ``dsyevd``'s own first two stages, the second
    with the top merge cut short where it can be, so over the whole line
    its levels are those of ``dsyevd`` from the same LAPACK to the bit, and
    within 1e-12 relative of ``np.linalg.eigh``'s, which may link another
    BLAS build.  Over a window [lo, hi] it gives the lowest level and then
    exactly the others inside, closed ends included: random windows, one
    whose ends are levels, one around a single level and the empty window
    (-inf, -inf), which gives the lowest level alone."""
    a = mat.toarray() if sp.issparse(mat) else mat
    want, _, info = dsyevd(a, compute_v=1, lower=1)
    assert info == 0
    csr = sp.csr_matrix(mat)
    got = es.dense_levels(csr, -np.inf, np.inf)
    assert np.array_equal(got, want)
    np.testing.assert_allclose(
        got, np.linalg.eigh(a)[0], rtol=0.0, atol=1e-12 * np.max(np.abs(want))
    )
    rng = np.random.default_rng(seed)
    span = want[-1] - want[0] + 1.0
    windows = [tuple(np.sort(rng.uniform(want[0] - 0.1 * span, want[-1] + 0.1 * span, 2))) for _ in range(3)]
    windows.append(tuple(np.sort(rng.choice(want, 2))))
    level = rng.choice(want)
    windows += [(level - 1e-9 * span, level + 1e-9 * span), (-np.inf, -np.inf)]
    for lo, hi in windows:
        inside = (want >= lo) & (want <= hi)
        inside[0] = True
        assert np.array_equal(es.dense_levels(csr, lo, hi), want[inside]), (lo, hi)


def test_dense_levels_cut_the_top_merge_short_where_dstedc_cuts_once(monkeypatch):
    """The top-merge path serves exactly the tridiagonals that ``dstedc``
    cuts once at the top into two halves of the same tree: more than 25
    rows, no split and halves that ``dlaed0`` halves alike.  Every even size
    has them, and so do the odd 103 and 205 (halves of 51 and 52 rows, 102
    and 103, halved twice and three times); 51, 101 and 201 (25 and 26
    rows, 50 and 51, 100 and 101) have not.  The rest go through ``dstevd``;
    both give ``dsyevd``'s levels."""
    calls = []
    real = es._top_merge_levels
    monkeypatch.setattr(es, "_top_merge_levels", lambda d, *a: calls.append(d.size) or real(d, *a))
    cases = {n: _dense(n, "generic", n) for n in (25, 26, 51, 96, 101, 103, 160, 201, 205, 224)}
    cases["split"] = _split_tridiagonal(96, 0)
    # a tridiagonal whose coupling at the cut is just above dstedc's split
    # and so weak that dlaed2 deflates every level of the top merge
    rng = np.random.default_rng(1)
    off, diag = rng.uniform(0.5, 1.0, 25), rng.uniform(1.0, 3.0, 26)
    off[12], diag[12:14] = 5e-16, 1.0
    cases["weak cut"] = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    for mat in cases.values():
        a = mat.toarray() if sp.issparse(mat) else mat
        want = dsyevd(a, compute_v=1, lower=1)[0]
        assert np.array_equal(es.dense_levels(sp.csr_matrix(mat), -np.inf, np.inf), want)
    assert calls == [26, 96, 103, 160, 205, 224, 26]
