"""Eigenpair extraction and inertia counting, cross-checked against LAPACK.

Random matrices below use a fixed generator so every run sees the same
instances; the sparse paths are forced by patching the dense cutoffs
``DENSE_CUTOFF`` and ``COUNT_DENSE_CUTOFF`` lower.
"""

import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from displab.discretize import (
    DiagonalStack, assemble_fiber, diagonal_slots, periodic_laplacian, plus_diagonal,
)
import displab.eigensolve as es
from displab.eigensolve import count_below_stack, ground_bisect, smallest_eigenpairs
from displab.potentials import periodic_family, single_site_family
from conftest import failing_merge, prepared, prepared_counts

rng = np.random.default_rng(12345)


def _random_sym(n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def test_dense_smallest_matches_eigh():
    a = _random_sym(40)
    got = smallest_eigenpairs(sp.csr_matrix(a), k=5)
    want = np.linalg.eigvalsh(a)[:5]
    assert got.method == "dense"
    assert np.allclose(got.values, want, atol=1e-12)
    assert np.all(got.residuals < 1e-10)


def test_dense_levels_of_one_and_two_rows():
    """N = 1 skips the tridiagonal solver, whose wrapper refuses an empty
    off-diagonal."""
    inf = np.inf
    assert es.dense_levels(sp.csr_matrix([[3.0]]), -inf, inf).tolist() == [3.0]
    assert es.dense_levels(sp.csr_matrix([[3.0]]), -inf, -inf).tolist() == [3.0]
    two = sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(es.dense_levels(two, -inf, inf), [1.0, 3.0], rtol=0.0, atol=4 * es._EPS)
    assert np.allclose(es.dense_levels(two, 2.0, 4.0), [1.0, 3.0], rtol=0.0, atol=4 * es._EPS)
    assert np.allclose(es.dense_levels(two, -inf, -inf), [1.0], rtol=0.0, atol=4 * es._EPS)


@pytest.mark.parametrize("stage", ["dsytrd", "dstevd"])
def test_dense_levels_raises_when_lapack_reports_a_failure(monkeypatch, stage):
    real = getattr(es, stage)
    monkeypatch.setattr(es, stage, lambda *a, **k: (*real(*a, **k)[:-1], 1))
    with pytest.raises(np.linalg.LinAlgError, match=f"{stage} reports LAPACK info 1"):
        es.dense_levels(sp.csr_matrix(_random_sym(5)), -np.inf, np.inf)


@pytest.mark.parametrize("routine", ["dlaed0", "dlaed2", "dlaed4"])
def test_the_top_merge_raises_when_lapack_reports_a_failure(monkeypatch, routine):
    """A failure that ``dlaed0`` (either half), ``dlaed2`` or ``dlaed4``
    reports on the top-merge path (96 rows) is a ``LinAlgError`` naming the
    routine, as ``dstevd``'s is."""
    mat = sp.csr_matrix(_random_sym(96))
    calls = []
    real = es._top_merge_levels
    monkeypatch.setattr(es, "_top_merge_levels", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(es, "_merge_routines", failing_merge(routine))
    with pytest.raises(np.linalg.LinAlgError, match=f"dense_levels: {routine} reports LAPACK info 1"):
        es.dense_levels(mat, -np.inf, np.inf)
    assert calls == [1]


def test_dense_levels_refuses_complex_input():
    with pytest.raises(ValueError, match="real symmetric"):
        es.dense_levels(sp.csr_matrix([[1.0, 1j], [-1j, 1.0]]), -np.inf, np.inf)


def test_arpack_agrees_with_dense():
    """Force the sparse path on a moderate ring and compare both branches."""
    n = 300
    diag = rng.uniform(0.0, 3.0, n)
    mat = sp.diags(
        [np.full(n - 1, -1.0), 2.0 + diag, np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tolil()
    mat[0, n - 1] = mat[n - 1, 0] = -1.0
    mat = mat.tocsr()
    with mock.patch.object(es, "DENSE_CUTOFF", 10):
        sparse = smallest_eigenpairs(mat, k=4)
    dense = smallest_eigenpairs(mat, k=4)
    assert sparse.method == "arpack"
    assert dense.method == "dense"
    assert np.allclose(sparse.values, dense.values, atol=1e-8)
    assert np.all(sparse.residuals < 1e-6)


def test_ground_accessors_and_sign_convention():
    res = smallest_eigenpairs(sp.csr_matrix(_random_sym(25)), k=2)
    assert res.ground_energy == res.values[0]
    assert res.ground_vector.sum() > 0, "real eigenvectors carry a deterministic sign"
    assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0)


def test_smallest_eigenpairs_input_checks():
    a = sp.csr_matrix(_random_sym(10))
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=11)
    b = sp.csr_matrix(rng.standard_normal((10, 10)))
    with pytest.raises(ValueError, match="not Hermitian"):
        smallest_eigenpairs(b, k=1)


def _ring_stack(diags):
    """The operators -Delta_1 + diag(diags[k]) on the ring of
    ``diags.shape[-1]`` points, as a run builds them: a ``DiagonalStack``."""
    diags = np.atleast_2d(diags)
    return DiagonalStack(*periodic_laplacian(1, diags.shape[1], 1.0), diags)


def test_a_dense_array_is_refused():
    """``smallest_eigenpairs`` takes a sparse matrix and the counting entries
    a ``DiagonalStack``: a dense array is a TypeError that names its type."""
    a = _random_sym(5)
    calls = (
        lambda: count_below_stack(a, [0.0]),
        lambda: ground_bisect(a, 1.0),
        lambda: smallest_eigenpairs(a, k=1),
    )
    for call in calls:
        with pytest.raises(TypeError, match="ndarray"):
            call()


def test_accepts_lattice_operator():
    p = periodic_family("cosine", 1, coefficients=[-1.0])
    q = single_site_family("asym-bump", 1)
    op = assemble_fiber(p, q, 0.1, np.array([-1.0]), np.array([0.0]), 8)
    res = smallest_eigenpairs(op, k=3)
    assert np.all(np.diff(res.values) >= 0)
    assert np.all(res.residuals < 1e-9)


def test_smallest_eigenpairs_takes_only_a_sparse_matrix():
    """A DiagonalStack is a TypeError that names its type; its operator
    gives the pairs."""
    stack = _ring_stack(np.random.default_rng(5).uniform(-1.0, 3.0, 60))
    with pytest.raises(TypeError, match="DiagonalStack"):
        smallest_eigenpairs(stack, k=1)
    assert smallest_eigenpairs(stack[0], k=1).method == "dense"


def _no_factorization(monkeypatch):
    def refuse(*args):
        raise AssertionError("factorized before the input was checked")

    for name in ("_dense_inertia", "_sparse_inertia", "_chain_sweep", "_chain_positive_definite"):
        monkeypatch.setattr(es, name, refuse)


def test_counting_takes_only_a_stack_and_1d_thresholds(monkeypatch):
    """On a ring and on a torus stack: a raw CSR matrix or a list of
    matrices is a TypeError that names its type, in both counting entries,
    and a 0-d or 2-d threshold array is a ValueError, each before any
    factorization.  A 1-d array of T thresholds gives T integer columns,
    also for T = 1 and T = 0, and a stack of K = 0 operators no rows."""
    # levels 0, 1, 1, 3, 3, 4 on the ring and 0, 1 (four times), 2, ... on
    # the torus, and those levels plus 1.25
    for d, energy, want in ((1, 2.0, [[3], [1]]), (2, 1.5, [[5], [1]])):
        diags = np.array([np.zeros(6**d), np.full(6**d, 1.25)])
        stack = DiagonalStack(*periodic_laplacian(d, 6, 1.0), diags)
        with monkeypatch.context() as mp:
            _no_factorization(mp)
            for bad, name in ((stack[0], "csr_matrix"), ([stack[0], stack[1]], "list")):
                with pytest.raises(TypeError, match=name):
                    count_below_stack(bad, [energy])
                with pytest.raises(TypeError, match=name):
                    ground_bisect(bad, 4.0)
            for energies in (energy, np.float64(energy), np.ones((2, 2)), [[energy]]):
                with pytest.raises(ValueError, match="1-d"):
                    count_below_stack(stack, energies)
        got = count_below_stack(stack, [energy])
        assert got.dtype.kind == "i" and got.tolist() == want
        assert count_below_stack(stack, np.array([])).shape == (2, 0)
        empty = DiagonalStack(*periodic_laplacian(d, 6, 1.0), diags[:0])
        assert count_below_stack(empty, [energy]).shape == (0, 1) and ground_bisect(empty, 4.0) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_below_matches_eigvalsh(seed):
    local = np.random.default_rng(seed)
    a = local.standard_normal((60, 60))
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    for e in (-5.0, eigs[10] + 1e-6, 0.0, eigs[-1] + 1.0):
        assert prepared_counts(sp.csr_matrix(a), [e])[0] == int(np.sum(eigs < e))


def test_count_below_sparse_ring_closed_form():
    """2001-point free ring: eigenvalues 2(1 - cos(2 pi k / 2001)) with known
    multiplicities, so the counts below a few thresholds are exact integers."""
    n = 2001
    stack = _ring_stack(np.zeros(n))
    eigs = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    for e in (0.5, 1.0, 3.9):
        assert count_below_stack(stack, [e])[0, 0] == int(np.sum(eigs < e))
    assert count_below_stack(stack, [4.1])[0, 0] == n
    # E = 0 ties the ground state exactly; the documented upward nudge counts it
    assert count_below_stack(stack, [0.0])[0, 0] == 1
    assert count_below_stack(stack, [-1e-9])[0, 0] == 0


def test_count_below_tied_threshold_retries_upward():
    # threshold exactly on an eigenvalue: the tiny upward nudges must count it
    stack = prepared(sp.diags([1.0, 2.0, 2.0, 3.0], format="csr"))
    assert count_below_stack(stack, [2.0])[0, 0] == 3  # nudge resolves the tie upward
    assert count_below_stack(stack, [2.0 + 1e-6])[0, 0] == 3
    assert count_below_stack(stack, [1.0 - 1e-12])[0, 0] == 0


def _ldl_walk_inertia(shifted, scale):
    """The dense count read off ``scipy.linalg.ldl``'s block diagonal D, one
    block at a time: ``(count, None)``, or None on a near-zero pivot."""
    _, d, _ = sla.ldl(shifted)
    neg = 0
    i, n = 0, d.shape[0]
    while i < n:
        if i + 1 < n and (d[i, i + 1] != 0.0 or d[i + 1, i] != 0.0):
            ev = np.linalg.eigvalsh(d[i : i + 2, i : i + 2])
            if np.min(np.abs(ev)) <= es._ZERO_PIVOT * scale:
                return None
            neg += int(np.sum(ev < 0.0))
            i += 2
        else:
            if abs(d[i, i]) <= es._ZERO_PIVOT * scale:
                return None
            neg += int(d[i, i] < 0.0)
            i += 1
    return neg, None


@pytest.mark.parametrize("seed", range(4))
def test_dense_inertia_equals_the_ldl_walk(seed):
    """``_dense_inertia`` reads D straight from LAPACK ``dsytrf``: on random
    symmetric matrices, with 2 x 2 blocks, exact ties and zero pivots, it
    gives the count, or the refusal, of walking ``scipy.linalg.ldl``'s D."""
    local = np.random.default_rng(seed)
    paired = refused = 0
    for trial in range(200):
        n = int(local.integers(1, 41))
        g = local.standard_normal((n, n))
        a = g + g.T
        variant = trial % 4
        if variant == 1:  # a small diagonal makes dsytrf choose 2 x 2 blocks
            a[np.diag_indices(n)] *= 1e-3
        elif variant == 2:  # small integers, and singular: a repeated row and column
            a = local.integers(-2, 3, (n, n)).astype(float)
            a = a + a.T
            a[-1], a[:, -1] = a[0], a[0]
        elif variant == 3:  # zero diagonal, rank deficient
            h = local.standard_normal((n, max(1, n // 2)))
            a = h @ h.T
            a[np.diag_indices(n)] = 0.0
        e = 0.0 if variant == 2 else float(local.standard_normal())
        shifted = a - e * np.eye(n)
        scale = max(1.0, float(np.abs(a).sum(axis=1).max()), abs(e))
        want = _ldl_walk_inertia(shifted, scale)
        assert es._dense_inertia(shifted.copy(), scale) == want
        paired += bool(np.any(sla.lapack.dsytrf(shifted, lower=1)[1] < 0))
        refused += want is None
    assert paired > 100 and refused > 0


def test_count_agrees_between_dense_and_sparse_paths():
    n = 700
    diag = np.random.default_rng(9).uniform(0, 4, n)
    mat = sp.diags([np.full(n - 1, -1.0), diag, np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
    stack = prepared(mat, chain=False)  # a chain skips both
    for e in (0.5, 2.0):
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
            sparse = count_below_stack(stack, [e])[0, 0]
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 5000):
            dense = count_below_stack(stack, [e])[0, 0]
        assert sparse == dense


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_count_below_rejects_non_finite_threshold(monkeypatch, energy, path):
    _no_factorization(monkeypatch)
    stack = DiagonalStack(*periodic_laplacian(2, 7, 1.0), np.zeros((2, 49)))
    cutoff = 600 if path == "dense" else 10
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", cutoff), pytest.raises(ValueError, match="finite"):
        count_below_stack(stack, [1.0, energy])


# -- periodic chains: one sweep for all thresholds, and the ground bisection --


def _cyclic(diag, off):
    """Sparse periodic chain with A[i, i + 1 mod N] = off[i]; zeros stay
    stored, so a zero coupling still takes the chain paths."""
    n = len(diag)
    rows = np.concatenate([np.arange(n), np.arange(n), (np.arange(n) + 1) % n])
    cols = np.concatenate([np.arange(n), (np.arange(n) + 1) % n, np.arange(n)])
    vals = np.concatenate([diag, off, off])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _random_chain(n, variant, seed):
    local = np.random.default_rng(seed)
    diag, off = local.uniform(-1.0, 3.0, n), local.uniform(-1.0, 1.0, n)
    if variant == "zero-corner":
        off[-1] = 0.0
    elif variant == "zero-offdiagonals":
        off[local.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    return _cyclic(diag, off)


def _per_threshold(mat, energies):
    """One count per threshold, with the chain sweep switched off."""
    stack = prepared(mat, chain=False)
    return np.array([count_below_stack(stack, [float(e)])[0, 0] for e in energies])


@pytest.mark.parametrize("variant", ["generic", "zero-corner", "zero-offdiagonals"])
@pytest.mark.parametrize("n", [3, 4, 5, 17, 2001])
def test_chain_counts_equal_per_threshold_path(n, variant):
    mat = _random_chain(n, variant, seed=1000 * n + len(variant))
    assert prepared(mat).chains() is not None
    eigs = np.linalg.eigvalsh(mat.toarray())
    mids = 0.5 * (eigs[1:] + eigs[:-1])
    energies = np.concatenate(
        [[eigs[0] - 1.0, eigs[-1] + 1.0], mids[:: max(1, n // 25)], [0.0, 1.5]]
    )
    got = prepared_counts(mat, energies)
    assert got.dtype.kind == "i" and got.shape == energies.shape
    assert np.array_equal(got, _per_threshold(mat, energies))
    assert np.array_equal(got, np.searchsorted(eigs, energies, side="left"))


@pytest.mark.parametrize("n", [3, 4, 5, 17, 2001])
def test_chain_counts_on_ring_eigenvalues_equal_per_threshold_path(n):
    """Thresholds exactly on the closed-form levels 1.5 - 1.4 cos(2 pi k / N)
    of a ring (double levels for 0 < k < N / 2): the tie case, where the
    sweep must leave the threshold to the nudging per-threshold path."""
    mat = _cyclic(np.full(n, 1.5), np.full(n, 0.7))
    levels = np.unique(1.5 - 1.4 * np.cos(2.0 * np.pi * np.arange(n) / n))
    energies = np.concatenate([levels[:: max(1, len(levels) // 20)], [levels[-1]]])
    got = prepared_counts(mat, energies)
    assert np.array_equal(got, _per_threshold(mat, energies))


@pytest.mark.parametrize("n", [3, 5, 17])
def test_chain_counts_at_computed_levels_equal_per_threshold_path(n):
    """Thresholds at eigvalsh levels of chains with couplings from 1e-6 to 3:
    each lies within rounding of a level, where the per-threshold count
    nudges upward or not depending on its own pivots."""
    for seed in range(5):
        local = np.random.default_rng(100 * n + seed)
        off = 10.0 ** local.uniform(-6.0, 0.5, n) * local.choice([-1.0, 1.0], n)
        mat = _cyclic(local.uniform(-1.0, 1.0, n), off)
        levels = np.linalg.eigvalsh(mat.toarray())
        got = prepared_counts(mat, levels)
        assert np.array_equal(got, _per_threshold(mat, levels))


def test_chain_sweep_flags_a_cancelling_last_pivot():
    """d_0 = 1e-11 at E makes the fill terms of the last pivot ~ 1e11 while
    the pivot itself is ~ 1e-6 (a level 1e-6 above E): its computed sign is
    noise, so the sweep must hand the threshold on."""
    local = np.random.default_rng(2)
    e, level = 0.3, 0.3 + 1e-6
    a1 = local.uniform(-1, 1)
    b0, b1, c = local.uniform(0.3, 1, 3) * local.choice([-1, 1], 3)
    a0 = e + 1e-11

    def det(a2):
        return np.linalg.det(np.array([[a0, b0, c], [b0, a1, b1], [c, b1, a2]]) - level * np.eye(3))

    a2 = -det(0.0) / (det(1.0) - det(0.0))
    mat = _cyclic(np.array([a0, a1, a2]), np.array([b0, b1, c]))
    eigs = np.linalg.eigvalsh(mat.toarray())
    assert 0 < np.min(np.abs(eigs - e)) < 2e-6
    diags, off = prepared(mat).chains()
    sweep = es._chain_sweep(diags.T, off, np.array([[e]]), np.array([2.0]))
    assert sweep.tolist() == [[-1]]
    assert prepared_counts(mat, [e])[0] == int(np.searchsorted(eigs, e))


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_non_chain_counts_equal_with_and_without_array(path):
    """A d = 2 torus operator is no chain: the array form gives the integers
    of scalar calls.  On the sparse path the top threshold, 9.0, has all 81
    levels below it, more than RITZ_CAP, so after the factorization there
    the others go threshold by threshold."""
    side = 9
    diag = np.random.default_rng(4).uniform(0.0, 1.0, side * side)
    stack = DiagonalStack(*periodic_laplacian(2, side, 1.0), diag[None])
    assert stack.chains() is None
    cutoff = 10 if path == "sparse" else 600
    eigs = np.linalg.eigvalsh(stack[0].toarray())
    energies = np.concatenate([[eigs[0] - 0.5], 0.5 * (eigs[1:] + eigs[:-1])[::7], [9.0]])
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", cutoff):
        got = count_below_stack(stack, energies)[0]
        want = [count_below_stack(stack, [float(e)])[0, 0] for e in energies]
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.searchsorted(eigs, energies, side="left"))


def _reference_ground(mat, hi):
    """The ground bisection as it was: one per-threshold count per step."""
    stack = prepared(mat, chain=False)
    if count_below_stack(stack, [hi])[0, 0] == 0:
        return hi
    lo = 0.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if count_below_stack(stack, [mid])[0, 0] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("variant", ["generic", "zero-corner", "zero-offdiagonals"])
@pytest.mark.parametrize("n", [3, 4, 5, 17, 60, 700])
def test_ground_bisect_equals_count_bisection_bitwise(n, variant):
    mat = _random_chain(n, variant, seed=7 * n + len(variant))
    lowest = np.linalg.eigvalsh(mat.toarray())[0]
    mat = plus_diagonal(mat, diagonal_slots(mat), 1.7 - lowest)  # zero couplings stay stored
    assert ground_bisect(prepared(mat), 10.0) == [_reference_ground(mat, 10.0)]
    assert ground_bisect(prepared(mat), 1.0) == [_reference_ground(mat, 1.0)] == [1.0]


def test_ground_bisect_equals_count_bisection_on_lifshitz_preset():
    from importlib.resources import files

    from displab.cli import build_distribution, build_support, load_config_file, read_config
    from displab.spectral_stats import ReducedFamily

    cfg = load_config_file(str(files("displab") / "presets" / "lifshitz-reduced-1d.ini"))
    sec = cfg["lifshitz"]
    typed = read_config(cfg)
    dist = build_distribution(typed, build_support(typed, 1))
    fam = ReducedFamily(
        int(sec["sign"]), np.array([float(sec["v"])]), float(cfg["model"]["lam"]),
        np.array([float(sec["zeta"])]), dist, int(sec["n"]), float(sec["c0"]),
        float(sec["alpha"]),
    )
    hi = float(sec["ground_hi"])
    stack = fam.operators(int(cfg["run"]["seed"]), range(3))
    assert ground_bisect(stack, hi) == [_reference_ground(stack[s], hi) for s in range(3)]


def test_ground_bisect_leaves_a_tied_midpoint_to_the_count(monkeypatch):
    """Ring Laplacian + 2 I has lambda_min = 2.0, the first midpoint of
    [0, 4]: the Cholesky decision cannot settle that step, so the
    per-threshold count (with its upward nudge) does."""
    n = 2001
    stack = _ring_stack(np.full(n, 2.0))
    calls = []
    count = es._inertia_count
    monkeypatch.setattr(es, "_inertia_count", lambda *a: calls.append(a[1]) or count(*a))
    (got,) = ground_bisect(stack, 4.0)
    assert 2.0 in calls
    monkeypatch.setattr(es, "_inertia_count", count)
    assert got == _reference_ground(stack[0], 4.0)
    assert abs(got - 2.0) < 1e-12


def _csc_arrays(mat):
    return mat.data.view(np.int64), mat.indices, mat.indptr


@pytest.mark.parametrize("n", [3, 17, 2001])
def test_sparse_shift_gives_the_arrays_of_the_rebuilt_shift(n):
    """Window steps write a_ii - E into a copy of the matrix's arrays and
    hand them over as CSC (the CSR's transpose, the matrix itself); SuperLU
    must see the arrays of ``plus_diagonal``'s A - E I converted to CSC, and
    those (A - E I).tocsc() has.  Where a_ii - E is exactly 0.0, which the
    sparse subtraction drops, the entry stays stored as 0.0 on A's pattern,
    and the dense form is the subtraction's, bit for bit."""
    mat = _random_chain(n, "generic", seed=n)
    diag, where = mat.diagonal(), diagonal_slots(mat)
    shift = es._sparse_shift(mat, where)
    first = shift(0.25)
    for e in (0.25, -1.5, float(diag[1]), 0.3, float(diag[-1])):
        got = shift(e)
        rebuilt = plus_diagonal(mat, where, -e).tocsc()
        want = (mat - e * sp.identity(n, format="csr")).tocsc()
        assert got.format == "csc"
        for a, b in zip(_csc_arrays(got), _csc_arrays(rebuilt)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got.toarray().view(np.int64), want.toarray().view(np.int64))
        if e in diag:
            assert got.nnz == mat.nnz == want.nnz + 1, "the exact zero stays stored"
            pairs = [(got.indices, mat.indices), (got.indptr, mat.indptr)]
        else:
            pairs = zip(_csc_arrays(got), _csc_arrays(want))
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert shift(e) is not shift(e)
    assert not np.shares_memory(first.data, mat.data), "the operator itself is not written"


def _built_matrices(monkeypatch):
    """Weak references to every operator matrix a ``DiagonalStack`` builds."""
    made = []
    build = DiagonalStack.__getitem__

    def logged(self, k):
        mat = build(self, k)
        made.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(DiagonalStack, "__getitem__", logged)
    return made


def test_a_d2_stack_is_counted_one_operator_at_a_time(monkeypatch):
    """A d = 2 stack builds each operator's matrix when its count starts and
    drops it after, so no two are alive at once.  The counts are those of a
    stack of each operator alone."""
    side = 5
    diags = np.linspace(0, 1, 25) + np.arange(3)[:, None]
    stack = DiagonalStack(*periodic_laplacian(2, side, 1.0), diags)
    energies = np.array([-1.0, 0.3, 1.1, 2.5, 9.0])
    made, alive = _built_matrices(monkeypatch), []
    real_counter = es._threshold_counter

    def counter_logged(mat, slots, norm):
        alive.append(sum(ref() is not None for ref in made))
        return real_counter(mat, slots, norm)

    monkeypatch.setattr(es, "_threshold_counter", counter_logged)
    got = es.count_below_stack(stack, energies)
    assert len(made) == 3 and alive == [1, 1, 1]
    monkeypatch.undo()
    for k, row in enumerate(got):
        one = DiagonalStack(*periodic_laplacian(2, side, 1.0), diags[k : k + 1])
        assert np.array_equal(row, count_below_stack(one, energies)[0])


def test_a_ring_stack_is_counted_without_building_its_matrices(monkeypatch):
    """Counting and bisecting a ring stack read its norms and chain forms:
    where the sweep settles every threshold no operator's matrix is built,
    and the bisection builds each at most once, for the steps next to the
    ground that its positive-definiteness tests leave open.  The answers
    are those of the per-threshold path on each matrix."""
    diags = np.random.default_rng(5).uniform(-1.0, 3.0, (2, 60))
    stack = _ring_stack(diags)
    mats = [stack[k] for k in range(2)]
    stack = _ring_stack(diags + 1.0 - np.array([np.linalg.eigvalsh(m.toarray())[0] for m in mats])[:, None])
    energies = np.array([0.5, 1.5, 2.5])
    want = [_per_threshold(stack[k], energies) for k in range(2)]
    grounds = [_reference_ground(stack[k], 4.0) for k in range(2)]
    made = _built_matrices(monkeypatch)
    assert np.array_equal(count_below_stack(stack, energies), want)
    assert made == []
    assert ground_bisect(stack, 4.0) == grounds
    assert len(made) <= 2


# -- d = 2: Ritz values from the top threshold's factor, and the fallbacks --


def _torus(side, diag):
    """The 2-d periodic lattice operator with ``diag`` on the sites and -1
    between neighbours, as a stack of one on the h = 1 stencil."""
    return DiagonalStack(*periodic_laplacian(2, side, 1.0), (np.asarray(diag) - 4.0)[None])


def _generic_torus(side=12, seed=3):
    return _torus(side, np.random.default_rng(seed).uniform(0.0, 4.0, side * side))


def _splu_calls(monkeypatch):
    calls = []
    splu = es.spla.splu
    monkeypatch.setattr(es.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    return calls


def _levels_and_between(stack):
    levels = np.linalg.eigvalsh(stack[0].toarray())
    return levels, 0.5 * (levels[1:] + levels[:-1])


def test_top_threshold_factor_settles_the_thresholds_below(monkeypatch):
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    energies = np.array([between[4], levels[0] - 1.0, between[0], between[2]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, energies)[0]
    assert len(calls) == 1, "one factorization, at the top threshold"
    assert got.tolist() == [5, 0, 1, 3]


def test_no_level_below_the_top_settles_the_rest_without_lanczos(monkeypatch):
    stack = _generic_torus()
    levels, _ = _levels_and_between(stack)
    monkeypatch.setattr(es, "_lanczos_pairs", None)  # never called
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, levels[0] - np.array([0.5, 1.0, 2.0]))[0]
    assert len(calls) == 1 and got.tolist() == [0, 0, 0]


def _hands_back(monkeypatch, stack, energies):
    """Counts with the route and threshold by threshold; every threshold
    must have had its own factorization."""
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, energies)[0]
        assert len(calls) == energies.size
        want = [count_below_stack(stack, [float(e)])[0, 0] for e in energies]
    assert np.array_equal(got, want)
    return got


def test_a_lanczos_run_without_pairs_hands_every_lower_threshold_back(monkeypatch):
    """A Lanczos run that ends before its T has K negative Ritz values
    yields no pairs: nothing is certified."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    monkeypatch.setattr(es, "_lanczos_pairs", lambda lu, shift, k: iter(()))
    energies = between[[0, 2, 4]]
    got = _hands_back(monkeypatch, stack, energies)
    assert got.tolist() == [1, 3, 5]


def test_more_levels_below_the_top_than_the_cap_hand_back(monkeypatch):
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    monkeypatch.setattr(es, "_lanczos_pairs", None)  # never called
    energies = between[[0, es.RITZ_CAP]]
    got = _hands_back(monkeypatch, stack, energies)
    assert got.tolist() == [1, es.RITZ_CAP + 1]


def test_overlapping_intervals_of_a_degenerate_level_hand_back(monkeypatch):
    """The free torus Laplacian has a simple lowest level and then a
    fourfold one.  Exact eigenpairs of all five levels give overlapping
    intervals: nothing is certified.  A Lanczos run from one start vector
    finds one vector of the fourfold level, so it certifies nothing either,
    and every threshold goes back."""
    stack = _torus(6, np.full(36, 4.0))
    levels, between = _levels_and_between(stack)
    assert np.ptp(levels[1:5]) < 1e-12 < levels[5] - levels[4]
    vals, vecs = np.linalg.eigh(stack[0].toarray())
    norm = stack.norms()[0]
    assert es._certified_intervals(stack[0], norm, vals[:5], vecs[:, :5], between[4]) is None
    ritz, certified = [], []
    pairs, intervals = es._lanczos_pairs, es._certified_intervals
    monkeypatch.setattr(
        es, "_lanczos_pairs", lambda *a: (ritz.append(p) or p for p in pairs(*a))
    )
    monkeypatch.setattr(
        es, "_certified_intervals", lambda *a: certified.append(intervals(*a)) or certified[-1]
    )
    got = _hands_back(monkeypatch, stack, np.array([between[0], between[4]]))
    assert certified == [None] * len(ritz) and got.tolist() == [1, 5]


def test_an_interval_in_a_threshold_bracket_hands_that_threshold_back(monkeypatch):
    """A level 1e-8 * scale above a threshold lies in its bracket: the
    per-threshold count could nudge past it, so that threshold is handed
    back while the one clear of every interval is settled."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    scale = max(1.0, stack.norms()[0])
    energies = np.array([levels[1] - 1e-8 * scale, between[2], between[4]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, energies)[0]
    assert len(calls) == 2
    assert got.tolist() == [1, 3, 5]


def test_a_bracket_reaching_the_top_shift_is_handed_back(monkeypatch):
    """Above the shift E' of the top factorization nothing is known, and a
    nudged per-threshold count could reach 1e-8 * scale past its threshold:
    a threshold 1e-9 * scale below the top one is handed back."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    scale = max(1.0, stack.norms()[0])
    energies = np.array([between[2], between[2] - 1e-9 * scale, between[0]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, energies)[0]
    assert len(calls) == 2
    assert got.tolist() == [3, 3, 1]


def test_an_interval_above_the_top_shift_is_not_certified(monkeypatch):
    """Ritz pairs are only trusted below E': a pair of the first level above
    it, in place of the last one below, certifies nothing."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    vals, vecs = np.linalg.eigh(stack[0].toarray())
    wrong = [0, 1, 3]  # the levels below between[2] are 0, 1 and 2

    def lanczos_pairs(lu, shift, k):
        assert k == 3
        yield vals[wrong], vecs[:, wrong]

    monkeypatch.setattr(es, "_lanczos_pairs", lanczos_pairs)
    got = _hands_back(monkeypatch, stack, np.array([between[2], between[1], between[0]]))
    assert got.tolist() == [3, 2, 1]


@pytest.mark.parametrize("glibc", [True, False])
def test_the_heap_is_trimmed_once_after_the_route_where_glibc_is(monkeypatch, glibc):
    trims = []
    monkeypatch.setattr(es, "_MALLOC_TRIM", trims.append if glibc else None)
    stack = _generic_torus()
    _, between = _levels_and_between(stack)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        assert count_below_stack(stack, between[[0, 2, 4]])[0].tolist() == [1, 3, 5]
    assert trims == ([0] if glibc else [])


def _ids_2d_continuum():
    """The benchmark's d = 2 ids config: its continuum family, its three
    thresholds and its seed."""
    from pathlib import Path

    from displab.cli import (
        build_distribution, build_model, build_support, load_config_file, read_config,
    )
    from displab.floquet import band_bottom
    from displab.spectral_stats import ContinuumFamily

    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "ids-2d.ini"
    cfg = read_config(load_config_file(str(path)))
    p, q, lam, n, m = build_model(cfg)
    dist = build_distribution(cfg, build_support(cfg, q.d))
    ids = cfg["ids"]
    top = 0.9 / ids["c0"] ** 2
    offsets = np.geomspace(top / 50.0, top, ids["n_offsets"])  # run_ids's default
    energies = band_bottom(p, q, lam, np.asarray(ids["zeta"]), m).energy + offsets
    family = ContinuumFamily(p=p, q=q, lam=lam, dist=dist, n=n, m=m)
    return family, energies, cfg["run"]["seed"], ids["n_samples"]


def test_first_ids_2d_continuum_sample_takes_one_factorization(monkeypatch):
    """The benchmark's d = 2 ids config, continuum sample 0: the counts of
    the per-threshold path from one SuperLU factorization instead of three."""
    family, energies, seed, _ = _ids_2d_continuum()
    stack = family.operators(seed, (0,))
    assert stack.shape == (43264, 43264) and stack.chains() is None
    calls = _splu_calls(monkeypatch)
    got = count_below_stack(stack, energies)[0]
    assert len(calls) == 1
    with monkeypatch.context() as mp:
        mp.setattr(es, "_ritz_counts", lambda mat, norm, count_one, e: np.full(e.size, -1))
        want = count_below_stack(stack, energies)[0]
    assert len(calls) == 4
    assert got.tolist() == want.tolist() == [0, 1, 1]


class _CountingFactor:
    """A SuperLU factor whose ``solve`` calls are counted."""

    def __init__(self, lu, solves):
        self._lu, self._solves = lu, solves

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs):
        self._solves.append(1)
        return self._lu.solve(rhs)


def test_each_ids_2d_continuum_count_takes_one_factorization_and_two_solves(monkeypatch):
    """Every continuum sample of the benchmark's d = 2 ids run: one SuperLU
    factorization, the Lanczos run stops on its certificate after at most
    3 solves, and ARPACK is never called."""
    family, energies, seed, n_samples = _ids_2d_continuum()
    splu, factors, solves = es.spla.splu, [], []
    monkeypatch.setattr(
        es.spla, "splu", lambda *a, **k: factors.append(1) or _CountingFactor(splu(*a, **k), solves)
    )
    monkeypatch.setattr(es.spla, "eigsh", None)
    for sample in range(n_samples):
        stack = family.operators(seed, (sample,))
        factors.clear(), solves.clear()
        assert count_below_stack(stack, energies)[0].tolist() == [0, 1, 1]
        assert len(factors) == 1 and 1 <= len(solves) <= 3


def test_a_run_cut_by_its_step_budget_hands_the_unsettled_thresholds_back(monkeypatch):
    """A threshold inside the first step's interval but clear of the last
    one's: a full run settles it, a run cut to one step hands it back."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    mat, norm = stack[0], stack.norms()[0]
    count, lu = es._sparse_inertia(es._sparse_shift(mat, stack.slots)(between[0]), 10.0)
    pairs = [es._certified_intervals(mat, norm, *p, between[0]) for p in es._lanczos_pairs(lu, between[0], 1)]
    (first_lo, _), (last_lo, _) = pairs[0], pairs[-1]
    assert count == 1 and first_lo[0] < last_lo[0] - 1e-6
    energies = np.array([between[0], 0.5 * (first_lo[0] + last_lo[0])])
    for extra, factorizations in ((es._RITZ_EXTRA, 1), (-1, 2)):  # -1: a budget of one step
        monkeypatch.setattr(es, "_RITZ_EXTRA", extra)
        calls = _splu_calls(monkeypatch)
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
            assert count_below_stack(stack, energies)[0].tolist() == [1, 0]
        assert len(calls) == factorizations


@pytest.mark.parametrize("kind", ["chain", "d = 2"])
def test_superlu_gets_one_csc_matrix_with_the_old_shifts_arrays(monkeypatch, kind):
    """An operator's A - E reaches SuperLU as one CSC matrix on A's index
    arrays, with the data, indices and indptr that ``plus_diagonal`` and a
    CSC conversion give, also where a diagonal entry cancels to exactly
    0.0: that entry stays stored, and the dense form is the sparse
    subtraction's, bit for bit."""
    if kind == "chain":
        stack = _ring_stack(np.random.default_rng(5).uniform(-2.0, 2.0, 40))
    else:
        stack = _generic_torus()
    mat = stack[0]
    assert (stack.chains() is None) == (kind != "chain")
    got, splu = [], es.spla.splu
    monkeypatch.setattr(es.spla, "splu", lambda a, **k: got.append(a) or splu(a, **k))
    where = diagonal_slots(mat)
    first = []
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        counter = es._threshold_counter(mat, stack.slots, stack.norms()[0])
        for energy in (0.7, float(mat.diagonal()[3])):
            first.append(len(got))
            counter(energy)  # a tie at the second nudges E up: its first try is at E
            shifted = plus_diagonal(mat, where, -energy)
            want = shifted.T if kind == "chain" else shifted.tocsc()  # as before
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got[first[-1]], name), getattr(want, name)), name
            assert got[first[-1]].format == "csc"
    shared = got[first[0]]
    assert all(np.shares_memory(getattr(shared, a), getattr(mat, a)) for a in ("indices", "indptr"))
    cancelled, energy = got[first[1]], float(mat.diagonal()[3])
    assert cancelled.nnz == mat.nnz  # the cancelled diagonal entry stays stored
    want = mat - energy * sp.identity(mat.shape[0], format="csr")
    assert want.nnz == mat.nnz - 1
    assert np.array_equal(cancelled.toarray().view(np.int64), want.toarray().view(np.int64))


# -- counting when SuperLU refuses --


def _refusing_splu(monkeypatch, how):
    class Unsymmetric:
        perm_r, perm_c = np.array([0, 1]), np.array([1, 0])

    def splu(*args, **kwargs):
        if how == "raises":
            raise RuntimeError("Factor is exactly singular")
        return Unsymmetric()

    monkeypatch.setattr(es.spla, "splu", splu)


@pytest.mark.parametrize("how", ["raises", "unsymmetric-order"])
def test_superlu_refusal_falls_back_to_dense_ldl(monkeypatch, how):
    stack = _torus(9, np.random.default_rng(4).uniform(0.0, 1.0, 81))
    levels, between = _levels_and_between(stack)
    energies = np.concatenate([[levels[0] - 0.5], between[::9], [levels[-1] + 0.5]])
    _refusing_splu(monkeypatch, how)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack(stack, energies)[0]
        assert np.array_equal(got, np.searchsorted(levels, energies))
        assert count_below_stack(stack, [float(between[3])])[0, 0] == 4


def test_superlu_refusal_above_the_dense_fallback_names_every_path(monkeypatch):
    stack = _generic_torus()
    _refusing_splu(monkeypatch, "raises")
    monkeypatch.setattr(es, "COUNT_DENSE_FALLBACK", 100)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10), pytest.raises(es.CountBreakdownError, match="SuperLU") as err:
        count_below_stack(stack, [1.0])
    assert "no dense LDL^T fallback above N = 100" in str(err.value)
    assert "1e-12, 1e-10, 1e-08" in str(err.value)


# -- what a stack reads off its data, and the stacks tests prepare ---------


def _reference_norm_estimate(mat):
    """The norm as SciPy reads it: the row sums of |A|."""
    return float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


def _reference_periodic_chain(mat):
    """The chain form as one operator's masked ``bincount``s read it; None
    unless ``mat`` is a ring that stores every (i, i + 1 mod N) entry."""
    n = mat.shape[0]
    if n < 3 or mat.shape != (n, n):
        return None
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    offset = (mat.indices - rows) % n
    if not np.all((offset == 0) | (offset == 1) | (offset == n - 1)):
        return None
    if np.count_nonzero(offset == 1) != n:
        return None
    diag, up, down = (
        np.bincount(rows[offset == k], weights=mat.data[offset == k], minlength=n)
        for k in (0, 1, n - 1)
    )
    if not np.array_equal(up, np.roll(down, -1)):
        return None
    return diag, up


def _same_bits(a, b):
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def _same_reading(stack, mat):
    """The one-operator ``stack`` reads the norm and chain form that the
    reference reads off ``mat``."""
    assert _same_bits(stack.norms()[0], _reference_norm_estimate(mat))
    want, chains = _reference_periodic_chain(mat), stack.chains()
    if want is None:
        assert chains is None
    else:
        for got, want_part in zip((chains[0][0], chains[1]), want):
            assert np.array_equal(got.view(np.int64), want_part.view(np.int64))


def _reads_what_scipy_reads(stack, chained):
    """Each norm and the chain form ``stack`` reads off its data have the
    bits of what SciPy reads off its operators ``stack[k]``:
    ``abs(stack[k]).sum(axis=1).max()``, ``diagonal()`` and the (i, i + 1
    mod N) entries, which every operator shares.  The stack has a chain
    form iff ``chained``."""
    norms, chains = stack.norms(), stack.chains()
    assert len(norms) == len(stack) and (chains is not None) == chained
    n = stack.shape[0]
    for k in range(len(stack)):
        mat = stack[k]
        assert _same_bits(norms[k], abs(mat).sum(axis=1).max())
        if chained:
            up = np.asarray(mat[np.arange(n), (np.arange(n) + 1) % n]).ravel()
            for got, want in zip((chains[0][k], chains[1]), (mat.diagonal(), up)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "d, side, scale",
    [(1, 3, 1.0), (1, 4, 0.5), (1, 40, 2.0), (1, 97, 0.0625), (1, 2001, 1 / 3), (2, 9, 1.0)],
)
def test_chunk_preparation_equals_the_one_operator_reading(d, side, scale):
    """The norms and chain form a DiagonalStack reads off its data equal,
    bit for bit, what SciPy reads off each operator: on rings of N = 3, 4,
    40, 97 and 2001, with a diagonal that cancels to exactly 0.0 (stored as
    0.0 on the stencil's pattern, which every operator keeps); a d = 2
    stack has no chain form."""
    lap, where, up = periodic_laplacian(d, side, 0.25)
    n = lap.shape[0]
    diags = np.random.default_rng(side).uniform(-40.0, 40.0, (5, n))
    diags[1, n // 2] = -scale * lap[n // 2, n // 2]  # cancels to exactly 0.0
    stack = DiagonalStack(lap, where, up, diags, scale)
    assert len(stack) == 5 and stack[1].nnz == lap.nnz
    summed = (scale * lap + sp.diags(diags[1], format="csr")).tocsr()
    assert summed.nnz == lap.nnz - 1
    assert np.array_equal(stack[1].toarray().view(np.int64), summed.toarray().view(np.int64))
    for k in range(5):
        mat = stack[k]
        assert np.array_equal(mat.indices, lap.indices) and np.array_equal(mat.indptr, lap.indptr)
    _reads_what_scipy_reads(stack, d == 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_stack_refuses_a_non_finite_diagonal_or_scale(bad):
    """Every operator of a stack is finite: a non-finite entry in one
    diagonal of a K = 4 ring stack or of a d = 2 stack is a ``ValueError``
    that names the operator, and a non-finite scale is one too, when the
    stack is built."""
    for d, side in ((1, 40), (2, 9)):
        lap, where, up = periodic_laplacian(d, side, 0.25)
        diags = np.random.default_rng(side).uniform(-40.0, 40.0, (4, lap.shape[0]))
        with pytest.raises(ValueError, match="scale must be finite"):
            DiagonalStack(lap, where, up, diags, bad)
        diags[2, 5] = bad
        with pytest.raises(ValueError, match="operator 2 has a non-finite diagonal entry"):
            DiagonalStack(lap, where, up, diags)


@pytest.mark.parametrize("c0", [1.0, 3.0, 8.0])
def test_a_reduced_stack_reads_what_scipy_reads(c0):
    """The lower reduced model of a chunk of fields is a ring stack with
    scale 0.5 / c0: its norms and chain form are SciPy's readings too."""
    from displab.potentials import FieldChunk
    from displab.reduced import build_reduced

    values = np.random.default_rng(int(c0)).uniform(-1.0, 1.0, (4, 61, 1))
    stack = build_reduced(
        -1, np.array([5.0]), 0.1, np.array([-1.0]), FieldChunk(n=30, d=1, values=values), c0, 0.05
    ).matrix
    assert stack.scale == 0.5 / c0 and stack.shape == (61, 61)
    _reads_what_scipy_reads(stack, True)


def test_a_d2_chunk_examines_its_stencil_once(monkeypatch):
    """A d = 2 stencil has no coupling slots, so its stack has no chain
    form: neither counting entry tests a chain, and every count and ground
    is that of the per-threshold path on ``stack[k]``."""
    lap, where, up = periodic_laplacian(2, 9, 0.25)
    assert up is None
    diags = np.random.default_rng(9).uniform(0.0, 40.0, (4, lap.shape[0]))
    stack = DiagonalStack(lap, where, up, diags, 0.5)
    assert stack.chains() is None
    energies = np.array([10.0, 30.0, 60.0])
    want = [_per_threshold(stack[k], energies) for k in range(4)]
    grounds = [_reference_ground(stack[k], 80.0) for k in range(4)]
    with monkeypatch.context() as mp:
        for name in ("_chain_sweep", "_chain_positive_definite"):
            mp.setattr(es, name, lambda *a: pytest.fail("a chain path ran"))
        assert np.array_equal(count_below_stack(stack, energies), want)
        assert ground_bisect(stack, 80.0) == grounds


@pytest.mark.parametrize(
    "kind, message",
    [
        ("not-exactly-symmetric", "exactly symmetric"),
        ("missing-diagonal", "stores 15 of its 16 diagonal entries"),
        ("unsorted", "canonical"),
    ],
)
def test_prepared_refuses_a_matrix_that_breaks_the_stencil_contract(kind, message):
    """Counting trusts a stencil's contract, so a matrix that tests prepare
    must keep it: an entry 1e-15 off its mirror, an unstored diagonal entry
    or unsorted indices are each a ``ValueError``."""
    mat = _generic_torus(side=4)[0].tolil()
    if kind == "not-exactly-symmetric":
        mat[0, 1] += 1e-15
    elif kind == "missing-diagonal":
        mat[2, 2] = 0.0  # a LIL matrix drops an assigned zero
    mat = mat.tocsr()
    if kind == "unsorted":
        mat.indices[:2] = mat.indices[1::-1].copy()
        mat.data[:2] = mat.data[1::-1].copy()
        mat.has_sorted_indices = False
    with pytest.raises(ValueError, match=message):
        prepared(mat)


@pytest.mark.parametrize("seed", range(6))
def test_one_operator_reading_equals_the_reference(seed):
    """The ``prepared`` stack of random chains with zero couplings and of
    random symmetric matrices with their whole diagonal stored, mostly of
    non-chain patterns: its operator has the matrix's arrays bit for bit,
    and it reads the norm and chain form of the reference reading."""
    local = np.random.default_rng(seed)
    n = int(local.integers(3, 12))
    upper = sp.random(n, n, density=0.4, random_state=seed, format="csr")
    mats = [
        _random_chain(n, ("generic", "zero-corner", "zero-offdiagonals")[seed % 3], seed),
        (upper + upper.T + sp.identity(n)).tocsr(),
    ]
    for mat in mats:
        stack = prepared(mat)
        assert np.array_equal(stack[0].data.view(np.int64), mat.data.view(np.int64))
        assert np.array_equal(stack[0].indices, mat.indices)
        assert np.array_equal(stack[0].indptr, mat.indptr)
        _same_reading(stack, mat)
    assert prepared(mats[0]).chains() is not None, "zero couplings stay stored"


def test_superlu_copies_are_released_and_the_factor_still_solves():
    """After a count, the factor's cached L and U copies hold no entries, and
    ``lu.solve`` and the Ritz intervals are those of an untouched factor."""
    stack = _generic_torus()
    levels, between = _levels_and_between(stack)
    mat, norm = stack[0], stack.norms()[0]
    shifted = (mat - between[4] * sp.identity(mat.shape[0], format="csr")).tocsr()
    scale = max(1.0, norm, abs(between[4]))
    count, lu = es._sparse_inertia(shifted, scale)
    kept = es.spla.splu(
        shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    assert count == 5 and lu.L.nnz == lu.U.nnz == 0 and kept.U.nnz > 0
    rhs = np.random.default_rng(1).standard_normal((mat.shape[0], 3))
    assert np.array_equal(lu.solve(rhs), kept.solve(rhs))
    got, want = (list(es._lanczos_pairs(f, between[4], 5)) for f in (lu, kept))
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
    assert es._certified_intervals(mat, norm, *got[-1], between[4]) is not None
