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

from displab.discretize import assemble_fiber
import displab.eigensolve as es
from displab.eigensolve import count_below_stack, ground_bisect, smallest_eigenpairs
from displab.potentials import periodic_family, single_site_family
from conftest import prepared
from test_spectral_stats import _one_matrix

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
    assert es.dense_levels(sp.csr_matrix([[3.0]])).tolist() == [3.0]
    two = sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(es.dense_levels(two), [1.0, 3.0], rtol=0.0, atol=4 * es._EPS)


@pytest.mark.parametrize("stage", ["dsytrd", "dstevd"])
def test_dense_levels_raises_when_lapack_reports_a_failure(monkeypatch, stage):
    real = getattr(es, stage)
    monkeypatch.setattr(es, stage, lambda *a, **k: (*real(*a, **k)[:-1], 1))
    with pytest.raises(np.linalg.LinAlgError, match="LAPACK info 1"):
        es.dense_levels(sp.csr_matrix(_random_sym(5)))


def test_dense_levels_refuses_complex_input():
    with pytest.raises(ValueError, match="real symmetric"):
        es.dense_levels(sp.csr_matrix([[1.0, 1j], [-1j, 1.0]]))


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


def test_a_dense_array_is_refused():
    """``smallest_eigenpairs`` takes a sparse matrix and the counting entries
    a prepared operator: a dense array is a TypeError that names its type."""
    a = _random_sym(5)
    calls = (
        lambda: count_below_stack([a], [0.0]),
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
    """A SymmetricOperator is a TypeError that names its type; its matrix
    gives the pairs."""
    op = prepared(_random_chain(60, "generic", 5))
    with pytest.raises(TypeError, match="SymmetricOperator"):
        smallest_eigenpairs(op, k=1)
    assert smallest_eigenpairs(op.matrix, k=1).method == "dense"


def test_counting_takes_only_prepared_operators_and_1d_thresholds():
    """A raw CSR matrix is a TypeError that names its type, in both counting
    entries; a 0-d or 2-d threshold array is a ValueError.  A 1-d array of T
    thresholds gives T integer columns, also for T = 1 and T = 0."""
    mat = _cyclic(np.full(6, 2.0), np.full(6, -1.0))  # levels 0, 1, 1, 3, 3, 4
    pair = sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]])  # levels 1, 3
    with pytest.raises(TypeError, match="csr_matrix"):
        count_below_stack([mat], [2.0])
    with pytest.raises(TypeError, match="csr_matrix"):
        ground_bisect(mat, 4.0)
    ops = [prepared(mat), prepared(pair)]
    for energies in (2.0, np.float64(2.0), np.ones((2, 2)), [[2.0]]):
        with pytest.raises(ValueError, match="1-d"):
            count_below_stack(ops, energies)
    got = count_below_stack(ops, [2.0])
    assert got.dtype.kind == "i" and got.tolist() == [[3], [1]]
    assert count_below_stack(ops, np.array([])).shape == (2, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_below_matches_eigvalsh(seed):
    local = np.random.default_rng(seed)
    a = local.standard_normal((60, 60))
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    for e in (-5.0, eigs[10] + 1e-6, 0.0, eigs[-1] + 1.0):
        assert count_below_stack([prepared(sp.csr_matrix(a))], [e])[0, 0] == int(np.sum(eigs < e))


def test_count_below_sparse_ring_closed_form():
    """2001-point free ring: eigenvalues 2(1 - cos(2 pi k / 2001)) with known
    multiplicities, so the counts below a few thresholds are exact integers."""
    n = 2001
    mat = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]).tolil()
    mat[0, n - 1] = mat[n - 1, 0] = -1.0
    op = prepared(mat)
    eigs = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    for e in (0.5, 1.0, 3.9):
        assert count_below_stack([op], [e])[0, 0] == int(np.sum(eigs < e))
    assert count_below_stack([op], [4.1])[0, 0] == n
    # E = 0 ties the ground state exactly; the documented upward nudge counts it
    assert count_below_stack([op], [0.0])[0, 0] == 1
    assert count_below_stack([op], [-1e-9])[0, 0] == 0


def test_count_below_tied_threshold_retries_upward():
    # threshold exactly on an eigenvalue: the tiny upward nudges must count it
    op = prepared(sp.diags([1.0, 2.0, 2.0, 3.0], format="csr"))
    assert count_below_stack([op], [2.0])[0, 0] == 3  # nudge resolves the tie upward
    assert count_below_stack([op], [2.0 + 1e-6])[0, 0] == 3
    assert count_below_stack([op], [1.0 - 1e-12])[0, 0] == 0


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


def test_count_agrees_between_dense_and_sparse_paths(monkeypatch):
    import displab.eigensolve as es

    monkeypatch.setattr(es, "_chain_pattern", lambda mat: None)  # a chain skips both
    n = 700
    diag = np.random.default_rng(9).uniform(0, 4, n)
    mat = sp.diags([np.full(n - 1, -1.0), diag, np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
    for e in (0.5, 2.0):
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
            sparse = count_below_stack([prepared(mat)], [e])[0, 0]
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 5000):
            dense = count_below_stack([prepared(mat)], [e])[0, 0]
        assert sparse == dense


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_count_below_rejects_non_finite_threshold(monkeypatch, energy, path):
    import displab.eigensolve as es

    def no_factorization(*args):
        raise AssertionError("factorized a non-finite threshold")

    monkeypatch.setattr(es, "_dense_inertia", no_factorization)
    monkeypatch.setattr(es, "_sparse_inertia", no_factorization)
    n = 50
    mat = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1])
    cutoff = 600 if path == "dense" else 10
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", cutoff), pytest.raises(ValueError, match="finite"):
        count_below_stack([prepared(mat.tocsr())], [energy])


# -- periodic chains: one sweep for all thresholds, and the ground bisection --


def _cyclic(diag, off):
    """Sparse periodic chain with A[i, i + 1 mod N] = off[i]; zeros stay unstored."""
    n = len(diag)
    rows = np.concatenate([np.arange(n), np.arange(n), (np.arange(n) + 1) % n])
    cols = np.concatenate([np.arange(n), (np.arange(n) + 1) % n, np.arange(n)])
    vals = np.concatenate([diag, off, off])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.eliminate_zeros()
    return mat


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(es, "_chain_pattern", lambda mat: None)
        op = prepared(mat)
        assert op.chain is None
        return np.array([count_below_stack([op], [float(e)])[0, 0] for e in energies])


@pytest.mark.parametrize("variant", ["generic", "zero-corner", "zero-offdiagonals"])
@pytest.mark.parametrize("n", [3, 4, 5, 17, 2001])
def test_chain_counts_equal_per_threshold_path(n, variant):
    mat = _random_chain(n, variant, seed=1000 * n + len(variant))
    assert prepared(mat).chain is not None
    eigs = np.linalg.eigvalsh(mat.toarray())
    mids = 0.5 * (eigs[1:] + eigs[:-1])
    energies = np.concatenate(
        [[eigs[0] - 1.0, eigs[-1] + 1.0], mids[:: max(1, n // 25)], [0.0, 1.5]]
    )
    got = count_below_stack([prepared(mat)], energies)[0]
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
    got = count_below_stack([prepared(mat)], energies)[0]
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
        got = count_below_stack([prepared(mat)], levels)[0]
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
    diag, off = prepared(mat).chain
    sweep = es._chain_sweep(diag[:, None], off[:, None], np.array([[e]]), np.array([2.0]))
    assert sweep.tolist() == [[-1]]
    assert count_below_stack([prepared(mat)], [e])[0, 0] == int(np.searchsorted(eigs, e))


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_non_chain_counts_equal_with_and_without_array(path):
    """A d = 2 torus operator is no chain: the array form gives the integers
    of scalar calls.  On the sparse path the top threshold, 9.0, has all 81
    levels below it, more than RITZ_CAP, so after the factorization there
    the others go threshold by threshold."""
    side = 9
    ring = _cyclic(np.full(side, 2.0), np.full(side, -1.0))
    eye = sp.identity(side, format="csr")
    diag = np.random.default_rng(4).uniform(0.0, 1.0, side * side)
    mat = (sp.kron(ring, eye) + sp.kron(eye, ring) + sp.diags(diag)).tocsr()
    op = prepared(mat)
    assert op.chain is None
    cutoff = 10 if path == "sparse" else 600
    eigs = np.linalg.eigvalsh(mat.toarray())
    energies = np.concatenate([[eigs[0] - 0.5], 0.5 * (eigs[1:] + eigs[:-1])[::7], [9.0]])
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", cutoff):
        got = count_below_stack([op], energies)[0]
        want = [count_below_stack([op], [float(e)])[0, 0] for e in energies]
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.searchsorted(eigs, energies, side="left"))


def _ground_bisect(op, hi, iters=48):
    """The ground bisection as it was: one count per step."""
    if count_below_stack([op], [hi])[0, 0] == 0:
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if count_below_stack([op], [mid])[0, 0] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _reference_ground(mat, hi):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(es, "_chain_pattern", lambda mat: None)
        op = prepared(mat)
    assert op.chain is None
    return _ground_bisect(op, hi)


@pytest.mark.parametrize("variant", ["generic", "zero-corner", "zero-offdiagonals"])
@pytest.mark.parametrize("n", [3, 4, 5, 17, 60, 700])
def test_ground_bisect_equals_count_bisection_bitwise(n, variant):
    mat = _random_chain(n, variant, seed=7 * n + len(variant))
    lowest = np.linalg.eigvalsh(mat.toarray())[0]
    mat = (mat + (1.7 - lowest) * sp.identity(n, format="csr")).tocsr()
    assert ground_bisect(prepared(mat), 10.0) == _reference_ground(mat, 10.0)
    assert ground_bisect(prepared(mat), 1.0) == _reference_ground(mat, 1.0) == 1.0


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
    for s in range(3):
        mat = _one_matrix(fam, int(cfg["run"]["seed"]), s)
        assert ground_bisect(prepared(mat), hi) == _reference_ground(mat, hi)


def test_ground_bisect_leaves_a_tied_midpoint_to_the_count(monkeypatch):
    """Ring Laplacian + 2 I has lambda_min = 2.0, the first midpoint of
    [0, 4]: the Cholesky decision cannot settle that step, so the
    per-threshold count (with its upward nudge) does."""
    n = 2001
    mat = _cyclic(np.full(n, 4.0), np.full(n, -1.0))
    calls = []
    count = es._inertia_count
    monkeypatch.setattr(es, "_inertia_count", lambda *a: calls.append(a[1]) or count(*a))
    got = ground_bisect(prepared(mat), 4.0)
    assert 2.0 in calls
    monkeypatch.setattr(es, "_inertia_count", count)
    assert got == _reference_ground(mat, 4.0)
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
    from displab.discretize import diagonal_slots, plus_diagonal

    mat = _random_chain(n, "generic", seed=n)
    diag, where = mat.diagonal(), diagonal_slots(mat)
    shift = es._sparse_shift(mat)
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


def test_count_below_stack_mixes_sizes_and_non_chains():
    side = 5
    ring = _cyclic(np.full(side, 2.0), np.full(side, -1.0))
    eye = sp.identity(side, format="csr")
    torus = (sp.kron(ring, eye) + sp.kron(eye, ring) + sp.diags(np.linspace(0, 1, 25))).tocsr()
    mats = [
        _random_chain(17, "generic", 1),
        torus,
        _random_chain(4, "zero-corner", 2),
        _random_chain(17, "zero-offdiagonals", 3),
        sp.csr_matrix(_random_sym(9)),
        _random_chain(4, "generic", 4),
    ]
    ops = [prepared(mat) for mat in mats]
    energies = np.array([-1.0, 0.3, 1.1, 2.5, 9.0])
    got = es.count_below_stack(ops, energies)
    assert got.shape == (len(ops), energies.size)
    for op, row in zip(ops, got):
        assert np.array_equal(row, count_below_stack([op], energies)[0])
    assert es.count_below_stack(ops, np.array([])).shape == (len(ops), 0)
    assert es.count_below_stack([], energies).shape == (0, energies.size)
    with pytest.raises(ValueError, match="finite"):
        es.count_below_stack(ops, [np.nan])


def test_count_below_stack_counts_a_generator_holding_one_non_chain(monkeypatch):
    """Operators that are not chains are counted as a generator yields them
    and dropped after, so none is alive while another is counted; a chain
    waits for the shared sweep.  The counts are those of one call each."""
    side = 5
    ring = _cyclic(np.full(side, 2.0), np.full(side, -1.0))
    eye = sp.identity(side, format="csr")
    torus = (sp.kron(ring, eye) + sp.kron(eye, ring) + sp.diags(np.linspace(0, 1, 25))).tocsr()
    mats = [(torus + k * sp.identity(25)).tocsr() for k in range(3)]
    mats.insert(1, _random_chain(17, "generic", 1))
    energies = np.array([-1.0, 0.3, 1.1, 2.5, 9.0])
    made, alive = [], []

    def operators():
        for mat in mats:
            op = prepared(mat)
            if op.chain is None:
                made.append(weakref.ref(op))
            yield op

    real_count_rest = es._count_rest

    def count_rest_logged(op, row, energies):
        if op.chain is None:
            alive.append(sum(ref() is not None for ref in made))
        return real_count_rest(op, row, energies)

    monkeypatch.setattr(es, "_count_rest", count_rest_logged)
    got = es.count_below_stack(operators(), energies)
    assert alive == [1, 1, 1]
    for mat, row in zip(mats, got):
        assert np.array_equal(row, count_below_stack([prepared(mat)], energies)[0])


def test_symmetric_operator_is_prepared_once_and_gives_the_same_answers(monkeypatch):
    """Counting and bisecting a prepared operator read its norm and chain
    form, never its entries again, and give the answers of a fresh one."""
    mat = _random_chain(60, "generic", 5)
    mat = (mat + (1.0 - np.linalg.eigvalsh(mat.toarray())[0]) * sp.identity(60)).tocsr()
    op = prepared(mat)
    assert op.shape == mat.shape and op.chain is not None
    energies = np.array([0.5, 1.5, 2.5])
    want = count_below_stack([prepared(mat)], energies)[0], ground_bisect(prepared(mat), 4.0)
    for name in ("_chain_pattern", "_stack_chains", "_stack_norms"):
        monkeypatch.setattr(es, name, lambda *a: pytest.fail("operator prepared again"))
    assert np.array_equal(count_below_stack([op], energies)[0], want[0])
    assert np.array_equal(es.count_below_stack([op, op], energies), [want[0], want[0]])
    assert ground_bisect(op, 4.0) == want[1]


# -- d = 2: Ritz values from the top threshold's factor, and the fallbacks --


def _torus(side, diag):
    """2-d periodic lattice operator: ``diag`` on the sites, -1 between neighbours."""
    ring = _cyclic(np.zeros(side), np.full(side, -1.0))
    eye = sp.identity(side, format="csr")
    return (sp.kron(ring, eye) + sp.kron(eye, ring) + sp.diags(diag)).tocsr()


def _generic_torus(side=12, seed=3):
    return _torus(side, np.random.default_rng(seed).uniform(0.0, 4.0, side * side))


def _splu_calls(monkeypatch):
    calls = []
    splu = es.spla.splu
    monkeypatch.setattr(es.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    return calls


def _levels_and_between(mat):
    levels = np.linalg.eigvalsh(mat.toarray())
    return levels, 0.5 * (levels[1:] + levels[:-1])


def test_top_threshold_factor_settles_the_thresholds_below(monkeypatch):
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    energies = np.array([between[4], levels[0] - 1.0, between[0], between[2]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([prepared(mat)], energies)[0]
    assert len(calls) == 1, "one factorization, at the top threshold"
    assert got.tolist() == [5, 0, 1, 3]


def test_no_level_below_the_top_settles_the_rest_without_lanczos(monkeypatch):
    mat = _generic_torus()
    levels, _ = _levels_and_between(mat)
    monkeypatch.setattr(es, "_lanczos_pairs", None)  # never called
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([prepared(mat)], levels[0] - np.array([0.5, 1.0, 2.0]))[0]
    assert len(calls) == 1 and got.tolist() == [0, 0, 0]


def _hands_back(monkeypatch, mat, energies):
    """Counts with the route and threshold by threshold; every threshold
    must have had its own factorization."""
    op = prepared(mat)
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([op], energies)[0]
        assert len(calls) == energies.size
        want = [count_below_stack([op], [float(e)])[0, 0] for e in energies]
    assert np.array_equal(got, want)
    return got


def test_a_lanczos_run_without_pairs_hands_every_lower_threshold_back(monkeypatch):
    """A Lanczos run that ends before its T has K negative Ritz values
    yields no pairs: nothing is certified."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    monkeypatch.setattr(es, "_lanczos_pairs", lambda lu, shift, k: iter(()))
    energies = between[[0, 2, 4]]
    got = _hands_back(monkeypatch, mat, energies)
    assert got.tolist() == [1, 3, 5]


def test_more_levels_below_the_top_than_the_cap_hand_back(monkeypatch):
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    monkeypatch.setattr(es, "_lanczos_pairs", None)  # never called
    energies = between[[0, es.RITZ_CAP]]
    got = _hands_back(monkeypatch, mat, energies)
    assert got.tolist() == [1, es.RITZ_CAP + 1]


def test_overlapping_intervals_of_a_degenerate_level_hand_back(monkeypatch):
    """The free torus Laplacian has a simple lowest level and then a
    fourfold one.  Exact eigenpairs of all five levels give overlapping
    intervals: nothing is certified.  A Lanczos run from one start vector
    finds one vector of the fourfold level, so it certifies nothing either,
    and every threshold goes back."""
    mat = _torus(6, np.full(36, 4.0))
    levels, between = _levels_and_between(mat)
    assert np.ptp(levels[1:5]) < 1e-12 < levels[5] - levels[4]
    vals, vecs = np.linalg.eigh(mat.toarray())
    op = prepared(mat)
    assert es._certified_intervals(op, vals[:5], vecs[:, :5], between[4]) is None
    ritz, certified = [], []
    pairs, intervals = es._lanczos_pairs, es._certified_intervals
    monkeypatch.setattr(
        es, "_lanczos_pairs", lambda *a: (ritz.append(p) or p for p in pairs(*a))
    )
    monkeypatch.setattr(
        es, "_certified_intervals", lambda *a: certified.append(intervals(*a)) or certified[-1]
    )
    got = _hands_back(monkeypatch, mat, np.array([between[0], between[4]]))
    assert certified == [None] * len(ritz) and got.tolist() == [1, 5]


def test_an_interval_in_a_threshold_bracket_hands_that_threshold_back(monkeypatch):
    """A level 1e-8 * scale above a threshold lies in its bracket: the
    per-threshold count could nudge past it, so that threshold is handed
    back while the one clear of every interval is settled."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    op = prepared(mat)
    scale = max(1.0, op.norm)
    energies = np.array([levels[1] - 1e-8 * scale, between[2], between[4]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([op], energies)[0]
    assert len(calls) == 2
    assert got.tolist() == [1, 3, 5]


def test_a_bracket_reaching_the_top_shift_is_handed_back(monkeypatch):
    """Above the shift E' of the top factorization nothing is known, and a
    nudged per-threshold count could reach 1e-8 * scale past its threshold:
    a threshold 1e-9 * scale below the top one is handed back."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    op = prepared(mat)
    scale = max(1.0, op.norm)
    energies = np.array([between[2], between[2] - 1e-9 * scale, between[0]])
    calls = _splu_calls(monkeypatch)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([op], energies)[0]
    assert len(calls) == 2
    assert got.tolist() == [3, 3, 1]


def test_an_interval_above_the_top_shift_is_not_certified(monkeypatch):
    """Ritz pairs are only trusted below E': a pair of the first level above
    it, in place of the last one below, certifies nothing."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    vals, vecs = np.linalg.eigh(mat.toarray())
    wrong = [0, 1, 3]  # the levels below between[2] are 0, 1 and 2

    def lanczos_pairs(lu, shift, k):
        assert k == 3
        yield vals[wrong], vecs[:, wrong]

    monkeypatch.setattr(es, "_lanczos_pairs", lanczos_pairs)
    got = _hands_back(monkeypatch, mat, np.array([between[2], between[1], between[0]]))
    assert got.tolist() == [3, 2, 1]


@pytest.mark.parametrize("glibc", [True, False])
def test_the_heap_is_trimmed_once_after_the_route_where_glibc_is(monkeypatch, glibc):
    trims = []
    monkeypatch.setattr(es, "_MALLOC_TRIM", trims.append if glibc else None)
    mat = _generic_torus()
    _, between = _levels_and_between(mat)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        assert count_below_stack([prepared(mat)], between[[0, 2, 4]])[0].tolist() == [1, 3, 5]
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
    op = prepared(_one_matrix(family, seed, 0))
    assert op.shape == (43264, 43264) and op.chain is None
    calls = _splu_calls(monkeypatch)
    got = count_below_stack([op], energies)[0]
    assert len(calls) == 1
    with monkeypatch.context() as mp:
        mp.setattr(es, "_ritz_counts", lambda op, count_one, e: np.full(e.size, -1))
        want = count_below_stack([op], energies)[0]
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
        op = prepared(_one_matrix(family, seed, sample))
        factors.clear(), solves.clear()
        assert count_below_stack([op], energies)[0].tolist() == [0, 1, 1]
        assert len(factors) == 1 and 1 <= len(solves) <= 3


def test_a_run_cut_by_its_step_budget_hands_the_unsettled_thresholds_back(monkeypatch):
    """A threshold inside the first step's interval but clear of the last
    one's: a full run settles it, a run cut to one step hands it back."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    op = prepared(mat)
    count, lu = es._sparse_inertia(es._sparse_shift(op.matrix)(between[0]), 10.0)
    pairs = [es._certified_intervals(op, *p, between[0]) for p in es._lanczos_pairs(lu, between[0], 1)]
    (first_lo, _), (last_lo, _) = pairs[0], pairs[-1]
    assert count == 1 and first_lo[0] < last_lo[0] - 1e-6
    energies = np.array([between[0], 0.5 * (first_lo[0] + last_lo[0])])
    for extra, factorizations in ((es._RITZ_EXTRA, 1), (-1, 2)):  # -1: a budget of one step
        monkeypatch.setattr(es, "_RITZ_EXTRA", extra)
        calls = _splu_calls(monkeypatch)
        with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
            assert count_below_stack([op], energies)[0].tolist() == [1, 0]
        assert len(calls) == factorizations


@pytest.mark.parametrize("kind", ["chain", "d = 2"])
def test_superlu_gets_one_csc_matrix_with_the_old_shifts_arrays(monkeypatch, kind):
    """A prepared operator's A - E reaches SuperLU as one CSC
    matrix on A's index arrays, with the data, indices and indptr that
    ``plus_diagonal`` and a CSC conversion give, also where a diagonal
    entry cancels to exactly 0.0: that entry stays stored, and the dense
    form is the sparse subtraction's, bit for bit."""
    from displab.discretize import diagonal_slots, plus_diagonal

    if kind == "chain":
        local = np.random.default_rng(5)
        mat = _cyclic(local.uniform(0.0, 4.0, 40), local.uniform(-1.0, 1.0, 40))
    else:
        mat = _generic_torus()
    op = prepared(mat)
    assert (op.chain is None) == (kind != "chain")
    got, splu = [], es.spla.splu
    monkeypatch.setattr(es.spla, "splu", lambda a, **k: got.append(a) or splu(a, **k))
    where = diagonal_slots(op.matrix)
    first = []
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        counter = es._threshold_counter(op)
        for energy in (0.7, float(op.matrix.diagonal()[3])):
            first.append(len(got))
            counter(energy)  # a tie at the second nudges E up: its first try is at E
            shifted = plus_diagonal(op.matrix, where, -energy)
            want = shifted.T if kind == "chain" else shifted.tocsc()  # as before
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got[first[-1]], name), getattr(want, name)), name
            assert got[first[-1]].format == "csc"
    shared = got[first[0]]
    assert all(np.shares_memory(getattr(shared, a), getattr(op.matrix, a)) for a in ("indices", "indptr"))
    cancelled, energy = got[first[1]], float(op.matrix.diagonal()[3])
    assert cancelled.nnz == op.matrix.nnz  # the cancelled diagonal entry stays stored
    want = op.matrix - energy * sp.identity(op.shape[0], format="csr")
    assert want.nnz == op.matrix.nnz - 1
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
    mat = _torus(9, np.random.default_rng(4).uniform(0.0, 1.0, 81))
    levels, between = _levels_and_between(mat)
    energies = np.concatenate([[levels[0] - 0.5], between[::9], [levels[-1] + 0.5]])
    _refusing_splu(monkeypatch, how)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10):
        got = count_below_stack([prepared(mat)], energies)[0]
        assert np.array_equal(got, np.searchsorted(levels, energies))
        assert count_below_stack([prepared(mat)], [float(between[3])])[0, 0] == 4


def test_superlu_refusal_above_the_dense_fallback_names_every_path(monkeypatch):
    mat = _generic_torus()
    _refusing_splu(monkeypatch, "raises")
    monkeypatch.setattr(es, "COUNT_DENSE_FALLBACK", 100)
    with mock.patch.object(es, "COUNT_DENSE_CUTOFF", 10), pytest.raises(es.CountBreakdownError, match="SuperLU") as err:
        count_below_stack([prepared(mat)], [1.0])[0, 0]
    assert "no dense LDL^T fallback above N = 100" in str(err.value)
    assert "1e-12, 1e-10, 1e-08" in str(err.value)


# -- a chunk's operators prepared together ----------------------------------


def _reference_norm_estimate(mat):
    """The norm as it was read before chunks: SciPy's row sums of |A|."""
    return float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


def _reference_periodic_chain(mat):
    """The chain form as it was read before chunks: one operator's masked
    ``bincount``s."""
    n = mat.shape[0]
    if n < 3 or mat.shape != (n, n) or not np.all(np.isfinite(mat.data)):
        return None
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    offset = (mat.indices - rows) % n
    if not np.all((offset == 0) | (offset == 1) | (offset == n - 1)):
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


def _same_preparation(op, mat):
    assert _same_bits(op.norm, _reference_norm_estimate(mat))
    want = _reference_periodic_chain(mat)
    if want is None:
        assert op.chain is None
    else:
        for got_part, want_part in zip(op.chain, want):
            assert np.array_equal(got_part.view(np.int64), want_part.view(np.int64))


@pytest.mark.parametrize(
    "d, side, scale",
    [(1, 3, 1.0), (1, 4, 0.5), (1, 40, 2.0), (1, 97, 0.0625), (1, 2001, 1 / 3), (2, 9, 1.0)],
)
def test_chunk_preparation_equals_the_one_operator_reading(d, side, scale):
    """Norms and chain forms read off a DiagonalStack in one pass equal, bit
    for bit, the one-operator readings SciPy's row sums and masked
    ``bincount``s give (``_reference_norm_estimate``,
    ``_reference_periodic_chain``): on chains of N = 3, 4, 40, 97 and 2001,
    with a diagonal that cancels to exactly 0.0 (stored as 0.0 on the
    stencil's pattern, which every operator keeps), a non-finite diagonal,
    and on a d = 2 stencil, which is no chain and is prepared one operator
    at a time."""
    from displab.discretize import DiagonalStack, periodic_laplacian

    lap, where = periodic_laplacian(d, side, 0.25)
    n = lap.shape[0]
    diags = np.random.default_rng(side).uniform(-40.0, 40.0, (5, n))
    diags[1, n // 2] = -scale * lap[n // 2, n // 2]  # cancels to exactly 0.0
    diags[3, 0] = np.inf
    stack = DiagonalStack(lap, where, diags, scale)
    ops = es.SymmetricOperator.chunk(stack)
    assert isinstance(ops, list) == (d == 1)
    ops = list(ops)
    assert len(ops) == 5 and stack[1].nnz == lap.nnz
    summed = (scale * lap + sp.diags(diags[1], format="csr")).tocsr()
    assert summed.nnz == lap.nnz - 1
    assert np.array_equal(stack[1].toarray().view(np.int64), summed.toarray().view(np.int64))
    for k, op in enumerate(ops):
        mat = stack[k]
        assert np.array_equal(op.matrix.data.view(np.int64), mat.data.view(np.int64))
        assert np.array_equal(op.matrix.indices, lap.indices)
        assert np.array_equal(op.matrix.indptr, lap.indptr)
        _same_preparation(op, mat)
        assert (op.chain is not None) == (d == 1 and k != 3)


def test_a_d2_chunk_examines_its_stencil_once(monkeypatch):
    """On a d = 2 stencil the chunk decides once that no operator is a
    chain, and each prepared operator holds ``stack[k]``, its reference
    norm and no chain form, and nothing else."""
    from displab.discretize import DiagonalStack, periodic_laplacian

    lap, where = periodic_laplacian(2, 9, 0.25)
    diags = np.random.default_rng(9).uniform(-40.0, 40.0, (4, lap.shape[0]))
    stack = DiagonalStack(lap, where, diags, 0.5)
    calls = []
    real_pattern = es._chain_pattern
    monkeypatch.setattr(es, "_chain_pattern", lambda mat: calls.append(1) or real_pattern(mat))
    ops = list(es.SymmetricOperator.chunk(stack))
    assert len(ops) == 4 and calls == [1]
    monkeypatch.undo()
    for k, op in enumerate(ops):
        mat = stack[k]
        assert vars(op).keys() == {"matrix", "norm", "chain"}
        _same_preparation(op, mat)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op.matrix, part), getattr(mat, part))


@pytest.mark.parametrize(
    "kind, message",
    [
        ("not-exactly-symmetric", "exactly symmetric"),
        ("missing-diagonal", "stores 15 of its 16 diagonal entries"),
        ("unsorted", "canonical"),
    ],
)
def test_prepared_refuses_a_matrix_that_breaks_the_stencil_contract(kind, message):
    """Tests reach counting through a chunk of one whose stencil is the
    matrix, so the matrix must keep a stencil's contract: an entry 1e-15
    off its mirror, an unstored diagonal entry or unsorted indices are
    each a ``ValueError``."""
    mat = _generic_torus(side=4).tolil()
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
    """A chunk of one (``prepared``) on random chains with zero couplings
    and on random symmetric matrices with their whole diagonal stored,
    mostly of non-chain patterns: its operator has the matrix's arrays bit
    for bit, and the norm and chain form of the reference reading."""
    local = np.random.default_rng(seed)
    n = int(local.integers(3, 12))
    upper = sp.random(n, n, density=0.4, random_state=seed, format="csr")
    mats = [
        _random_chain(n, ("generic", "zero-corner", "zero-offdiagonals")[seed % 3], seed),
        (upper + upper.T + sp.identity(n)).tocsr(),
    ]
    for mat in mats:
        op = prepared(mat)
        assert np.array_equal(op.matrix.data.view(np.int64), mat.data.view(np.int64))
        assert np.array_equal(op.matrix.indices, mat.indices)
        assert np.array_equal(op.matrix.indptr, mat.indptr)
        _same_preparation(op, mat)


def test_superlu_copies_are_released_and_the_factor_still_solves():
    """After a count, the factor's cached L and U copies hold no entries, and
    ``lu.solve`` and the Ritz intervals are those of an untouched factor."""
    mat = _generic_torus()
    levels, between = _levels_and_between(mat)
    shifted = (mat - between[4] * sp.identity(mat.shape[0], format="csr")).tocsr()
    op = prepared(mat)
    scale = max(1.0, op.norm, abs(between[4]))
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
    assert es._certified_intervals(op, *got[-1], between[4]) is not None
