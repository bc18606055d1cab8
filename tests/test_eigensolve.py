"""Eigenpair extraction and inertia counting, cross-checked against LAPACK.

Random matrices below use a fixed generator so every run sees the same
instances; the sparse paths are forced by lowering the dense cutoffs.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from displab.discretize import assemble_fiber
from displab.eigensolve import count_below, smallest_eigenpairs
from displab.potentials import periodic_family, single_site_family

rng = np.random.default_rng(12345)


def _random_sym(n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def test_dense_smallest_matches_eigh():
    a = _random_sym(40)
    got = smallest_eigenpairs(a, k=5)
    want = np.linalg.eigvalsh(a)[:5]
    assert got.method == "dense"
    assert np.allclose(got.values, want, atol=1e-12)
    assert np.all(got.residuals < 1e-10)


def test_arpack_agrees_with_dense():
    """Force the sparse path on a moderate ring and compare both branches."""
    n = 300
    diag = rng.uniform(0.0, 3.0, n)
    mat = sp.diags(
        [np.full(n - 1, -1.0), 2.0 + diag, np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tolil()
    mat[0, n - 1] = mat[n - 1, 0] = -1.0
    mat = mat.tocsr()
    sparse = smallest_eigenpairs(mat, k=4, dense_cutoff=10)
    dense = smallest_eigenpairs(mat, k=4)
    assert sparse.method == "arpack"
    assert dense.method == "dense"
    assert np.allclose(sparse.values, dense.values, atol=1e-8)
    assert np.all(sparse.residuals < 1e-6)


def test_ground_accessors_and_sign_convention():
    a = _random_sym(25)
    res = smallest_eigenpairs(a, k=2)
    assert res.ground_energy == res.values[0]
    assert res.ground_vector.sum() > 0, "real eigenvectors carry a deterministic sign"
    assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0)


def test_smallest_eigenpairs_input_checks():
    a = _random_sym(10)
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=11)
    b = rng.standard_normal((10, 10))
    with pytest.raises(ValueError):
        smallest_eigenpairs(b, k=1)


def test_accepts_lattice_operator():
    p = periodic_family("cosine", 1, coefficients=[-1.0])
    q = single_site_family("asym-bump", 1)
    op = assemble_fiber(p, q, 0.1, np.array([-1.0]), np.array([0.0]), 8)
    res = smallest_eigenpairs(op, k=3)
    assert np.all(np.diff(res.values) >= 0)
    assert np.all(res.residuals < 1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_below_matches_eigvalsh(seed):
    local = np.random.default_rng(seed)
    a = local.standard_normal((60, 60))
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    for e in (-5.0, eigs[10] + 1e-6, 0.0, eigs[-1] + 1.0):
        assert count_below(a, e) == int(np.sum(eigs < e))


def test_count_below_sparse_ring_closed_form():
    """2001-point free ring: eigenvalues 2(1 - cos(2 pi k / 2001)) with known
    multiplicities, so the counts below a few thresholds are exact integers."""
    n = 2001
    mat = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]).tolil()
    mat[0, n - 1] = mat[n - 1, 0] = -1.0
    mat = mat.tocsr()
    eigs = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    for e in (0.5, 1.0, 3.9):
        assert count_below(mat, e) == int(np.sum(eigs < e))
    assert count_below(mat, 4.1) == n
    # E = 0 ties the ground state exactly; the documented upward nudge counts it
    assert count_below(mat, 0.0) == 1
    assert count_below(mat, -1e-9) == 0


def test_count_below_tied_threshold_retries_upward():
    # threshold exactly on an eigenvalue: the tiny upward nudges must count it
    a = np.diag([1.0, 2.0, 2.0, 3.0])
    assert count_below(a, 2.0) == 3  # nudge resolves the tie upward
    assert count_below(a, 2.0 + 1e-6) == 3
    assert count_below(a, 1.0 - 1e-12) == 0


def test_count_below_rejects_complex():
    a = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        count_below(a, 0.5)


def test_count_agrees_between_dense_and_sparse_paths():
    n = 700
    diag = np.random.default_rng(9).uniform(0, 4, n)
    mat = sp.diags([np.full(n - 1, -1.0), diag, np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
    for e in (0.5, 2.0):
        assert count_below(mat, e, dense_cutoff=10) == count_below(mat, e, dense_cutoff=5000)


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
    op = mat.toarray() if path == "dense" else mat.tocsr()
    with pytest.raises(ValueError, match="finite"):
        count_below(op, energy, dense_cutoff=10)
