"""Extremal eigenpairs and inertia-based spectral counting.

Small problems go through dense LAPACK; large sparse ones through ARPACK
(smallest pairs) or a symmetric-mode sparse LDL^T factorization (counting).
Every returned eigenpair carries an explicitly computed residual so callers
never have to trust solver-internal convergence flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CUTOFF = 2000
COUNT_DENSE_CUTOFF = 600


class CountBreakdownError(RuntimeError):
    """Factorization hit a (near-)zero pivot even after shifting E."""


def _as_matrix(op):
    mat = getattr(op, "matrix", op)
    if sp.issparse(mat):
        return mat.tocsr()
    return np.asarray(mat)


def _fix_sign(vec):
    """Deterministic sign for real eigenvectors: positive sum (fallback: max entry)."""
    s = vec.sum()
    if abs(s) < 1e-12 * np.linalg.norm(vec):
        s = vec[np.argmax(np.abs(vec))]
    return vec if s > 0 else -vec


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    method: str

    @property
    def ground_energy(self):
        return float(self.values[0])

    @property
    def ground_vector(self):
        return self.vectors[:, 0]


def smallest_eigenpairs(op, k=1, tol=1e-10, dense_cutoff=DENSE_CUTOFF):
    """k smallest eigenpairs, ascending, with residual norms ||Av - lambda v||."""
    mat = _as_matrix(op)
    n = mat.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for size {n}")
    hermitian_defect = _hermitian_defect(mat)
    if hermitian_defect > 1e-10:
        raise ValueError(f"operator is not Hermitian (defect {hermitian_defect:.2e})")
    if n <= dense_cutoff or k > n - 2:
        dense = mat.toarray() if sp.issparse(mat) else mat
        vals, vecs = np.linalg.eigh(dense)
        vals, vecs = vals[:k], vecs[:, :k]
        method = "dense"
    else:
        vals, vecs = spla.eigsh(mat, k=k, which="SA", tol=tol, maxiter=max(5000, 40 * n))
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        method = "arpack"
    if not np.iscomplexobj(vecs):
        vecs = np.column_stack([_fix_sign(vecs[:, j]) for j in range(vecs.shape[1])])
    res = np.array(
        [np.linalg.norm(mat @ vecs[:, j] - vals[j] * vecs[:, j]) for j in range(k)]
    )
    return EigenResult(values=vals, vectors=vecs, residuals=res, method=method)


def _hermitian_defect(mat):
    if sp.issparse(mat):
        delta = mat - mat.getH()
        return 0.0 if delta.nnz == 0 else float(np.max(np.abs(delta.data)))
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def _dense_inertia(shifted, scale):
    """Count of negative eigenvalues via LDL^T block diagonal; None on near-zero pivot."""
    _, d, _ = sla.ldl(shifted)
    neg = 0
    i, n = 0, d.shape[0]
    while i < n:
        if i + 1 < n and (d[i, i + 1] != 0.0 or d[i + 1, i] != 0.0):
            block = d[i : i + 2, i : i + 2]
            ev = np.linalg.eigvalsh(block)
            if np.min(np.abs(ev)) <= 1e-13 * scale:
                return None
            neg += int(np.sum(ev < 0.0))
            i += 2
        else:
            piv = d[i, i]
            if abs(piv) <= 1e-13 * scale:
                return None
            if piv < 0.0:
                neg += 1
            i += 1
    return neg


def _sparse_inertia(shifted, scale):
    """Negative-pivot count from SuperLU in symmetric mode.

    With diagonal (threshold-0) pivoting and a symmetric fill ordering the
    factorization is a congruence, so the signs of U's diagonal give the
    inertia.  Returns None when the row/column permutations differ or a pivot
    is numerically zero (caller retries with a shifted E).
    """
    try:
        lu = spla.splu(
            shifted.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    diag = lu.U.diagonal()
    if np.any(~np.isfinite(diag)) or np.any(np.abs(diag) <= 1e-13 * scale):
        return None
    return int(np.sum(diag < 0.0))


def count_below(op, energy, dense_cutoff=COUNT_DENSE_CUTOFF):
    """Number of eigenvalues of a real symmetric operator strictly below ``energy``.

    Exact integer count by Sylvester inertia.  If ``energy`` ties an
    eigenvalue (zero pivot), the threshold is nudged upward by tiny shifts
    (1e-12, 1e-10, 1e-8) before giving up.  A non-finite ``energy`` raises
    ``ValueError`` before any factorization.
    """
    if not np.isfinite(energy):
        raise ValueError(f"count_below threshold must be finite, got {energy!r}")
    mat = _as_matrix(op)
    if np.iscomplexobj(mat.data if sp.issparse(mat) else mat):
        raise ValueError("count_below expects a real symmetric operator")
    n = mat.shape[0]
    scale = max(1.0, _norm_estimate(mat), abs(energy))
    for shift in (0.0, 1e-12 * scale, 1e-10 * scale, 1e-8 * scale):
        e = energy + shift
        if n <= dense_cutoff or not sp.issparse(mat):
            dense = mat.toarray() if sp.issparse(mat) else mat
            count = _dense_inertia(dense - e * np.eye(n), scale)
        else:
            count = _sparse_inertia(mat - e * sp.identity(n, format="csr"), scale)
        if count is not None:
            return count
    raise CountBreakdownError(f"inertia count failed at E={energy!r} after retries")


def _norm_estimate(mat):
    if sp.issparse(mat):
        return float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0
    return float(np.linalg.norm(mat, np.inf)) if mat.size else 0.0
