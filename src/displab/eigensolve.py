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
from scipy.linalg.lapack import dpttrf

DENSE_CUTOFF = 2000
COUNT_DENSE_CUTOFF = 600
_ZERO_PIVOT = 1e-13  # a pivot within this times scale of zero is a tie
_TIE_NUDGES = (1e-12, 1e-10, 1e-8)  # upward threshold shifts after a tie, times scale


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
            if np.min(np.abs(ev)) <= _ZERO_PIVOT * scale:
                return None
            neg += int(np.sum(ev < 0.0))
            i += 2
        else:
            piv = d[i, i]
            if abs(piv) <= _ZERO_PIVOT * scale:
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
    if np.any(~np.isfinite(diag)) or np.any(np.abs(diag) <= _ZERO_PIVOT * scale):
        return None
    return int(np.sum(diag < 0.0))


def count_below(op, energy, dense_cutoff=COUNT_DENSE_CUTOFF):
    """Number of eigenvalues of a real symmetric operator strictly below ``energy``.

    ``energy`` is a scalar, which gives an ``int``, or a 1-d array of
    thresholds, which gives an int array of counts in the same order.  Counts
    are exact integers by Sylvester inertia; a non-finite threshold raises
    ``ValueError`` before any factorization.

    A sparse real symmetric periodic chain (N >= 3, entries only at i and
    i +- 1 mod N: every d = 1 torus operator) counts all thresholds in one
    cyclic LDL^T sweep vectorized over the thresholds (``_chain_counts``).
    The sweep settles a threshold only when it counts the same 1e-13 * scale
    below it and 2e-8 * scale above it, with no pivot within 1e-13 * scale
    of zero, every value finite and each last pivot clear of the rounding
    bound of the sum that forms it.  Every other threshold, and every
    threshold of any other operator, takes the per-threshold factorization:
    dense LDL^T up to ``dense_cutoff`` rows, sparse symmetric-mode LU above.
    If a threshold ties an eigenvalue (zero pivot) that factorization nudges
    it upward by tiny shifts (1e-12, 1e-10, 1e-8 times scale) before giving
    up with ``CountBreakdownError``.  The sweep's bracket spans those nudges,
    so the array form gives the same integers as one scalar call per
    threshold.  Here scale = max(1, ||A||_inf, |E|).
    """
    energies = np.asarray(energy, dtype=float)
    if energies.ndim > 1:
        raise ValueError("count_below takes a scalar or a 1-d array of thresholds")
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"count_below threshold must be finite, got {energy!r}")
    mat = _as_matrix(op)
    if np.iscomplexobj(mat.data if sp.issparse(mat) else mat):
        raise ValueError("count_below expects a real symmetric operator")
    norm = _norm_estimate(mat)
    flat = np.atleast_1d(energies)
    counts = np.full(flat.shape, -1)
    chain = _periodic_chain(mat)
    if chain is not None:
        counts = _chain_counts(*chain, flat, norm)
    todo = np.flatnonzero(counts < 0)
    if todo.size:
        count_one = _threshold_counter(mat, norm, dense_cutoff)
        for k in todo:
            counts[k] = count_one(float(flat[k]))
    return int(counts[0]) if energies.ndim == 0 else counts


def _threshold_counter(mat, norm, dense_cutoff):
    """The per-threshold count as a function of E: one factorization per call."""
    dense = mat.shape[0] <= dense_cutoff or not sp.issparse(mat)
    base = mat.toarray() if dense and sp.issparse(mat) else mat
    return lambda e: _inertia_count(base, e, max(1.0, norm, abs(e)), dense)


def _inertia_count(mat, energy, scale, dense):
    """One threshold by one factorization of ``mat - E``, nudging E up on a tie."""
    n = mat.shape[0]
    for nudge in (0.0,) + _TIE_NUDGES:
        e = energy + nudge * scale
        if dense:
            count = _dense_inertia(mat - e * np.eye(n), scale)
        else:
            count = _sparse_inertia(mat - e * sp.identity(n, format="csr"), scale)
        if count is not None:
            return count
    raise CountBreakdownError(f"inertia count failed at E={energy!r} after retries")


def _periodic_chain(mat):
    """``(a, b)`` of a sparse real symmetric periodic chain, else None.

    A periodic chain is N x N with N >= 3, has finite entries only at (i, i)
    and (i, i +- 1 mod N), and is exactly symmetric.  ``a[i] = A[i, i]`` and
    ``b[i] = A[i, i + 1 mod N]``, so ``b[N - 1]`` is the corner A[N - 1, 0].
    """
    if not sp.issparse(mat):
        return None
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


def _chain_counts(diag, off, energies, norm):
    """Counts below every E by ``_chain_sweep``; -1 where the per-threshold path decides.

    The per-threshold count gives the count at E, or after a zero pivot the
    count at E nudged up by at most 1e-8 * scale.  The sweep therefore
    settles E only when it counts the same at E - 1e-13 * scale and at
    E + 2e-8 * scale: no eigenvalue lies between, and every answer the
    per-threshold count could give is that count.
    """
    scale = np.maximum(max(1.0, norm), np.abs(energies))
    bracket = np.concatenate(
        [energies - _ZERO_PIVOT * scale, energies + 2.0 * _TIE_NUDGES[-1] * scale]
    )
    lower, upper = _chain_sweep(diag, off, bracket, norm).reshape(2, -1)
    return np.where((lower >= 0) & (lower == upper), lower, -1)


def _chain_sweep(diag, off, energies, norm):
    """Negative pivots of the cyclic LDL^T of A - E for every E; -1 where flagged.

    Rows 0..N-2 form a tridiagonal block with pivots
    d_i = (a_i - E) - b_{i-1}^2 / d_{i-1}.  The corner c = b_{N-1} fills the
    last column: u_0 = c, u_i = c * prod_{j<i} (-b_j / d_j), and u_{N-2} also
    holds b_{N-2}.  The last pivot is (a_{N-1} - E) - sum_i u_i^2 / d_i.
    """
    n = diag.shape[0]
    zero = _ZERO_PIVOT * np.maximum(max(1.0, norm), np.abs(energies))
    b2 = off**2
    piv = diag[: n - 1, None] - energies[None, :]
    with np.errstate(all="ignore"):
        for i in range(1, n - 1):
            piv[i] -= b2[i - 1] / piv[i - 1]
    last, cancel = _last_pivot(diag[n - 1] - energies, off, piv)
    ok = (
        np.all(np.isfinite(piv), axis=0)
        & ~np.any((piv <= zero) & (piv >= -zero), axis=0)
        & (np.abs(last) > np.maximum(zero, cancel))
    )
    neg = np.sum(piv < 0.0, axis=0) + (last < 0.0)
    return np.where(ok, neg, -1)


def _last_pivot(shifted_last, off, piv):
    """Last pivot of the cyclic LDL^T from the first N - 1, and its rounding bound.

    ``piv`` holds the pivots d_0..d_{N-2} (one column per threshold) and
    ``shifted_last`` is a_{N-1} - E.  An overflow gives an infinite or NaN
    bound, which no last pivot clears.  Works in place on one array of the
    size of ``piv``.
    """
    n = piv.shape[0] + 1
    corner, tail = off[n - 1], off[n - 2]
    with np.errstate(all="ignore"):
        # fill[i - 1] = u_i = c * prod_{j<i} (-b_j / d_j) for i = 1..N-2
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
        total = (
            np.abs(shifted_last)
            + corner**2 / np.abs(piv[0])
            + terms.sum(axis=0)
            + size_tail**2 / np.abs(piv[n - 2])
        )
        last = shifted_last - signed
        # Cancellation bound.  u_i is c times i quotients -b_j / d_j, so it
        # carries at most 2i + 1 roundings (u_{N-2} one more, relative to
        # |b_{N-2}| + |c prod|); squaring doubles that and the quotient by
        # d_i adds one, so the term u_i^2 / d_i is off by at most
        # (4i + 4) eps of its size.  Summing N - 1 terms adds (N - 1) eps of
        # their summed size and the final subtraction one more.  With
        # total = |a_{N-1} - E| + sum size_i^2 / |d_i| (size_i = |u_i| but
        # for the last) the computed last pivot is within 5 N eps * total of
        # the exact one for these d_i, to first order; its sign is trusted
        # only when it clears twice that.  (At N = 2001 the bound is
        # 4.4e-12 * total, so the pivot rule's 1e-13 alone is too tight.)
        cancel = 10.0 * n * np.finfo(float).eps * total
    return last, cancel


def ground_bisect(op, hi):
    """Smallest eigenvalue of a PSD operator by 48 bisection steps on [0, hi].

    Returns ``hi`` when no eigenvalue lies below it.  Each step asks whether
    some eigenvalue lies strictly below the midpoint, with the answer of
    ``count_below(op, mid) > 0``: on a periodic chain through tests for
    positive definiteness of A - E at E just above and below the midpoint
    (``_chain_has_level_below``), and through the per-threshold count for
    the steps those leave open and on any other operator.
    """
    mat = _as_matrix(op)
    norm = _norm_estimate(mat)
    count_one = _threshold_counter(mat, norm, COUNT_DENSE_CUTOFF)
    chain = _periodic_chain(mat)

    def below(e):
        if chain is not None:
            found = _chain_has_level_below(*chain, e, max(1.0, norm, abs(e)))
            if found is not None:
                return found
        return count_one(e) > 0

    if not below(hi):
        return hi
    lo = 0.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _chain_has_level_below(diag, off, energy, scale):
    """Whether some eigenvalue of the chain lies below ``energy``, or None.

    The answer is the per-threshold count's, so it is given only where that
    count cannot meet a zero pivot (one within z = 1e-13 * scale of zero)
    and nudge E upward.  The margin m = z / 8 exceeds the rounding of the
    test for positive definiteness.  If A - (E + z + m) is positive
    definite, lambda_min > E + z; every pivot of any symmetric LDL^T of
    A - E then exceeds z (its Schur complements dominate
    lambda_min(A - E) * I), so the count is 0: False.  If A - (E - m) is
    not, lambda_min < E and the count, nudged or not, is at least 1: True.
    Otherwise None.
    """
    zero = _ZERO_PIVOT * scale
    if _chain_positive_definite(diag, off, energy + 1.125 * zero):
        return False
    if _chain_positive_definite(diag, off, energy - 0.125 * zero) is False:
        return True
    return None


def _chain_positive_definite(diag, off, energy):
    """Whether the chain's A - E is positive definite; None when too close to call.

    A - E is positive definite when its leading tridiagonal block is
    (LAPACK ``dpttrf`` stops at the first pivot <= 0) and the last pivot of
    the cyclic LDL^T, formed from that block's pivots, is positive.
    """
    n = diag.shape[0]
    piv, _, info = dpttrf(diag[: n - 1] - energy, off[: n - 2])
    if info > 0:
        return False
    last, cancel = _last_pivot(np.array([diag[n - 1] - energy]), off, piv[:, None])
    if not abs(last[0]) > cancel[0]:
        return None
    return bool(last[0] > 0.0)


def _norm_estimate(mat):
    if sp.issparse(mat):
        return float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0
    return float(np.linalg.norm(mat, np.inf)) if mat.size else 0.0
