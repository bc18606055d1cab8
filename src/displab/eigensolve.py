"""Extremal eigenpairs and inertia-based spectral counting.

``smallest_eigenpairs`` and ``dense_levels`` take a sparse matrix.  The
counting entries (``count_below_stack``, ``ground_bisect``) take the
``discretize.DiagonalStack`` a run builds, and ``count_below_stack`` a 1-d
array of thresholds; any other operator type is a ``TypeError``.  The stack
gives the norms and, on a ring, the periodic-chain forms counting reads,
and an operator's CSR matrix is built only where a path factors,
certifies or diagonalizes it.  Small problems go through dense LAPACK;
large ones through ARPACK (smallest pairs) or a symmetric-mode sparse
LDL^T factorization (counting).  Periodic chains (every d = 1 operator) are
counted by a cyclic LDL^T sweep over all thresholds, and over a whole
stack of chains at once.  Other large sparse operators (d = 2) are factored
once, at their largest threshold, and the thresholds below it are settled
from certified Ritz values of a Lanczos run on that same factor's inverse,
which starts from the constant vector and stops as soon as its certificate
settles them.
Every returned eigenpair carries an explicitly computed residual so callers
never have to trust solver-internal convergence flags.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dpttrf, dstevd, dsytrd, dsytrd_lwork, dsytrf, dsytrf_lwork

from .discretize import DiagonalStack

DENSE_CUTOFF = 2000
COUNT_DENSE_CUTOFF = 600
COUNT_DENSE_FALLBACK = 8000  # most rows dense LDL^T counts when SuperLU refuses
RITZ_CAP = 16  # most eigenvalues below the top threshold that settle the ones below
_RITZ_EXTRA = 8  # Lanczos steps beyond 2 K before the unsettled thresholds go back
_START_NOISE = 1e-3  # weight of the random part of the Lanczos start for K > 1
_ZERO_PIVOT = 1e-13  # a pivot within this times scale of zero is a tie
_TIE_NUDGES = (1e-12, 1e-10, 1e-8)  # upward threshold shifts after a tie, times scale
_EPS = np.finfo(float).eps


class CountBreakdownError(RuntimeError):
    """Factorization hit a (near-)zero pivot even after shifting E."""


def _sparse(op):
    """The CSR matrix of a sparse matrix; any other type is a ``TypeError``."""
    if not sp.issparse(op):
        raise TypeError(f"eigensolve takes a sparse matrix, not {type(op).__name__}")
    return op.tocsr()


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


def smallest_eigenpairs(op, k):
    """k smallest eigenpairs, ascending, with residual norms ||Av - lambda v||.

    ``op`` is a sparse matrix, Hermitian to 1e-10.  Up to DENSE_CUTOFF rows
    (read at call time) the pairs come from ``np.linalg.eigh``, above it
    from ARPACK at tolerance 1e-10.
    """
    mat = _sparse(op)
    n = mat.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for size {n}")
    hermitian_defect = _hermitian_defect(mat)
    if hermitian_defect > 1e-10:
        raise ValueError(f"operator is not Hermitian (defect {hermitian_defect:.2e})")
    if n <= DENSE_CUTOFF or k > n - 2:
        vals, vecs = np.linalg.eigh(mat.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        method = "dense"
    else:
        vals, vecs = spla.eigsh(mat, k=k, which="SA", tol=1e-10, maxiter=max(5000, 40 * n))
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        method = "arpack"
    if not np.iscomplexobj(vecs):
        vecs = np.column_stack([_fix_sign(vecs[:, j]) for j in range(vecs.shape[1])])
    res = np.array(
        [np.linalg.norm(mat @ vecs[:, j] - vals[j] * vecs[:, j]) for j in range(k)]
    )
    return EigenResult(values=vals, vectors=vecs, residuals=res, method=method)


def dense_levels(matrix, lo, hi):
    """``eigh``'s lowest eigenvalue of the real symmetric sparse ``matrix``
    and every other one in [lo, hi], ascending and to the bit.

    ``np.linalg.eigh`` is LAPACK ``dsyevd``: ``dsytrd`` reduces the lower
    triangle to a tridiagonal T, ``dstedc`` solves T by divide and conquer
    and the vectors are transformed back.  The eigenvalues are final after
    the second stage, so this runs ``dsytrd`` with its optimal (blocked)
    workspace and then solves T one of two ways:

    - where ``dstedc`` would cut T once into two halves that it divides
      alike (``_short_merge_norm``), ``_top_merge_levels`` runs ``dstedc``'s own
      steps with the top merge cut short: no eigenvectors, and secular
      roots only for the lowest level and those that may lie in the window;
    - otherwise ``dstevd`` with vectors, the entry that calls ``dstedc`` as
      ``dsyevd`` does.

    ``eigvalsh``, ``subset_by_index``, an unblocked ``dsytrd`` and
    ``dstevd`` without vectors (``dsterf``) all give other bits.  Pass
    ``lo = hi = -inf`` for the lowest level alone.  Raises
    ``np.linalg.LinAlgError`` naming the LAPACK routine that reports a
    failure, as ``eigh`` raises.
    """
    if np.iscomplexobj(matrix):
        raise ValueError("dense_levels expects a real symmetric matrix")
    a = matrix.toarray(order="F")  # the layout dsytrd overwrites without a copy
    n = a.shape[0]
    _, d, e, _, info = dsytrd(a, lower=1, lwork=_lwork(dsytrd_lwork, n), overwrite_a=1)
    _lapack_ok("dsytrd", info)
    norm = _short_merge_norm(d, e)
    if norm is not None:
        levels = _top_merge_levels(d, e, norm, lo, hi)
    elif n > 1:  # the dstevd wrapper refuses an empty off-diagonal
        levels, _, info = dstevd(d, e, compute_v=1, overwrite_d=1)
        _lapack_ok("dstevd", info)
    else:
        levels = d
    keep = (levels >= lo) & (levels <= hi)
    keep[:1] = True
    return levels[keep]


def _lapack_ok(routine, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"dense_levels: {routine} reports LAPACK info {info}")


_SMLSIZ = 25  # ILAENV(9, 'DSTEDC'): dstedc and dlaed0 hand at most this many rows to dsteqr
_SPLIT_EPS = 0.5 * _EPS  # dlamch('E'), the relative off-diagonal below which dstedc splits T
_SMLNUM = np.finfo(float).tiny / _EPS  # dstevd's SMLNUM = dlamch('S') / dlamch('P')
_RMIN, _RMAX = np.sqrt(_SMLNUM), np.sqrt(1.0 / _SMLNUM)  # dstevd leaves ||T|| here unscaled
_ROOT_SLACK = 1e-9  # in units of ||T||: a root whose interval misses the window by less is solved


def _halvings(n):
    """How often ``dlaed0`` halves n rows: until its largest piece,
    ceil(n / 2^k) rows, has at most _SMLSIZ."""
    k = 0
    while n > _SMLSIZ:
        n, k = (n + 1) // 2, k + 1
    return k


def _short_merge_norm(d, e):
    """||T|| (``dlanst``'s max norm) if ``dsytrd``'s tridiagonal T, diagonal
    ``d`` and off-diagonal ``e``, takes ``_top_merge_levels``, else None.

    That needs what makes ``dstedc`` and ``dlaed0`` cut T once at the top
    into two halves of the same tree: more than _SMLSIZ rows, a norm that
    ``dstevd`` does not scale, no off-diagonal |e_i| at or below
    eps sqrt|d_i| sqrt|d_i+1|, where ``dstedc`` splits T (with a factor 2
    to spare), and the same number of halvings in both halves, which holds
    for every even size.
    """
    n = d.size
    if n <= _SMLSIZ or _halvings(n // 2) != _halvings(n - n // 2):
        return None
    norm = max(np.max(np.abs(d)), np.max(np.abs(e)))
    if not _RMIN <= norm <= _RMAX:  # a NaN norm fails too
        return None
    tiny = _SPLIT_EPS * np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:]))
    return norm if np.all(np.abs(e) > 2.0 * tiny) else None


@functools.cache
def _merge_routines():
    """``dlaed0``, ``dlaed2`` and ``dlaed4`` of SciPy's LAPACK, by their
    pointers in ``scipy.linalg.cython_lapack``: every argument a pointer,
    every integer 32-bit."""
    pyapi = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", pyapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", pyapi)
    )

    def bind(name, n_args):
        capsule = cython_lapack.__pyx_capi__[name]
        address = get_pointer(capsule, get_name(capsule))
        return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)

    return bind("dlaed0", 12), bind("dlaed2", 17), bind("dlaed4", 8)


def _top_merge_levels(d, e, norm, lo, hi):
    """The lowest level of T and all in [lo, hi], among others, ascending:
    ``dstedc``'s bits without the top merge's eigenvectors.  Overwrites
    ``d`` and ``e``.

    The steps are ``dstedc``'s and ``dlaed0``'s (icompq = 2) for one block:
    scale T by 1 / ||T|| as ``dlascl`` does, subtract |e| at the cut
    n1 = n // 2 from the two rows beside it and solve each half with
    LAPACK's own ``dlaed0``, which returns it sorted.  The top merge then
    starts as ``dlaed1`` does, in ``dlaed1``'s workspace: z from the halves'
    boundary rows, and ``dlaed2`` to deflate.  Of its K secular roots,
    ``dlaed4`` solves root 1 and each one whose interlacing interval
    (dlamda_j, dlamda_j+1) meets the scaled window, as ``dlaed3`` would;
    the deflated levels come from ``dlaed2``.  Scaled back by ||T|| they
    are ``dstedc``'s levels.  The routines hold bare pointers, so every
    array stays bound to a name until the last call.
    """
    laed0, laed2, laed4 = _merge_routines()
    byref, c_int = ctypes.byref, ctypes.c_int
    n, n1 = d.size, d.size // 2
    d *= 1.0 / norm
    e *= 1.0 / norm
    d[n1 - 1 : n1 + 1] -= abs(e[n1 - 1])
    q = np.zeros((n, n), order="F")  # zero outside the halves' blocks, as dstedc's Z
    work = np.empty(n * n + 4 * n)  # z, dlamda, w, then dlaed2's Q2 (n^2 + n, not N1^2 + N2^2)
    iwork = np.empty(5 * n + 3, dtype=np.int32)
    at_d, at_e, at_q, at_work, at_iwork = map(_address, (d, e, q, work, iwork))
    at_rho = at_e + 8 * (n1 - 1)  # dlaed2 doubles |rho| in place, as in dlaed1
    info, k, order = c_int(), c_int(), c_int(n)
    for start, size in ((0, n1), (n1, n - n1)):
        laed0(
            byref(c_int(2)), byref(order), byref(c_int(size)), at_d + 8 * start,
            at_e + 8 * start, at_q + 8 * (n + 1) * start, byref(order), at_work, byref(order),
            at_work, at_iwork, byref(info),
        )
        _lapack_ok("dlaed0", info.value)
    work[:n1], work[n1:n] = q[n1 - 1, :n1], q[n1, n1:]
    iwork[4 * n : 4 * n + n1] = np.arange(1, n1 + 1)  # INDXQ: each half comes back sorted
    iwork[4 * n + n1 : 5 * n] = np.arange(1, n - n1 + 1)
    laed2(
        byref(k), byref(order), byref(c_int(n1)), at_d, at_q, byref(order),
        at_iwork + 16 * n, at_rho, at_work, at_work + 8 * n, at_work + 16 * n, at_work + 24 * n,
        at_iwork, at_iwork + 4 * n, at_iwork + 12 * n, at_iwork + 8 * n, byref(info),
    )
    _lapack_ok("dlaed2", info.value)
    poles = work[n : n + k.value]  # dlamda; root j lies between poles j and j + 1
    tops = np.append(poles[1:], np.inf)[: k.value]
    near = (tops >= lo / norm - _ROOT_SLACK) & (poles <= hi / norm + _ROOT_SLACK)
    near[:1] = True
    for j in np.flatnonzero(near).tolist():  # root j + 1 into D(j + 1), its DELTA into Q2
        laed4(
            byref(k), byref(c_int(j + 1)), at_work + 8 * n, at_work + 16 * n,
            at_work + 24 * n, at_rho, at_d + 8 * j, byref(info),
        )
        _lapack_ok("dlaed4", info.value)
    kept = np.concatenate([d[: k.value][near], d[k.value :]])
    return np.sort(kept * norm)


def _address(array):
    """Where ``array``'s data starts."""
    return array.__array_interface__["data"][0]


@functools.cache
def _lwork(query, n):
    """The optimal workspace of a lower-storage LAPACK call of order n, as
    ``query`` (``dsytrd_lwork``, ``dsytrf_lwork``) gives it."""
    work, info = query(n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{query.__name__}: LAPACK info {info}")
    return int(work)


def _hermitian_defect(mat):
    delta = mat - mat.getH()
    return 0.0 if delta.nnz == 0 else float(np.max(np.abs(delta.data)))


def _dense_inertia(shifted, scale):
    """``(count, None)``: negative eigenvalues via LDL^T block diagonal; None on near-zero pivot.

    LAPACK ``dsytrf`` (lower storage, the workspace ``scipy.linalg.ldl``
    asks for, and so ``ldl``'s D) factors the array.  A 2 x 2 block of D
    at k, k + 1 stores two equal negative entries in ``ipiv`` and every
    other entry is positive, so the negative entries, in order, are the
    blocks' pairs.  Each block counts its negative eigenvalues, each 1 x 1
    pivot its sign.  A non-finite entry raises ``ValueError``, as in ``ldl``.
    """
    ldu, ipiv, _ = dsytrf(
        np.asarray_chkfinite(shifted), lower=1, lwork=_lwork(dsytrf_lwork, shifted.shape[0]),
        overwrite_a=1,
    )
    paired = np.flatnonzero(ipiv < 0)
    top = paired[0::2]
    pivots = np.delete(ldu.diagonal(), paired)
    blocks = np.empty((top.size, 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = ldu[top, top], ldu[top + 1, top + 1]
    blocks[:, 1, 0] = blocks[:, 0, 1] = ldu[top + 1, top]
    ev = np.linalg.eigvalsh(blocks)
    zero = _ZERO_PIVOT * scale
    if np.any(np.abs(pivots) <= zero) or np.any(np.abs(ev) <= zero):
        return None
    return int(np.sum(pivots < 0.0) + np.sum(ev < 0.0)), None


def _sparse_inertia(shifted, scale):
    """Negative-pivot count and factor from SuperLU in symmetric mode.

    With diagonal (threshold-0) pivoting and a symmetric fill ordering the
    factorization is a congruence, so the signs of U's diagonal give the
    inertia.  Returns ``(count, factor)``, or None when SuperLU refuses, the
    row/column permutations differ or a pivot is numerically zero (caller
    retries with a shifted E).
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
    # Reading U made SuperLU build CSC copies of L and U, which it caches on
    # the factor and hands out again on every access (about 36 MB at
    # N = 43,264).  Only ``lu.solve`` is used from here on, so the copies'
    # arrays are released now rather than with the factor, after the Ritz step.
    for copy in (lu.L, lu.U):
        copy.data = np.empty(0, dtype=copy.data.dtype)
        copy.indices = np.empty(0, dtype=copy.indices.dtype)
        copy.indptr = np.zeros_like(copy.indptr)
    if np.any(~np.isfinite(diag)) or np.any(np.abs(diag) <= _ZERO_PIVOT * scale):
        return None
    return int(np.sum(diag < 0.0)), lu


class _Operator(NamedTuple):
    """One operator as the per-operator counting paths read it.

    ``matrix()`` builds its CSR matrix, which a path asks for only where it
    factors, certifies or diagonalizes; ``slots`` are where that matrix
    stores its diagonal, ``norm`` is its largest absolute row sum and
    ``chain`` its periodic-chain form ``(a, b)``, or None.
    """

    matrix: Callable[[], sp.csr_matrix]
    slots: np.ndarray
    norm: float
    chain: tuple | None


def _operators(stack):
    """The ``_Operator`` of each operator of a ``discretize.DiagonalStack``,
    with the norms and chain forms the stack reads off its data; any other
    type is a ``TypeError`` that names it.  No CSR matrix is built here."""
    if not isinstance(stack, DiagonalStack):
        raise TypeError(f"counting takes a discretize.DiagonalStack, not {type(stack).__name__}")
    return [
        _Operator(functools.partial(stack.__getitem__, k), stack.slots, float(norm), chain)
        for k, (norm, chain) in enumerate(zip(stack.norms(), stack.chains()))
    ]


def count_below_stack(stack, energies):
    """Counts below each threshold for every operator of a stack: a (K, T) int array.

    Entry (k, t) is the number of eigenvalues of ``stack[k]`` strictly below
    ``energies[t]``, for a ``discretize.DiagonalStack`` ``stack``; any other
    type is a ``TypeError``.  ``energies`` must be a 1-d array, and a 0-d or
    2-d one, like a non-finite threshold, raises ``ValueError`` before any
    factorization.  Counts are exact integers by Sylvester inertia.

    An operator on a ring (every d = 1 stack) is a periodic chain, read off
    the stack without building its matrix (``DiagonalStack.chains``); all
    thresholds of all its chains are counted in one cyclic LDL^T sweep
    vectorized over (operator, threshold) pairs (``_chain_counts``).  The
    sweep settles a threshold only when it counts the same 1e-13 * scale
    below it and 2e-8 * scale above it, with no pivot within 1e-13 * scale
    of zero, every value finite and each last pivot clear of the rounding
    bound of the sum that forms it.  Each column sees the operations of a
    sweep of its own, so the stack changes no count.

    Every other threshold takes the per-threshold factorization of
    ``stack[k]``, built then and dropped after: dense LDL^T up to
    COUNT_DENSE_CUTOFF rows (read at call time), sparse symmetric-mode LU
    (SuperLU) above.  If a threshold ties an eigenvalue (zero pivot) that
    factorization nudges it upward by tiny shifts (1e-12, 1e-10, 1e-8 times
    scale).  If SuperLU refuses E and every nudge, dense LDL^T takes over up
    to COUNT_DENSE_FALLBACK rows; past that, or if dense LDL^T refuses too,
    ``CountBreakdownError`` names every path tried.  So a stack of d = 2
    operators is counted one operator at a time.

    Where a sparse operator would send two or more thresholds to SuperLU,
    it is factored once at the largest, E_top, with the nudges as above;
    that gives K and the shift E' it factored at.  For
    K <= RITZ_CAP, a Lanczos run on (A - E')^-1, one ``lu.solve`` of that
    same factor per step, starts from the constant vector (plus a small
    fixed random part for K > 1) and after each step gives K Ritz pairs
    (theta, v).  Each gives the interval theta +- (||A v - theta v|| / ||v||
    plus a bound on the rounding of that residual), which holds an
    eigenvalue.  If the K intervals are pairwise disjoint and lie below E',
    they hold the K eigenvalues below E'.  A lower threshold E is then
    settled if E + 2e-8 * scale < E' and no interval meets
    [E - 1e-13 * scale, E + 2e-8 * scale]; its count is the number of
    intervals below that bracket.  The run stops as soon as every lower
    threshold the intervals can settle is settled, or after 2 K + 8 steps.
    For K = 0 every threshold so far below E' counts 0 without a run.  Every
    threshold left over, and every one when K exceeds the cap or no step
    certifies its intervals (an exactly degenerate level, whose copies one
    start vector cannot all find, never does), takes the per-threshold
    factorization.

    Both the sweep's and the Ritz route's bracket span the nudges, so the
    array form gives the same integers as one call per threshold.
    Here scale = max(1, ||A||_inf, |E|).
    """
    thresholds = np.asarray(energies, dtype=float)
    if thresholds.ndim != 1:
        raise ValueError(
            f"count_below_stack takes a 1-d array of thresholds, not a {thresholds.ndim}-d one"
        )
    if not np.all(np.isfinite(thresholds)):
        raise ValueError(f"count_below_stack threshold must be finite, got {energies!r}")
    return _count(_operators(stack), thresholds)


def _count(ops, energies):
    """``count_below_stack`` of the ``_Operator`` records ``ops``."""
    rows, chains = [], {}
    for op in ops:
        rows.append(np.full(energies.size, -1))
        if op.chain is not None and energies.size:
            chains.setdefault(op.chain[0].size, []).append((op, rows[-1]))
        else:
            _count_rest(op, rows[-1], energies)
    for group in chains.values():
        swept = _chain_counts([op for op, _ in group], energies)
        for (op, row), counts in zip(group, swept):
            row[:] = counts
            _count_rest(op, row, energies)
    return np.array(rows, dtype=int).reshape(len(rows), energies.size)


def _count_rest(op, row, energies):
    """Fill the entries of ``row`` still -1: by the Ritz route, else one
    factorization per threshold; the operator's matrix is built only here."""
    todo = np.flatnonzero(row < 0)
    if todo.size:
        mat = op.matrix()
        count_one = _threshold_counter(mat, op.slots, op.norm)
        if todo.size > 1 and mat.shape[0] > COUNT_DENSE_CUTOFF:
            row[todo] = _ritz_counts(mat, op.norm, count_one, energies[todo])
            _trim_heap()
        for k in np.flatnonzero(row < 0):
            row[k] = count_one(float(energies[k]))[0]


def _threshold_counter(mat, slots, norm):
    """The per-threshold count of the CSR matrix ``mat``, with its diagonal at
    ``slots`` and norm ``norm``, as a function of E: one factorization per call.

    The function returns ``(count, E', factor)``: E' is the threshold the
    count holds at, E or E nudged up after a tie, and ``factor`` is
    SuperLU's factor of A - E' (None from dense LDL^T).  Dense LDL^T counts
    up to COUNT_DENSE_CUTOFF rows, SuperLU the rest; if
    SuperLU refuses E and all its nudges, dense LDL^T takes over up to
    COUNT_DENSE_FALLBACK rows.
    """
    paths = []
    if mat.shape[0] > COUNT_DENSE_CUTOFF:
        paths.append(("SuperLU", _sparse_shift(mat, slots), _sparse_inertia))
    if not paths or mat.shape[0] <= COUNT_DENSE_FALLBACK:
        paths.append(("dense LDL^T", _dense_shift(mat), _dense_inertia))
    return lambda e: _inertia_count(paths, e, max(1.0, norm, abs(e)))


def _inertia_count(paths, energy, scale):
    """One threshold by one factorization of ``A - E``, nudging E up on a tie.

    Each ``(name, shift, inertia)`` path in turn tries E and then E plus
    each nudge times scale; the first factorization that succeeds gives
    ``(count, E', factor)``.
    """
    for _, shift, inertia in paths:
        for nudge in (0.0,) + _TIE_NUDGES:
            e = energy + nudge * scale
            got = inertia(shift(e), scale)
            if got is not None:
                return got[0], e, got[1]
    tried = " and ".join(name for name, _, _ in paths)
    if len(paths) == 1 and paths[0][0] == "SuperLU":
        tried += f" (no dense LDL^T fallback above N = {COUNT_DENSE_FALLBACK})"
    raise CountBreakdownError(
        f"inertia count failed at E={energy!r}: {tried} refused E and its nudges "
        f"{', '.join(map(str, _TIE_NUDGES))} times scale {scale!r}"
    )


def _ritz_counts(mat, norm, count_one, energies):
    """Counts below ``energies`` from one factorization at the largest; -1 where undecided.

    The largest threshold is counted by the per-threshold path, which
    gives K, the shift E' it factored at and SuperLU's factor of A - E'.
    Up to RITZ_CAP, a Lanczos run on that factor's inverse
    (``_lanczos_pairs``) gives K Ritz pairs per step, and
    ``_certified_intervals`` tries to certify one interval around each.  A
    lower threshold E is settled when its bracket [E - 1e-13 * scale,
    E + 2e-8 * scale], the chain sweep's, lies below E' and meets no
    certified interval: all eigenvalues below E' are in the intervals, so the
    count is the same anywhere in the bracket, and so the per-threshold
    count at E or at any nudge of it is the number of intervals below the
    bracket.  The run stops once every threshold whose bracket lies below
    E' is settled or holds a certified interval whole, which no later step
    can settle.
    """
    counts = np.full(energies.size, -1)
    top = energies.max()
    count, shift, lu = count_one(float(top))
    counts[energies == top] = count
    if lu is None or count > RITZ_CAP:
        return counts
    scale = np.maximum(max(1.0, norm), np.abs(energies))
    lo = energies - _ZERO_PIVOT * scale
    hi = energies + 2.0 * _TIE_NUDGES[-1] * scale
    pending = (counts < 0) & (hi < shift)
    if count == 0:  # nothing below E': no interval to meet
        counts[pending] = 0
        return counts
    for vals, vecs in _lanczos_pairs(lu, shift, count):
        intervals = _certified_intervals(mat, norm, vals, vecs, shift)
        if intervals is None:
            continue
        lower, upper = (bound[:, None] for bound in intervals)
        meets = np.any((upper >= lo) & (lower <= hi), axis=0)
        settled = pending & ~meets
        counts[settled] = np.sum(upper < lo, axis=0)[settled]
        pending &= meets & ~np.any((lower >= lo) & (upper <= hi), axis=0)
        if not pending.any():
            break
    return counts


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _MALLOC_TRIM = None


def _trim_heap():
    """Hand the heap's free pages back to the OS where the C library is glibc.

    A SuperLU factor kept through the Ritz step leaves tens of MB free at
    the top of the heap when it goes, and glibc, whose trim threshold rises
    with every large block it has unmapped, keeps them; the next operator's
    factorization then starts that much higher.  ``malloc_trim(0)`` frees
    only unused pages.  Elsewhere this does nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _lanczos_pairs(lu, shift, k):
    """Ritz pairs ``(values, vectors)`` of A below ``shift``: one set per
    Lanczos step on (A - shift)^-1, from the k-th step on.

    ``lu`` factors A - shift, which has k negative eigenvalues, so the k most
    negative eigenvalues 1 / (lambda - shift) of its inverse S belong to the
    k eigenvalues below the shift.  Each step is one ``lu.solve``; the basis
    is reorthogonalized in full, twice.  The run starts from the constant
    vector: the ground state of a -Delta_h + V is positive (Perron-Frobenius),
    so the start has weight on it.  For k > 1 a fixed small random part
    (``default_rng(0)``) gives it weight on every other eigenvector too.
    After step j, with basis Q and T = Q^T S Q tridiagonal, each of the k
    most negative Ritz values of T, with vector y, gives the pair
    v = S Q y, one inverse step past the Ritz vector Q y and read off the
    solves already made, and lambda = shift + (Q y . v) / (v . v), the
    Rayleigh quotient of A at v.  A step whose T has fewer than k negative
    Ritz values yields nothing.  The run stops after 2 k + _RITZ_EXTRA
    steps, at the size of A, or when the Krylov space stops growing.
    """
    n = lu.shape[0]
    start = np.ones(n)
    if k > 1:
        start += _START_NOISE * np.random.default_rng(0).standard_normal(n)
    steps = min(n, 2 * k + _RITZ_EXTRA)
    basis, images = np.empty((steps + 1, n)), np.empty((steps, n))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        images[j] = lu.solve(basis[j])
        w = images[j].copy()
        q = basis[: j + 1]
        alpha[j] = 0.0
        for _ in range(2):
            coef = q @ w
            w -= coef @ q
            alpha[j] += coef[j]
        beta[j] = np.linalg.norm(w)
        if not (np.isfinite(alpha[j]) and np.isfinite(beta[j])):
            return
        if j + 1 >= k:
            theta, y = sla.eigh_tridiagonal(alpha[: j + 1], beta[:j])
            if theta[k - 1] < 0.0:
                y = y[:, :k]
                vecs = images[: j + 1].T @ y
                ritz = q.T @ y
                yield shift + np.sum(ritz * vecs, axis=0) / np.sum(vecs * vecs, axis=0), vecs
        if not beta[j] > _EPS * np.linalg.norm(images[j]):  # an invariant subspace: nothing new
            return
        basis[j + 1] = w / beta[j]


def _certified_intervals(mat, norm, vals, vecs, shift):
    """``(lower, upper)``, ascending: one interval per pair ``(vals[i],
    vecs[:, i])`` of ``mat``, whose norm is ``norm``, each holding an
    eigenvalue, if the intervals are pairwise disjoint and lie below
    ``shift``; else None.

    Any pair (theta, v) of a symmetric A has an eigenvalue within
    ||A v - theta v|| / ||v|| of theta, so k pairwise disjoint such
    intervals below the shift hold k distinct eigenvalues; where the inertia
    of A - shift says k lie below it, they are all there are.
    """
    n = mat.shape[0]
    width = np.linalg.norm(mat @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
    # Rounding of the computed residual r = A v - theta v.  Row i of A v, a
    # sum of at most m products, is off by at most m eps (|A| |v|)_i, theta
    # v_i by eps |theta v_i| and the difference by eps |r_i|.  As
    # || |A| |v| || <= ||A||_inf ||v|| for a symmetric A, the exact ||r||
    # exceeds the computed one by at most eps (m ||A||_inf + |theta|) ||v||
    # + eps ||r||, to first order.  The two norms (N squares summed, a root)
    # and the quotient add (2 N + 5) eps of ||r|| / ||v||.  The radius adds
    # twice the sum, which also covers the rounding of theta +- radius, of
    # ||A||_inf and of the bracket ends.
    rows = int(np.diff(mat.indptr).max())
    radius = width + 2.0 * _EPS * ((2 * n + 6) * width + rows * norm + np.abs(vals))
    order = np.argsort(vals)
    lower, upper = (vals - radius)[order], (vals + radius)[order]
    if not (
        np.all(np.isfinite(radius))
        and np.all(upper[:-1] < lower[1:])
        and upper[-1] < shift
    ):
        return None
    return lower, upper


def _dense_shift(mat):
    """E -> the dense array A - E I; A is made dense at the first call."""

    @functools.cache
    def base():
        return mat.toarray()

    return lambda e: base() - e * np.eye(mat.shape[0])


def _sparse_shift(mat, slots):
    """E -> A - E I in CSC form, for SuperLU; A stores its diagonal at ``slots``.

    Read as CSC, the CSR arrays of a matrix give its transpose, which is the
    matrix itself for an operator of a ``DiagonalStack`` (exactly symmetric,
    as its stencil is).  So A - E I is written into a copy of A's data and
    handed over as one CSC matrix on A's own index arrays; an entry that
    comes out exactly 0.0 stays stored, as in ``plus_diagonal``.
    """

    def shifted(energy):
        data = mat.data.copy()
        data[slots] -= energy
        return sp.csc_matrix((data, mat.indices, mat.indptr), shape=mat.shape)

    return shifted


def _chain_counts(ops, energies):
    """Counts below every E for chains of one size; -1 where the per-threshold path decides.

    The per-threshold count gives the count at E, or after a zero pivot the
    count at E nudged up by at most 1e-8 * scale.  The sweep therefore
    settles E only when it counts the same at E - 1e-13 * scale and at
    E + 2e-8 * scale: no eigenvalue lies between, and every answer the
    per-threshold count could give is that count.
    """
    brackets = []
    for op in ops:
        scale = np.maximum(max(1.0, op.norm), np.abs(energies))
        brackets.append(
            np.concatenate(
                [energies - _ZERO_PIVOT * scale, energies + 2.0 * _TIE_NUDGES[-1] * scale]
            )
        )
    neg = _chain_sweep(
        np.column_stack([op.chain[0] for op in ops]),
        np.column_stack([op.chain[1] for op in ops]),
        np.array(brackets),
        np.array([op.norm for op in ops]),
    )
    lower, upper = neg.reshape(len(ops), 2, -1).transpose(1, 0, 2)
    return np.where((lower >= 0) & (lower == upper), lower, -1)


_SWEEP_CELLS = 1 << 15  # float64 entries per working array of one sweep block


def _chain_sweep(diag, off, energies, norms):
    """Negative pivots of the cyclic LDL^T of A_p - E for every column; -1 where flagged.

    ``diag`` and ``off`` are (N, P): column p holds the ``(a, b)`` of chain
    p.  ``energies`` is (P, C), chain p's thresholds, and ``norms`` (P,);
    the result is (P, C).  Rows 0..N-2 form a tridiagonal block with pivots
    d_i = (a_i - E) - b_{i-1}^2 / d_{i-1}.  The corner c = b_{N-1} fills the
    last column: u_0 = c, u_i = c * prod_{j<i} (-b_j / d_j), and u_{N-2}
    also holds b_{N-2}.  The last pivot is (a_{N-1} - E) - sum_i u_i^2 / d_i,
    with the rounding bound derived in ``_last_pivot``.

    The rows go in blocks of about _SWEEP_CELLS / (P C), carrying the last
    pivot, the running product and the two running sums from block to block,
    so the working arrays stay small however many chains are stacked.  Each
    column gets the operations of a one-chain sweep in the same order, so
    its bits do not depend on the stack: the product accumulates row after
    row, and so do the sums, since NumPy reduces a block of two or more
    columns row by row (the count paths pass bracket pairs).
    """
    n, n_ops = diag.shape
    width = energies.size
    rows = max(2, min(n - 1, _SWEEP_CELLS // width))
    zero = _ZERO_PIVOT * np.maximum(np.maximum(1.0, norms)[:, None], np.abs(energies))
    zero = zero.reshape(width)

    def per_column(values):
        return np.repeat(values, energies.shape[1])

    # c**2 as a NumPy scalar power, as _last_pivot takes it: the array
    # square can differ in the last bit.
    corner2 = per_column(np.array([c**2 for c in off[n - 1]]))
    corner, tail = per_column(off[n - 1]), per_column(off[n - 2])
    b2, neg_off = off**2, -off
    piv, coupling, prod, term, size = (np.empty((rows + 1, width)) for _ in range(5))
    piv_rows, coupling_rows, quotient = list(piv), list(coupling), np.empty(width)
    ok, neg = np.ones(width, dtype=bool), np.zeros(width, dtype=int)
    with np.errstate(all="ignore"):
        for lo in range(0, n - 1, rows):
            hi = min(lo + rows, n - 1)
            m, skip = hi - lo, int(lo == 0)
            if lo:
                piv[0] = piv[rows]
            block = piv[1 : m + 1]
            np.subtract(diag[lo:hi, :, None], energies, out=block.reshape(m, n_ops, -1))
            np.copyto(
                coupling[skip:m].reshape(m - skip, n_ops, -1), b2[lo + skip - 1 : hi - 1, :, None]
            )
            for j in range(skip, m):
                np.divide(coupling_rows[j], piv_rows[j], out=quotient)
                np.subtract(piv_rows[j + 1], quotient, out=piv_rows[j + 1])
            if lo == 0:
                first = block[0].copy()
            ok &= np.all(np.isfinite(block), axis=0)
            ok &= ~np.any((block <= zero) & (block >= -zero), axis=0)
            neg += np.sum(block < 0.0, axis=0)
            # fill rows r < N - 2: prod[k] = prod_{j < lo + k} (-b_j / d_j)
            mf = min(hi, n - 2) - lo
            if mf > 0:
                np.divide(
                    neg_off[lo : lo + mf, :, None],
                    block[:mf].reshape(mf, n_ops, -1),
                    out=prod[1 : mf + 1].reshape(mf, n_ops, -1),
                )
                running = prod[skip : mf + 1]
                np.multiply.accumulate(running, axis=0, out=running)
                # terms u_r^2 / d_r for 1 <= r < N - 2, u_r = c * prod[r - lo]
                mt = mf - skip
                if mt > 0:
                    terms = term[1 : mt + 1]
                    np.multiply(prod[skip:mf], corner, out=terms)
                    np.square(terms, out=terms)
                    np.divide(terms, block[skip:mf], out=terms)
                    np.abs(terms, out=size[1 : mt + 1])
                    term[0] = term[skip : mt + 1].sum(axis=0)
                    size[0] = size[skip : mt + 1].sum(axis=0)
                prod[0] = prod[mf]
        last_piv = piv[m]
        fill_last = prod[0] * corner
        u_tail = fill_last + tail
        size_tail = np.abs(fill_last) + np.abs(tail)
        signed, absolute = (term[0], size[0]) if n > 3 else (np.zeros(width),) * 2
        shifted_last = (diag[n - 1, :, None] - energies).reshape(width)
        signed = corner2 / first + signed + u_tail**2 / last_piv
        total = (
            np.abs(shifted_last) + corner2 / np.abs(first) + absolute
            + size_tail**2 / np.abs(last_piv)
        )
        last = shifted_last - signed
        cancel = 10.0 * n * _EPS * total
    ok &= np.abs(last) > np.maximum(zero, cancel)
    neg += last < 0.0
    return np.where(ok, neg, -1).reshape(energies.shape)


def ground_bisect(stack, hi):
    """The smallest eigenvalue of each PSD operator of a
    ``discretize.DiagonalStack``, by 48 bisection steps on [0, hi]: a list
    of K floats.  Any other type is a ``TypeError``.

    An operator with no eigenvalue below ``hi`` gives ``hi``.  Each step
    asks whether some eigenvalue lies strictly below the midpoint, which the
    per-threshold count answers; on a periodic chain tests for positive
    definiteness of A - E at E just above and below the midpoint
    (``_chain_has_level_below``) answer first, and the count takes the
    steps those leave open.  An operator's matrix is built at the first
    step the count takes, if any.
    """
    return [_ground(op, hi) for op in _operators(stack)]


def _ground(op, hi):
    """``ground_bisect`` of the ``_Operator`` record ``op``."""
    count_one = functools.cache(lambda: _threshold_counter(op.matrix(), op.slots, op.norm))
    heads = None if op.chain is None else _ChainHeads.of(*op.chain)

    def below(e):
        if heads is not None:
            found = _chain_has_level_below(heads, e, max(1.0, op.norm, abs(e)))
            if found is not None:
                return found
        return count_one()(e)[0] > 0

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


def _chain_has_level_below(heads, energy, scale):
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
    if _chain_positive_definite(heads, energy + 1.125 * zero):
        return False
    if _chain_positive_definite(heads, energy - 0.125 * zero) is False:
        return True
    return None


class _ChainHeads(NamedTuple):
    """What every positive-definiteness test of one chain reads, taken out once."""

    lead: np.ndarray  # a_0..a_{N-2}
    couplings: np.ndarray  # b_0..b_{N-3}
    quotient_tops: np.ndarray  # -b_0..-b_{N-3}
    last: np.float64  # a_{N-1}
    tail: np.float64  # b_{N-2}
    corner: np.float64  # b_{N-1}

    @classmethod
    def of(cls, diag, off):
        n = diag.shape[0]
        lead, couplings = diag[: n - 1].copy(), off[: n - 2].copy()
        return cls(lead, couplings, -couplings, diag[n - 1], off[n - 2], off[n - 1])


def _chain_positive_definite(heads, energy):
    """Whether the chain's A - E is positive definite; None when too close to call.

    A - E is positive definite when its leading tridiagonal block is
    (LAPACK ``dpttrf`` stops at the first pivot <= 0) and the last pivot of
    the cyclic LDL^T, formed from that block's pivots, is positive.
    """
    piv, _, info = dpttrf(heads.lead - energy, heads.couplings, overwrite_d=1)
    if info > 0:
        return False
    last, cancel = _last_pivot(heads, heads.last - energy, piv)
    if not abs(last) > cancel:
        return None
    return bool(last > 0.0)


def _last_pivot(heads, shifted_last, piv):
    """Last pivot of one cyclic LDL^T from the first N - 1, and its rounding bound.

    ``piv`` holds the pivots d_0..d_{N-2} and ``shifted_last`` is
    a_{N-1} - E.  An overflow gives an infinite or NaN bound, which no last
    pivot clears.  ``_chain_sweep`` forms the same quantities column by
    column; here the sums are NumPy's pairwise sums of one vector.
    """
    n = piv.shape[0] + 1
    corner, tail = heads.corner, heads.tail
    with np.errstate(all="ignore"):
        # fill[i - 1] = u_i = c * prod_{j<i} (-b_j / d_j) for i = 1..N-2
        fill = np.divide(heads.quotient_tops, piv[: n - 2])
        np.cumprod(fill, out=fill)
        fill *= corner
        u_tail = fill[-1] + tail
        size_tail = np.abs(fill[-1]) + abs(tail)
        terms = fill[:-1]
        np.square(terms, out=terms)
        np.divide(terms, piv[1 : n - 2], out=terms)
        signed = corner**2 / piv[0] + terms.sum() + np.square(u_tail) / piv[n - 2]
        np.abs(terms, out=terms)
        total = (
            abs(shifted_last)
            + corner**2 / abs(piv[0])
            + terms.sum()
            + np.square(size_tail) / abs(piv[n - 2])
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
        cancel = 10.0 * n * _EPS * total
    return last, cancel
