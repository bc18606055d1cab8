"""Finite-difference operators on the torus and on a single fibered cell.

Grid convention: each unit cell carries m points per axis at cell-local
coordinates -1/2 + j/m (j = 0..m-1), so the global torus grid on side
L = 2n+1 is built cell by cell as gamma + cell_local.  This makes the
sampled potential of a constant displacement field literally identical in
every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .potentials import eval_total_potential, wrap_nearest


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: d dimensions, torus side 2n+1 cells, m points per cell side."""

    d: int
    n: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.m < 4:
            raise ValueError("m must be >= 4")

    @property
    def h(self):
        return 1.0 / self.m

    @property
    def side_cells(self):
        return 2 * self.n + 1

    @property
    def side_points(self):
        return self.side_cells * self.m

    @property
    def cell_volume_element(self):
        return self.h**self.d

    def axis_coords(self):
        """Coordinates along one torus axis, cell by cell: cell gamma holds
        gamma - 1/2 + j/m, j = 0..m-1."""
        local = -0.5 + np.arange(self.m) / self.m
        return np.concatenate(
            [g + local for g in np.arange(-self.n, self.n + 1, dtype=float)]
        )

    def points(self):
        """All grid points, shape (side_points^d, d), C-order over axes."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack([m_.ravel() for m_ in mesh], axis=-1)

    def thetas(self):
        """Discrete Floquet momenta (2 pi / (2n+1)) k, k in {0..2n}^d."""
        vals = 2.0 * np.pi * np.arange(self.side_cells) / self.side_cells
        mesh = np.meshgrid(*([vals] * self.d), indexing="ij")
        return np.stack([m_.ravel() for m_ in mesh], axis=-1)


@dataclass(frozen=True)
class LatticeOperator:
    """What ``assemble_periodic`` returns: ``matrix``, the ``DiagonalStack`` of
    a chunk's torus operators (``perfbench/tracer.py`` reads ``matrix.nnz``)."""

    matrix: DiagonalStack


def _ring(npts, h, phase=1.0):
    """1-d periodic -Laplacian with a Bloch phase on the wrap link, as canonical CSR.

    Row stencil: (2 u_j - u_{j-1} - u_{j+1}) / h^2 (npts >= 3); the link
    from the last point back to the first carries e^{i theta} per unit-cell
    step, i.e. A[npts-1, 0] = -phase / h^2 and A[0, npts-1] = -conj(phase) / h^2.
    """
    dtype = complex if np.iscomplexobj(phase) else float
    rows = np.arange(npts)
    cols = np.stack([(rows - 1) % npts, rows, (rows + 1) % npts], axis=1)
    vals = np.full((npts, 3), -1.0 / h**2, dtype=dtype)
    vals[:, 1] = 2.0 / h**2
    vals[0, 0] = -np.conj(phase) / h**2
    vals[-1, 2] = -phase / h**2  # not -phase * (1 / h**2): complex phases differ in the last bit
    order = np.argsort(cols, axis=1)
    return sp.csr_matrix(
        (
            np.take_along_axis(vals, order, axis=1).ravel(),
            np.take_along_axis(cols, order, axis=1).ravel(),
            3 * np.arange(npts + 1),
        ),
        shape=(npts, npts),
    )


def _kron_sum(axis_mats):
    """Sum over axes of I x .. x A_j x .. x I."""
    total = None
    for j, a in enumerate(axis_mats):
        term = a
        for k in range(j - 1, -1, -1):
            term = sp.kron(sp.identity(axis_mats[k].shape[0], format="csr"), term, format="csr")
        for k in range(j + 1, len(axis_mats)):
            term = sp.kron(term, sp.identity(axis_mats[k].shape[0], format="csr"), format="csr")
        total = term if total is None else total + term
    return total.tocsr()


@lru_cache(maxsize=16)
def periodic_laplacian(d, npts, h):
    """-Delta_h on the torus (Z / npts)^d with spacing h, and where it stores
    its diagonal and, on a ring, its couplings.

    Returns ``(lap, slots, up)``, built once per (d, npts, h) and shared
    read-only.  ``slots`` is ``diagonal_slots(lap)``: callers add their
    diagonal there with ``plus_diagonal``.  On a ring (d = 1) ``up[i]`` is
    where lap stores A[i, i + 1 mod N]; on a torus of d >= 2 ``up`` is None.
    """
    if npts < 3:
        raise ValueError("torus side must be >= 3 for unambiguous neighbors")
    lap = _kron_sum([_ring(npts, h)] * d)
    where = diagonal_slots(lap)
    up = None
    if d == 1:
        rows = np.repeat(np.arange(npts), np.diff(lap.indptr))
        up = np.flatnonzero(lap.indices == (rows + 1) % npts)
        up.flags.writeable = False
    for arr in (lap.data, lap.indices, lap.indptr, where):
        arr.flags.writeable = False
    return lap, where, up


def diagonal_slots(mat):
    """Where a canonical CSR matrix stores (i, i) in its data, row by row; a
    ``ValueError`` unless it is canonical and stores its whole diagonal."""
    if not mat.has_canonical_format:
        raise ValueError("diagonal_slots takes a canonical CSR matrix")
    n = mat.shape[0]
    lines = np.repeat(np.arange(n), np.diff(mat.indptr))
    where = np.flatnonzero(mat.indices == lines)
    if where.size != n:
        raise ValueError(f"the matrix stores {where.size} of its {n} diagonal entries")
    return where


def plus_diagonal(mat, where, diag, scale=1.0):
    """``scale * mat + diag(diag)`` for a canonical CSR ``mat``, on mat's pattern.

    ``where`` is ``diagonal_slots(mat)`` and ``diag`` an array or a scalar.
    The diagonal is written into a copy of mat's data on copies of its index
    arrays, so an entry that comes out exactly 0.0 stays stored.
    """
    data = scale * mat.data
    data[where] += diag
    return sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()), shape=mat.shape)


@dataclass(frozen=True)
class DiagonalStack:
    """The operators ``scale * stencil + diag(diags[k])``, one per row of ``diags``.

    ``stencil``, ``slots`` and ``up`` are a ``periodic_laplacian`` shared
    read-only, so the stencil is exactly symmetric, canonical and finite with
    every diagonal entry stored, and so is each operator: counting trusts
    this and never tests for it.  A non-finite diagonal or ``scale`` is a
    ``ValueError`` that names the operator.  ``stack[k]`` builds operator k
    with ``plus_diagonal``, on the stencil's pattern; ``norms()`` and
    ``chains()`` read what counting needs without building any operator.
    """

    stencil: sp.csr_matrix
    slots: np.ndarray
    up: np.ndarray | None
    diags: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ValueError(f"DiagonalStack scale must be finite, got {float(self.scale)}")
        if not np.all(np.isfinite(self.diags)):
            k, i = np.argwhere(~np.isfinite(self.diags))[0]
            raise ValueError(
                f"DiagonalStack operator {k} has a non-finite diagonal entry "
                f"{float(self.diags[k, i])} at site {i}"
            )

    @property
    def shape(self):
        return self.stencil.shape

    @property
    def nnz(self):
        """Entries stored over all operators."""
        return len(self) * self.stencil.nnz

    def __len__(self):
        return self.diags.shape[0]

    def __getitem__(self, k):
        return plus_diagonal(self.stencil, self.slots, self.diags[k], self.scale)

    def norms(self):
        """The largest absolute row sum, ``abs(self[k]).sum(axis=1).max()``,
        of each operator: K norms.

        SciPy sums a sparse matrix's rows with ``np.add.reduceat`` over each
        nonempty row's entries, and so does this over each operator's data,
        written one operator at a time: every norm has the bits of its own
        matrix's, and a stack of large operators never has all its data
        written at once.
        """
        indptr = self.stencil.indptr
        starts = indptr[np.flatnonzero(np.diff(indptr))]
        base = self.scale * self.stencil.data
        norms = np.empty(len(self))
        for k, diag in enumerate(self.diags):
            data = base.copy()
            data[self.slots] += diag
            norms[k] = np.add.reduceat(np.abs(data), starts).max()
        return norms

    def chains(self):
        """The periodic-chain form ``(a, b)`` of the stack on a ring, else None.

        ``a`` is (K, N), ``a[k, i] = A_k[i, i]``, and ``b`` is the (N,)
        coupling vector every operator shares, ``b[i] = A[i, i + 1 mod N]``,
        so ``b[N - 1]`` is the corner A[N - 1, 0]; both have the bits of the
        operators' data at ``slots`` and ``up``.  A torus of d >= 2 has None.
        """
        if self.up is None:
            return None
        base = self.scale * self.stencil.data
        return base[self.slots] + self.diags, base[self.up]


def assemble_periodic(p, q, lam, field, grid):
    """Full torus operators -Delta_h + p + sum_gamma q(. - gamma - lam omega_gamma).

    ``field`` is a ``FieldChunk``; ``matrix`` is the chunk's operators as a
    ``DiagonalStack`` on the shared stencil, every field's potential from one
    ``eval_total_potential`` pass.  A field's operator is the same, bit for
    bit, whatever chunk it comes in; a single field's is ``matrix[0]`` of its
    chunk of one.
    """
    if grid.d != q.d:
        raise ValueError("grid dimension does not match potentials")
    if field.n != grid.n or field.d != grid.d:
        raise ValueError("field lattice does not match grid")
    diags = eval_total_potential(p, q, lam, field, grid.points())
    stack = DiagonalStack(*periodic_laplacian(grid.d, grid.side_points, grid.h), diags)
    return LatticeOperator(matrix=stack)


def fiber_diagonal(p, q, lam, zeta, m):
    """Sampled cell potential p + q(. - lam zeta) on K0 (single site, no wrap)."""
    grid = GridSpec(d=q.d, n=0, m=m)
    pts = grid.points()
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    vals = p.value(pts) + q.value(wrap_nearest(pts - lam * zeta, 1.0))
    return grid, vals


def assemble_fiber(p, q, lam, zeta, theta, m):
    """One Floquet fiber H(theta) on the unit cell.

    Boundary convention u(x + e_j) = e^{i theta_j} u(x): the wrap entry of the
    second-difference along axis j is -e^{i theta_j} / h^2.  Returns its CSR
    matrix, real whenever every phase is real (theta_j in {0, pi}).
    """
    if p.d != q.d:
        raise ValueError("dimension mismatch between p and q")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (q.d,):
        raise ValueError(f"theta must have shape ({q.d},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta components must be finite (the fiber is 2 pi periodic)")
    phases = [complex(np.exp(1j * t)) for t in theta]
    phases = [ph.real if abs(ph.imag) < 1e-15 else ph for ph in phases]
    grid, diag = fiber_diagonal(p, q, lam, zeta, m)
    lap = _kron_sum([_ring(m, grid.h, phase=ph) for ph in phases])
    return plus_diagonal(lap, diagonal_slots(lap), diag)


def free_fiber_eigenvalues(theta, m):
    """Closed-form spectrum of the free d=1 fiber: (2/h^2)(1 - cos(h(theta + 2 pi k)))."""
    h = 1.0 / m
    k = np.arange(m)
    return np.sort(2.0 / h**2 * (1.0 - np.cos(h * (theta + 2.0 * np.pi * k))))
