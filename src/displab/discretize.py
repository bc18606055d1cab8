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

from .eigensolve import _diagonal_slots
from .potentials import as_points, eval_total_potential, site_lattice, wrap_nearest


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
    def n_points(self):
        return self.side_points**self.d

    @property
    def cell_volume_element(self):
        return self.h**self.d

    def axis_coords(self):
        """Coordinates along one torus axis, cell by cell."""
        local = cell_axis_coords(self.m)
        return np.concatenate(
            [g + local for g in np.arange(-self.n, self.n + 1, dtype=float)]
        )

    def points(self):
        """All grid points, shape (n_points, d), C-order over axes."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack([m_.ravel() for m_ in mesh], axis=-1)

    def cell_points(self):
        """Points of the single cell K0 = [-1/2, 1/2)^d, shape (m^d, d)."""
        ax = cell_axis_coords(self.m)
        mesh = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack([m_.ravel() for m_ in mesh], axis=-1)

    def thetas(self):
        """Discrete Floquet momenta (2 pi / (2n+1)) k, k in {0..2n}^d."""
        vals = 2.0 * np.pi * np.arange(self.side_cells) / self.side_cells
        mesh = np.meshgrid(*([vals] * self.d), indexing="ij")
        return np.stack([m_.ravel() for m_ in mesh], axis=-1)


def cell_axis_coords(m):
    return -0.5 + np.arange(m) / m


@dataclass(frozen=True)
class LatticeOperator:
    """Assembled sparse operator together with its grid and boundary data."""

    matrix: sp.csr_matrix
    grid: GridSpec
    kind: str  # "periodic" | "fiber"
    theta: np.ndarray | None = None

    @property
    def n_points(self):
        return self.matrix.shape[0]

    def is_hermitian(self, tol=1e-12):
        delta = self.matrix - self.matrix.getH()
        if delta.nnz == 0:
            return True
        return bool(np.max(np.abs(delta.data)) <= tol)


def _axis_second_difference(npts, h, phase=1.0):
    """1-d periodic -Laplacian with a Bloch phase on the wrap link.

    Row stencil: (2 u_j - phase_conj-weighted neighbors) / h^2; the link from
    the last point back to the first carries e^{i theta} per unit-cell step
    convention, i.e. A[npts-1, 0] = -phase / h^2 and A[0, npts-1] = -conj.
    """
    dtype = complex if np.iscomplexobj(phase) or not np.isreal(phase) else float
    main = np.full(npts, 2.0 / h**2, dtype=dtype)
    off = np.full(npts - 1, -1.0 / h**2, dtype=dtype)
    mat = sp.diags([off, main, off], [-1, 0, 1], format="lil", dtype=dtype)
    mat[npts - 1, 0] = -phase / h**2
    mat[0, npts - 1] = -np.conj(phase) / h**2
    return mat.tocsr()


def _kron_laplacian(axis_mats):
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


@lru_cache(maxsize=8)
def _torus_laplacian(grid):
    """-Delta_h on the periodic grid, built once per grid and shared read-only."""
    axis = _axis_second_difference(grid.side_points, grid.h, phase=1.0)
    lap = _kron_laplacian([axis] * grid.d)
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap


@lru_cache(maxsize=8)
def _torus_diagonal(grid):
    return _diagonal_slots(_torus_laplacian(grid))


def _plus_diagonal(mat, where, diag, scale=1.0):
    """``(scale * mat + sp.diags(diag)).tocsr()`` for a canonical CSR ``mat``.

    ``where`` is ``_diagonal_slots(mat)``.  The diagonal is written into a
    copy of mat's arrays, which are then the sparse sum's own arrays, unless
    some entry comes out exactly 0.0: the sum drops it, so then the sum is
    formed.
    """
    data = scale * mat.data
    if where is not None:
        data[where] += diag
        if np.all(data != 0.0):
            return sp.csr_matrix(
                (data, mat.indices.copy(), mat.indptr.copy()), shape=mat.shape
            )
    return (scale * mat + sp.diags(diag, format="csr")).tocsr()


def assemble_periodic(p, q, lam, field, grid):
    """Full torus operator -Delta_h + p + sum_gamma q(. - gamma - lam omega_gamma)."""
    if grid.d != q.d:
        raise ValueError("grid dimension does not match potentials")
    if field.n != grid.n or field.d != grid.d:
        raise ValueError("field lattice does not match grid")
    diag = eval_total_potential(p, q, lam, field, grid.points())
    mat = _plus_diagonal(_torus_laplacian(grid), _torus_diagonal(grid), diag)
    return LatticeOperator(matrix=mat, grid=grid, kind="periodic")


def fiber_diagonal(p, q, lam, zeta, m):
    """Sampled cell potential p + q(. - lam zeta) on K0 (single site, no wrap)."""
    grid = GridSpec(d=q.d, n=0, m=m)
    pts = grid.cell_points()
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    vals = p.value(pts) + q.value(wrap_nearest(pts - lam * zeta, 1.0))
    return grid, vals


def assemble_fiber(p, q, lam, zeta, theta, m):
    """One Floquet fiber H(theta) on the unit cell.

    Boundary convention u(x + e_j) = e^{i theta_j} u(x): the wrap entry of the
    second-difference along axis j is -e^{i theta_j} / h^2.  Returns a real
    matrix whenever every phase is real (theta_j in {0, pi}).
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
    axis_mats = [_axis_second_difference(m, grid.h, phase=ph) for ph in phases]
    lap = _kron_laplacian(axis_mats)
    mat = (lap + sp.diags(diag.astype(lap.dtype), format="csr")).tocsr()
    return LatticeOperator(matrix=mat, grid=grid, kind="fiber", theta=theta)


def free_fiber_eigenvalues(theta, m):
    """Closed-form spectrum of the free d=1 fiber: (2/h^2)(1 - cos(h(theta + 2 pi k)))."""
    h = 1.0 / m
    k = np.arange(m)
    return np.sort(2.0 / h**2 * (1.0 - np.cos(h * (theta + 2.0 * np.pi * k))))


__all__ = [
    "GridSpec",
    "LatticeOperator",
    "assemble_periodic",
    "assemble_fiber",
    "fiber_diagonal",
    "free_fiber_eigenvalues",
    "cell_axis_coords",
    "site_lattice",
    "as_points",
]
