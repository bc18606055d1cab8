"""Floquet fiber analysis: band bottom, drift vector, spectral projectors.

The fiber at momentum theta lives on the single cell K0 with boundary twist
u(x + e_j) = e^{i theta_j} u(x).  At finite torus side 2n+1 the admissible
momenta are the (2n+1)^d discrete points (2 pi/(2n+1)) k, and the fiber
ground states assemble into an isometry from site space onto the lowest
band's range inside the full torus space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import GridSpec, assemble_fiber
from .eigensolve import smallest_eigenpairs
from .potentials import site_lattice, wrap_nearest


class DegenerateBandError(RuntimeError):
    """Fiber ground state is (numerically) degenerate; projectors are ill-defined."""


def fiber_ground(p, q, lam, zeta, theta, m):
    """``(e0, u, gap)``: ground energy, gauge-fixed unit eigenvector and the
    gap to the next level of one fiber."""
    op = assemble_fiber(p, q, lam, zeta, theta, m)
    res = smallest_eigenpairs(op, k=2)
    e0, e1 = float(res.values[0]), float(res.values[1])
    if e1 - e0 < 1e-10:
        raise DegenerateBandError(f"fiber gap {e1 - e0:.3e} at theta={theta}")
    return e0, _gauge_fix(res.vectors[:, 0]), e1 - e0


def _gauge_fix(u):
    """Rotate the global phase so sum(u) is real positive (fallback: largest entry)."""
    s = u.sum()
    if abs(s) < 1e-9 * np.linalg.norm(u):
        s = u[np.argmax(np.abs(u))]
    u = u * (np.conj(s) / abs(s))
    if not np.iscomplexobj(u) or np.max(np.abs(u.imag)) < 1e-13:
        u = u.real.copy()
    return u / np.linalg.norm(u)


@dataclass(frozen=True)
class BandBottom:
    """Ground data of the theta = 0 fiber at a fixed constant displacement."""

    energy: float
    gap: float
    phi0: np.ndarray  # L^2(K0)-normalized, strictly positive, shape (m^d,)
    v: np.ndarray  # the drift vector v(lam, zeta), see ``v_vector``


def band_bottom(p, q, lam, zeta, m):
    """The theta = 0 fiber's ground energy, gap, ground state and drift vector,
    from one fiber solve.

    The drift vector v(lam, zeta) = -integral over K0 of grad q(x - lam zeta)
    |phi0|^2 is evaluated with the analytic gradient of q at the same grid
    points that enter the fiber matrix, so lam * v is the exact derivative of
    the discrete ground energy in zeta (matrix-level first-order
    perturbation).
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    e0, u, gap = fiber_ground(p, q, lam, zeta, np.zeros(q.d), m)
    grid = GridSpec(d=q.d, n=0, m=m)
    phi0 = u * m ** (q.d / 2.0)  # ell^2 unit -> L^2(K0) unit
    grads = q.gradient(wrap_nearest(grid.points() - lam * zeta, 1.0))
    weights = np.abs(phi0) ** 2 * grid.cell_volume_element
    v = -np.tensordot(weights, grads, axes=(0, 0))
    return BandBottom(energy=e0, gap=gap, phi0=phi0, v=v)


def v_vector(p, q, lam, zeta, m):
    """Drift vector v(lam, zeta) of ``band_bottom``; a caller that also needs
    the energy reads both off one ``band_bottom`` call."""
    return band_bottom(p, q, lam, zeta, m).v


@dataclass(frozen=True)
class FHResidual:
    lam_v: np.ndarray
    residual: float
    delta: float


def feynman_hellmann_residual(p, q, lam, zeta, m):
    """Central-difference zeta-gradient of the band bottom, step 1e-3, vs lam * v."""
    delta = 1e-3
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    grad = np.zeros(q.d)
    for j in range(q.d):
        step = np.zeros(q.d)
        step[j] = delta
        ep = band_bottom(p, q, lam, zeta + step, m).energy
        em = band_bottom(p, q, lam, zeta - step, m).energy
        grad[j] = (ep - em) / (2.0 * delta)
    lam_v = lam * v_vector(p, q, lam, zeta, m)
    return FHResidual(
        lam_v=lam_v,
        residual=float(np.max(np.abs(grad - lam_v))),
        delta=delta,
    )


@dataclass(frozen=True)
class GradientLimitTable:
    """sup over a zeta grid of |v(lam, zeta) - v_q| for a decreasing list of lam."""

    sups: tuple
    min_ratio: float

    @property
    def decreasing(self):
        return all(a > b for a, b in zip(self.sups, self.sups[1:]))


def gradient_limit_check(p, q, zeta_grid, lams, m):
    lams = tuple(float(x) for x in lams)
    if any(a <= b for a, b in zip(lams, lams[1:])):
        raise ValueError("lams must be strictly decreasing")
    v_q = v_vector(p, q, 0.0, np.zeros(q.d), m)
    sups = []
    for lam in lams:
        dev = 0.0
        for zeta in zeta_grid:
            v = v_vector(p, q, lam, zeta, m)
            dev = max(dev, float(np.linalg.norm(v - v_q)))
        sups.append(dev)
    ratios = tuple(a / b for a, b in zip(sups, sups[1:]))
    return GradientLimitTable(sups=tuple(sups), min_ratio=min(ratios) if ratios else float("inf"))


@dataclass(frozen=True)
class ProjectorPack:
    """Lowest-band frame over all discrete fibers of one torus.

    ``psi`` has one orthonormal column per momentum: the fiber ground state
    unfolded to the torus grid.  ``site_isometry`` composes with the lattice
    character transform, giving the frame indexed by sites instead; its range
    is the same lowest-band subspace.  Dense projector materialization is
    O(N^2) memory -- meant for the small tori where it is actually used.
    """

    grid: GridSpec
    thetas: np.ndarray  # (M, d)
    energies: np.ndarray  # (M,)
    psi: np.ndarray  # (N, M)

    @property
    def n_momenta(self):
        return self.thetas.shape[0]

    def isometry_defect(self):
        gram = self.psi.conj().T @ self.psi
        return float(np.max(np.abs(gram - np.eye(self.n_momenta))))

    def omega_matrix(self):
        """Unitary character matrix Omega[k, site] = e^{i theta_k . gamma} / sqrt(M)."""
        gamma = site_lattice(self.grid.n, self.grid.d).astype(float)
        return np.exp(1j * self.thetas @ gamma.T) / np.sqrt(self.n_momenta)

    def site_isometry(self):
        return self.psi @ self.omega_matrix()

    def pi0(self):
        return self.psi @ self.psi.conj().T

    def pi_plus(self):
        n = self.psi.shape[0]
        return np.eye(n) - self.pi0()


def build_projectors(p, q, lam, zeta, grid):
    """Solve every discrete fiber and unfold the ground states to the torus."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    thetas = grid.thetas()
    m, d, reps = grid.m, grid.d, grid.side_cells
    gamma_axis = np.arange(-grid.n, grid.n + 1, dtype=float)
    cols, energies = [], []
    for theta in thetas:
        e0, u, _ = fiber_ground(p, q, lam, zeta, theta, m)
        tile = np.tile(u.reshape((m,) * d), (reps,) * d)
        for axis in range(d):
            phase = np.exp(1j * theta[axis] * gamma_axis)
            per_point = np.repeat(phase, m)
            shape = [1] * d
            shape[axis] = reps * m
            tile = tile * per_point.reshape(shape)
        cols.append(tile.ravel() / np.sqrt(reps**d))
        energies.append(e0)
    return ProjectorPack(
        grid=grid,
        thetas=thetas,
        energies=np.array(energies),
        psi=np.column_stack(cols),
    )


def band_table(p, q, lam, zeta, m, nbands, n):
    """Rows (theta_1..theta_d, E_1..E_nbands) over the momenta of the torus
    of side 2n + 1."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    rows = []
    for theta in GridSpec(d=q.d, n=n, m=m).thetas():
        op = assemble_fiber(p, q, lam, zeta, theta, m)
        res = smallest_eigenpairs(op, k=nbands)
        rows.append(np.concatenate([theta, res.values]))
    return np.array(rows)


def dispersion_symbol(theta):
    """Free lattice band shape: sum_j (1 - cos theta_j)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(np.sum(1.0 - np.cos(theta)))
