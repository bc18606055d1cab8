"""Fiber band data: ground states, perturbation identities, projector frames.

The drift-vector identity is the one piece of genuinely delicate numerics in
this layer, so it is pinned twice: against frozen reference values and
against an independent central-difference derivative of the band bottom.
"""

import numpy as np
import pytest

from displab.discretize import GridSpec, assemble_periodic
from displab.eigensolve import smallest_eigenpairs
from displab.floquet import (
    DegenerateBandError,
    band_bottom,
    band_table,
    build_projectors,
    dispersion_symbol,
    feynman_hellmann_residual,
    fiber_ground,
    gradient_limit_check,
    v_vector,
)
from displab.potentials import constant_field, periodic_family, single_site_family

P1 = periodic_family("cosine", 1, coefficients=[-1.0])
Q1 = single_site_family("asym-bump", 1)
ZETA = np.array([-1.0])


def test_band_bottom_frozen_values():
    """Reference energies for the standard 1d configuration (lam = 0.1)."""
    bb16 = band_bottom(P1, Q1, 0.1, ZETA, 16)
    bb32 = band_bottom(P1, Q1, 0.1, ZETA, 32)
    assert bb16.energy == pytest.approx(0.0621846530926, abs=1e-9)
    assert bb32.energy == pytest.approx(0.0622533610920, abs=1e-9)
    assert band_bottom(P1, Q1, 0.0, ZETA, 32).energy == pytest.approx(
        0.0638088285925, abs=1e-9
    )
    assert bb16.gap == pytest.approx(38.9797358489, abs=1e-6)


def test_phi0_positive_and_normalized():
    bb = band_bottom(P1, Q1, 0.1, ZETA, 16)
    assert np.all(bb.phi0 > 0), "fiber ground state is strictly positive"
    # L^2(K0) normalization: sum |phi0|^2 h^d = 1
    assert np.sum(np.abs(bb.phi0) ** 2) / 16 == pytest.approx(1.0)


def test_fiber_ground_gauge_is_deterministic():
    e1, u1, _ = fiber_ground(P1, Q1, 0.1, ZETA, np.array([0.7]), 12)
    e2, u2, _ = fiber_ground(P1, Q1, 0.1, ZETA, np.array([0.7]), 12)
    assert e1 == e2
    assert np.array_equal(u1, u2)


def test_fiber_ground_degenerate_raises():
    # the free fiber at theta = pi has an exactly doubly degenerate ground level
    p0 = periodic_family("zero", 1)
    q0 = single_site_family("zero", 1)
    with pytest.raises(DegenerateBandError):
        fiber_ground(p0, q0, 0.0, np.array([0.0]), np.array([np.pi]), 8)


def test_v_vector_frozen_values():
    assert v_vector(P1, Q1, 0.1, ZETA, 32)[0] == pytest.approx(
        0.0161472037003, abs=1e-9
    )
    assert v_vector(P1, Q1, 0.1, ZETA, 64)[0] == pytest.approx(
        0.0166045190776, abs=1e-9
    )


def test_v_vector_vanishes_for_symmetric_site():
    qs = single_site_family("sym-bump", 1)
    v = v_vector(P1, qs, 0.0, np.array([0.0]), 32)
    assert abs(v[0]) < 1e-10


def test_feynman_hellmann_identity_1d():
    """lam * v equals the numerical zeta-derivative of the band bottom."""
    res = feynman_hellmann_residual(P1, Q1, 0.1, ZETA, 24)
    assert res.residual < 1e-6
    assert res.lam_v.shape == (1,)


def test_feynman_hellmann_identity_2d():
    p2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
    q2 = single_site_family("asym-bump", 2)
    res = feynman_hellmann_residual(p2, q2, 0.1, np.array([-0.7, 0.2]), 12)
    assert res.residual < 1e-5


def test_gradient_limit_small_coupling():
    """sup_zeta |v(lam, .) - v(0)| shrinks as lam does.

    Needs a grid fine enough to resolve the narrow bumps (m = 64); coarser
    grids alias the displaced gradient and the sup stalls.
    """
    grid = [np.array([z]) for z in np.linspace(-1, 1, 9)]
    tab = gradient_limit_check(P1, Q1, grid, [0.2, 0.1, 0.05], 64)
    assert tab.decreasing
    assert tab.min_ratio > 1.5
    assert tab.sups[0] == pytest.approx(0.019690668, abs=1e-6)
    with pytest.raises(ValueError):
        gradient_limit_check(P1, Q1, grid, [0.1, 0.2], 64)


def test_band_table_shape_and_monotone_columns():
    tab = band_table(P1, Q1, 0.1, ZETA, 8, nbands=3, n=1)
    assert tab.shape == (3, 4)  # 3 momenta, theta + three band energies
    assert np.all(tab[:, 1] <= tab[:, 2])
    assert np.all(tab[:, 2] <= tab[:, 3])
    # theta = 0 row should reproduce band_bottom
    assert tab[0, 1] == pytest.approx(band_bottom(P1, Q1, 0.1, ZETA, 8).energy)


def test_dispersion_symbol():
    assert dispersion_symbol([0.0]) == 0.0
    assert dispersion_symbol([np.pi]) == pytest.approx(2.0)
    assert dispersion_symbol([np.pi / 2, np.pi]) == pytest.approx(3.0)


def test_projector_isometry_and_completeness_1d():
    grid = GridSpec(d=1, n=1, m=8)
    pack = build_projectors(P1, Q1, 0.1, ZETA, grid)
    assert pack.n_momenta == 3
    assert pack.isometry_defect() < 1e-10
    pi0 = pack.pi0()
    assert np.max(np.abs(pi0 @ pi0 - pi0)) < 1e-10
    assert np.trace(pi0).real == pytest.approx(3.0)
    # the frame spans the invariant subspace: H pi0 = pi0 H pi0
    field = constant_field(1, 1, ZETA)
    op = assemble_periodic(P1, Q1, 0.1, field, grid).matrix[0].toarray()
    assert np.max(np.abs(op @ pi0 - pi0 @ (op @ pi0))) < 1e-8


def test_projector_diagonalizes_torus_operator_1d():
    """Fiber energies must reappear in the full torus spectrum (completeness)."""
    grid = GridSpec(d=1, n=1, m=8)
    pack = build_projectors(P1, Q1, 0.1, ZETA, grid)
    field = constant_field(1, 1, ZETA)
    op = assemble_periodic(P1, Q1, 0.1, field, grid)
    low = smallest_eigenpairs(op.matrix[0], k=3).values
    assert np.allclose(np.sort(pack.energies), low, atol=1e-9)


def test_site_isometry_same_range():
    grid = GridSpec(d=1, n=1, m=6)
    pack = build_projectors(P1, Q1, 0.1, ZETA, grid)
    w = pack.site_isometry()
    gram = w.conj().T @ w
    assert np.max(np.abs(gram - np.eye(pack.n_momenta))) < 1e-10
    assert np.max(np.abs(w @ w.conj().T - pack.pi0())) < 1e-10
    omega = pack.omega_matrix()
    assert np.max(np.abs(omega @ omega.conj().T - np.eye(3))) < 1e-12


def test_projector_completeness_2d():
    p2 = periodic_family("cosine", 2, coefficients=[-1.0, -1.0])
    q2 = single_site_family("asym-bump", 2)
    z2 = np.array([-1.0, 0.0])
    grid = GridSpec(d=2, n=1, m=4)
    pack = build_projectors(p2, q2, 0.1, z2, grid)
    assert pack.n_momenta == 9
    assert pack.isometry_defect() < 1e-10
    field = constant_field(1, 2, z2)
    op = assemble_periodic(p2, q2, 0.1, field, grid)
    low = smallest_eigenpairs(op.matrix[0], k=9).values
    assert np.allclose(np.sort(pack.energies), low, atol=1e-8)
