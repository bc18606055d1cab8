"""Displacement-support geometry: membership, projection, extremes, curvature."""

import numpy as np
import pytest

from displab.supports import ball, box, ellipsoid, interval, polygon, sphere

rng = np.random.default_rng(77)


def test_ball_membership_and_projection():
    s = ball(np.zeros(2), 1.0)
    assert s.contains([0.3, 0.4], tol=1e-9)
    assert s.contains([0.6, 0.8], tol=1e-9)  # boundary point
    assert not s.contains([0.9, 0.9], tol=1e-9)
    proj = s.project(np.array([3.0, 4.0]))
    assert np.allclose(proj, [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    assert np.allclose(s.project(inside), inside)


def test_sphere_is_boundary_only():
    s = sphere(np.zeros(2), 1.0)
    assert s.contains([1.0, 0.0], tol=1e-9)
    assert not s.contains([0.5, 0.0], tol=1e-9)
    assert np.allclose(s.project(np.array([0.2, 0.0])), [1.0, 0.0])
    # center projects somewhere on the shell
    assert np.linalg.norm(s.project(np.zeros(2))) == pytest.approx(1.0)


def test_ellipsoid_projection_is_nearest_boundary_point():
    s = ellipsoid(np.zeros(2), [2.0, 1.0], boundary_only=False)
    z = np.array([3.0, 0.0])
    proj = s.project(z)
    assert np.allclose(proj, [2.0, 0.0])
    # generic exterior point: projection lies on the boundary and is optimal
    z = np.array([2.5, 1.7])
    proj = s.project(z)
    assert np.linalg.norm(proj / np.array([2.0, 1.0])) == pytest.approx(1.0, abs=1e-9)
    bound = s.sample(np.random.default_rng(3), 400)
    dists = np.linalg.norm(bound - z, axis=1)
    assert np.linalg.norm(proj - z) <= dists.min() + 1e-6


def test_interval_and_box():
    s = interval(-1.0, 1.0)
    assert s.contains([0.5], tol=1e-9) and not s.contains([1.5], tol=1e-9)
    assert s.project(np.array([3.0]))[0] == 1.0
    b = box([-1.0, -2.0], [1.0, 2.0])
    assert b.is_box
    assert np.allclose(b.project(np.array([5.0, 0.5])), [1.0, 0.5])
    assert b.contains([1.0, 2.0], tol=1e-9)


def test_polygon_projection_and_membership():
    tri = polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert tri.contains([0.5, 0.5], tol=1e-9)
    assert not tri.contains([1.5, 1.5], tol=1e-9)
    # project onto the hypotenuse x + y = 2
    proj = tri.project(np.array([2.0, 2.0]))
    assert np.allclose(proj, [1.0, 1.0])
    inside = np.array([0.2, 0.3])
    assert np.allclose(tri.project(inside), inside)


@pytest.mark.parametrize(
    "s",
    [
        ball(np.zeros(2), 1.0),
        sphere(np.zeros(2), 0.7),
        ellipsoid(np.zeros(2), [1.5, 0.5], boundary_only=False),
        box([-1.0, -1.0], [1.0, 1.0]),
        polygon([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
    ],
    ids=["ball", "sphere", "ellipsoid", "box", "triangle"],
)
def test_samples_belong_to_set(s):
    pts = s.sample(np.random.default_rng(11), 200)
    assert pts.shape == (200, 2)
    assert all(s.contains(z, tol=1e-8) for z in pts)


def test_support_point_minimizes_linear_functional():
    for s in (ball(np.zeros(2), 1.0), ellipsoid(np.zeros(2), [2.0, 1.0], boundary_only=False),
              polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])):
        for _ in range(10):
            u = rng.standard_normal(2)
            star = s.support_point(u)
            assert s.contains(star, tol=1e-8)
            vals = s.sample(np.random.default_rng(1), 300) @ u
            assert star @ u <= vals.min() + 1e-8
    with pytest.raises(ValueError):
        ball(np.zeros(2), 1.0).support_point(np.zeros(2))


def test_extreme_points():
    tri = polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(tri.extreme_points(), tri.vertices)
    shell = ball(np.zeros(2), 1.0).extreme_points()
    assert np.allclose(np.linalg.norm(shell, axis=1), 1.0)


def test_curvature_reports():
    assert ball(np.zeros(2), 2.0).min_curvature().value == pytest.approx(0.5)
    # ellipse semi-axes (2, 1): smallest curvature a_min / a_max^2 = 1/4
    rep = ellipsoid(np.zeros(2), [2.0, 1.0], boundary_only=False).min_curvature()
    assert rep.value == pytest.approx(0.25)
    assert rep.strictly_convex
    assert ball(np.zeros(1), 1.0).min_curvature().value == np.inf
    flat = box([-1.0, -1.0], [1.0, 1.0]).min_curvature()
    assert flat.value == 0.0
    assert not flat.strictly_convex


def test_bounding_radius():
    assert ball(np.zeros(3), 0.25).bounding_radius() == 0.25
    assert ellipsoid(np.zeros(2), [2.0, 1.0], boundary_only=False).bounding_radius() == 2.0
    assert interval(-1.0, 1.0).bounding_radius() == 1.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        ball(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        ellipsoid(np.zeros(2), [1.0, -1.0], boundary_only=False)
    with pytest.raises(ValueError):
        polygon([[0.0, 0.0]])


def test_interval_is_1d_polytope():
    s = interval(-1.0, 1.0)
    assert s.kind == "polytope"
    assert s.d == 1
    assert sorted(s.extreme_points()[:, 0]) == [-1.0, 1.0]
