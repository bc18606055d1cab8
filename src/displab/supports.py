"""Compact displacement supports: membership, projection, sampling, curvature.

Variants: solid ball / ellipsoid, their boundary shells (sphere,
ellipsoid-boundary), and polytopes given by vertices.  Axis-aligned boxes are
detected among polytopes and get exact coordinate-wise projection; general
polytopes are supported in d <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("ball", "sphere", "ellipsoid", "ellipsoid-boundary", "polytope")


@dataclass(frozen=True)
class CurvatureReport:
    value: float
    strictly_convex: bool
    note: str


@dataclass(frozen=True)
class SupportSet:
    kind: str
    d: int
    center: np.ndarray = field(default_factory=lambda: np.zeros(1))
    radius: float = 1.0
    semi_axes: np.ndarray | None = None
    vertices: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown support kind {self.kind!r}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (self.d,):
            raise ValueError("center shape mismatch")
        if self.kind in ("ball", "sphere") and self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.kind in ("ellipsoid", "ellipsoid-boundary"):
            axes = np.asarray(self.semi_axes, dtype=float)
            if axes.shape != (self.d,) or np.any(axes <= 0):
                raise ValueError("semi_axes must be d positive numbers")
            object.__setattr__(self, "semi_axes", axes)
        if self.kind == "polytope":
            verts = np.asarray(self.vertices, dtype=float)
            if verts.ndim != 2 or verts.shape[1] != self.d or verts.shape[0] < 2:
                raise ValueError("polytope needs >= 2 vertices of dimension d")
            object.__setattr__(self, "vertices", verts)

    # -- basic geometry ------------------------------------------------

    @property
    def is_box(self):
        if self.kind != "polytope":
            return False
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        corners = _box_corners(lo, hi)
        if len(corners) != self.vertices.shape[0]:
            return False
        have = {tuple(v) for v in np.round(self.vertices, 12)}
        want = {tuple(v) for v in np.round(corners, 12)}
        return have == want

    def bounding_radius(self):
        """max over the set of |zeta - center|."""
        if self.kind in ("ball", "sphere"):
            return float(self.radius)
        if self.kind in ("ellipsoid", "ellipsoid-boundary"):
            return float(np.max(self.semi_axes))
        return float(np.max(np.linalg.norm(self.vertices - self.center, axis=1)))

    def contains(self, z, tol):
        z = np.asarray(z, dtype=float) - self.center
        if self.kind == "ball":
            return bool(np.linalg.norm(z) <= self.radius + tol)
        if self.kind == "sphere":
            return bool(abs(np.linalg.norm(z) - self.radius) <= tol)
        if self.kind == "ellipsoid":
            return bool(np.linalg.norm(z / self.semi_axes) <= 1.0 + tol)
        if self.kind == "ellipsoid-boundary":
            return bool(abs(np.linalg.norm(z / self.semi_axes) - 1.0) <= tol)
        return self._polytope_contains(z + self.center, tol)

    def _polytope_contains(self, z, tol):
        if self.is_box:
            lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
            return bool(np.all(z >= lo - tol) and np.all(z <= hi + tol))
        if self.d == 1:
            lo, hi = self.vertices.min(), self.vertices.max()
            return bool(lo - tol <= z[0] <= hi + tol)
        if self.d == 2:
            return _point_in_hull_2d(z, self.vertices, tol)
        raise NotImplementedError("general polytopes only in d <= 2")

    def project(self, z):
        """Euclidean nearest point of the set."""
        z = np.asarray(z, dtype=float)
        y = z - self.center
        if self.kind == "ball":
            r = np.linalg.norm(y)
            out = y if r <= self.radius else y * (self.radius / r)
        elif self.kind == "sphere":
            r = np.linalg.norm(y)
            out = y * (self.radius / r) if r > 0 else self.radius * _e1(self.d)
        elif self.kind == "ellipsoid":
            out = y if np.linalg.norm(y / self.semi_axes) <= 1.0 else _ellipsoid_boundary_project(y, self.semi_axes)
        elif self.kind == "ellipsoid-boundary":
            out = _ellipsoid_boundary_project(y, self.semi_axes) if np.linalg.norm(y) > 0 else self.semi_axes * _e1(self.d)
        else:
            return self._polytope_project(z)
        return self.center + out

    def _polytope_project(self, z):
        if self.is_box:
            lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
            return np.clip(z, lo, hi)
        if self.d == 1:
            return np.clip(z, self.vertices.min(), self.vertices.max())
        if self.d == 2:
            if _point_in_hull_2d(z, self.vertices, 1e-12):
                return z.copy()
            hull = _hull_2d(self.vertices)
            best, dist = None, np.inf
            for a, b in zip(hull, np.roll(hull, -1, axis=0)):
                cand = _segment_project(z, a, b)
                dd = np.linalg.norm(z - cand)
                if dd < dist:
                    best, dist = cand, dd
            return best
        raise NotImplementedError("general polytopes only in d <= 2")

    def support_point(self, direction):
        """argmin over the set of direction . zeta (extreme point)."""
        u = np.asarray(direction, dtype=float)
        nu = np.linalg.norm(u)
        if nu == 0:
            raise ValueError("direction must be nonzero")
        if self.kind in ("ball", "sphere"):
            return self.center - self.radius * u / nu
        if self.kind in ("ellipsoid", "ellipsoid-boundary"):
            w = self.semi_axes**2 * u
            return self.center - w / np.linalg.norm(w / self.semi_axes)
        scores = self.vertices @ u
        return self.vertices[np.argmin(scores)].copy()

    def extreme_points(self):
        """Vertices for polytopes; a spray of 64 boundary extreme points otherwise."""
        if self.kind == "polytope":
            return self.vertices.copy()
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((64, self.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return np.array([self.support_point(u) for u in dirs])

    def sample(self, rng, size):
        """Draw points of the set (uniform for ball/sphere/box variants)."""
        out = np.empty((size, self.d))
        for i in range(size):
            out[i] = self._sample_one(rng)
        return out

    def _sample_one(self, rng):
        if self.kind in ("ball", "ellipsoid"):
            u = unit_vector(rng, self.d) * rng.uniform() ** (1.0 / self.d)
            scale = self.radius if self.kind == "ball" else self.semi_axes
            return self.center + scale * u
        if self.kind in ("sphere", "ellipsoid-boundary"):
            u = unit_vector(rng, self.d)
            scale = self.radius if self.kind == "sphere" else self.semi_axes
            return self.center + scale * u
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        if self.is_box or self.d == 1:
            return rng.uniform(lo, hi)
        for _ in range(10000):
            z = rng.uniform(lo, hi)
            if _point_in_hull_2d(z, self.vertices, 1e-12):
                return z
        raise RuntimeError("rejection sampling failed (degenerate polytope?)")

    def min_curvature(self):
        """Smallest principal curvature of the boundary (0 and a failure note for polytopes)."""
        if self.kind in ("ball", "sphere"):
            if self.d == 1:
                return CurvatureReport(np.inf, True, "isolated endpoints (d=1)")
            return CurvatureReport(1.0 / self.radius, True, "round boundary")
        if self.kind in ("ellipsoid", "ellipsoid-boundary"):
            if self.d == 1:
                return CurvatureReport(np.inf, True, "isolated endpoints (d=1)")
            a_min, a_max = float(np.min(self.semi_axes)), float(np.max(self.semi_axes))
            return CurvatureReport(a_min / a_max**2, True, "ellipsoidal boundary")
        return CurvatureReport(0.0, False, "flat faces: no curvature lower bound")


def _e1(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def unit_vector(rng, d):
    """A uniformly random unit vector of R^d: the first normalized draw of d
    standard normals whose norm exceeds 1e-12."""
    while True:
        g = rng.standard_normal(d)
        r = np.linalg.norm(g)
        if r > 1e-12:
            return g / r


def _box_corners(lo, hi):
    d = len(lo)
    corners = []
    for mask in range(2**d):
        corners.append([hi[j] if (mask >> j) & 1 else lo[j] for j in range(d)])
    return np.asarray(corners, dtype=float)


def _hull_2d(points):
    """Monotone-chain convex hull, counterclockwise, no repeated endpoint."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def _point_in_hull_2d(z, vertices, tol):
    hull = _hull_2d(vertices)
    if hull.shape[0] == 1:
        return bool(np.linalg.norm(z - hull[0]) <= tol)
    if hull.shape[0] == 2:
        return bool(np.linalg.norm(z - _segment_project(z, hull[0], hull[1])) <= tol)
    scale = max(1.0, float(np.max(np.abs(hull))))
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        edge = b - a
        if (edge[0] * (z[1] - a[1]) - edge[1] * (z[0] - a[0])) < -tol * scale:
            return False
    return True


def _segment_project(z, a, b):
    ab = b - a
    t = float(np.dot(z - a, ab) / max(np.dot(ab, ab), 1e-300))
    return a + min(1.0, max(0.0, t)) * ab


def _ellipsoid_boundary_project(y, axes):
    """Nearest boundary point of the axis-aligned ellipsoid |y_j / a_j| <= 1.

    Standard scalar root-find: the projection is y_j a_j^2 / (a_j^2 + t) with
    t the root of sum (a_j y_j / (a_j^2 + t))^2 = 1, t > -min a_j^2.
    """
    y = np.asarray(y, dtype=float)
    a2 = axes**2
    if np.all(np.abs(y) < 1e-14):
        out = np.zeros_like(y)
        out[np.argmin(axes)] = np.min(axes)
        return out

    def g(t):
        return float(np.sum((axes * y) ** 2 / (a2 + t) ** 2) - 1.0)

    lo = -np.min(a2) * (1.0 - 1e-12)
    while g(lo) < 0:  # guard: y nearly on the short axis
        lo = -np.min(a2) + (lo + np.min(a2)) / 10.0
        if lo <= -np.min(a2) * (1.0 - 1e-15):
            break
    hi = max(1.0, float(np.linalg.norm(axes * y)))
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return y * a2 / (a2 + t)


# -- constructors -------------------------------------------------------


def ball(center, radius):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return SupportSet(kind="ball", d=center.size, center=center, radius=float(radius))


def sphere(center, radius):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return SupportSet(kind="sphere", d=center.size, center=center, radius=float(radius))


def ellipsoid(center, semi_axes, boundary_only):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    kind = "ellipsoid-boundary" if boundary_only else "ellipsoid"
    return SupportSet(kind=kind, d=center.size, center=center, semi_axes=np.atleast_1d(semi_axes))


def interval(lo, hi):
    if not lo < hi:
        raise ValueError("need lo < hi")
    return SupportSet(
        kind="polytope", d=1, center=np.array([(lo + hi) / 2.0]), vertices=np.array([[lo], [hi]])
    )


def box(lo, hi):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("need lo < hi componentwise")
    return SupportSet(
        kind="polytope",
        d=lo.size,
        center=(lo + hi) / 2.0,
        vertices=_box_corners(lo, hi),
    )


def polygon(vertices):
    verts = np.asarray(vertices, dtype=float)
    return SupportSet(
        kind="polytope", d=verts.shape[1], center=verts.mean(axis=0), vertices=verts
    )
