"""Periodic backgrounds, compactly supported site potentials, displacement fields.

Displacement fields come K at a time as a ``FieldChunk``; a single field is
a chunk of one.

All evaluators take points as arrays whose last axis is the coordinate axis
(shape ``(..., d)``), in every dimension: N points of d = 1 are ``(N, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UnknownFamilyError(KeyError):
    """Requested builtin family name does not exist."""


class DisplacementTooLargeError(ValueError):
    """lam * max|omega| + r_q >= 1: site bumps may wrap ambiguously."""


def as_points(x, d):
    """``x`` as a float array of points, shape ``(..., d)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"points have shape {x.shape}, expected (..., {d})")
    return x


def wrap_nearest(y, period):
    """Wrap offsets to the symmetric fundamental domain [-period/2, period/2)."""
    return y - period * np.round(y / period)


@dataclass(frozen=True)
class PeriodicPotential:
    """Z^d-periodic background.  ``value`` evaluates pointwise."""

    d: int
    name: str
    coefficients: tuple = ()

    def value(self, x):
        x = as_points(x, self.d)
        if self.name == "zero":
            return np.zeros(x.shape[:-1])
        if self.name == "cosine":
            out = np.zeros(x.shape[:-1])
            for j, c in enumerate(self.coefficients):
                out += c * np.cos(2.0 * np.pi * x[..., j])
            return out
        raise UnknownFamilyError(self.name)


@dataclass(frozen=True)
class BumpPart:
    """One scaled/shifted copy of the standard bump: amp * b((x-center)/rho)."""

    center: tuple
    rho: float
    amp: float


def _bump_value(y, rho):
    u = np.sum((y / rho) ** 2, axis=-1)
    out = np.zeros(u.shape)
    inside = u < 1.0
    out[inside] = np.exp(1.0 / (u[inside] - 1.0))
    return out


def _bump_gradient(y, rho):
    u = np.sum((y / rho) ** 2, axis=-1)
    out = np.zeros(y.shape)
    inside = u < 1.0
    ui = u[inside]
    f = np.exp(1.0 / (ui - 1.0))
    out[inside] = (-f / (ui - 1.0) ** 2 * (2.0 / rho**2))[..., None] * y[inside]
    return out


@dataclass(frozen=True)
class SingleSitePotential:
    """Compactly supported C^2 site potential: a finite sum of smooth bumps.

    ``radius`` is the support radius; every part lies strictly inside the
    ball of that radius, and values/derivatives vanish identically outside.
    """

    d: int
    name: str
    radius: float
    parts: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 0.0 < self.radius < 0.5:
            raise ValueError("site support radius must lie in (0, 1/2)")
        for p in self.parts:
            reach = float(np.linalg.norm(p.center)) + p.rho
            if reach >= self.radius + 1e-12:
                raise ValueError("bump part escapes the declared support radius")

    def _offsets(self, x, part):
        return x - np.asarray(part.center, dtype=float)

    def value(self, x):
        x = as_points(x, self.d)
        out = np.zeros(x.shape[:-1])
        for p in self.parts:
            out += p.amp * _bump_value(self._offsets(x, p), p.rho)
        return out

    def gradient(self, x):
        x = as_points(x, self.d)
        out = np.zeros(x.shape)
        for p in self.parts:
            out += p.amp * _bump_gradient(self._offsets(x, p), p.rho)
        return out

    @property
    def is_zero(self):
        return not self.parts


@dataclass(frozen=True)
class FieldChunk:
    """The displacement fields of a chunk of samples on one torus lattice.

    ``values`` has shape (K, (2n+1)^d, d): row k is the k-th field's
    per-site displacements, sites in ``site_lattice`` order.  Fields come K
    at a time, and a single field is a chunk of one; ``eval_total_potential``,
    ``assemble_periodic`` and ``build_reduced`` give one result per field,
    stacked.
    """

    n: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        m = (2 * self.n + 1) ** self.d
        if vals.ndim != 3 or vals.shape[1:] != (m, self.d):
            raise ValueError(f"chunk shape {vals.shape} != (K, {m}, {self.d})")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.shape[0]

    def take(self, rows):
        """The chunk of the fields at positions ``rows``."""
        return FieldChunk(n=self.n, d=self.d, values=self.values[list(rows)])

    def max_norm(self):
        """Largest |omega| over every site of every field."""
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.values, axis=-1)))


def site_lattice(n, d):
    """Integer sites gamma in {-n..n}^d, lexicographic (C-order) rows."""
    axes = [np.arange(-n, n + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def constant_field(n, d, zeta):
    """The chunk of one field that displaces every site by ``zeta``."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    m = (2 * n + 1) ** d
    return FieldChunk(n=n, d=d, values=np.tile(zeta, (1, m, 1)))


_REACH_SLACK = 1e-9  # kept beyond lam * max|omega| + r_q, for the rounding of both sides


def _axis_sites(x, n, reach):
    """Per axis, the sites within ``reach`` of each point, in two layers.

    Along axis j, with c = round(x_j) and t = x_j - c, the candidates are
    site c, at torus distance |t|, and site c + sign(t), at 1 - |t|: reach
    < 1 rules out the third neighbour.  Returns ``index`` and ``dist``, each
    (2, P, d): layer 0 holds the site of the smaller index along the axis
    (its position -n..n plus n) among those within reach, layer 1 the
    other, and ``dist`` their distances, inf where a layer holds none.  On a
    torus of side 1 the two candidates are one site, at distance |t|.
    """
    period = 2 * n + 1
    cell = np.round(x)
    with np.errstate(invalid="ignore"):
        t = x - cell  # exact; NaN for a non-finite point, which is within reach of no site
    own = cell + n
    off = ~((own >= 0) & (own < period))  # outside the fundamental domain, or not finite
    if off.any():
        own[off] = np.mod(np.nan_to_num(own[off]), period)
    own = own.astype(np.intp)
    other = own + 2 * (t > 0) - 1
    other[other == period] = 0
    other[other < 0] = period - 1
    own_dist = np.abs(t)
    other_dist = 1.0 - own_dist
    own_seen = own_dist < reach
    other_seen = (other_dist < reach) & (period > 1)
    own_dist[~own_seen] = np.inf
    other_dist[~other_seen] = np.inf
    own_first = own_seen & ~(other_seen & (other < own))
    return (
        np.stack([np.where(own_first, own, other), np.where(own_first, other, own)]),
        np.stack([np.where(own_first, own_dist, other_dist), np.where(own_first, other_dist, own_dist)]),
    )


def eval_total_potential(p, q, lam, field, x):
    """Background plus torus-periodized sum of displaced site potentials.

    ``field`` is a ``FieldChunk`` of K fields; the values come one row per
    field, shape (K,) + ``x.shape[:-1]``.

    The torus has side L = 2n+1; each site's bump is evaluated at the nearest
    periodic image.  Requires lam * max|omega| + r_q < 1 so that no bump
    wraps ambiguously across its own images.

    Locality: the bump of site gamma vanishes unless the torus distance
    |x - gamma| < lam * max|omega| + r_q, the reach (over the chunk's
    fields), so along each axis a point is within reach of at most two
    sites, and of at most 2^d in all (``_axis_sites``).  Each bump is
    evaluated only at the points within its reach, for every field of the
    chunk, in one vectorized pass, and the values are added in 2^d layers,
    one per choice of the lower or the higher of the two sites along each
    axis, in lexicographic order: for every point that is ``site_lattice``
    order.  Every point of every field so gets the same additions in the
    same site order as the sum over all sites of that field alone, minus
    the exact +0.0 terms of the sites out of reach, so the result is
    bitwise equal.
    """
    if p.d != q.d or field.d != q.d:
        raise ValueError("dimension mismatch between p, q and field")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    reach = lam * field.max_norm() + q.radius
    if reach >= 1.0:
        raise DisplacementTooLargeError(f"lam*max|omega| + r_q = {reach:.3f} >= 1")
    x = as_points(x, q.d)
    shape = x.shape[:-1]
    x = x.reshape(-1, q.d)
    out = np.repeat(p.value(x)[None], len(field), axis=0)
    if not q.is_zero:
        period = 2 * field.n + 1
        centers = site_lattice(field.n, field.d) + lam * field.values
        kept = reach + _REACH_SLACK
        index, dist = _axis_sites(x, field.n, kept)
        axes = np.arange(q.d)
        strides = period ** axes[::-1]
        layers = []
        for layer in np.ndindex(*(2,) * q.d):  # lexicographic: increasing site index
            layer = np.array(layer)
            pts = np.flatnonzero(np.sum(dist[layer, :, axes] ** 2, axis=0) < kept**2)
            layers.append((pts, index[layer, pts[:, None], axes] @ strides))
        pts, sites = (np.concatenate(part) for part in zip(*layers))
        vals = q.value(wrap_nearest(x[pts] - centers[:, sites], period))
        done = 0
        for pts, _ in layers:
            out[:, pts] += vals[:, done : done + pts.size]
            done += pts.size
    return out.reshape((len(field),) + shape)


def periodic_family(name, d, coefficients=None):
    """Builtin periodic backgrounds: 'cosine' (sum of c_j cos 2 pi x_j), 'zero'."""
    if name == "zero":
        return PeriodicPotential(d=d, name="zero")
    if name == "cosine":
        if coefficients is None:
            coefficients = (1.0,) * d
        coefficients = tuple(float(c) for c in coefficients)
        if len(coefficients) != d:
            raise ValueError("cosine family needs one coefficient per axis")
        return PeriodicPotential(d=d, name="cosine", coefficients=coefficients)
    raise UnknownFamilyError(name)


def single_site_family(name, d, amplitude=0.5, radius=0.45):
    """Builtin site potentials.

    'sym-bump'   -- reflection-symmetric bump of the given support radius;
                    peak value amplitude * e^{-1} at the origin.
    'asym-bump'  -- two bumps of equal width but unequal height, the heavier
                    one shifted along -e_1; breaks reflection symmetry so the
                    band-edge drift vector is nonzero, and keeps the
                    constant-field energy monotone across the support at
                    moderate coupling (one descent basin).
    'zero'       -- identically zero (keeps a nominal support radius).
    """
    if name == "zero":
        return SingleSitePotential(d=d, name="zero", radius=radius, parts=())
    if name == "sym-bump":
        part = BumpPart(center=(0.0,) * d, rho=radius * (1.0 - 1e-9), amp=amplitude)
        return SingleSitePotential(d=d, name="sym-bump", radius=radius, parts=(part,))
    if name == "asym-bump":
        shift = (-0.444 * radius,) + (0.0,) * (d - 1)
        parts = (
            BumpPart(center=(0.0,) * d, rho=0.5 * radius, amp=0.5 * amplitude),
            BumpPart(center=shift, rho=0.5 * radius, amp=amplitude),
        )
        return SingleSitePotential(d=d, name="asym-bump", radius=radius, parts=parts)
    raise UnknownFamilyError(name)
