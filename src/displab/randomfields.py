"""Displacement distributions and reproducible field sampling.

Sampling is counter-based: every (master_seed, sample_index, site_index)
triple owns a dedicated Philox stream, so fields are bit-reproducible no
matter how samples are scheduled, and adding sites or samples never perturbs
existing draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import DisplacementField
from .supports import SupportSet

DISTRIBUTION_KINDS = ("uniform-ball", "uniform-sphere", "polar", "product-box")


class UnsupportedVariantError(ValueError):
    """Operation undefined for this distribution variant."""


@dataclass(frozen=True)
class DisplacementDistribution:
    """A per-site displacement law together with its support set.

    kind:
      uniform-ball    uniform on a solid ball (radial density (k+1) r^k / R^{k+1}
                      with k = d-1)
      uniform-sphere  uniform on the boundary shell (atomic radial law)
      polar           isotropic direction, radial density (k+1) r^k / R^{k+1}
                      for a chosen exponent k >= 0
      product-box     independent uniform coordinates on an axis-aligned box
    """

    kind: str
    support: SupportSet
    radial_exponent: float | None = None

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in ("uniform-ball", "polar") and self.support.kind != "ball":
            raise ValueError(f"{self.kind} needs a ball support")
        if self.kind == "uniform-sphere" and self.support.kind != "sphere":
            raise ValueError("uniform-sphere needs a sphere support")
        if self.kind == "product-box":
            if self.support.kind != "polytope" or not self.support.is_box:
                raise ValueError("product-box needs an axis-aligned box support")
        if self.kind == "polar":
            if self.radial_exponent is None or self.radial_exponent < 0:
                raise ValueError("polar needs radial_exponent >= 0")

    @property
    def d(self):
        return self.support.d

    def draw(self, rng):
        """One displacement from this law using the given generator."""
        d = self.d
        if self.kind == "product-box":
            lo = self.support.vertices.min(axis=0)
            hi = self.support.vertices.max(axis=0)
            return rng.uniform(lo, hi)
        center, radius = self.support.center, self.support.radius
        direction = _unit(rng, d)
        if self.kind == "uniform-sphere":
            return center + radius * direction
        k = float(d - 1) if self.kind == "uniform-ball" else float(self.radial_exponent)
        r = radius * rng.uniform() ** (1.0 / (k + 1.0))
        return center + r * direction


def _unit(rng, d):
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def site_rng(master_seed, sample_index, site_index):
    """Dedicated Philox stream for one site of one sample."""
    bg = np.random.Philox(key=[master_seed & 0xFFFFFFFFFFFFFFFF, sample_index])
    bg.advance(site_index << 16)
    return np.random.Generator(bg)


def sample_field(dist, n, master_seed, sample_index):
    """Draw a full displacement field on the lattice {-n..n}^d, canonical order.

    Site k draws from ``site_rng(master_seed, sample_index, k)``.  One Philox
    generator serves the whole sample: before each site it is put back to
    the key's starting state and advanced to that site's stream, which gives
    the same draws without constructing a generator per site.
    """
    d = dist.d
    n_sites = (2 * n + 1) ** d
    values = np.empty((n_sites, d))
    bg = np.random.Philox(key=[master_seed & 0xFFFFFFFFFFFFFFFF, sample_index])
    start = bg.state
    rng = np.random.Generator(bg)
    for site in range(n_sites):
        bg.state = start
        bg.advance(site << 16)
        values[site] = dist.draw(rng)
    return DisplacementField(n=n, d=d, values=values)


@dataclass(frozen=True)
class PolarParts:
    r: float
    sigma: np.ndarray
    degenerate: bool


def polar_decompose(omega):
    """omega = r sigma with |sigma| = 1; degenerate flags the r = 0 corner case."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    r = float(np.linalg.norm(omega))
    if r < 1e-300:
        sigma = np.zeros_like(omega)
        sigma[0] = 1.0
        return PolarParts(r=0.0, sigma=sigma, degenerate=True)
    return PolarParts(r=r, sigma=omega / r, degenerate=False)


def radial_density_bound(dist):
    """sup over (0, R) of |h'(r)| for the radial density h of |omega - center|.

    Power laws h(r) = (k+1) r^k / R^{k+1} give k (k+1) / R^2 for k >= 1,
    zero for k = 0, and an unbounded derivative for 0 < k < 1.  Atomic radial
    laws (boundary shells) return inf.  Box variants have no radial density;
    they raise.
    """
    if dist.kind == "product-box":
        raise UnsupportedVariantError("product-box has no isotropic radial density")
    if dist.kind == "uniform-sphere":
        return math.inf
    radius = dist.support.radius
    k = float(dist.d - 1) if dist.kind == "uniform-ball" else float(dist.radial_exponent)
    if k == 0.0:
        return 0.0
    if k < 1.0:
        return math.inf
    return k * (k + 1.0) * radius ** (k - 1.0) / radius ** (k + 1.0)


def radial_density_note(dist):
    """Human-readable verdict on the bounded-derivative requirement."""
    try:
        bound = radial_density_bound(dist)
    except UnsupportedVariantError:
        return "not applicable: no isotropic radial decomposition"
    if math.isinf(bound):
        if dist.kind == "uniform-sphere":
            return "fails: atomic radial law (all mass at r = R)"
        return "fails: radial density has unbounded derivative near 0"
    return f"holds: sup |h'| = {bound:.6g}"
