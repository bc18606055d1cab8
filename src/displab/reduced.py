"""Reduced lattice comparison operators and the two-sided spectral sandwich.

The reduced model lives on the site lattice: half the torus graph Laplacian
(the exact image of the fiber dispersion sum_j (1 - cos theta_j) under the
character transform) plus a displacement-dependent diagonal

    lam * [ v . (omega_gamma - zeta) +- c0 * alpha * |omega_gamma - zeta|^2 ].

Conjugated by the lowest-band site frame and padded with the complementary
block, the pair of signed models pinches the shifted torus operator from both
sides once the constant c0 is large enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiagonalStack, assemble_periodic, periodic_laplacian
from .floquet import build_projectors, dispersion_symbol, fiber_ground, v_vector
from .potentials import FieldChunk, constant_field
from .randomfields import sample_fields


def symbol_kinetic(d, side):
    """Half the graph Laplacian of the discrete torus (Z / side)^d.

    Equals the character transform of the multiplier sum_j (1 - cos theta_j)
    over the momenta 2 pi k / side -- the identity the tests pin down.
    """
    return 0.5 * periodic_laplacian(d, side, 1.0)[0]


@dataclass(frozen=True)
class ReducedModel:
    """The signed comparison operators h^sign on the site lattice of a
    chunk of fields: ``matrix[k]`` is the operator of ``field``'s k-th."""

    sign: int
    lam: float
    zeta: np.ndarray
    c0: float
    alpha: float
    field: FieldChunk
    matrix: DiagonalStack

    @property
    def n_sites(self):
        return self.matrix.shape[0]


def build_reduced(sign, v, lam, zeta, field, c0, alpha):
    """Assemble h^sign = kinetic_scale * (symbol kinetic) + diagonal.

    sign=-1 scales the kinetic part by 1/c0 (lower model), sign=+1 by c0
    (upper model); the diagonal couples linearly through v and quadratically
    through c0 * alpha, with the quadratic term signed.  Every diagonal of
    the ``FieldChunk`` is computed at once and ``matrix`` is their
    ``DiagonalStack``: a field's operator is the same, bit for bit, whatever
    chunk it comes in.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if c0 < 1.0:
        raise ValueError("c0 must be >= 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    kin_scale = c0 if sign > 0 else 1.0 / c0
    dz = field.values - zeta
    diags = lam * (dz @ v + sign * c0 * alpha * np.sum(dz**2, axis=-1))
    # 0.5 * kin_scale times the h = 1 stencil is kin_scale * symbol_kinetic bit
    # for bit: halving is exact.
    return ReducedModel(
        sign=sign, lam=lam, zeta=zeta, c0=c0, alpha=alpha, field=field,
        matrix=DiagonalStack(
            *periodic_laplacian(field.d, 2 * field.n + 1, 1.0), diags, 0.5 * kin_scale
        ),
    )


@dataclass(frozen=True)
class GroundZeroReport:
    min_eigenvalue: float
    field_is_constant: bool
    lower_bound: float
    consistent: bool


def ground_zero_iff_constant(model):
    """Check, field by field: the lower model's bottom is 0 exactly at the
    constant field.  Returns one report per field of ``model.field``.

    For non-constant fields the bottom must be strictly positive and clear a
    quadratic floor: the diagonal dominates lam * (alpha0/2) |dev|^2 per site
    (alpha0 recovered as 2 c0 alpha), so the worst-site deviation divided by
    the site count is a crude but honest lower bound.  The floor is vacuous
    when some site sits exactly at zeta.
    """
    if model.sign != -1:
        raise ValueError("zero-ground characterization applies to the lower model")
    alpha0_equiv = 2.0 * model.c0 * model.alpha
    reports = []
    for k, values in enumerate(model.field.values):
        bottom = float(np.linalg.eigvalsh(model.matrix[k].toarray())[0])
        dz = values - model.zeta
        if np.max(np.abs(dz)) <= 1e-10:
            reports.append(GroundZeroReport(bottom, True, 0.0, bool(abs(bottom) <= 1e-12)))
            continue
        min_dev2 = float(np.min(np.sum(dz**2, axis=1)))
        quad_floor = model.lam * alpha0_equiv * min_dev2 / (2.0 * model.n_sites)
        ok = bottom > 1e-13 and bottom >= quad_floor - 1e-13
        reports.append(GroundZeroReport(bottom, False, quad_floor, bool(ok)))
    return tuple(reports)


@dataclass(frozen=True)
class BandSymbolTable:
    thetas: np.ndarray
    ratios: np.ndarray

    @property
    def min_ratio(self):
        return float(np.min(self.ratios))

    @property
    def max_ratio(self):
        return float(np.max(self.ratios))

    @property
    def spread(self):
        return self.max_ratio / self.min_ratio


def band_symbol_ratio(p, q, lam, zeta, m, thetas):
    """(E_0(theta) - E_0(0)) / sum_j (1 - cos theta_j) over nonzero momenta."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    e00, _, _ = fiber_ground(p, q, lam, zeta, np.zeros(q.d), m)
    ratios, kept = [], []
    for theta in np.atleast_2d(thetas):
        s = dispersion_symbol(theta)
        if s < 1e-12:
            continue
        e0, _, _ = fiber_ground(p, q, lam, zeta, theta, m)
        ratios.append((e0 - e00) / s)
        kept.append(theta)
    if not ratios:
        raise ValueError("theta list contains no nonzero momentum")
    return BandSymbolTable(thetas=np.asarray(kept), ratios=np.asarray(ratios))


# -- the two-sided sandwich ----------------------------------------------


@dataclass(frozen=True)
class SandwichOperators:
    """Dense forms of both sandwich sides and the pinched middle."""

    middle: np.ndarray  # H_{lam,omega} - E(lam, zeta)
    lower: np.ndarray  # (1/c0) (W h^- W* + Pi_+)
    upper: np.ndarray  # c0 (W h^+ W* + H-tilde_+)


def sandwich_operators(p, q, lam, field, zeta, grid, c0, alpha, pack):
    """Materialize lower / middle / upper for one displacement field, given
    as its chunk of one.

    The site frame W unfolds the reduced models into the lowest-band range;
    the complementary block is the bare projector for the lower side and the
    symmetrized compression of the shifted constant-field operator for the
    upper side.  ``pack`` is ``build_projectors(p, q, lam, zeta, grid)``.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    v = v_vector(p, q, lam, zeta, m=grid.m)
    e_ref = float(pack.energies[np.argmax(np.all(pack.thetas == 0.0, axis=1))])
    w = pack.site_isometry()
    pi_plus = pack.pi_plus()

    h_minus = build_reduced(-1, v, lam, zeta, field, c0, alpha).matrix[0].toarray()
    h_plus = build_reduced(+1, v, lam, zeta, field, c0, alpha).matrix[0].toarray()

    middle_op = assemble_periodic(p, q, lam, field, grid).matrix[0].toarray()
    middle = middle_op - e_ref * np.eye(middle_op.shape[0])

    const_op = assemble_periodic(
        p, q, lam, constant_field(grid.n, grid.d, zeta), grid
    ).matrix[0].toarray()
    shifted_const = const_op - e_ref * np.eye(const_op.shape[0])
    htilde = pi_plus @ shifted_const @ pi_plus
    htilde = 0.5 * (htilde + htilde.conj().T)

    lower = (w @ h_minus @ w.conj().T + pi_plus) / c0
    upper = c0 * (w @ h_plus @ w.conj().T + htilde)
    lower = 0.5 * (lower + lower.conj().T)
    upper = 0.5 * (upper + upper.conj().T)
    return SandwichOperators(middle=middle, lower=lower, upper=upper)


@dataclass(frozen=True)
class SandwichReport:
    c0: float
    alpha: float
    min_quad_lower: float
    min_quad_upper: float
    min_eig_lower: float
    min_eig_upper: float

    @property
    def passed(self):
        floor = -1e-8
        return (
            self.min_quad_lower >= floor
            and self.min_quad_upper >= floor
            and self.min_eig_lower >= floor
            and self.min_eig_upper >= floor
        )


def sandwich_check(p, q, lam, field, zeta, grid, c0, alpha, trials, seed, pack):
    """Test middle - lower >= 0 and upper - middle >= 0 for one field (a
    chunk of one).

    Both differences are probed with ``trials`` random unit vectors (real and
    complex mixtures) and then certified by their smallest eigenvalue; the
    report keeps the worst quadratic form value and the worst eigenvalue for
    each side, and ``passed`` holds when none is below -1e-8.  ``pack`` is
    as in ``sandwich_operators``.
    """
    ops = sandwich_operators(p, q, lam, field, zeta, grid, c0, alpha, pack=pack)
    gap_low = ops.middle - ops.lower
    gap_up = ops.upper - ops.middle
    rng = np.random.default_rng(seed)
    n = gap_low.shape[0]
    min_q_low, min_q_up = np.inf, np.inf
    for t in range(trials):
        x = rng.standard_normal(n)
        if t % 2 == 1:
            x = x + 1j * rng.standard_normal(n)
        x = x / np.linalg.norm(x)
        min_q_low = min(min_q_low, float(np.vdot(x, gap_low @ x).real))
        min_q_up = min(min_q_up, float(np.vdot(x, gap_up @ x).real))
    eig_low = float(np.linalg.eigvalsh(0.5 * (gap_low + gap_low.conj().T))[0])
    eig_up = float(np.linalg.eigvalsh(0.5 * (gap_up + gap_up.conj().T))[0])
    return SandwichReport(
        c0=c0,
        alpha=alpha,
        min_quad_lower=min_q_low,
        min_quad_upper=min_q_up,
        min_eig_lower=eig_low,
        min_eig_upper=eig_up,
    )


@dataclass(frozen=True)
class SandwichCalibration:
    reports: tuple
    passing_c0: float | None

    @property
    def ok(self):
        return self.passing_c0 is not None


def calibrate_sandwich(
    p,
    q,
    lam,
    zeta,
    grid,
    alpha0,
    dist,
    c0_values,
    n_fields,
    master_seed,
    trials,
):
    """Scan c0 upward (alpha = alpha0 / (2 c0)) until the sandwich holds
    for every sampled field; returns the reports of the first passing c0
    and the worst margins seen along the way."""
    pack = build_projectors(p, q, lam, np.atleast_1d(zeta), grid)
    fields = sample_fields(dist, grid.n, master_seed, range(n_fields))
    all_reports = []
    passing = None
    for c0 in c0_values:
        alpha = alpha0 / (2.0 * c0)
        worst = None
        ok = True
        for s in range(n_fields):
            rep = sandwich_check(
                p, q, lam, fields.take([s]), zeta, grid, c0, alpha,
                trials=trials, seed=s, pack=pack,
            )
            if worst is None or min(rep.min_eig_lower, rep.min_eig_upper) < min(
                worst.min_eig_lower, worst.min_eig_upper
            ):
                worst = rep
            if not rep.passed:
                ok = False
                break
        all_reports.append(worst)
        if ok:
            passing = c0
            break
    return SandwichCalibration(reports=tuple(all_reports), passing_c0=passing)
