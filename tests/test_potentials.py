"""Unit tests for the potential families and displacement fields.

The bump value/gradient/hessian trio is the analytic backbone of the
drift-vector machinery, so those get finite-difference cross-checks; the
rest is shape, support, and wrapping bookkeeping.
"""

import numpy as np
import pytest

from displab.discretize import GridSpec
from displab.potentials import (
    DisplacementTooLargeError,
    FieldChunk,
    UnknownFamilyError,
    as_points,
    constant_field,
    eval_total_potential,
    periodic_family,
    single_site_family,
    site_lattice,
    wrap_nearest,
)


def test_bump_peak_value():
    # exp(1/(u-1)) at u=0 is exp(-1); peak sits on the bump center
    q = single_site_family("sym-bump", 1, amplitude=0.5, radius=0.45)
    peak = q.value(np.array([[0.0]]))[0]
    assert np.isclose(peak, 0.5 * np.exp(-1.0), rtol=0, atol=1e-15)


def test_bump_compact_support():
    q = single_site_family("sym-bump", 1, amplitude=0.5, radius=0.45)
    xs = np.linspace(-1.0, 1.0, 801).reshape(-1, 1)
    vals = q.value(xs)
    outside = np.abs(xs[:, 0]) >= q.radius
    assert np.all(vals[outside] == 0.0)
    assert np.all(vals >= 0.0)
    # smooth vanishing: value and gradient both tiny just inside the edge
    edge = np.array([[q.radius * (1 - 1e-6)]])
    assert q.value(edge)[0] < 1e-200
    assert abs(q.gradient(edge)[0, 0]) < 1e-180


@pytest.mark.parametrize("d", [1, 2])
def test_bump_gradient_matches_finite_differences(d):
    q = single_site_family("asym-bump", d, amplitude=0.5, radius=0.45)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.3, 0.3, size=(40, d))
    grad = q.gradient(pts)
    h = 1e-6
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fd = (q.value(pts + e) - q.value(pts - e)) / (2 * h)
        assert np.max(np.abs(fd - grad[:, j])) < 5e-6


def test_gradient_convergence_order():
    """Central differences on the bump converge at second order."""
    q = single_site_family("sym-bump", 1, amplitude=1.0, radius=0.4)
    pt = np.array([[0.17]])
    exact = q.gradient(pt)[0, 0]
    errs = []
    for h in (1e-3, 5e-4):
        fd = (q.value(pt + h) - q.value(pt - h))[0] / (2 * h)
        errs.append(abs(fd - exact))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.8


def test_asym_bump_breaks_reflection():
    q = single_site_family("asym-bump", 1)
    xs = np.linspace(-0.4, 0.4, 41).reshape(-1, 1)
    assert not np.allclose(q.value(xs), q.value(-xs))


def test_sym_bump_is_even():
    q = single_site_family("sym-bump", 2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-0.4, 0.4, size=(30, 2))
    assert np.allclose(q.value(xs), q.value(-xs))


def test_bump_parts_stay_inside_radius():
    q = single_site_family("asym-bump", 1, radius=0.45)
    for part in q.parts:
        assert np.linalg.norm(part.center) + part.rho <= q.radius + 1e-9


def test_cosine_periodic_values():
    p = periodic_family("cosine", 1, coefficients=[-1.0])
    xs = np.array([[0.0], [0.25], [0.5], [1.0]])
    assert np.allclose(p.value(xs), [-1.0, 0.0, 1.0, -1.0])
    # periodicity
    rng = np.random.default_rng(1)
    ys = rng.uniform(-2, 2, size=(20, 1))
    assert np.allclose(p.value(ys), p.value(ys + 1.0))


def test_zero_families():
    p = periodic_family("zero", 2)
    q = single_site_family("zero", 2)
    xs = np.random.default_rng(2).uniform(-1, 1, size=(10, 2))
    assert np.all(p.value(xs) == 0.0)
    assert np.all(q.value(xs) == 0.0)
    assert q.is_zero


def test_unknown_family_raises():
    with pytest.raises(UnknownFamilyError):
        periodic_family("quartic", 1)
    with pytest.raises(UnknownFamilyError):
        single_site_family("mexican-hat", 1)


def test_points_carry_their_coordinate_axis():
    """Points are (..., d) in every dimension: N points of d = 1 are (N, 1),
    and an (N,) array or a scalar is refused rather than read as N points."""
    q = single_site_family("sym-bump", 1)
    xs = np.array([[0.0], [0.1], [0.3]])
    assert as_points(xs, 1).shape == (3, 1) and q.value(xs).shape == (3,)
    assert as_points(np.array([0.1]), 1).shape == (1,)
    for bad in (np.array([0.0, 0.1, 0.3]), 0.1):
        with pytest.raises(ValueError, match="expected"):
            as_points(bad, 1)
        with pytest.raises(ValueError):
            q.value(bad)
    with pytest.raises(ValueError):
        as_points(np.zeros((4, 3)), 2)


def test_wrap_nearest():
    y = np.array([0.6, -0.6, 0.49, 1.0, -1.51])
    w = wrap_nearest(y, 1.0)
    assert np.allclose(w, [-0.4, 0.4, 0.49, 0.0, 0.49])
    assert np.all(np.abs(w) <= 0.5 + 1e-15)


def test_site_lattice_order_and_range():
    lat = site_lattice(1, 2)
    assert lat.shape == (9, 2)
    # C order: last axis fastest
    assert np.array_equal(lat[:3], [[-1, -1], [-1, 0], [-1, 1]])
    assert lat.min() == -1 and lat.max() == 1


def test_constant_field_and_norms():
    """A constant field is a chunk of one; a chunk's values carry the chunk
    axis, so one field's bare (sites, d) values are refused."""
    f = constant_field(2, 1, np.array([-1.0]))
    assert len(f) == 1
    assert f.values.shape == (1, 5, 1)
    assert np.array_equal(f.values, np.full((1, 5, 1), -1.0))
    assert f.max_norm() == 1.0
    with pytest.raises(ValueError):
        FieldChunk(n=2, d=1, values=np.zeros((1, 4, 1)))
    with pytest.raises(ValueError):
        FieldChunk(n=2, d=1, values=np.zeros((5, 1)))


def test_total_potential_periodicity_and_displacement_guard():
    p = periodic_family("cosine", 1, coefficients=[-1.0])
    q = single_site_family("asym-bump", 1)
    n = 1
    field = constant_field(n, 1, np.array([-1.0]))
    xs = np.linspace(-1.5, 1.5, 31).reshape(-1, 1)
    vals = eval_total_potential(p, q, 0.1, field, xs)
    period = 2 * n + 1
    shifted = eval_total_potential(p, q, 0.1, field, xs + period)
    assert np.allclose(vals, shifted)
    with pytest.raises(DisplacementTooLargeError):
        eval_total_potential(p, q, 0.56, field, xs)  # 0.56 * 1 + 0.45 >= 1


def _all_sites_reference(p, q, lam, field, x):
    """The O(sites x points) sum: every site's bump at every point."""
    x = as_points(x, q.d)
    out = p.value(x)
    for c in site_lattice(field.n, field.d) + lam * field.values[0]:
        out += q.value(wrap_nearest(x - c, 2 * field.n + 1))
    return out


@pytest.mark.parametrize("family", ["sym-bump", "asym-bump"])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_total_potential_equals_all_sites_sum_bitwise(d, n, family):
    """Locality (each bump evaluated only on its 3^d neighbouring cells) must
    not change a bit, with lam * max|omega| + r_q just below 1 so that the
    sym-bump reaches as far as the guard allows; n = 0 makes all neighbours
    one cell."""
    rng = np.random.default_rng(100 * d + n)
    p = periodic_family("cosine", d, coefficients=[-1.0] * d)
    q = single_site_family(family, d, amplitude=0.5, radius=0.49)
    sites = (2 * n + 1) ** d
    omega = rng.normal(size=(sites, d))
    omega *= rng.uniform(0.5, 1.0, size=(sites, 1)) / np.linalg.norm(omega, axis=1, keepdims=True)
    omega[0] /= np.linalg.norm(omega[0])  # max |omega| = 1
    field = FieldChunk(n=n, d=d, values=omega[None])
    lam = (1.0 - q.radius) * (1.0 - 1e-12)
    assert 1.0 - 1e-9 < lam * field.max_norm() + q.radius < 1.0
    L = 2 * n + 1
    spec = GridSpec(d=d, n=n, m=8)
    grid = spec.points()
    off_grid = rng.uniform(-1.5 * L, 1.5 * L, size=(500, d))
    cell_edges = rng.integers(-L, L, size=(40, d)) + 0.5
    for x in (grid, off_grid, cell_edges):
        got = eval_total_potential(p, q, lam, field, x)
        want = _all_sites_reference(p, q, lam, field, x)
        assert got.shape == (1,) + want.shape == (1, len(x))
        assert np.array_equal(got[0].view(np.int64), want.view(np.int64))
        assert np.any(got[0] != p.value(x)), "bumps must contribute"
    non_finite = np.array([[np.nan] * d, [np.inf] * d, [-np.inf] * d])
    with np.errstate(invalid="ignore"):
        got = eval_total_potential(p, q, lam, field, non_finite)
        want = _all_sites_reference(p, q, lam, field, non_finite)
    assert np.array_equal(got[0].view(np.int64), want.view(np.int64))
    batched = eval_total_potential(p, q, lam, field, off_grid.reshape(20, 25, d))
    assert batched.shape == (1, 20, 25)
    assert np.array_equal(batched[0].ravel(), eval_total_potential(p, q, lam, field, off_grid)[0])


def _one_field_reference(p, q, lam, field, x):
    """The per-site loop ``eval_total_potential`` ran before chunks and
    before each bump was evaluated only within its reach: one field (a
    chunk of one), its sites in ``site_lattice`` order, each bump evaluated on all points of the
    3^d cells around its site."""
    x = as_points(x, q.d)
    shape = x.shape[:-1]
    x = x.reshape(-1, q.d)
    period = 2 * field.n + 1
    cells = (period,) * q.d
    cell = np.mod(np.round(np.nan_to_num(x)), period).astype(np.intp)
    cell_id = np.ravel_multi_index(tuple(cell.T), cells)
    counts = np.bincount(cell_id, minlength=period**q.d)
    members = np.split(np.argsort(cell_id, kind="stable"), np.cumsum(counts)[:-1])
    steps = site_lattice(1, q.d)
    out = p.value(x)
    for gamma, c in zip(site_lattice(field.n, q.d), site_lattice(field.n, q.d) + lam * field.values[0]):
        # at L = 1 all 3^d neighbours are one cell: visit it once
        near = np.unique(np.ravel_multi_index(tuple((gamma + steps).T), cells, mode="wrap"))
        idx = np.concatenate([members[k] for k in near])
        out[idx] += q.value(wrap_nearest(x[idx] - c, period))
    return out.reshape(shape)


@pytest.mark.parametrize("d,n", [(1, 0), (1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_chunk_total_potential_equals_one_field_at_a_time_bitwise(d, n):
    """A chunk of fields gives each field's row of the one-field loop, bit
    for bit, on the grid and off it; a single field is a chunk of one."""
    rng = np.random.default_rng(10 * d + n)
    p = periodic_family("cosine", d, coefficients=[-1.0] * d)
    q = single_site_family("asym-bump", d, amplitude=0.5, radius=0.45)
    sites = (2 * n + 1) ** d
    omega = rng.uniform(-1.0, 1.0, size=(5, sites, d)) / np.sqrt(d)
    omega[3, 0] = 1.0 / np.sqrt(d)  # max |omega| = 1, in one field only
    chunk = FieldChunk(n=n, d=d, values=omega)
    lam = 0.5
    spec = GridSpec(d=d, n=n, m=4 if d == 3 else 8)
    L = 2 * n + 1
    off_grid = rng.uniform(-1.5 * L, 1.5 * L, size=(6, 7, d))
    for x in (spec.points(), off_grid):
        got = eval_total_potential(p, q, lam, chunk, x)
        assert got.shape == (5,) + x.shape[:-1]
        for k in range(5):
            want = _one_field_reference(p, q, lam, chunk.take([k]), x)
            assert np.array_equal(got[k].view(np.int64), want.view(np.int64))
            one = eval_total_potential(p, q, lam, chunk.take([k]), x)
            assert one.shape == (1,) + x.shape[:-1]
            assert np.array_equal(one[0].view(np.int64), want.view(np.int64))
    assert np.array_equal(chunk.take([2]).values, omega[2:3])
    with pytest.raises(DisplacementTooLargeError):
        eval_total_potential(p, q, 0.56, chunk, off_grid)  # 0.56 * 1 + 0.45 >= 1
