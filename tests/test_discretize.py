"""Grid bookkeeping and operator assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from displab.discretize import (
    DiagonalStack,
    GridSpec,
    assemble_fiber,
    assemble_periodic,
    diagonal_slots,
    fiber_diagonal,
    free_fiber_eigenvalues,
    periodic_laplacian,
    plus_diagonal,
)
from displab.potentials import (
    FieldChunk,
    constant_field,
    periodic_family,
    single_site_family,
    site_lattice,
    wrap_nearest,
)

P0 = periodic_family("zero", 1)
Q0 = single_site_family("zero", 1)


def test_gridspec_properties():
    g = GridSpec(d=2, n=1, m=8)
    assert g.h == 0.125
    assert g.side_cells == 3
    assert g.side_points == 24
    assert g.points().shape == (576, 2)
    assert g.cell_volume_element == 0.125**2


@pytest.mark.parametrize("bad", [dict(d=0, n=0, m=4), dict(d=1, n=-1, m=4), dict(d=1, n=0, m=3)])
def test_gridspec_validation(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_cell_axis_coords():
    """The n = 0 grid's axis is the unit cell's: -1/2 + j/m."""
    ax = GridSpec(d=1, n=0, m=4).axis_coords()
    assert np.allclose(ax, [-0.5, -0.25, 0.0, 0.25])


def test_axis_coords_cover_torus():
    g = GridSpec(d=1, n=1, m=4)
    ax = g.axis_coords()
    assert len(ax) == 12
    assert ax[0] == -1.5
    assert np.allclose(np.diff(ax), 0.25)


def test_cell_points_half_open():
    """The n = 0 grid's points fill the unit cell [-1/2, 1/2)^d."""
    g = GridSpec(d=2, n=0, m=5)
    pts = g.points()
    assert pts.shape == (25, 2)
    assert pts.min() == -0.5
    assert pts.max() < 0.5


def test_thetas_quantization():
    g = GridSpec(d=1, n=2, m=4)
    th = g.thetas()
    assert th.shape == (5, 1)
    assert np.allclose(th[:, 0], 2 * np.pi * np.arange(5) / 5)
    g2 = GridSpec(d=2, n=1, m=4)
    assert g2.thetas().shape == (9, 2)


def test_ring_eigenvalues_frozen():
    """4-point free ring: spectrum {0, 32, 32, 64} exactly (h = 1/4)."""
    op = assemble_fiber(P0, Q0, 0.0, np.array([0.0]), np.array([0.0]), 4)
    eigs = np.linalg.eigvalsh(op.toarray())
    assert np.allclose(eigs, [0.0, 32.0, 32.0, 64.0], atol=1e-12)


@pytest.mark.parametrize("m", [4, 6, 9])
@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi, 5.0])
def test_free_fiber_closed_form(m, theta):
    op = assemble_fiber(P0, Q0, 0.0, np.array([0.0]), np.array([theta]), m)
    eigs = np.linalg.eigvalsh(op.toarray())
    assert np.allclose(eigs, free_fiber_eigenvalues(theta, m), atol=1e-9)


def test_fiber_hermitian_and_dtype():
    p = periodic_family("cosine", 1, coefficients=[-1.0])
    q = single_site_family("asym-bump", 1)
    for theta in (0.0, np.pi):
        mat = assemble_fiber(p, q, 0.1, np.array([-1.0]), np.array([theta]), 8)
        assert mat.dtype == np.float64, "real phases must give a real matrix"
        assert (mat != mat.getH()).nnz == 0
    mat = assemble_fiber(p, q, 0.1, np.array([-1.0]), np.array([1.3]), 8)
    assert mat.dtype == np.complex128
    assert (mat != mat.getH()).nnz == 0


def test_fiber_two_pi_periodic():
    q = single_site_family("asym-bump", 1)
    a = assemble_fiber(P0, q, 0.1, np.array([-1.0]), np.array([0.9]), 6)
    b = assemble_fiber(P0, q, 0.1, np.array([-1.0]), np.array([0.9 + 2 * np.pi]), 6)
    assert np.max(np.abs((a - b).toarray())) < 1e-10


def test_fiber_rejects_bad_theta():
    with pytest.raises(ValueError):
        assemble_fiber(P0, Q0, 0.0, np.array([0.0]), np.array([0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        assemble_fiber(P0, Q0, 0.0, np.array([0.0]), np.array([np.inf]), 4)


def test_fiber_diagonal_samples_displaced_site():
    q = single_site_family("sym-bump", 1)
    grid, diag = fiber_diagonal(P0, q, 0.2, np.array([0.5]), 16)
    pts = grid.points()
    # the sampled bump is centered at lam * zeta = 0.1, periodized on the cell
    assert np.argmax(diag) == np.argmin(np.abs(pts[:, 0] - 0.1))
    assert np.allclose(diag, q.value(wrap_nearest(pts - 0.1, 1.0)))
    # the tail that leaves the cell re-enters on the other side
    assert diag[0] == pytest.approx(q.value(np.array([[0.4]]))[0])
    assert diag[0] > 0.0


def test_periodic_assembly_free_spectrum():
    """Free torus d=1, n=1, m=4: eigenvalues 32 (1 - cos(pi k / 6))."""
    g = GridSpec(d=1, n=1, m=4)
    field = constant_field(1, 1, np.array([0.0]))
    op = assemble_periodic(P0, Q0, 0.0, field, g)
    eigs = np.linalg.eigvalsh(op.matrix[0].toarray())
    k = np.arange(12)
    expected = np.sort(32.0 * (1.0 - np.cos(np.pi * k / 6.0)))
    assert np.allclose(eigs, expected, atol=1e-9)
    assert len(op.matrix) == 1
    assert (op.matrix[0] != op.matrix[0].T).nnz == 0


def test_periodic_assembly_2d_is_axis_sum():
    g = GridSpec(d=2, n=0, m=4)
    field = constant_field(0, 2, np.array([0.0, 0.0]))
    op = assemble_periodic(periodic_family("zero", 2), single_site_family("zero", 2), 0.0, field, g)
    eigs = np.linalg.eigvalsh(op.matrix[0].toarray())
    one = 32.0 * (1.0 - np.cos(np.pi * np.arange(4) / 2.0))
    expected = np.sort((one[:, None] + one[None, :]).ravel())
    assert np.allclose(eigs, expected, atol=1e-9)


def test_periodic_assembly_mismatch_errors():
    g = GridSpec(d=1, n=1, m=4)
    with pytest.raises(ValueError):
        assemble_periodic(P0, single_site_family("zero", 2), 0.0, constant_field(1, 1, [0.0]), g)
    with pytest.raises(ValueError):
        assemble_periodic(P0, Q0, 0.0, constant_field(2, 1, [0.0]), g)


def _lil_kron_laplacian(grid):
    """Reference: the LIL and kron build assemble_periodic once ran per call."""
    npts, h = grid.side_points, grid.h
    off = np.full(npts - 1, -1.0 / h**2)
    axis = sp.diags([off, np.full(npts, 2.0 / h**2), off], [-1, 0, 1], format="lil")
    axis[npts - 1, 0] = axis[0, npts - 1] = -1.0 / h**2
    axis = axis.tocsr()
    eye = sp.identity(npts, format="csr")
    total = None
    for j in range(grid.d):
        term = axis
        for _ in range(j):
            term = sp.kron(eye, term, format="csr")
        for _ in range(j + 1, grid.d):
            term = sp.kron(term, eye, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


@pytest.mark.parametrize(
    "grid", [GridSpec(1, 0, 4), GridSpec(1, 2, 6), GridSpec(2, 0, 4), GridSpec(2, 1, 6)]
)
def test_torus_laplacian_is_roll_second_difference(grid):
    shape = (grid.side_points,) * grid.d
    cols = []
    for k in range(grid.side_points**grid.d):
        u = np.zeros(grid.side_points**grid.d)
        u[k] = 1.0
        u = u.reshape(shape)
        lap_u = sum(2 * u - np.roll(u, 1, axis=j) - np.roll(u, -1, axis=j) for j in range(grid.d))
        cols.append((lap_u / grid.h**2).ravel())
    built = periodic_laplacian(grid.d, grid.side_points, grid.h)
    lap, where, up = built
    assert np.array_equal(lap.toarray(), np.column_stack(cols))
    assert np.array_equal(where, diagonal_slots(lap))
    assert (up is None) == (grid.d > 1)
    assert periodic_laplacian(grid.d, grid.side_points, grid.h) is built, "built once"
    for arr in (lap.data, lap.indices, lap.indptr, where, up):
        assert arr is None or not arr.flags.writeable, "the shared matrix and slots are read-only"


@pytest.mark.parametrize("d, npts", [(1, 3), (1, 4), (1, 2001), (2, 3), (2, 9), (2, 208)])
def test_periodic_laplacian_keeps_the_stencil_contract(d, npts):
    """Counting trusts a DiagonalStack's stencil to be exactly symmetric
    and canonical and to store every diagonal entry, and on a ring reads
    A[i, i + 1 mod N] at ``up[i]``.  Checked on the smallest rings and tori,
    on the 2001-site ring of lifshitz-reduced-1d and on the 208 x 208 torus
    (43,264 rows) of the ids-2d benchmark config, at the reduced model's
    h = 1 and a continuum h = 1/16."""
    n = npts**d
    for h in (1.0, 1.0 / 16):
        lap, where, up = periodic_laplacian(d, npts, h)
        assert lap.format == "csr" and lap.shape == (n, n) and lap.has_canonical_format
        rows = np.repeat(np.arange(n), np.diff(lap.indptr))
        assert np.all(np.diff(lap.indices)[rows[1:] == rows[:-1]] > 0), "sorted, no duplicates"
        mirror = sp.csr_matrix(lap.T)
        assert np.array_equal(mirror.indptr, lap.indptr)
        assert np.array_equal(mirror.indices, lap.indices)
        assert np.array_equal(mirror.data.view(np.int64), lap.data.view(np.int64)), "bit for bit"
        assert np.array_equal(rows[where], np.arange(n))
        assert np.array_equal(lap.indices[where], np.arange(n))
        if d == 1:
            assert np.array_equal(rows[up], np.arange(n))
            assert np.array_equal(lap.indices[up], (np.arange(n) + 1) % n)
        else:
            assert up is None


def test_diagonal_slots_refuses_a_matrix_that_breaks_the_stencil_contract():
    """A matrix that does not store its whole diagonal, or is not canonical,
    has no slots: ``plus_diagonal`` could not write its diagonal in place."""
    missing = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]]))
    with pytest.raises(ValueError, match="stores 2 of its 3 diagonal entries"):
        diagonal_slots(missing)
    unsorted = sp.csr_matrix(
        (np.array([-1.0, 2.0, 2.0]), np.array([1, 0, 1]), np.array([0, 2, 3])), shape=(2, 2)
    )
    with pytest.raises(ValueError, match="canonical"):
        diagonal_slots(unsorted)


@pytest.mark.parametrize("d, n", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_assemble_periodic_csr_equals_per_call_build(d, n):
    grid = GridSpec(d=d, n=n, m=8)
    p = periodic_family("cosine", d, coefficients=[-1.0] * d)
    q = single_site_family("asym-bump", d)
    rng = np.random.default_rng(d + 10 * n)
    lap = _lil_kron_laplacian(grid)
    for _ in range(2):  # the second sample reuses the cached Laplacian
        field = FieldChunk(n=n, d=d, values=rng.uniform(-0.7, 0.7, (1, (2 * n + 1) ** d, d)))
        pts = grid.points()
        diag = p.value(pts)  # reference diagonal: every site's bump at every point
        for c in site_lattice(n, d) + 0.5 * field.values[0]:
            diag += q.value(wrap_nearest(pts - c, 2 * n + 1))
        want = (lap + sp.diags(diag, format="csr")).tocsr()
        got = assemble_periodic(p, q, 0.5, field, grid).matrix[0]
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


@pytest.mark.parametrize("d, n", [(1, 0), (1, 2), (2, 1)])
def test_assemble_periodic_chunk_equals_one_field_at_a_time(d, n):
    """A FieldChunk gives the DiagonalStack of the operators of its fields'
    chunks of one, bit for bit, with ``data()`` their stacked data arrays."""
    grid = GridSpec(d=d, n=n, m=8)
    p = periodic_family("cosine", d, coefficients=[-1.0] * d)
    q = single_site_family("asym-bump", d)
    values = np.random.default_rng(d + 10 * n).uniform(-0.7, 0.7, (3, (2 * n + 1) ** d, d))
    chunk = FieldChunk(n=n, d=d, values=values)
    stack = assemble_periodic(p, q, 0.5, chunk, grid).matrix
    assert len(stack) == 3 and stack.shape == (grid.side_points**grid.d,) * 2
    assert stack.nnz == 3 * stack.stencil.nnz
    for k in range(3):
        want = assemble_periodic(p, q, 0.5, chunk.take([k]), grid).matrix[0]
        got = stack[k]
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(stack.data()[k].view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize(
    "grid", [GridSpec(1, 0, 4), GridSpec(1, 2, 6), GridSpec(2, 0, 4), GridSpec(2, 1, 6)]
)
def test_potential_written_into_laplacian_copy_equals_sparse_sum(grid):
    """assemble_periodic writes the potential into a copy of the cached
    Laplacian's arrays.  They must be the arrays (lap + diags(v)).tocsr() has.
    Where some lap_ii + v_i is exactly 0.0, which the sum drops, the entry
    stays stored as 0.0: the operator keeps the Laplacian's pattern and its
    dense form is the sum's, bit for bit.  So does every operator of a
    DiagonalStack on the Laplacian."""
    lap, where, up = periodic_laplacian(grid.d, grid.side_points, grid.h)
    npts = grid.side_points**grid.d
    v = np.random.default_rng(npts).uniform(-3.0, 3.0, npts)
    zeroed = v.copy()
    zeroed[3] = -lap[3, 3]
    stack = DiagonalStack(lap, where, up, np.stack([v, zeroed]))
    for k, pot in enumerate((v, zeroed)):
        got = plus_diagonal(lap, where, pot)
        want = (lap + sp.diags(pot, format="csr")).tocsr()
        assert got.nnz == lap.nnz and want.nnz == lap.nnz - (pot is zeroed)
        assert np.array_equal(got.toarray().view(np.int64), want.toarray().view(np.int64))
        if pot is v:
            pairs = [(got.data.view(np.int64), want.data.view(np.int64))]
            pairs += [(got.indices, want.indices), (got.indptr, want.indptr)]
        else:
            assert got.data[where[3]] == 0.0, "the cancelled entry stays stored"
            pairs = [(got.indices, lap.indices), (got.indptr, lap.indptr)]
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(stack[k], name), getattr(got, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert not np.shares_memory(getattr(got, name), getattr(lap, name))
        assert np.array_equal(stack.data()[k].view(np.int64), got.data.view(np.int64))
    assert not lap.data.flags.writeable


def _lil_fiber(p, q, lam, zeta, theta, m):
    """Reference: the LIL and kron build assemble_fiber once ran."""
    phases = [complex(np.exp(1j * t)) for t in theta]
    phases = [ph.real if abs(ph.imag) < 1e-15 else ph for ph in phases]
    grid, diag = fiber_diagonal(p, q, lam, zeta, m)
    h = grid.h
    axis_mats = []
    for phase in phases:
        dtype = complex if np.iscomplexobj(phase) or not np.isreal(phase) else float
        main = np.full(m, 2.0 / h**2, dtype=dtype)
        off = np.full(m - 1, -1.0 / h**2, dtype=dtype)
        mat = sp.diags([off, main, off], [-1, 0, 1], format="lil", dtype=dtype)
        mat[m - 1, 0] = -phase / h**2
        mat[0, m - 1] = -np.conj(phase) / h**2
        axis_mats.append(mat.tocsr())
    total = None
    for j, a in enumerate(axis_mats):
        term = a
        for k in range(j - 1, -1, -1):
            term = sp.kron(sp.identity(axis_mats[k].shape[0], format="csr"), term, format="csr")
        for k in range(j + 1, len(axis_mats)):
            term = sp.kron(term, sp.identity(axis_mats[k].shape[0], format="csr"), format="csr")
        total = term if total is None else total + term
    lap = total.tocsr()
    return (lap + sp.diags(diag.astype(lap.dtype), format="csr")).tocsr()


@pytest.mark.parametrize("m", [4, 7, 24])
@pytest.mark.parametrize(
    "theta", [(0.0,), (np.pi,), (0.7,), (2.1,), (0.7, 2.1)], ids=["0", "pi", "0.7", "2.1", "2d"]
)
def test_assemble_fiber_csr_equals_lil_build(m, theta):
    """The index-array ring gives the arrays of the LIL build, bit for bit,
    complex wrap phases included."""
    d = len(theta)
    p = periodic_family("cosine", d, coefficients=[-1.0] * d)
    q = single_site_family("asym-bump", d)
    zeta = np.linspace(-0.4, 0.3, d)
    got = assemble_fiber(p, q, 0.3, zeta, np.array(theta), m)
    want = _lil_fiber(p, q, 0.3, zeta, np.array(theta), m)
    assert got.dtype == want.dtype == (float if theta in ((0.0,), (np.pi,)) else complex)
    for a, b in (
        (got.data.view(np.int64), want.data.view(np.int64)),
        (got.indices, want.indices),
        (got.indptr, want.indptr),
    ):
        assert a.dtype == b.dtype and np.array_equal(a, b)
