"""Property test of the total potential against the per-site loop it replaced.

Hypothesis draws d = 1, 2 and 3 tori, sym, asym and zero bumps of either
sign, chunks of up to four fields whose largest displacement may sit on the
edge of the support (lam * max|omega| + r_q just below 1), points on the
grid, off it, on cell edges and non-finite, and a cut of the chunk into
pieces.  Every field's row must equal the per-site loop's, bit for bit
(``np.signbit`` included), whatever piece it was evaluated in.  The profile
in ``conftest.py`` makes every run draw the same examples.
"""

import numpy as np
import pytest

from displab.discretize import GridSpec
from displab.potentials import FieldChunk, eval_total_potential, periodic_family, single_site_family
from test_potentials import _one_field_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 1 if d == 3 else 2))
    family = draw(st.sampled_from(["sym-bump", "asym-bump", "zero"]))
    amplitude = draw(st.sampled_from([0.5, -0.7]))
    radius = draw(st.sampled_from([0.05, 0.3, 0.45, 0.49]))
    k = draw(st.integers(1, 4))
    cut = draw(st.integers(1, k))
    edge = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return d, n, family, amplitude, radius, k, cut, edge, seed


@hypothesis.settings(max_examples=40)
@hypothesis.given(cases())
def test_total_potential_equals_the_per_site_loop_bitwise(case):
    d, n, family, amplitude, radius, k, cut, edge, seed = case
    rng = np.random.default_rng(seed)
    p = periodic_family("cosine", d, coefficients=rng.uniform(-1.5, 1.5, d))
    q = single_site_family(family, d, amplitude=amplitude, radius=radius)
    sites = (2 * n + 1) ** d
    omega = rng.normal(size=(k, sites, d))
    omega *= rng.uniform(0.0, 1.0, (k, sites, 1)) / np.linalg.norm(omega, axis=-1, keepdims=True)
    if edge:  # one site on the edge of the unit ball, the reach just below 1
        j, i = rng.integers(k), rng.integers(sites)
        omega[j, i] /= np.linalg.norm(omega[j, i])
        lam = (1.0 - radius) * (1.0 - 1e-12)
    else:
        lam = rng.uniform(0.0, 1.0) * (1.0 - radius)
    chunk = FieldChunk(n=n, d=d, values=omega)
    spec = GridSpec(d=d, n=n, m=4 if d == 3 else 8)
    side = 2 * n + 1
    points = [
        spec.points(),
        rng.uniform(-1.5 * side, 1.5 * side, (60, d)),
        rng.integers(-side, side, (20, d)) + 0.5,  # cell edges
        np.array([[np.nan] * d, [np.inf] * d, [-np.inf] * d]),
    ]
    for x in points:
        with np.errstate(invalid="ignore"):
            want = [_one_field_reference(p, q, lam, chunk.take([j]), x) for j in range(k)]
        for start in range(0, k, cut):
            rows = range(start, min(start + cut, k))
            with np.errstate(invalid="ignore"):
                got = eval_total_potential(p, q, lam, chunk.take(rows), x)
            for row, j in zip(got, rows):
                assert np.array_equal(row.view(np.int64), want[j].view(np.int64))
                assert np.array_equal(np.signbit(row), np.signbit(want[j]))
