"""Rows of the batch functions do not depend on how the samples are chunked.

Hypothesis cuts ten samples into chunks at random; ``count_rows``,
``lifshitz_rows``, ``wegner_rows`` and two families counting on fields
drawn once per chunk (as ``displab ids`` does) must give the one-shot
call's rows bit for bit.  The profile in ``conftest.py`` makes every run
draw the same cuts.
"""

import functools

import numpy as np
import pytest

from displab.potentials import periodic_family, single_site_family
from displab.randomfields import DisplacementDistribution, sample_fields
from displab.spectral_stats import (
    ContinuumFamily, ReducedFamily, count_rows, lifshitz_rows, wegner_rows,
)
from displab.supports import ball

hypothesis = pytest.importorskip("hypothesis")

DIST = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(1), 1.0))
RING = ReducedFamily(
    sign=1, v=np.array([5.0]), lam=0.1, zeta=np.array([-1.0]), dist=DIST, n=30, c0=1.0,
    alpha=0.05,
)

_CUT_SAMPLES = 10
_CUTS = hypothesis.strategies.lists(
    hypothesis.strategies.integers(1, _CUT_SAMPLES - 1), max_size=4
)
# A continuum ring sharing RING's lattice and law, so one draw serves both.
CONTINUUM_RING = ContinuumFamily(
    p=periodic_family("cosine", 1, coefficients=[-1.0]), q=single_site_family("asym-bump", 1),
    lam=0.1, dist=DIST, n=RING.n, m=4,
)


def _chunks(cuts):
    """Samples 0 .. _CUT_SAMPLES - 1 cut before each sample in ``cuts``."""
    edges = sorted({0, _CUT_SAMPLES, *cuts})
    return [tuple(range(a, b)) for a, b in zip(edges, edges[1:])]


def _rows_in_chunks(batch, cuts):
    """``batch(samples)`` over every chunk of a cut, its rows joined."""
    parts = [batch(chunk) for chunk in _chunks(cuts)]
    if isinstance(parts[0], tuple):
        return tuple(_joined([part[i] for part in parts]) for i in range(len(parts[0])))
    return _joined(parts)


def _joined(parts):
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return [row for part in parts for row in part]


def _same_rows(got, want):
    if isinstance(want, tuple):
        return all(_same_rows(g, w) for g, w in zip(got, want))
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    return len(got) == len(want) and all(
        (g is None and w is None) or np.array_equal(g, w) for g, w in zip(got, want)
    )


_RING_ENERGIES = np.geomspace(0.1, 0.8, 5)
_CONTINUUM_ENERGIES = np.array([-0.3, 0.0, 0.3, 1.0])
_EPS = np.array([1e-2, 1e-1, 1.0])


def _own_rows(family, energies, samples):
    """A family's counts on a draw of its own samples' fields."""
    return count_rows(family, energies, sample_fields(family.dist, family.n, 4, samples))


def _ids_rows(samples):
    """Both ring families counted on one draw of the samples' fields."""
    fields = sample_fields(DIST, RING.n, 4, samples)
    return (
        count_rows(RING, _RING_ENERGIES, fields),
        count_rows(CONTINUUM_RING, _CONTINUUM_ENERGIES, fields),
    )


_BATCHES = {
    "count_rows": lambda samples: _own_rows(RING, _RING_ENERGIES, samples),
    "lifshitz_rows": lambda samples: lifshitz_rows(RING, 4, samples, _RING_ENERGIES, 4.0),
    "wegner_rows": lambda samples: wegner_rows(
        CONTINUUM_RING, 4, samples, 0.0, _EPS, ground_samples=6, audit_per_n=3
    ),
    "ids-shared-fields": _ids_rows,
}


@functools.cache
def _one_shot(name):
    return _BATCHES[name](tuple(range(_CUT_SAMPLES)))


@pytest.mark.parametrize("name", sorted(_BATCHES))
@hypothesis.settings(max_examples=12)
@hypothesis.given(cuts=_CUTS)
def test_rows_do_not_depend_on_the_chunking(name, cuts):
    """Any cut of the samples into chunks gives the one-shot call's rows,
    bit for bit; for ids, fields drawn once per chunk and shared by two
    families give the rows each family draws for itself."""
    got = _rows_in_chunks(_BATCHES[name], cuts)
    assert _same_rows(got, _one_shot(name))


def test_shared_fields_give_each_familys_own_rows():
    shared = _one_shot("ids-shared-fields")
    every = tuple(range(_CUT_SAMPLES))
    assert np.array_equal(shared[0], _own_rows(RING, _RING_ENERGIES, every))
    assert np.array_equal(shared[1], _own_rows(CONTINUUM_RING, _CONTINUUM_ENERGIES, every))
    assert len(np.unique(shared[1])) > 2
