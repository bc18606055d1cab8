"""Distribution plumbing and reproducible per-site sampling."""

import numpy as np
import pytest

from displab import randomfields
from displab.randomfields import (
    DISTRIBUTION_KINDS,
    DisplacementDistribution,
    sample_fields,
    site_rng,
)
from displab.supports import ball, box, sphere

BALL1 = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(1), 1.0))
BALL2 = DisplacementDistribution(kind="uniform-ball", support=ball(np.zeros(2), 1.0))


def test_sampling_is_reproducible():
    a = sample_fields(BALL1, 2, 42, (7,))
    b = sample_fields(BALL1, 2, 42, (7,))
    assert np.array_equal(a.values, b.values)
    c = sample_fields(BALL1, 2, 42, (8,))
    assert not np.array_equal(a.values, c.values)
    d = sample_fields(BALL1, 2, 43, (7,))
    assert not np.array_equal(a.values, d.values)


def test_growing_the_lattice_preserves_existing_draws():
    """Site streams are keyed by (seed, sample, site), so a bigger torus
    reuses the small torus's draws for the shared site indices."""
    small = sample_fields(BALL1, 1, 5, (0,))
    large = sample_fields(BALL1, 3, 5, (0,))
    assert np.array_equal(small.values, large.values[:, : small.values.shape[1]])


def test_site_rng_streams_are_independent():
    x = site_rng(1, 2, 3).uniform(size=4)
    y = site_rng(1, 2, 3).uniform(size=4)
    z = site_rng(1, 2, 4).uniform(size=4)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def _distribution(kind, d):
    center = np.full(d, 0.25)
    if kind == "uniform-sphere":
        return DisplacementDistribution(kind=kind, support=sphere(center, 0.8))
    if kind == "product-box":
        return DisplacementDistribution(kind=kind, support=box(-np.ones(d), np.arange(1.0, d + 1)))
    exponent = 2.5 if kind == "polar" else None
    return DisplacementDistribution(kind=kind, support=ball(center, 0.9), radial_exponent=exponent)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_sample_field_equals_per_site_streams(kind, d):
    """One field (a chunk of one) draws exactly what a fresh ``site_rng``
    stream per site draws."""
    dist = _distribution(kind, d)
    field = sample_fields(dist, 3, 2**63 + 17, (5,))
    want = [dist.draw(site_rng(2**63 + 17, 5, k)) for k in range(7**d)]
    assert np.array_equal(field.values, np.array([want]))


def _site_draws(dist, n, seed, sample):
    return np.array([dist.draw(site_rng(seed, sample, k)) for k in range((2 * n + 1) ** dist.d)])


# (n, master_seed, sample_index): lattices just below, at and above the
# vector path's cutoff (no d = 2 lattice has exactly 33 sites), with a sample
# index above 2**32 and a seed above 2**63; then, for the kinds the vector
# path serves, bulk fields past 10**5 sites.
_CUTOFF_CASES = {
    1: [(15, 2**63 + 17, 5), (16, 2**63 + 17, 2**32 + 3), (17, 3, 0)],
    2: [(2, 2**63 + 17, 5), (3, 2**63 + 17, 2**32 + 3)],
}
_BULK_CASES = [(1000, 2**63 + 17, 2**32 + s) for s in range(50)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_sample_field_equals_site_rng_draws_at_scale(kind, d):
    """The vector path and its loop fallback together draw exactly the
    per-site streams; kinds the vector path does not serve take the loop."""
    dist = _distribution(kind, d)
    served = randomfields._vectorizable(dist)
    n_sites = 0
    for n, seed, sample in _CUTOFF_CASES[d] + (_BULK_CASES if served else []):
        before = dict(randomfields.SITE_COUNTS)
        field = sample_fields(dist, n, seed, (sample,))
        assert np.array_equal(field.values[0], _site_draws(dist, n, seed, sample))
        sites = field.values.shape[1]
        vector = randomfields.SITE_COUNTS["vector"] - before["vector"]
        loop = randomfields.SITE_COUNTS["loop"] - before["loop"]
        assert vector + loop == sites
        if served and sites >= randomfields._VECTOR_MIN_SITES:
            assert vector > 0.9 * sites
        else:
            assert vector == 0
        n_sites += sites
    assert served == (kind in ("uniform-ball", "polar") and d == 1)
    assert n_sites >= (10**5 if served else 25)


# (n, master_seed, samples): 3-site fields that reach the vector path's
# cutoff only as a chunk (48 pairs), a chunk below it (15 pairs), one exactly
# at it, and, for the kinds the vector path serves, 2001-site fields whose
# 6003 pairs span several Philox blocks and leave unsettled sites to the loop.
_CHUNK_CASES = [
    (1, 2**63 + 17, tuple(range(16))),
    (1, 3, (0, 2**32 + 3, 5, 7, 9)),
    (5, 2**63 + 17, (2**32 + 1, 4, 0)),
]
_BULK_CHUNK = (1000, 11, (0, 2**32 + 9, 1))


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_sample_fields_equal_site_rng_draws(kind):
    """Each field of a chunk is its sample's per-site streams' draws, whatever
    the chunk; the vector path serves a chunk of at least
    ``_VECTOR_MIN_SITES`` pairs, however few sites each field has."""
    dist = _distribution(kind, 1)
    served = randomfields._vectorizable(dist)
    for n, seed, samples in _CHUNK_CASES + ([_BULK_CHUNK] if served else []):
        before = dict(randomfields.SITE_COUNTS)
        chunk = sample_fields(dist, n, seed, samples)
        vector = randomfields.SITE_COUNTS["vector"] - before["vector"]
        loop = randomfields.SITE_COUNTS["loop"] - before["loop"]
        assert chunk.values.shape == (len(samples), 2 * n + 1, 1)
        for k, s in enumerate(samples):
            assert np.array_equal(chunk.values[k], _site_draws(dist, n, seed, s))
            assert np.array_equal(chunk.values[k], sample_fields(dist, n, seed, (s,)).values[0])
        pairs = len(samples) * (2 * n + 1)
        assert vector + loop == pairs
        if served and pairs >= randomfields._VECTOR_MIN_SITES:
            assert vector > 0.9 * pairs
        else:
            assert vector == 0
        if n == _BULK_CHUNK[0]:
            assert pairs > 2 * randomfields._PHILOX_PAIRS and loop > 0


def test_one_key_per_site_equals_one_key_per_call():
    """``_philox_block`` with a key per site gives each site the block its
    own stream key gives it."""
    keys = [np.random.Philox(key=[2**63 + 17, s]).state["state"]["key"] for s in (0, 2**32 + 3)]
    sites = np.arange(40)
    per_site = np.repeat(np.array(keys), 20, axis=0).T
    got = randomfields._philox_block(per_site, sites)
    for k, key in enumerate(keys):
        want = randomfields._philox_block(key, sites[20 * k : 20 * (k + 1)])
        for word, want_word in zip(got, want):
            assert np.array_equal(word[20 * k : 20 * (k + 1)], want_word)


def _probe_layers_and_rabs(first, count):
    key = np.random.Philox(key=list(randomfields._FIRST_TRY_PROBE)).state["state"]["key"]
    words = randomfields._philox_block(key, np.arange(first, first + count))
    return randomfields._layer_rabs(words[0])


def test_first_try_bounds_are_certified():
    """Replay the probe the bound table came from (2**20 sites): each layer's
    bound is the largest rabs of a probe site in that layer that returns at
    the first try, the witness table names that site, and a sample of probe
    sites at or below their bound all return at the first try."""
    seed, sample = randomfields._FIRST_TRY_PROBE

    def first_try(sites):
        return randomfields._first_try(seed, sample, [int(k) for k in sites])

    parts = [_probe_layers_and_rabs(s, 2**16) for s in range(0, 2**20, 2**16)]
    layer = np.concatenate([p[0] for p in parts])
    rabs = np.concatenate([p[1] for p in parts])
    bound, witness = randomfields._FIRST_TRY_BOUND, randomfields._FIRST_TRY_WITNESS
    assert bound.shape == witness.shape == (256,)
    below = rabs <= bound[layer]
    for lay in range(256):
        if bound[lay] < 0:
            assert witness[lay] == -1
            assert not first_try(np.flatnonzero(layer == lay)[:64]).any()
            continue
        sel = np.flatnonzero((layer == lay) & below)
        assert witness[lay] == sel[np.argmax(rabs[sel])]
        assert rabs[witness[lay]] == bound[lay]
        assert first_try([witness[lay]]).all(), lay
        above = np.flatnonzero((layer == lay) & ~below)
        if len(above):
            assert not first_try([above[np.argmin(rabs[above])]]).any(), lay
    assert first_try(np.flatnonzero(below[:4096])).all()


@pytest.fixture
def fresh_self_check():
    randomfields._vector_path_ok.cache_clear()
    yield
    randomfields._vector_path_ok.cache_clear()


def test_vector_self_check_passes_on_installed_numpy(fresh_self_check):
    """A failing self-check silently sends every site to the slow loop."""
    assert randomfields._vector_path_ok()


def _rejected_witness_tables():
    """Bound and witness tables that name, for layer 0, a probe site the
    ziggurat rejects at the first try, as if NumPy had lowered ``ki[0]``."""
    seed, sample = randomfields._FIRST_TRY_PROBE
    layer, rabs = _probe_layers_and_rabs(0, 2**16)
    bound, witness = randomfields._FIRST_TRY_BOUND.copy(), randomfields._FIRST_TRY_WITNESS.copy()
    above = np.flatnonzero((layer == 0) & (rabs > bound[0]))
    site = int(above[np.argmin(rabs[above])])
    assert not randomfields._first_try(seed, sample, [site]).any()
    bound[0], witness[0] = rabs[site], site
    return bound, witness


@pytest.mark.parametrize("broken", ["bound", "word"])
def test_self_check_mismatch_sends_every_site_to_the_loop(broken, monkeypatch, fresh_self_check):
    if broken == "bound":
        bound, witness = _rejected_witness_tables()
        monkeypatch.setattr(randomfields, "_FIRST_TRY_BOUND", bound)
        monkeypatch.setattr(randomfields, "_FIRST_TRY_WITNESS", witness)
    else:
        m0, m1 = randomfields._PHILOX_M
        monkeypatch.setattr(randomfields, "_PHILOX_M", (m0 ^ 1, m1))
    assert not randomfields._vector_path_ok()
    before = dict(randomfields.SITE_COUNTS)
    field = sample_fields(BALL1, 1000, 2**63 + 17, (2**32 + 9,))
    assert np.array_equal(field.values[0], _site_draws(BALL1, 1000, 2**63 + 17, 2**32 + 9))
    assert randomfields.SITE_COUNTS["vector"] == before["vector"]
    assert randomfields.SITE_COUNTS["loop"] == before["loop"] + 2001


def test_lifshitz_preset_fields_are_mostly_vectorized():
    from importlib.resources import files

    from displab.cli import (
        build_distribution, build_model, build_support, load_config_text, read_config,
    )

    text = (files("displab") / "presets" / "lifshitz-reduced-1d.ini").read_text()
    cfg = read_config(load_config_text(text))
    dist = build_distribution(cfg, build_support(cfg, build_model(cfg)[1].d))
    before = dict(randomfields.SITE_COUNTS)
    for s in range(5):
        sample_fields(dist, int(cfg["lifshitz"]["n"]), int(cfg["run"]["seed"]), (s,))
    vector = randomfields.SITE_COUNTS["vector"] - before["vector"]
    loop = randomfields.SITE_COUNTS["loop"] - before["loop"]
    assert vector + loop == 5 * 2001
    assert vector >= 0.95 * (vector + loop)


def test_uniform_ball_stays_inside_and_fills_volume():
    f = sample_fields(BALL2, 3, 11, (1,))
    radii = np.linalg.norm(f.values[0], axis=1)
    assert radii.max() <= 1.0
    # uniform on the disc: E r = 2/3, loose MC band for 49 sites
    assert abs(radii.mean() - 2.0 / 3.0) < 0.1


def test_uniform_sphere_is_atomic_in_radius():
    dist = DisplacementDistribution(kind="uniform-sphere", support=sphere(np.zeros(2), 0.8))
    f = sample_fields(dist, 2, 1, (0,))
    assert np.allclose(np.linalg.norm(f.values[0], axis=1), 0.8)


def test_polar_radial_law():
    """radial exponent k: E r = (k+1)/(k+2) R; check k = 3 by Monte Carlo."""
    dist = DisplacementDistribution(
        kind="polar", support=ball(np.zeros(2), 1.0), radial_exponent=3.0
    )
    rng = np.random.default_rng(0)
    draws = np.array([dist.draw(rng) for _ in range(4000)])
    radii = np.linalg.norm(draws, axis=1)
    assert abs(radii.mean() - 4.0 / 5.0) < 0.01
    assert radii.max() <= 1.0


def test_product_box_coordinates_independent_uniform():
    dist = DisplacementDistribution(
        kind="product-box", support=box([-1.0, 0.0], [1.0, 2.0])
    )
    rng = np.random.default_rng(3)
    draws = np.array([dist.draw(rng) for _ in range(3000)])
    assert draws[:, 0].min() >= -1.0 and draws[:, 0].max() <= 1.0
    assert abs(draws[:, 0].mean()) < 0.05
    assert abs(draws[:, 1].mean() - 1.0) < 0.05
    assert abs(np.corrcoef(draws.T)[0, 1]) < 0.05


def test_distribution_validation():
    with pytest.raises(ValueError):
        DisplacementDistribution(kind="uniform-ball", support=sphere(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        DisplacementDistribution(kind="uniform-sphere", support=ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        DisplacementDistribution(kind="polar", support=ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        DisplacementDistribution(kind="polar", support=ball(np.zeros(2), 1.0), radial_exponent=-1.0)
    with pytest.raises(ValueError):
        DisplacementDistribution(kind="gaussian", support=ball(np.zeros(2), 1.0))
