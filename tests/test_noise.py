import numpy as np
import pytest

from gradphi.lattice import make_torus
from scipy.special import ndtri

from gradphi.noise import (
    _GOLDEN,
    _MASK,
    _MIX1,
    _MIX2,
    CHANNEL_BACKWARD,
    CHANNEL_FORWARD,
    MeanSubtractedNoise,
    NoiseSource,
    _bits_to_uniform,
    _mix_array,
    _mix_int,
    site_keys,
)


def test_same_key_is_bitwise_identical():
    grid = make_torus(2, 3)
    src = NoiseSource(seed=1234, replica=7)
    a = src.raw_normals(grid.site_keys, step=42)
    b = NoiseSource(seed=1234, replica=7).raw_normals(grid.site_keys, step=42)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    grid = make_torus(2, 3)
    src = NoiseSource(seed=1234)
    a = src.raw_normals(grid.site_keys, step=0)
    b = src.raw_normals(grid.site_keys, step=1)
    c = src.with_replica(1).raw_normals(grid.site_keys, step=0)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_negative_steps_use_independent_side():
    grid = make_torus(2, 2)
    src = NoiseSource(seed=9)
    fwd = src.raw_normals(grid.site_keys, step=3)
    bwd = src.raw_normals(grid.site_keys, step=-4)
    assert not np.allclose(fwd, bwd)
    again = src.raw_normals(grid.site_keys, step=-4)
    assert np.array_equal(bwd, again)


def test_scalar_increment_matches_field_draw():
    grid = make_torus(2, 2)
    src = NoiseSource(seed=5)
    field = src.raw_normals(grid.site_keys, step=11)
    idx = grid.array_index((1, -2))
    single = src.increment(grid.site_keys[idx], 11)
    assert single == field[idx]


def test_moments_match_standard_normal():
    # CLT bounds: mean within 4/sqrt(n), variance within 0.05 of 1
    src = NoiseSource(seed=2024)
    keys = site_keys(np.arange(100_000, dtype=np.int64).reshape(-1, 1, 2)[:, 0, :])
    draws = src.raw_normals(keys, step=0)
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.05


def test_mean_subtracted_sums_to_zero_and_is_idempotent():
    grid = make_torus(2, 4)
    src = NoiseSource(seed=3)
    g = MeanSubtractedNoise(src, grid.site_keys, np.arange(1), 2)(0)[0]
    assert abs(g.sum()) < 1e-12 * grid.nsites
    g2 = g - g.mean()
    assert np.allclose(g, g2, atol=1e-15)


def test_mean_subtraction_rejects_single_site():
    src = NoiseSource(seed=3)
    with pytest.raises(ValueError):
        MeanSubtractedNoise(src, np.array([np.uint64(1)]), np.arange(2), 1)


def test_replica_batch_matches_individual_sources():
    grid = make_torus(2, 2)
    src = NoiseSource(seed=77)
    batch = src.raw_normals(grid.site_keys, step=5, replicas=np.arange(4))
    for r in range(4):
        solo = src.with_replica(r).raw_normals(grid.site_keys, step=5)
        assert np.array_equal(batch[r], solo)


def test_batched_replica_ids_count_from_the_source_replica():
    # id r of a batched draw is replica src.replica + r, on both time
    # channels
    grid = make_torus(2, 3)
    src = NoiseSource(seed=17).with_replica(5)
    for step in (0, 9, -3):
        batch = src.raw_normals(grid.site_keys, step, replicas=np.arange(2))
        for r in range(2):
            solo = src.with_replica(5 + r).raw_normals(grid.site_keys, step)
            assert np.array_equal(batch[r], solo)


def test_repeated_replica_ids_share_one_draw(monkeypatch):
    # coupled members with the same replica id get the rows of the
    # distinct-id draw, and each distinct id is drawn once per step
    grid = make_torus(2, 3)
    src = NoiseSource(seed=19).with_replica(4)
    distinct = np.array([2, 0, 5])
    ref = MeanSubtractedNoise(src, grid.site_keys, distinct, 2)
    expected = {step: ref(step).copy() for step in (0, 3, -2)}

    drawn = []
    raw = NoiseSource.raw_normals

    def counting(self, keys, step, channel=None, replicas=None, **kwargs):
        drawn.append((-1 - step if channel == CHANNEL_BACKWARD else step, tuple(replicas)))
        return raw(self, keys, step, channel, replicas, **kwargs)

    monkeypatch.setattr(NoiseSource, "raw_normals", counting)
    ids = np.tile(distinct, 3)
    noise = MeanSubtractedNoise(src, grid.site_keys, ids, 2)
    for step, g_ref in expected.items():
        g = noise(step)
        assert g.shape == (len(ids),) + grid.shape
        for b, rep in enumerate(ids):
            assert np.array_equal(g[b], g_ref[list(distinct).index(rep)])
    assert [s for s, _ in drawn] == list(expected)
    assert all(sorted(reps) == sorted(distinct) for _, reps in drawn)


def test_held_stream_prefix_matches_stream_keys_from_scratch(monkeypatch):
    # the prefix MeanSubtractedNoise holds gives, at every step of both
    # channels, the draw of stream keys hashed from scratch, with a replica
    # offset and repeated ids; it is hashed once per channel and object
    grid = make_torus(2, 3)
    src = NoiseSource(seed=23).with_replica(6)
    ids = np.array([4, 0, 4, 9, 0])
    steps = (0, 1, -1, 7, -8, 2, -2)

    def from_scratch(step):
        # the three SplitMix64 rounds of a stream key: seed and replica id,
        # channel, step
        channel, s = (CHANNEL_FORWARD, step) if step >= 0 else (CHANNEL_BACKWARD, -1 - step)
        u64 = np.uint64
        k = (ids + 6).astype(u64) * u64(_GOLDEN) ^ u64(_mix_int(23))
        k = _mix_array(_mix_array(k) ^ u64((channel * _MIX1) & _MASK))
        bases = _mix_array(k ^ u64((s * _MIX2) & _MASK)).reshape(-1, 1, 1)
        g = ndtri(_bits_to_uniform(_mix_array(grid.site_keys[None] ^ bases)))
        return g - g.mean(axis=(1, 2), keepdims=True)

    expected = {step: from_scratch(step) for step in steps + (-3,)}
    hashed = []
    prefix = NoiseSource.stream_prefix
    monkeypatch.setattr(NoiseSource, "stream_prefix",
                        lambda self, channel, reps: hashed.append(channel)
                        or prefix(self, channel, reps))
    noise = MeanSubtractedNoise(src, grid.site_keys, ids, 2)
    for step in steps + steps:
        assert np.array_equal(noise(step), expected[step])
    assert sorted(hashed) == [CHANNEL_FORWARD, CHANNEL_BACKWARD]
    # a second object hashes its own prefixes
    other = MeanSubtractedNoise(src, grid.site_keys, ids, 2)
    assert np.array_equal(other(-3), expected[-3])
    assert sorted(hashed) == [CHANNEL_FORWARD, CHANNEL_BACKWARD, CHANNEL_BACKWARD]
