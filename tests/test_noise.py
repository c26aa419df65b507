import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import gradphi.noise as noise_module
from gradphi.lattice import TorusGrid, make_torus
from gradphi.noise import (
    _GOLDEN,
    _MASK,
    _MIX1,
    _MIX2,
    CHANNEL_BACKWARD,
    CHANNEL_FORWARD,
    MeanSubtractedNoise,
    NoiseSource,
    _mix_array,
    _mix_int,
    site_keys,
)

ROOT = Path(__file__).resolve().parents[1]

# modules that no CLI run uses: `scipy.special`'s package init would load the
# first three, and `mollify`'s quadrature rule, built at import, the fourth
UNUSED_AT_IMPORT = ("scipy.special", "scipy._lib.array_api_compat", "numpy.f2py",
                    "numpy.polynomial")


def _fresh_python(code):
    """Run `code` in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_import_leaves_scipy_special_unloaded():
    """Importing the CLI loads none of the unused modules (checked by name,
    not by time), and a later `import scipy.special` runs its real init and
    names the very ufunc the draws use."""
    _fresh_python(f"""
        import sys
        import gradphi.cli
        loaded = [m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules]
        assert not loaded, loaded
        import scipy.special
        import gradphi.noise
        assert sys.modules["scipy.special"].__file__.endswith("__init__.py")
        assert hasattr(scipy.special, "gamma")
        assert scipy.special.ndtri is gradphi.noise.ndtri
        """)


def test_scipy_special_imported_first_keeps_the_real_package():
    _fresh_python("""
        import sys
        import scipy.special
        special = sys.modules["scipy.special"]
        import gradphi.noise
        assert sys.modules["scipy.special"] is special
        assert special.__file__.endswith("__init__.py")
        assert special.ndtri is gradphi.noise.ndtri
        """)


def _per_step_draw(src, keys, ids, spatial_ndim, step):
    """The mean-subtracted draw of one absolute step, hashed from scratch:
    the three SplitMix64 rounds of a stream key (seed and replica id,
    channel, step), the site round, 53 bits to a uniform, ndtri, minus the
    spatial mean of each distinct id; repeated ids get its rows."""
    channel, s = (CHANNEL_FORWARD, step) if step >= 0 else (CHANNEL_BACKWARD, -1 - step)
    u64 = np.uint64
    distinct, rows = np.unique(ids, return_inverse=True)
    k = (distinct + src.replica).astype(u64) * u64(_GOLDEN) ^ u64(_mix_int(src.seed))
    k = _mix_array(_mix_array(k) ^ u64((channel * _MIX1) & _MASK))
    bases = _mix_array(k ^ u64((s * _MIX2) & _MASK)).reshape((-1,) + (1,) * keys.ndim)
    z = _mix_array(keys[None] ^ bases)
    g = ndtri((z >> u64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)
    g -= g.mean(axis=tuple(range(g.ndim - spatial_ndim, g.ndim)), keepdims=True)
    return g[rows]


def _single(src, keys, step):
    """The draw of the one stream `src.replica` at a step, shape keys.shape."""
    return src.raw_normals(keys, step, np.arange(1))[0]


def _draw_at(noise, step):
    """A copy of the draw of one step, from a run of that step alone."""
    return next(noise(range(step, step + 1))).copy()


def test_same_key_is_bitwise_identical():
    grid = make_torus(2, 3)
    src = NoiseSource(seed=1234, replica=7)
    a = _single(src, grid.site_keys, 42)
    b = _single(NoiseSource(seed=1234, replica=7), grid.site_keys, 42)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    grid = make_torus(2, 3)
    src = NoiseSource(seed=1234)
    a = _single(src, grid.site_keys, 0)
    b = _single(src, grid.site_keys, 1)
    c = _single(src.with_replica(1), grid.site_keys, 0)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_negative_steps_use_independent_side():
    grid = make_torus(2, 2)
    src = NoiseSource(seed=9)
    fwd = _single(src, grid.site_keys, 3)
    bwd = _single(src, grid.site_keys, -4)
    assert not np.allclose(fwd, bwd)
    again = _single(src, grid.site_keys, -4)
    assert np.array_equal(bwd, again)


def test_moments_match_standard_normal():
    # CLT bounds: mean within 4/sqrt(n), variance within 0.05 of 1
    src = NoiseSource(seed=2024)
    keys = site_keys(np.arange(100_000, dtype=np.int64).reshape(-1, 1, 2)[:, 0, :])
    draws = _single(src, keys, 0)
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.05


def test_mean_subtracted_sums_to_zero_and_is_idempotent():
    grid = make_torus(2, 4)
    src = NoiseSource(seed=3)
    g = _draw_at(MeanSubtractedNoise(src, grid.site_keys, np.arange(1), 2, None), 0)[0]
    assert abs(g.sum()) < 1e-12 * grid.nsites
    g2 = g - g.mean()
    assert np.allclose(g, g2, atol=1e-15)


def test_mean_subtraction_rejects_single_site():
    src = NoiseSource(seed=3)
    with pytest.raises(ValueError):
        MeanSubtractedNoise(src, np.array([np.uint64(1)]), np.arange(2), 1, None)


def test_replica_batch_matches_individual_sources():
    grid = make_torus(2, 2)
    src = NoiseSource(seed=77)
    batch = src.raw_normals(grid.site_keys, 5, np.arange(4))
    for r in range(4):
        solo = _single(src.with_replica(r), grid.site_keys, 5)
        assert np.array_equal(batch[r], solo)


def test_batched_replica_ids_count_from_the_source_replica():
    # id r of a batched draw is replica src.replica + r, on both time
    # channels
    grid = make_torus(2, 3)
    src = NoiseSource(seed=17).with_replica(5)
    for step in (0, 9, -3):
        batch = src.raw_normals(grid.site_keys, step, np.arange(2))
        for r in range(2):
            solo = _single(src.with_replica(5 + r), grid.site_keys, step)
            assert np.array_equal(batch[r], solo)


def test_repeated_replica_ids_share_one_draw(monkeypatch):
    # coupled members with the same replica id get the rows of the
    # distinct-id draw, and each distinct id is drawn once per step
    grid = make_torus(2, 3)
    src = NoiseSource(seed=19).with_replica(4)
    distinct = np.array([2, 0, 5])
    ref = MeanSubtractedNoise(src, grid.site_keys, distinct, 2, None)
    expected = {step: _draw_at(ref, step) for step in (0, 3, -2)}

    drawn = []
    raw = NoiseSource.raw_normals

    def counting(self, keys, step, replicas, channel=None, **kwargs):
        for s in step:
            drawn.append((-1 - s if channel == CHANNEL_BACKWARD else s, tuple(replicas)))
        return raw(self, keys, step, replicas, channel, **kwargs)

    monkeypatch.setattr(NoiseSource, "raw_normals", counting)
    ids = np.tile(distinct, 3)
    noise = MeanSubtractedNoise(src, grid.site_keys, ids, 2, None)
    for step, g_ref in expected.items():
        g = _draw_at(noise, step)
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

    expected = {step: _per_step_draw(src, grid.site_keys, ids, 2, step)
                for step in steps + (-3,)}
    hashed = []
    prefix = NoiseSource.stream_prefix
    monkeypatch.setattr(NoiseSource, "stream_prefix",
                        lambda self, channel, reps: hashed.append(channel)
                        or prefix(self, channel, reps))
    noise = MeanSubtractedNoise(src, grid.site_keys, ids, 2, None)
    for step in steps + steps:
        assert np.array_equal(_draw_at(noise, step), expected[step])
    assert sorted(hashed) == [CHANNEL_FORWARD, CHANNEL_BACKWARD]
    # a second object hashes its own prefixes
    other = MeanSubtractedNoise(src, grid.site_keys, ids, 2, None)
    assert np.array_equal(_draw_at(other, -3), expected[-3])
    assert sorted(hashed) == [CHANNEL_FORWARD, CHANNEL_BACKWARD, CHANNEL_BACKWARD]


def _window_keys():
    # three overlapping 4x4 windows of one lattice, stacked
    return np.stack([TorusGrid(2, 2, origin=o).site_keys for o in ((0, 0), (1, 3), (-2, 1))])


@pytest.mark.parametrize("keys, ids, spatial_ndim", [
    (make_torus(2, 3).site_keys, np.array([3, 0, 1]), 2),
    (make_torus(2, 3).site_keys, np.array([2, 0, 2, 5, 0]), 2),
    (_window_keys(), np.arange(1), 2),
    (make_torus(3, 1).site_keys, np.array([1, 4]), 3),
], ids=["distinct", "repeated", "windows", "3d"])
@pytest.mark.parametrize("worker, length", [(False, 1), (True, 1), (True, 7), (True, 64)])
def test_block_draws_equal_the_per_step_draws(monkeypatch, keys, ids, spatial_ndim,
                                              worker, length):
    # every step of a run, drawn one at a time or with a worker thread
    # drawing blocks of `length` steps ahead, is bitwise the draw of that
    # step alone; the runs cross step 0, or stay on one side of it, and each
    # distinct (id, step, site) is drawn exactly once
    src = NoiseSource(seed=41).with_replica(3)
    n_distinct = len(np.unique(ids))
    monkeypatch.setattr(noise_module, "BUDGET", length * n_distinct * keys.size)
    drawn = []
    raw = NoiseSource.raw_normals

    def counting(self, *args, **kwargs):
        g = raw(self, *args, **kwargs)
        drawn.append(g.size)
        return g

    monkeypatch.setattr(NoiseSource, "raw_normals", counting)
    for run in (range(-9, 6), range(-20, -3), range(3, 80), range(-1, 1)):
        drawn.clear()
        with ThreadPoolExecutor(1) if worker else nullcontext() as pool:
            noise = MeanSubtractedNoise(src, keys, ids, spatial_ndim, pool)
            got = [g.copy() for g in noise(run)]
        assert sum(drawn) == len(run) * n_distinct * keys.size
        assert max(drawn) <= length * n_distinct * keys.size
        assert len(got) == len(run)
        for step, g in zip(run, got):
            assert np.array_equal(g, _per_step_draw(src, keys, ids, spatial_ndim, step))
