import numpy as np
import pytest

from gradphi.noise import NoiseSource
from gradphi.occupation import (
    BrownianSpec,
    EdgeGradientSpec,
    normalize_intervals,
    occupation_experiment,
    occupation_on_set,
)
from gradphi.potential import quadratic


def test_zero_threshold_has_zero_occupation():
    rep = occupation_experiment(BrownianSpec(dt=1e-3), [0.0, 0.1, 0.2], 64,
                                NoiseSource(seed=1))
    assert rep.means[0] == 0.0


def test_needs_three_thresholds():
    with pytest.raises(ValueError):
        occupation_experiment(BrownianSpec(dt=1e-3), [0.1, 0.2], 8, NoiseSource(seed=1))


def test_brownian_occupation_linear_through_origin():
    rep = occupation_experiment(BrownianSpec(dt=1e-3), [0.05, 0.1, 0.2], 1500,
                                NoiseSource(seed=2))
    assert rep.slope > 0
    assert rep.relative_intercept <= 0.1
    assert np.all(np.diff(rep.means) > 0)


def test_edge_gradient_occupation_comparable_to_brownian():
    bm = occupation_experiment(BrownianSpec(dt=1e-3), [0.05, 0.1, 0.2], 1500,
                               NoiseSource(seed=3))
    edge = occupation_experiment(EdgeGradientSpec(L=8, potential=quadratic()),
                                 [0.05, 0.1, 0.2], 1500, NoiseSource(seed=4))
    assert edge.relative_intercept <= 0.1
    ref = bm.slope / np.sqrt(2.0)
    assert 0.5 * ref <= edge.slope <= 2.0 * ref


def test_normalize_intervals_merges_overlaps():
    merged = normalize_intervals([(0.0, 0.2), (0.1, 0.3), (1.0, 1.1)])
    assert merged == [(0.0, 0.3), (1.0, 1.1)]
    with pytest.raises(ValueError):
        normalize_intervals([(i, i + 0.5) for i in range(40)])


def test_occupation_on_empty_and_full_sets():
    src = NoiseSource(seed=5)
    empty = occupation_on_set(BrownianSpec(dt=1e-3), [], 32, src)
    assert empty.mean == 0.0
    capped = occupation_on_set(BrownianSpec(dt=1e-3), [(-1e9, 1e9)], 32, src)
    assert capped.mean == pytest.approx(1.0)


def test_occupation_additive_and_monotone_per_trajectory():
    src = NoiseSource(seed=6)
    a = occupation_on_set(BrownianSpec(dt=1e-3), [(-0.2, 0.0)], 64, src)
    b = occupation_on_set(BrownianSpec(dt=1e-3), [(0.0 + 1e-12, 0.3)], 64, src)
    both = occupation_on_set(BrownianSpec(dt=1e-3), [(-0.2, 0.0), (0.0 + 1e-12, 0.3)],
                             64, src)
    assert np.allclose(a.per_replica + b.per_replica, both.per_replica, atol=1e-12)
    bigger = occupation_on_set(BrownianSpec(dt=1e-3), [(-0.4, 0.5)], 64, src)
    assert np.all(both.per_replica <= bigger.per_replica + 1e-12)


def test_split_set_matches_centered_interval():
    # same total measure, same center of mass: means agree within 4 SE
    src = NoiseSource(seed=7)
    one = occupation_on_set(BrownianSpec(dt=1e-3), [(-0.1, 0.1)], 1000, src)
    two = occupation_on_set(BrownianSpec(dt=1e-3),
                            [(-0.15, -0.05), (0.05, 0.15)], 1000, src)
    gap = abs(one.mean - two.mean)
    assert gap <= 4 * np.hypot(one.stderr, two.stderr)


def test_occupation_bounded_by_measure_times_constant():
    src = NoiseSource(seed=8)
    ratios = []
    for iv in ([(-0.1, 0.1)], [(-0.3, 0.1)], [(0.0, 0.25), (-0.25, -0.05)]):
        res = occupation_on_set(BrownianSpec(dt=1e-3), iv, 500, src)
        ratios.append(res.mean / res.measure)
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 3.0
