import numpy as np
import pytest

from gradphi.potential import (
    from_config,
    kinked,
    lusin_measure,
    mollify,
    quadratic,
    soft_quartic,
)


def test_quadratic_closed_forms():
    V = quadratic()
    assert V.vpp(3.7) == 1.0
    assert V.vp(-2.0) == -2.0
    assert V.c_minus == V.c_plus == 1.0


def test_soft_quartic_closed_forms():
    a = 0.5
    V = soft_quartic(a)
    assert V.vpp(0.0) == pytest.approx(1.0 + a)
    assert V.vpp(100.0) - 1.0 <= 2 * a * 1e-6
    assert V.vp(0.0) == 0.0
    assert V.c_minus == 1.0 and V.c_plus == 1.0 + a
    with pytest.raises(ValueError):
        soft_quartic(0.0)


def test_kinked_vp_has_the_bits_of_clip():
    # V' clips with maximum then minimum: the bits of np.clip, NaN and -0.0
    # included, so x + b clip(x, -1, 1) is unchanged bit for bit
    b = 0.5
    x = np.concatenate([[np.nan, -0.0, 0.0, -np.inf, np.inf, -1.0, 1.0, np.nextafter(1.0, 2.0),
                         np.nextafter(-1.0, -2.0)],
                        np.random.default_rng(5).normal(scale=2.0, size=1000)])
    clipped = np.clip(x, -1.0, 1.0)
    assert np.minimum(np.maximum(x, -1.0), 1.0).tobytes() == clipped.tobytes()
    assert kinked(b).vp(x).tobytes() == (x + b * clipped).tobytes()
    assert np.signbit(kinked(b).vp(x)[1]) and np.isnan(kinked(b).vp(x)[0])


def test_kinked_closed_forms():
    b = 0.3
    V = kinked(b)
    assert V.vpp(0.5) == pytest.approx(1.0 + b)
    assert V.vpp(2.0) == pytest.approx(1.0)
    assert V.vp(1.0) == pytest.approx(1.0 + b)  # continuity at the kink
    with pytest.raises(ValueError):
        kinked(1.5)


@pytest.mark.parametrize("make", [quadratic, lambda: soft_quartic(0.7), lambda: kinked(0.4)])
def test_vp_monotone_with_lower_bound(make):
    V = make()
    rng = np.random.default_rng(0)
    x = rng.normal(scale=3.0, size=500)
    y = rng.normal(scale=3.0, size=500)
    gap = (V.vp(x) - V.vp(y)) * (x - y)
    assert np.all(gap >= V.c_minus * (x - y) ** 2 - 1e-12)


@pytest.mark.parametrize("make", [quadratic, lambda: soft_quartic(0.7)])
def test_finite_difference_consistency(make):
    V = make()
    h = 1e-5
    x = np.linspace(-4, 4, 41)
    fd = (V.vp(x + h) - V.vp(x - h)) / (2 * h)
    assert np.max(np.abs(fd - V.vpp(x))) <= V.c_plus * h


def test_mollified_quadratic_keeps_unit_curvature():
    V = mollify(quadratic(), 0.3)
    x = np.linspace(-5, 5, 101)
    assert np.max(np.abs(V.vpp(x) - 1.0)) < 1e-10


def test_mollified_kinked_matches_away_from_the_kink():
    b, kap = 0.5, 0.2
    V = kinked(b)
    Vk = mollify(V, kap)
    inside = np.linspace(-1 + kap + 1e-6, 1 - kap - 1e-6, 21)
    outside = np.concatenate([np.linspace(-3, -1 - kap - 1e-6, 11),
                              np.linspace(1 + kap + 1e-6, 3, 11)])
    assert np.allclose(Vk.vpp(inside), 1.0 + b, atol=1e-12)
    assert np.allclose(Vk.vpp(outside), 1.0, atol=1e-12)


def test_mollification_preserves_ellipticity():
    for make, kap in [(lambda: kinked(0.5), 0.1), (lambda: soft_quartic(0.5), 0.25)]:
        V = make()
        Vk = mollify(V, kap)
        x = np.linspace(-4, 4, 401)
        w = Vk.vpp(x)
        assert w.min() >= V.c_minus - 1e-9
        assert w.max() <= V.c_plus + 1e-9


def test_mollified_kink_lipschitz_constant_scales_like_inverse_width():
    # |Vk''(x) - Vk''(y)| <= C/kappa |x - y| with C fitted over a grid,
    # stable across widths
    b = 0.5
    V = kinked(b)
    fitted = {}
    for kap in (0.1, 0.05):
        Vk = mollify(V, kap)
        x = np.linspace(-2, 2, 801)
        w = Vk.vpp(x)
        slopes = np.abs(np.diff(w)) / np.diff(x)
        fitted[kap] = slopes.max() * kap
    assert all(np.isfinite(c) and c > 0 for c in fitted.values())
    ratio = fitted[0.1] / fitted[0.05]
    assert 1 / 3 < ratio < 3


def test_lusin_measure_quadratic_is_zero():
    V = quadratic()
    for S, kap, eps in [(1, 0.2, 0.1), (3, 0.05, 0.5)]:
        assert lusin_measure(V, S, kap, eps) == 0.0


def test_lusin_measure_kinked():
    V = kinked(0.5)
    # deviation is at most b: thresholds above b give the empty set
    assert lusin_measure(V, 2, 0.1, 0.6) == 0.0
    vals = [lusin_measure(V, 2, kap, 0.1) for kap in (0.2, 0.1, 0.05)]
    for kap, v in zip((0.2, 0.1, 0.05), vals):
        assert v <= 4 * kap
    assert vals[0] > vals[1] > vals[2] > 0


def test_from_config_round_trip():
    assert from_config({"kind": "quadratic"}).name == "quadratic"
    assert from_config({"kind": "soft_quartic", "a": 0.5}).params["a"] == 0.5
    assert from_config({"kind": "kinked", "b": 0.25}).params["b"] == 0.25
    with pytest.raises(ValueError):
        from_config({"kind": "mystery"})
