import numpy as np
import pytest

from gradphi.lattice import SpaceTimeField, make_torus
from gradphi.norms import hminus1_par_exact, hminus1_par_multiscale
from reference import dense_dual_norm, holder_seminorm


def _field(grid, vals, t0=-1.0):
    dt = (0.0 - t0) / (vals.shape[0] - 1)
    return SpaceTimeField(grid, t0, dt, vals)


def test_holder_seminorm_cases():
    grid = make_torus(2, 2)
    const = _field(grid, np.full((5,) + grid.shape, 1.0))
    assert holder_seminorm(const, None, 1.0) == 0.0

    # f(t, x) = x1 on the box: slope one between neighbors
    coords = grid.coordinates[..., 0].astype(float)
    vals = np.broadcast_to(coords, (3,) + grid.shape).copy()
    f = _field(grid, vals)
    assert holder_seminorm(f, None, 1.0) == pytest.approx(1.0)

    # f(t, x) = t on a unit time range: the sup is attained at |t-s| = 1
    nsl = 5
    ramp = np.empty((nsl,) + grid.shape)
    for j in range(nsl):
        ramp[j] = -1.0 + j * 0.25
    g = _field(grid, ramp)
    assert holder_seminorm(g, None, 1.0) == pytest.approx(1.0)

    with pytest.raises(ValueError):
        holder_seminorm(const, None, 1.5)


def test_holder_seminorm_rejects_edge_fields():
    # 0 on every x-edge and 1 on every y-edge is constant per component: the
    # component axis is no spatial axis to take differences across, and a
    # SpaceTimeField holds no such stack, so it never reaches the seminorm
    grid = make_torus(2, 2)
    vals = np.zeros((3, 2) + grid.shape)
    vals[:, 1] = 1.0
    with pytest.raises(ValueError, match="site field"):
        holder_seminorm(_field(grid, vals), None, 1.0)


def test_multiscale_constant_field_value():
    # f = 1, m = 1, d = 2: averaged L2 gives 1, scales contribute 1 + 3
    n_t = 18
    vals = np.ones((n_t, 3, 3))
    est = hminus1_par_multiscale(vals, dt=9.0 / n_t, m=1)
    assert est == pytest.approx(5.0)


def test_multiscale_zero_field():
    assert hminus1_par_multiscale(np.zeros((9, 3, 3)), dt=1.0, m=1) == 0.0


def test_multiscale_random_signs_below_constant():
    n_t = 81
    ref = hminus1_par_multiscale(np.ones((n_t, 9, 9)), dt=1.0, m=2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = rng.choice([-1.0, 1.0], size=(n_t, 9, 9))
        est = hminus1_par_multiscale(vals, dt=1.0, m=2)
        assert est < ref


def test_exact_dual_norm_zero_field():
    assert hminus1_par_exact(np.zeros((4, 3, 3)), dt=0.5) == 0.0


def test_exact_dual_norm_matches_dense_solve_on_spike():
    # single spike on a 3 x 3 x (3 slices) cylinder
    vals = np.zeros((3, 3, 3))
    vals[2, 1, 1] = 1.0
    oracle = dense_dual_norm(vals, dt=0.5, L_weight=1.5)
    assert hminus1_par_exact(vals, dt=0.5) == pytest.approx(oracle, rel=1e-12)


def test_exact_dual_norm_matches_dense_solve_on_random_fields():
    # three 3 x 3 boxes, a non-cube 4 x 6 box and a d = 3 box; the weight is
    # half the longest side
    rng = np.random.default_rng(7)
    shapes = [(4, 3, 3)] * 3 + [(5, 4, 6), (4, 3, 3, 3)]
    for shape in shapes:
        vals = rng.normal(size=shape)
        oracle = dense_dual_norm(vals, dt=0.7, L_weight=max(shape[1:]) / 2.0)
        assert hminus1_par_exact(vals, dt=0.7) == pytest.approx(oracle, rel=1e-12)


def test_exact_dual_norm_of_one_mode_above_the_dense_size():
    # 81 free slices of 27 x 27 sites, 59,049 unknowns: f is one product
    # eigenmode, sin((2k - 1) pi j / (2m + 1)) in time and a sine per axis,
    # so the norm is sqrt(s |f|^2 / (lambda + mu / (dt^2 lambda)))
    m, n, dt, k, modes = 81, 27, 0.4, 3, (2, 5)
    j = np.arange(1, m + 1)
    x = np.arange(1, n + 1)
    vals = np.zeros((m + 1, n, n))
    vals[1:] = (np.sin((2 * k - 1) * np.pi * j / (2 * m + 1))[:, None, None]
                * np.sin(modes[0] * np.pi * x / (n + 1))[:, None]
                * np.sin(modes[1] * np.pi * x / (n + 1)))
    mu = 2 - 2 * np.cos((2 * k - 1) * np.pi / (2 * m + 1))
    lam = 1 / (n / 2) ** 2 + sum(2 - 2 * np.cos(a * np.pi / (n + 1)) for a in modes)
    s = 1.0 / (m * n * n)
    expected = np.sqrt(s * np.sum(vals**2) / (lam + mu / (dt**2 * lam)))
    assert hminus1_par_exact(vals, dt=dt) == pytest.approx(expected, rel=1e-12)


def test_exact_dual_norm_crude_upper_bound():
    # dual value <= averaged L2 norm times (duration + spatial side)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(6, 5, 5))
    dt = 0.5
    duration = (vals.shape[0] - 1) * dt
    l2 = np.sqrt(np.mean(vals**2))
    assert hminus1_par_exact(vals, dt=dt) <= l2 * (duration + 5)


def test_multiscale_dominates_exact_within_factor_ten():
    # acceptance-style comparison on the triadic cylinder of scale two
    rng = np.random.default_rng(3)
    n_t = 27
    dt = 3.0
    for _ in range(5):
        vals = rng.normal(size=(n_t, 9, 9))
        exact = hminus1_par_exact(vals, dt=dt)
        est = hminus1_par_multiscale(vals, dt=dt, m=2)
        assert exact <= 10.0 * est


def test_multiscale_structural_upper_bound():
    # each scale's block-average RMS is at most the field RMS, so the
    # estimate never exceeds the averaged L2 norm times 1 + sum of 3^k
    rng = np.random.default_rng(31)
    for m, n_t in [(1, 18), (2, 54)]:
        vals = rng.normal(size=(n_t, 3**m, 3**m))
        est = hminus1_par_multiscale(vals, dt=9.0**m / n_t, m=m)
        l2 = np.sqrt((vals**2).mean())
        cap = l2 * (1 + sum(3**k for k in range(m + 1)))
        assert est <= cap + 1e-12
