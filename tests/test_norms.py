import numpy as np
import pytest

from gradphi.lattice import SpaceTimeField, make_torus
from gradphi.norms import _ParabolicBall, hminus1_par_exact, hminus1_par_multiscale
from reference import holder_seminorm


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


def _dense_dual_norm(values, dt, L_weight):
    """Independent dense assembly of the exact dual norm."""
    n_t = values.shape[0]
    shape = values.shape[1:]
    nsp = int(np.prod(shape))
    m = n_t - 1
    ball = _ParabolicBall(shape, m, dt, L_weight)
    K = ball.K
    Kinv = np.linalg.inv(K)
    D = np.eye(m) - np.eye(m, k=-1)  # (Dv)_j = v_j - v_{j-1}, v_0 = 0
    B = ball.scale * (np.kron(np.eye(m), K) + np.kron(D.T @ D, Kinv) / dt**2)
    ell = (ball.scale * values[1:].reshape(m, nsp)).ravel()
    return float(np.sqrt(ell @ np.linalg.solve(B, ell)))


def test_exact_dual_norm_zero_field():
    res = hminus1_par_exact(np.zeros((4, 3, 3)), dt=0.5)
    assert res.value == 0.0 and res.converged


def test_exact_dual_norm_matches_dense_solve_on_spike():
    # single spike on a 3 x 3 x (3 slices) cylinder
    vals = np.zeros((3, 3, 3))
    vals[2, 1, 1] = 1.0
    res = hminus1_par_exact(vals, dt=0.5, tol=1e-8)
    oracle = _dense_dual_norm(vals, dt=0.5, L_weight=1.5)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_exact_dual_norm_matches_dense_solve_on_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(3):
        vals = rng.normal(size=(4, 3, 3))
        res = hminus1_par_exact(vals, dt=0.7, tol=1e-8)
        oracle = _dense_dual_norm(vals, dt=0.7, L_weight=1.5)
        assert res.converged
        assert res.value == pytest.approx(oracle, rel=1e-6)


def test_exact_dual_norm_crude_upper_bound():
    # dual value <= averaged L2 norm times (duration + spatial side)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(6, 5, 5))
    dt = 0.5
    duration = (vals.shape[0] - 1) * dt
    res = hminus1_par_exact(vals, dt=dt)
    l2 = np.sqrt(np.mean(vals**2))
    assert res.value <= l2 * (duration + 5)


def test_multiscale_dominates_exact_within_factor_ten():
    # acceptance-style comparison on the triadic cylinder of scale two
    rng = np.random.default_rng(3)
    n_t = 27
    dt = 3.0
    for _ in range(5):
        vals = rng.normal(size=(n_t, 9, 9))
        exact = hminus1_par_exact(vals, dt=dt).value
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
