import itertools
import tracemalloc

import numpy as np
import pytest

from gradphi import spectral
from gradphi.homogenize import _WindowAccumulator
from gradphi.lattice import (
    DirichletDomain,
    ParabolicCylinder,
    SpaceTimeField,
    cylinder_average,
    forward_difference,
    horizon_steps,
    make_torus,
)
from gradphi.dynamics import (
    SlopePath,
    evolve_torus,
    run_corrector,
    run_dirichlet,
    run_gff_dynamic,
    run_stationary_periodic,
    sample_gff,
    smoothed_boundary_datum,
    stable_dt,
)
from gradphi.noise import NoiseSource
from gradphi.potential import quadratic, soft_quartic
from reference import relaxation_variance, torus_drift


def test_zero_horizon_gives_zero_field():
    grid = make_torus(2, 2)
    f = run_corrector(grid, 0.0, None, quadratic(), NoiseSource(seed=1))
    assert f.nslices == 1
    assert np.all(f.values == 0.0)


def test_corrector_slices_stay_mean_zero():
    grid = make_torus(2, 4)
    f = run_corrector(grid, 16.0, (0.3, -0.2), soft_quartic(0.5), NoiseSource(seed=2))
    means = f.values.mean(axis=(1, 2))
    assert np.max(np.abs(means)) < 1e-9


def test_corrector_determinism():
    grid = make_torus(2, 3)
    a = run_corrector(grid, 4.0, (0.1, 0.0), soft_quartic(0.5), NoiseSource(seed=5))
    b = run_corrector(grid, 4.0, (0.1, 0.0), soft_quartic(0.5), NoiseSource(seed=5))
    assert np.array_equal(a.values, b.values)


def test_slope_path_must_cover_window():
    grid = make_torus(2, 3)
    path = SlopePath(np.array([-1.0]), np.array([[0.1, 0.0]]))
    with pytest.raises(ValueError):
        run_corrector(grid, 4.0, path, quadratic(), NoiseSource(seed=1))


def test_corrector_variance_matches_spectral_oracle():
    # quadratic V, d=2, L=8, zero tilt: the final-slice site variance over
    # replicas matches the exact Gaussian relaxation variance within 3
    # standard errors of the sample variance
    grid = make_torus(2, 8)
    V = quadratic()
    dt = 1.0 / 32.0
    T = 64.0
    reps = np.arange(500)
    state, _ = evolve_torus(grid, V, None, NoiseSource(seed=42), -T,
                            int(T / dt), dt, np.zeros(grid.shape), replicas=reps)
    emp = state[:, 8, 8].var(ddof=1)
    oracle = spectral.relaxation_variance_discrete(grid, T, dt)
    se = oracle * np.sqrt(2.0 / (len(reps) - 1))
    assert abs(emp - oracle) <= 3 * se


def test_discrete_relaxation_variance_tends_to_continuous():
    # the explicit scheme's variance exceeds the continuous-time one by a
    # first-order term in dt: halving dt halves the gap
    grid = make_torus(2, 8)
    T = 64.0
    cont = relaxation_variance(grid, T)
    gaps = [spectral.relaxation_variance_discrete(grid, T, dt) - cont
            for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128)]
    assert gaps[0] > 0
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 0.45 * coarse <= fine <= 0.55 * coarse


def test_torus_step_accumulation_order():
    # a noiseless step is bitwise the hand-written `drift += f; drift -=
    # roll(f)` update; the other order, `drift += f - roll(f)`, rounds
    # differently on this field
    grid = make_torus(2, 4)
    V = soft_quartic(0.5)
    dt = stable_dt(V, 2)
    u = np.random.default_rng(3).normal(size=grid.shape)
    q = np.array([0.3, -0.2])
    (state,), _ = evolve_torus(grid, V, SlopePath.constant(q), None, 0.0, 1, dt, u,
                               replicas=np.arange(1))
    drift = np.zeros(grid.shape)
    other = np.zeros(grid.shape)
    for ax in range(2):
        f = V.vp(forward_difference(u, ax) + q[ax])
        drift += f
        drift -= np.roll(f, 1, axis=ax)
        other += f - np.roll(f, 1, axis=ax)
    assert np.array_equal(state, u + dt * drift)
    assert not np.array_equal(state, u + dt * other)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("tilt", ["none", "shared", "per-member"])
def test_torus_step_equals_the_shift_stencil(d, L, tilt):
    # a noiseless step of a batch (sides 3 and 5) is bitwise the shift
    # stencil's drift, with no tilt, a shared tilt (zero in one component)
    # and one tilt per member
    B, grid = 3, make_torus(d, L)
    V = soft_quartic(0.5)
    dt = stable_dt(V, d)
    rng = np.random.default_rng(4)
    u = rng.normal(size=(B,) + grid.shape)
    q = {"none": None, "shared": np.r_[0.3, np.zeros(d - 1)],
         "per-member": rng.normal(size=(B, d))}[tilt]
    state, _ = evolve_torus(grid, V, None if q is None else SlopePath.constant(q), None,
                            0.0, 1, dt, u, replicas=np.arange(B))
    assert np.array_equal(state, u + dt * torus_drift(V, q, u))


@pytest.mark.parametrize("tilt", ["none", "shared", "per-member"])
def test_torus_step_allocates_nothing(tilt):
    # numpy reports its array data to tracemalloc: once the run is set up,
    # a torus step with a flux observer allocates no state-sized array
    B, grid = 24, make_torus(2, 32)
    V = soft_quartic(0.5)
    dt = stable_dt(V, 2)
    q = np.array([0.3, -0.2])
    slope = {"none": None, "shared": SlopePath.constant(q),
             "per-member": SlopePath.constant(np.outer(np.linspace(0.0, 1.0, B), q))}[tilt]
    acc = _WindowAccumulator(grid, [2, 4, 8, 16], B)
    level = []

    def on_step(k, t, state):
        if k == 0:
            level.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        evolve_torus(grid, V, slope, NoiseSource(seed=3), -6 * dt, 6, dt, np.zeros(grid.shape),
                     replicas=np.arange(B), on_step=on_step, on_flux=acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.counts[16] == 7  # the n + 1 states of 6 steps
    state_bytes = B * grid.nsites * 8  # 811,200
    assert peak - level[0] < 256 * 1024 < state_bytes / 3


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_on_flux_sees_each_state_once(n, d):
    # the n + 1 states of an n-step run, the start included, each once and
    # in order at t0 + k dt, axis by axis; the start bit for bit
    grid, V, B = make_torus(d, 2), soft_quartic(0.5), 3
    dt = stable_dt(V, d)
    t0 = -7 * dt
    q = np.linspace(0.3, -0.2, d)
    start = NoiseSource(seed=11).field_normals(grid.site_keys, np.arange(B), tag=0)
    seen = []

    def on_flux(t, ax, grad, flux):
        seen.append((t, ax, grad.copy(), flux.copy()))

    _, rec = evolve_torus(grid, V, SlopePath.constant(q), NoiseSource(seed=3), t0, n, dt,
                          start, replicas=np.arange(B), record_stride=1, on_flux=on_flux)
    assert len(seen) == d * (n + 1)
    for i, (t, ax, grad, flux) in enumerate(seen):
        k = i // d
        assert (t, ax) == (t0 + k * dt, i % d)
        state = start if k == 0 else rec[k]
        assert np.array_equal(grad, forward_difference(state, 1 + ax))
        assert np.array_equal(flux, V.vp(grad + q[ax]))


def test_dirichlet_step_allocates_nothing():
    # once a run is set up, a step of the Dirichlet dynamic (20 replicas,
    # noise off) or of the effective solver allocates no interior-sized
    # array; the level is taken where step 0 pins the boundary, and the
    # datum is constant in time, so of the pin only its quadrature sums
    # and the scatter remain
    from gradphi.parabolic import EffectiveGradient, solve_homogenized

    dom, B = DirichletDomain(2, 16), 20
    interior_bytes = B * (dom.resolution - 1) ** 2 * 8  # 36,000
    bound = 8 * 1024
    assert bound < interior_bytes / 4
    level = []

    def datum(points):
        values = np.sin(3.0 * points.sum(axis=-1))

        def at(t):
            if next(calls) == 1:  # the first evaluation is the initial slice
                level.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return values

        return at

    runs = (lambda: run_dirichlet(dom, datum, quadratic(), None, np.arange(B), None, record=None,
                                  threads=None),
            lambda: solve_homogenized(EffectiveGradient.identity(), dom, datum,
                                      record_stride=4096, dt_unit=stable_dt(quadratic(), 2)))
    for run in runs:
        level.clear()
        calls = itertools.count()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - level[0] < bound


def test_batched_replicas_match_single_replica_runs():
    # B replicas in one batch are bitwise the B runs of one replica each,
    # replica ids counted from the source's own replica
    V = soft_quartic(0.5)
    src = NoiseSource(seed=61).with_replica(2)
    B = 3
    grid = make_torus(2, 3)
    dt = stable_dt(V, 2)
    path = SlopePath.constant([0.3, -0.1])
    init = sample_gff(grid, src, replicas=np.arange(B))
    _, rec = evolve_torus(grid, V, path, src, -1.0, 20, dt, init,
                          replicas=np.arange(B), record_stride=5)
    dom = DirichletDomain(2, 4)

    dirichlet = run_dirichlet(dom, _sine_datum, V, src, np.arange(B), None, record=(16, B),
                              threads=None)
    for r in range(B):
        solo = src.with_replica(2 + r)
        one = np.arange(1)
        init_r = sample_gff(grid, solo, replicas=one)
        assert np.array_equal(init[r], init_r[0])
        _, rec_r = evolve_torus(grid, V, path, solo, -1.0, 20, dt, init_r,
                                replicas=one, record_stride=5)
        assert np.array_equal(rec[:, r], rec_r[:, 0])
        dirichlet_r = run_dirichlet(dom, _sine_datum, V, solo, one, None, record=(16, 1),
                                    threads=None)
        assert np.array_equal(dirichlet[:, r], dirichlet_r[:, 0])


def test_contraction_same_noise_quadratic():
    # two trajectories driven by identical noise: for quadratic V the slice
    # L2 distance is non-increasing at every step
    grid = make_torus(2, 3)
    V = quadratic()
    dt = stable_dt(V, 2)
    rng = np.random.default_rng(0)
    u = rng.normal(size=grid.shape)
    v = rng.normal(size=grid.shape)
    dists = []

    src = NoiseSource(seed=11)
    state_u = u.copy()
    state_v = v.copy()
    for k in range(200):
        state_u, _ = evolve_torus(grid, V, None, src, k * dt, 1, dt, state_u,
                                  replicas=np.arange(1))
        state_v, _ = evolve_torus(grid, V, None, src, k * dt, 1, dt, state_v,
                                  replicas=np.arange(1))
        dists.append(float(np.sqrt(((state_u - state_v) ** 2).sum())))
    diffs = np.diff(dists)
    assert np.all(diffs <= 1e-12)


def test_energy_monotone_drift_general_convex():
    # for general convex V the squared distance can grow only by the
    # second-order term dt^2 |delta drift|^2 per step
    grid = make_torus(2, 3)
    V = soft_quartic(0.8)
    dt = stable_dt(V, 2)
    rng = np.random.default_rng(1)
    state_u = rng.normal(size=grid.shape)
    state_v = rng.normal(size=grid.shape)
    src = NoiseSource(seed=12)
    for k in range(100):
        new_u, _ = evolve_torus(grid, V, None, src, k * dt, 1, dt, state_u,
                                replicas=np.arange(1))
        new_v, _ = evolve_torus(grid, V, None, src, k * dt, 1, dt, state_v,
                                replicas=np.arange(1))
        w = state_u - state_v
        delta_drift = ((new_u - new_v) - w) / dt
        lhs = ((new_u - new_v) ** 2).sum()
        rhs = (w**2).sum() + dt**2 * (delta_drift**2).sum() + 1e-12
        assert lhs <= rhs
        state_u, state_v = new_u, new_v


def test_gff_sample_spatial_mean_zero():
    grid = make_torus(2, 4)
    s = sample_gff(grid, NoiseSource(seed=3), np.arange(1))
    assert abs(s.mean()) < 1e-13


def test_smallest_eigenvalue_on_tiny_torus():
    grid = make_torus(2, 1)
    lam = spectral.laplacian_eigenvalues(grid)
    assert lam[1, 0] == pytest.approx(3.0, abs=1e-12)  # 2 - 2 cos(2 pi / 3)


def test_gff_sample_covariance_matches_mode_sum():
    # d=2, L=4, 2000 replicas: sample covariance within 4 SE of the
    # independent mode-sum oracle
    grid = make_torus(2, 4)
    reps = np.arange(2000)
    samp = sample_gff(grid, NoiseSource(seed=7), replicas=reps)
    center = samp[:, 4, 4]
    # independent oracle: direct cosine sum over nonzero modes
    N, n2 = grid.side, grid.nsites
    ks = np.arange(N)
    lam1 = 2 - 2 * np.cos(2 * np.pi * ks / N)
    lam = lam1[:, None] + lam1[None, :]
    for x in [(0, 0), (1, 0), (2, 2), (4, 0)]:
        ang = 2 * np.pi * (np.add.outer(ks * x[0], ks * x[1])) / N
        mask = lam > 0
        oracle = float((np.cos(ang)[mask] / lam[mask]).sum() / n2)
        other = samp[:, (4 + x[0]) % N, (4 + x[1]) % N]
        emp = float((center * other).mean())
        prod_var = float((center * other).var(ddof=1))
        se = np.sqrt(prod_var / len(reps))
        assert abs(emp - oracle) <= 4 * se


def test_gff_dynamic_stays_mean_zero_and_stationary():
    grid = make_torus(2, 4)
    reps = np.arange(2000)
    T = 8.0  # L^2 / 2
    final, _ = run_gff_dynamic(grid, T, NoiseSource(seed=8), replicas=reps)
    means = final.mean(axis=(1, 2))
    assert np.max(np.abs(means)) < 1e-9
    # stationarity: covariance at T matches the free-field covariance
    center = final[:, 4, 4]
    for x in [(0, 0), (1, 0), (2, 1)]:
        oracle = spectral.gff_covariance(grid, x)
        other = final[:, (4 + x[0]) % grid.side, (4 + x[1]) % grid.side]
        emp = float((center * other).mean())
        se = np.sqrt(float((center * other).var(ddof=1)) / len(reps))
        assert abs(emp - oracle) <= 4 * se


def _torus_laplacian(grid):
    """The periodic lattice Laplacian as a dense (nsites, nsites) matrix."""
    n = grid.nsites
    lap = -2.0 * grid.dim * np.eye(n)
    for a in range(n):
        x = np.unravel_index(a, grid.shape)
        for ax in range(grid.dim):
            for s in (1, -1):
                y = list(x)
                y[ax] = (y[ax] + s) % grid.side
                lap[a, np.ravel_multi_index(y, grid.shape)] += 1.0
    return lap


@pytest.mark.parametrize("d,L,T,dt", [(2, 1, 2.0, 1.0 / 16), (2, 2, 3.0, 1.0 / 16),
                                      (3, 1, 1.5, 1.0 / 24), (2, 2, 0.0, 1.0 / 16)])
def test_gff_dynamic_covariance_matches_the_covariance_recursion(d, L, T, dt):
    # the mode sum equals the covariance recursion of the scheme on a tiny
    # torus: C_0 = (-Laplacian)^+ (the free field), then
    # C <- A C A^T + 2 dt (I - 11^T/n) with A = I + dt Laplacian
    grid = make_torus(d, L)
    lap = _torus_laplacian(grid)
    n = grid.nsites
    A = np.eye(n) + dt * lap
    C = np.linalg.pinv(-lap)
    for _ in range(int(round(T / dt))):
        C = A @ C @ A.T + 2.0 * dt * (np.eye(n) - 1.0 / n)
    for x in np.ndindex(*grid.shape):
        oracle = spectral.gff_dynamic_covariance(grid, x, T, dt)
        assert abs(oracle - C[0, np.ravel_multi_index(x, grid.shape)]) <= 1e-12
    if T == 0.0:
        assert spectral.gff_dynamic_covariance(grid, (0,) * d, T, dt) == pytest.approx(
            spectral.gff_variance(grid), abs=1e-14)


def test_gff_dynamic_covariance_oracle_matches_the_stepper():
    # fixed seed: the stepped dynamic's translation-averaged covariance at T
    # lies within 4 standard errors of the scheme's oracle, and the
    # continuous free-field value lies outside that band at x = 0
    grid = make_torus(2, 4)
    T, dt = 8.0, stable_dt(quadratic(), 2)
    reps = np.arange(1000)
    final, _ = run_gff_dynamic(grid, T, NoiseSource(seed=8), replicas=reps)
    for x in [(0, 0), (1, 0), (2, 1)]:
        per_rep = (final * np.roll(final, (-x[0], -x[1]), axis=(1, 2))).mean(axis=(1, 2))
        emp = float(per_rep.mean())
        se = float(per_rep.std(ddof=1)) / np.sqrt(len(reps))
        assert abs(emp - spectral.gff_dynamic_covariance(grid, x, T, dt)) <= 4 * se
        if x == (0, 0):
            assert abs(emp - spectral.gff_covariance(grid, x)) > 4 * se


def test_gff_dynamic_returns_the_state_at_time_zero():
    # the final state is the free-field dynamic run from the tag-1 sample,
    # not the sample itself
    grid = make_torus(2, 3)
    reps = np.arange(5)
    src = NoiseSource(seed=8)
    final, rec = run_gff_dynamic(grid, 4.0, src, replicas=reps)
    assert rec is None
    V = quadratic()
    dt = stable_dt(V, 2)
    t0, n_steps = horizon_steps(4.0, dt)
    init = sample_gff(grid, src, reps, tag=1)
    ref, _ = evolve_torus(grid, V, None, src, t0, n_steps, dt, init, replicas=reps)
    assert np.array_equal(final, ref)
    assert not np.allclose(final, init)


def test_gff_mode_autocorrelation_decays_at_spectral_rate():
    # fitted per-mode decay rate within 10% of the step-corrected rate
    grid = make_torus(2, 4)
    reps = np.arange(2000)
    dt = stable_dt(quadratic(), 2)
    T = 12.0
    _, rec = run_gff_dynamic(grid, T, NoiseSource(seed=9), replicas=reps,
                             record_stride=8)
    # rec: (nrec, B, N, N); modes via FFT over space
    modes = np.fft.fftn(rec, axes=(2, 3))
    lam = spectral.laplacian_eigenvalues(grid)
    lag_dt = dt * 8
    for k in [(1, 0), (0, 1), (1, 1)]:
        series = modes[:, :, k[0], k[1]]
        base = series[0]
        corr = np.real(series * np.conj(base)).mean(axis=1)
        n_use = min(len(corr), max(3, int(1.0 / (lam[k] * lag_dt))))
        n_use = max(n_use, 3)
        y = corr[:n_use]
        assert np.all(y > 0)
        slope = np.polyfit(lag_dt * np.arange(n_use), np.log(y), 1)[0]
        target = spectral.discrete_decay_rate(lam[k], dt)
        assert abs(-slope - target) <= 0.10 * target


def test_stationary_periodic_flux_centered_on_tilt():
    # quadratic V: the x-flux average over the trailing window has mean p_1
    grid = make_torus(2, 8)
    V = quadratic()
    p = (1.0, 0.0)
    reps = 64
    means = []
    for r in range(reps):
        traj = run_stationary_periodic(grid, p, V, NoiseSource(seed=21, replica=r),
                                       horizon=16.0, record_stride=4)
        window = ParabolicCylinder(-16.0, 0.0, radius=4)
        grads = []
        for j in range(traj.nslices):
            g = np.roll(traj.values[j], -1, axis=0) - traj.values[j]
            grads.append(V.vp(g + p[0]))
        x_flux = SpaceTimeField(grid, traj.t0, traj.dt, np.stack(grads))
        means.append(cylinder_average(x_flux, window))
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(means.mean() - p[0]) <= 3 * se


def test_stationary_windows_agree():
    # two disjoint post-burn-in windows give compatible flux averages
    grid = make_torus(2, 6)
    V = soft_quartic(0.5)
    reps = 48
    a_vals, b_vals = [], []
    for r in range(reps):
        traj = run_stationary_periodic(grid, (0.5, 0.0), V,
                                       NoiseSource(seed=22, replica=r),
                                       horizon=24.0, record_stride=4)
        for (t0, t1, box) in [(-24.0, -12.0, a_vals), (-12.0, 0.0, b_vals)]:
            vals = []
            j0, j1 = traj.time_window(t0, t1)
            for j in range(j0, j1 + 1):
                g = np.roll(traj.values[j], -1, axis=0) - traj.values[j]
                vals.append(V.vp(g + 0.5).mean())
            box.append(np.mean(vals))
    a_vals, b_vals = np.asarray(a_vals), np.asarray(b_vals)
    gap = abs(a_vals.mean() - b_vals.mean())
    se = np.sqrt(a_vals.var(ddof=1) / reps + b_vals.var(ddof=1) / reps)
    assert gap <= 4 * se


# ---------------------------------------------------------------------------
# Dirichlet dynamic
# ---------------------------------------------------------------------------

def _zero_datum(pts):
    zeros = np.zeros(pts.shape[:-1])
    return lambda t: zeros


def _sine_datum(pts):
    s0, s1 = np.sin(np.pi * pts[..., 0]), np.sin(np.pi * pts[..., 1])
    return lambda t: np.exp(t) * s0 * s1


def test_dirichlet_zero_data_zero_noise_stays_zero():
    dom = DirichletDomain(2, 4)
    out = run_dirichlet(dom, _zero_datum, quadratic(), None, np.arange(1), None, record=(1, 1),
                        threads=None)
    assert np.max(np.abs(out)) == 0.0


def test_dirichlet_boundary_pinned_every_step():
    dom = DirichletDomain(2, 4)

    from gradphi.dynamics import smoothed_boundary_datum

    smooth = smoothed_boundary_datum(_sine_datum, dom)
    checked = []

    def on_step(k, t, state):
        if k % 17 == 0:
            expect = smooth(t, dom.boundary_mask) / dom.mesh
            checked.append(np.max(np.abs(state[:, dom.boundary_mask] - expect)))

    run_dirichlet(dom, _sine_datum, quadratic(), NoiseSource(seed=44), np.arange(1), on_step,
                  record=None, threads=None)
    assert checked and max(checked) < 1e-12


def test_dirichlet_eigenfunction_decay_matches_dense_eigensolve():
    # zero noise, quadratic V: starting from the ground eigenfunction of the
    # dense interior Laplacian, every step contracts by exactly 1 - dt*lam1
    N = 6
    dom = DirichletDomain(2, N)
    n_int = int(dom.interior_mask.sum())
    idx = np.full(dom.shape, -1, dtype=int)
    idx[dom.interior_mask] = np.arange(n_int)
    A = np.zeros((n_int, n_int))
    coords = dom.coordinates[dom.interior_mask]
    for a, c in zip(range(n_int), coords):
        A[a, a] = 4.0
        for ax in range(2):
            for s in (-1, 1):
                nb = c.copy()
                nb[ax] += s
                j = idx[tuple(nb)]
                if j >= 0:
                    A[a, j] -= 1.0
    lam, vecs = np.linalg.eigh(A)
    lam1, ground = lam[0], vecs[:, 0]
    dt_unit = stable_dt(quadratic(), 2)

    # run manually: init with the eigenfunction, zero boundary
    state = np.zeros(dom.shape)
    state[dom.interior_mask] = ground
    norms = [np.linalg.norm(state[dom.interior_mask])]

    V = quadratic()
    for _ in range(50):
        drift = np.zeros(dom.shape)
        for ax in range(2):
            gplus = np.diff(state, axis=ax)
            flux = V.vp(gplus)
            pad = [(0, 0)] * 2
            pad[ax] = (1, 0)
            fp = np.pad(flux, pad)
            pad[ax] = (0, 1)
            fm = np.pad(flux, pad)
            drift += fm - fp
        state[dom.interior_mask] += dt_unit * drift[dom.interior_mask]
        norms.append(np.linalg.norm(state[dom.interior_mask]))
    ratios = np.diff(np.log(norms))
    assert np.allclose(np.exp(ratios), 1.0 - dt_unit * lam1, atol=1e-10)


def test_dirichlet_matches_homogenized_identity_zero_noise():
    # with the identity effective flux and no noise the microscopic and
    # effective solvers integrate the same explicit scheme
    from gradphi.parabolic import EffectiveGradient, solve_homogenized

    dom = DirichletDomain(2, 4)

    micro = run_dirichlet(dom, _sine_datum, quadratic(), None, np.arange(1), None,
                          record=(8, 1), threads=None)[:, 0]
    macro = solve_homogenized(EffectiveGradient.identity(), dom, _sine_datum,
                              dt_unit=stable_dt(quadratic(), 2), record_stride=8)
    assert micro.shape == macro.values.shape
    assert np.max(np.abs(micro - macro.values)) < 1e-10


def test_slope_from_config_forms():
    from gradphi.dynamics import slope_from_config

    const = slope_from_config([0.5, -0.25], 2)
    assert np.allclose(const.at(-3.0), [0.5, -0.25])
    path = slope_from_config([{"t": -4.0, "q": [0.0, 0.0]},
                              {"t": -2.0, "q": [1.0, 0.0]}], 2)
    assert np.allclose(path.at(-3.0), [0.0, 0.0])
    assert np.allclose(path.at(-1.0), [1.0, 0.0])
    zero = slope_from_config(None, 2)
    assert np.allclose(zero.at(0.0), [0.0, 0.0])


def _quadrature(dom):
    """The 8^d-node Gauss-Legendre offsets and weights of the smoothed datum."""
    x1, w1 = np.polynomial.legendre.leggauss(8)
    x1, w1 = x1 * dom.mesh, w1 / w1.sum()
    offsets = np.stack(np.meshgrid(*[x1] * dom.dim, indexing="ij"),
                       axis=-1).reshape(-1, dom.dim)
    weights = w1
    for _ in range(dom.dim - 1):
        weights = np.multiply.outer(weights, w1)
    return offsets, weights.ravel()


def _cloud(dom, mask, offsets):
    return dom.points(mask)[:, None, :] + offsets[None, :, :]


def test_boundary_datum_builds_each_point_cloud_once(monkeypatch):
    # the bound datum gives the unbound average bit for bit, and each
    # mask's points are built and bound on its first evaluation only
    dom = DirichletDomain(2, 4)

    def f(pts):
        s, c = np.sin(np.pi * pts[..., 0]), np.cos(pts[..., 1])
        return lambda t: np.exp(t) * s * c

    offsets, weights = _quadrature(dom)

    def unbound(t, mask):
        return f(_cloud(dom, mask, offsets))(t) @ weights

    masks = (dom.boundary_mask, dom.interior_mask | dom.boundary_mask)
    expected = [unbound(t, m) for t in (-0.5, -0.25, 0.0) for m in masks]
    calls = []
    points = DirichletDomain.points
    monkeypatch.setattr(DirichletDomain, "points",
                        lambda self, mask: calls.append(1) or points(self, mask))
    g = smoothed_boundary_datum(f, dom)
    got = [g(t, m.copy()) for t in (-0.5, -0.25, 0.0) for m in masks]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    assert len(calls) == len(masks)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", ["zero", "sine_product", "affine"])
def test_bound_boundary_data_equal_the_direct_quadrature(monkeypatch, name, d):
    # every datum of the config library, bound once per point cloud, gives
    # the quadrature of its direct formula f(t, cloud) bit for bit, and its
    # spatial factors are computed once per cloud, not once per step
    from gradphi.harness import boundary_datum

    coeffs = np.array([0.3, -0.2, 0.7][:d])
    spec = {"name": name, "coefficients": list(coeffs)} if name == "affine" else {"name": name}

    def sine_product(t, pts):  # exp(t) sin(pi x_1) ... sin(pi x_d), left to right
        out = np.exp(t)
        for ax in range(d):
            out = out * np.sin(np.pi * pts[..., ax])
        return out

    direct = {
        "zero": lambda t, pts: np.zeros(pts.shape[:-1]),
        "sine_product": sine_product,
        "affine": lambda t, pts: pts @ coeffs,
    }[name]
    dom = DirichletDomain(d, 4)
    offsets, weights = _quadrature(dom)
    masks = (dom.boundary_mask, dom.interior_mask | dom.boundary_mask)
    times = (-1.0, -0.375, -0.0625, 0.0)
    expected = [direct(t, _cloud(dom, m, offsets)) @ weights for t in times for m in masks]

    f = boundary_datum(spec)
    bindings = []
    g = smoothed_boundary_datum(lambda pts: bindings.append(pts.shape) or f(pts), dom)
    sin = np.sin
    sines = []
    monkeypatch.setattr(np, "sin", lambda x: sines.append(1) or sin(x))
    got = [g(t, m) for t in times for m in masks]
    monkeypatch.undo()
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    assert len(bindings) == len(masks)
    assert len(sines) == (d * len(masks) if name == "sine_product" else 0)
