"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all).
Statistical checks run at the stated multiples of measured standard errors
with fixed seeds; exact-oracle checks use the stated absolute tolerances.
"""

import numpy as np
import pytest

from gradphi import spectral
from gradphi.dynamics import run_corrector, run_gff_dynamic, stable_dt
from gradphi.harness import (
    fit_power_law,
    hydro_limit_experiment,
    run_excess,
    run_experiment,
)
from gradphi.homogenize import (
    corrector_fluctuation_experiment,
    estimate_hessian,
    estimate_tau,
    flux_decay_experiment,
    linearization_modulus,
)
from gradphi.lattice import DirichletDomain, SpaceTimeField, make_torus
from gradphi.noise import NoiseSource
from gradphi.norms import hminus1_par_exact, hminus1_par_multiscale
from gradphi.occupation import (
    BrownianSpec,
    EdgeGradientSpec,
    occupation_experiment,
)
from gradphi.parabolic import (
    EffectiveGradient,
    duhamel_solve,
    heat_kernel,
    integration_by_parts_gap,
    solve_linear_parabolic,
    solve_linearized_corrector,
)
from gradphi.potential import kinked, lusin_measure, quadratic, soft_quartic


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# -------------------------------------------------------------------------
# 1. exact-oracle suite
# -------------------------------------------------------------------------

def test_criterion_01_exact_oracles():
    ok = True
    # Duhamel vs direct stepping, d=2, L=2, random elliptic environment
    grid = make_torus(2, 2)
    rng = np.random.default_rng(101)
    env = rng.uniform(0.8, 1.4, size=(2,) + grid.shape)
    dt = 1.0 / 24
    vals = rng.normal(size=(25,) + grid.shape)
    vals -= vals.mean(axis=(1, 2), keepdims=True)
    f = SpaceTimeField(grid, 0.0, dt, vals)
    u_duh = duhamel_solve(env, f)
    u_dir = solve_linear_parabolic(env, grid, 0.0, 24, dt, site_forcing=f)
    ok &= np.max(np.abs(u_duh.values - u_dir.values)) <= 1e-8

    # heat kernel vs the discrete-time spectral solution, a = 1, L = 4
    grid4 = make_torus(2, 4)
    dt = stable_dt(quadratic(), 2)
    tab = heat_kernel(1.0, grid4, 0.0, (1, -2), 8.0, dt=dt)
    for t in (1.0, 4.0, 8.0):
        exact = spectral.heat_kernel_exact(grid4, (1, -2), t, dt)
        ok &= np.max(np.abs(tab.at(t) - exact)) <= 1e-10

    # mass conservation of the kernel, every step
    env8 = rng.uniform(0.75, 1.5, size=(2,) + grid4.shape)
    tab2 = heat_kernel(env8, grid4, 0.0, (0, 0), 16.0, dt=1.0 / 24)
    ok &= np.max(np.abs(tab2.values.sum(axis=(1, 2)))) <= 1e-12 * grid4.nsites

    # discrete integration by parts of the conservative effective operator
    dom = DirichletDomain(2, 8)
    u = np.zeros(dom.shape)
    v = np.zeros(dom.shape)
    u[2:-2, 2:-2] = rng.normal(size=(5, 5))
    v[2:-2, 2:-2] = rng.normal(size=(5, 5))
    knots = np.linspace(0.0, 50.0, 9)
    tabf = EffectiveGradient.from_axis_table(knots, np.sinh(knots / 20.0))
    for Ds in (EffectiveGradient.identity(), tabf):
        ok &= integration_by_parts_gap(Ds, u, v, dom.mesh) <= 1e-12 * u.size

    # linearized corrector vanishes and the linearization residual is tiny
    # for the quadratic potential
    grid6 = make_torus(2, 3)
    V = quadratic()
    phi = run_corrector(grid6, 9.0, (0.2, -0.1), V, NoiseSource(seed=102))
    w = solve_linearized_corrector(phi, (0.2, -0.1), (1.0, 0.0), V)
    ok &= np.max(np.abs(w.values)) == 0.0
    mod = linearization_modulus((0.1, 0.0), [(0.4, 0.0)], 4, V,
                                NoiseSource(seed=103), replicas=3)
    ok &= np.max(mod.residuals) <= 1e-10
    _report(1, "exact oracle suite", ok)


# -------------------------------------------------------------------------
# 2. Gaussian stationarity
# -------------------------------------------------------------------------

def test_criterion_02_gaussian_stationarity():
    grid = make_torus(2, 4)
    replicas = 2000
    reps = np.arange(replicas)
    T = 8.0  # L^2 / 2
    dt = stable_dt(quadratic(), 2)
    final, _ = run_gff_dynamic(grid, T, NoiseSource(seed=201), replicas=reps)
    center = final[:, 4, 4]
    ok = True
    for dx in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (4, 4)]:
        # the exact covariance of the stepped dynamic at T, which the
        # explicit scheme's bias moves off the free field's
        oracle = spectral.gff_dynamic_covariance(grid, dx, T, dt)
        other = final[:, (4 + dx[0]) % grid.side, (4 + dx[1]) % grid.side]
        prod = center * other
        se = prod.std(ddof=1) / np.sqrt(replicas)
        ok &= abs(prod.mean() - oracle) <= 4 * se

    # per-mode decay rates after step-bias correction
    _, rec2 = run_gff_dynamic(grid, 12.0, NoiseSource(seed=202), replicas=reps,
                              record_stride=8)
    modes = np.fft.fftn(rec2, axes=(2, 3))
    lam = spectral.laplacian_eigenvalues(grid)
    lag_dt = dt * 8
    for kmode in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        series = modes[:, :, kmode[0], kmode[1]]
        corr = np.real(series * np.conj(series[0])).mean(axis=1)
        n_use = max(3, min(len(corr), int(1.0 / (lam[kmode] * lag_dt))))
        y = corr[:n_use]
        ok &= bool(np.all(y > 0))
        slope = np.polyfit(lag_dt * np.arange(n_use), np.log(y), 1)[0]
        target = spectral.discrete_decay_rate(lam[kmode], dt)
        ok &= abs(-slope - target) <= 0.10 * target
    _report(2, "free-field stationarity and mode rates", ok)


# -------------------------------------------------------------------------
# 3. surface tension oracle
# -------------------------------------------------------------------------

def test_criterion_03_surface_tension_oracle():
    V = quadratic()
    ok = True
    for i, p in enumerate([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)]):
        est = estimate_tau(p, 8, V, 500, NoiseSource(seed=301 + i))
        ok &= bool(np.all(np.abs(est.mean - np.asarray(p)) <= 3 * est.stderr))
        ok &= bool(np.all(est.stderr <= 0.02))
    H = estimate_hessian((0.0, 0.0), 8, V, 8, NoiseSource(seed=304))
    ok &= bool(np.all(np.abs(H.matrix - np.eye(2)) <= 3 * H.stderr + 1e-9))
    _report(3, "flux mean and Hessian vs the Gaussian oracle", ok)


# -------------------------------------------------------------------------
# 4. finite-volume convergence
# -------------------------------------------------------------------------

def test_criterion_04_finite_volume_convergence():
    V = soft_quartic(0.5)
    p = (0.5, 0.0)
    t8 = estimate_tau(p, 8, V, 96, NoiseSource(seed=401))
    t16 = estimate_tau(p, 16, V, 96, NoiseSource(seed=402))
    diff = np.abs(t8.mean - t16.mean)
    bound = 10.0 * (1.0 / 8.0) * (1.0 + np.sqrt(np.log(8.0)))
    ok = bool(np.all(diff <= bound))
    _report(4, "finite-volume flux convergence", ok)


# -------------------------------------------------------------------------
# 5. flux decay
# -------------------------------------------------------------------------

def test_criterion_05_flux_decay():
    res = flux_decay_experiment([2, 4, 8, 16], 32, soft_quartic(0.5), 300,
                                NoiseSource(seed=501), threads=2)
    ok = bool(-2.7 <= res.exponent <= -1.3)
    ok &= bool(res.r_squared >= 0.9)
    # gradient window averages decay as well
    grad_fit = fit_power_law(res.scales, res.gradient_variance)
    ok &= bool(grad_fit.exponent < -1.3)
    _report(5, "window flux variance decay", ok)


# -------------------------------------------------------------------------
# 6. corrector fluctuations
# -------------------------------------------------------------------------

def test_criterion_06_corrector_fluctuations():
    res = corrector_fluctuation_experiment([8, 16, 32], quadratic(), 400,
                                           NoiseSource(seed=601), d=2)
    oracle = np.array([spectral.gff_variance(make_torus(2, L))
                       for L in (8, 16, 32)])
    A = np.stack([np.log(res.sizes), np.ones(3)], axis=1)
    slope_emp = np.linalg.lstsq(A, res.center_variance, rcond=None)[0][0]
    slope_oracle = np.linalg.lstsq(A, oracle, rcond=None)[0][0]
    fitted = A @ np.linalg.lstsq(A, res.center_variance, rcond=None)[0]
    ss_res = ((res.center_variance - fitted) ** 2).sum()
    ss_tot = ((res.center_variance - res.center_variance.mean()) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot
    ok = bool(r2 >= 0.9)
    ok &= bool(abs(slope_emp - slope_oracle) <= 0.5 * slope_oracle)
    # gradient tail bounded uniformly over sizes
    ok &= bool(res.grad_q999.max() <= 2.0 * res.grad_q999.min())

    res3 = corrector_fluctuation_experiment([8, 16], quadratic(), 64,
                                            NoiseSource(seed=602), d=3,
                                            stationary_window=2.0)
    growth = res3.center_variance[1] / res3.center_variance[0] - 1.0
    ok &= bool(growth < 0.25)
    _report(6, "corrector fluctuation scaling", ok)


# -------------------------------------------------------------------------
# 7. hydrodynamic limit
# -------------------------------------------------------------------------

def test_criterion_07_hydrodynamic_limit():
    cfg = {
        "potential": {"kind": "quadratic"},
        "d": 2,
        "epsilons": [0.25, 0.125, 0.0625, 0.03125],
        "replicas": 20,
        "f": {"name": "sine_product"},
    }
    res = hydro_limit_experiment(seed=701, threads=2, **cfg)
    ok = bool(res.criteria["error_strictly_decreasing"])
    ok &= bool(res.criteria["exponent_ge_0.3"])
    _report(7, "quantitative effective-limit rate", ok)


# -------------------------------------------------------------------------
# 8. occupation time
# -------------------------------------------------------------------------

def test_criterion_08_occupation_time():
    eps = [0.05, 0.1, 0.2]
    coarse = occupation_experiment(BrownianSpec(dt=1e-3), eps, 2000,
                                   NoiseSource(seed=801))
    fine = occupation_experiment(BrownianSpec(dt=1e-5), eps, 128,
                                 NoiseSource(seed=802))
    ok = bool(coarse.slope > 0)
    ok &= bool(coarse.relative_intercept <= 0.1)
    ok &= bool(0.5 * fine.slope <= coarse.slope <= 2.0 * fine.slope)

    edge = occupation_experiment(EdgeGradientSpec(L=8, potential=quadratic()),
                                 eps, 2000, NoiseSource(seed=803))
    ok &= bool(edge.slope > 0)
    ok &= bool(edge.relative_intercept <= 0.1)
    ok &= bool(0.5 * fine.slope / np.sqrt(2) <= edge.slope
               <= 2.0 * fine.slope / np.sqrt(2))
    _report(8, "occupation-time linearity", ok)


# -------------------------------------------------------------------------
# 9. Lusin set and linearization modulus
# -------------------------------------------------------------------------

def test_criterion_09_lusin_and_linearization():
    V = kinked(0.5)
    vals = [lusin_measure(V, 2.0, kap, 0.1) for kap in (0.2, 0.1, 0.05)]
    ok = all(v <= 4 * kap for v, kap in zip(vals, (0.2, 0.1, 0.05)))
    ok &= bool(vals[0] > vals[1] > vals[2])
    ok &= lusin_measure(quadratic(), 2.0, 0.1, 0.1) == 0.0

    # the residual of the first-order tilt expansion is of second order in
    # the gap: halving the gap at least divides it by 2^1.5, the bound of
    # test_linearization_residual_is_second_order_in_the_gap; a first-order
    # residual would only halve
    mod = linearization_modulus((0.3, 0.0), [(0.7, 0.0), (0.5, 0.0), (0.4, 0.0)],
                                8, V, NoiseSource(seed=901), replicas=200)
    order = np.argsort(mod.gaps)[::-1]  # 0.4, 0.2, 0.1
    for hi, lo in zip(order, order[1:]):
        ok &= bool(mod.residuals[lo] / mod.residuals[hi] <= 2 ** -1.5)
    _report(9, "mollification measure and linearization modulus", ok)


# -------------------------------------------------------------------------
# 10. norm machinery
# -------------------------------------------------------------------------

def test_criterion_10_norm_machinery():
    rng = np.random.default_rng(1001)
    ok = True
    # 20 random fields over the triadic scale-two cylinder of side 9
    for _ in range(20):
        vals = rng.normal(size=(27, 9, 9))
        exact = hminus1_par_exact(vals, dt=3.0)
        est = hminus1_par_multiscale(vals, dt=3.0, m=2)
        ok &= exact.converged
        ok &= bool(exact.value <= 10.0 * est)
    # dense-solve oracle agreement on the 3 x 3 x (3 slices) cylinder
    vals = np.zeros((3, 3, 3))
    vals[2, 1, 1] = 1.0
    res = hminus1_par_exact(vals, dt=0.5, tol=1e-8)
    from gradphi.norms import _ParabolicBall

    ball = _ParabolicBall((3, 3), 2, 0.5, 1.5)
    D = np.eye(2) - np.eye(2, k=-1)
    B = ball.scale * (np.kron(np.eye(2), ball.K)
                      + np.kron(D.T @ D, np.linalg.inv(ball.K)) / 0.5**2)
    ell = (ball.scale * vals[1:].reshape(2, 9)).ravel()
    oracle = float(np.sqrt(ell @ np.linalg.solve(B, ell)))
    ok &= bool(abs(res.value - oracle) <= 1e-6 * oracle)
    _report(10, "negative-norm estimator vs exact dual", ok)


# -------------------------------------------------------------------------
# 11. large-scale regularity diagnostic
# -------------------------------------------------------------------------

def test_criterion_11_large_scale_regularity():
    res = run_excess(seed=1101, threads=2, potential={"kind": "quadratic"},
                     L=32, scales=[8, 16, 32], replicas=20)
    ok = bool(res.criteria["halving_decay_80pct"])
    ok &= bool(res.criteria["gradient_bound_constant_le_20"])
    _report(11, "excess decay and gradient bound", ok)


# -------------------------------------------------------------------------
# 12. reproducibility
# -------------------------------------------------------------------------

def test_criterion_12_reproducibility(tmp_path):
    cfg = {
        "schema_version": 1,
        "process": "brownian",
        "thresholds": [0.05, 0.1, 0.2],
        "replicas": 256,
        "dt": 1e-3,
        "seed": 1201,
    }
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment("occupation", dict(cfg), str(out))
        blobs.append((out / "occupation.csv").read_bytes())
    ok = blobs[0] == blobs[1]

    # an experiment whose replicas run on worker threads: byte-identical
    # excess CSVs at one thread and at three
    ecfg = {"schema_version": 1, "L": 8, "scales": [4, 8], "replicas": 6, "seed": 1202}
    outs = []
    for name, threads in [("c", 1), ("d", 3)]:
        out = tmp_path / name
        run_experiment("excess", dict(ecfg), str(out), threads=threads)
        outs.append((out / "excess.csv").read_bytes())
    ok &= outs[0] == outs[1]
    _report(12, "byte-identical reruns", ok)
