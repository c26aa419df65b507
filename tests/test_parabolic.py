import numpy as np
import pytest

from gradphi import spectral
from gradphi.lattice import (
    DirichletDomain,
    SpaceTimeField,
    make_torus,
)
from gradphi.dynamics import run_corrector, stable_dt
from gradphi.noise import NoiseSource
from gradphi.parabolic import (
    EffectiveGradient,
    gaussian_envelope,
    duhamel_solve,
    heat_kernel,
    integration_by_parts_gap,
    nash_aronson_fit,
    solve_homogenized,
    solve_linear_parabolic,
    solve_linearized_corrector,
)
from gradphi.potential import kinked, quadratic, soft_quartic


def _random_static_env(grid, lo, hi, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(grid.dim,) + grid.shape)


def _l2(values, dt):
    """Space-time L2 norm of a stack of slices, trapezoid rule in time."""
    w = np.full(values.shape[0], dt)
    w[0] = w[-1] = dt / 2
    return float(np.sqrt(np.dot(w, (values**2).sum(axis=tuple(range(1, values.ndim))))))


def test_heat_kernel_mass_conservation():
    grid = make_torus(2, 3)
    env = _random_static_env(grid, 0.5, 1.5, 0)
    tab = heat_kernel(env, grid, 0.0, (1, -1), 4.0, dt=1.0 / 24)
    sums = tab.values.sum(axis=(1, 2))
    assert np.max(np.abs(sums)) < 1e-12 * grid.nsites


def test_heat_kernel_matches_spectral_solution():
    grid = make_torus(2, 4)
    dt = stable_dt(quadratic(), 2)
    tab = heat_kernel(1.0, grid, 0.0, (2, 1), 8.0, dt=dt)
    for t in (0.5, 2.0, 8.0):
        exact = spectral.heat_kernel_exact(grid, (2, 1), t, dt)
        got = tab.at(t)
        assert np.max(np.abs(got - exact)) < 1e-10


def test_heat_kernel_nonnegative_shifted():
    # P + 1/|L| >= 0 for the explicit scheme under the stability rule
    grid = make_torus(2, 8)
    for seed in range(3):
        env = _random_static_env(grid, 0.75, 1.5, seed)
        tab = heat_kernel(env, grid, 0.0, (0, 0), 64.0, dt=1.0 / 24)
        assert (tab.values + 1.0 / grid.nsites).min() >= -1e-12


def test_heat_kernel_rejects_unstable_step():
    grid = make_torus(2, 3)
    with pytest.raises(ValueError):
        heat_kernel(1.0, grid, 0.0, (0, 0), 1.0, dt=0.2)


def test_linear_solvers_reject_a_step_unstable_for_the_environment():
    # dt = 1/16 is stable for coefficients up to 1, not for an environment
    # in [4, 6]: the bound comes from the largest coefficient, not from a
    # default of 1
    grid = make_torus(2, 3)
    env = _random_static_env(grid, 4.0, 6.0, 0)
    with pytest.raises(ValueError):
        solve_linear_parabolic(env, grid, 0.0, 50, 1.0 / 16)
    with pytest.raises(ValueError):
        heat_kernel(env, grid, 0.0, (0, 0), 50.0 / 16, dt=1.0 / 16)


def test_gaussian_envelope_closed_form():
    for L in (4, 8, 32):
        got = gaussian_envelope(2.0, L, 1.0, np.zeros(2))
        assert got == pytest.approx(2.0 * np.exp(-1.0 / (2 * L * L)), rel=1e-12)


def test_nash_aronson_fit_exists_for_unit_environment():
    grid = make_torus(2, 8)
    dt = stable_dt(quadratic(), 2)
    tab = heat_kernel(1.0, grid, 0.0, (0, 0), 64.0, dt=dt)
    fit = nash_aronson_fit(tab, (0, 0))
    assert fit.ok and fit.c_hat <= 64


def test_nash_aronson_constant_shrinks_with_contrast():
    grid = make_torus(2, 6)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.0, 1.0, size=(grid.dim,) + grid.shape)
    fits = []
    for theta in (np.log(4) / 2, np.log(2) / 2, 0.0):
        env = np.exp(theta * u)
        c_plus = float(np.exp(theta))
        tab = heat_kernel(env, grid, 0.0, (0, 0), 36.0, dt=1.0 / (8 * 2 * 2.0))
        fits.append(nash_aronson_fit(tab, (0, 0)).c_hat)
    assert all(f is not None for f in fits)
    assert fits[0] >= fits[1] >= fits[2]


def test_duhamel_zero_forcing():
    grid = make_torus(2, 2)
    f = SpaceTimeField(grid, 0.0, 0.25, np.zeros((5,) + grid.shape))
    u = duhamel_solve(1.0, f)
    assert np.all(u.values == 0.0)


def test_duhamel_matches_direct_stepping():
    grid = make_torus(2, 2)
    dt = 1.0 / 24
    n = 24
    rng = np.random.default_rng(7)
    env = _random_static_env(grid, 0.8, 1.4, 3)
    vals = rng.normal(size=(n + 1,) + grid.shape)
    vals -= vals.mean(axis=(1, 2), keepdims=True)
    f = SpaceTimeField(grid, 0.0, dt, vals)
    u_duh = duhamel_solve(env, f)
    u_dir = solve_linear_parabolic(env, grid, 0.0, n, dt, site_forcing=f)
    assert np.max(np.abs(u_duh.values - u_dir.values)) < 1e-8


def test_duhamel_reaches_elliptic_steady_state():
    # time-independent forcing: u(t) approaches the mean-zero solution of
    # the discrete elliptic problem, computed independently by dense solve
    grid = make_torus(2, 2)
    env = _random_static_env(grid, 0.5, 1.5, 11)
    rng = np.random.default_rng(12)
    f0 = rng.normal(size=grid.shape)
    f0 -= f0.mean()
    T = 10 * grid.radius**2 * 4  # 10 L^2 with L = 2 -> 40
    dt = 1.0 / 24
    n = int(T / dt)
    vals = np.broadcast_to(f0, (n + 1,) + grid.shape).copy()
    f = SpaceTimeField(grid, 0.0, dt, vals)
    u = duhamel_solve(env, f)

    # dense elliptic oracle: -div(a grad u*) = f0 with zero mean
    nsp = grid.nsites
    A = np.zeros((nsp, nsp))
    for flat, coord in enumerate(grid.coordinates.reshape(-1, 2)):
        for ax in range(2):
            for s in (+1, -1):
                nb = list(coord)
                nb[ax] = (nb[ax] + s + grid.radius) % grid.side - grid.radius
                j = int(np.ravel_multi_index(grid.array_index(nb), grid.shape))
                if s == +1:
                    a_e = env[(ax,) + grid.array_index(coord)]
                else:
                    a_e = env[(ax,) + grid.array_index(nb)]
                A[flat, flat] += a_e
                A[flat, j] -= a_e
    rhs = f0.reshape(-1)
    star, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    star -= star.mean()
    final = u.values[-1].reshape(-1)
    assert np.max(np.abs(final - star)) < 1e-6


def test_linear_solver_trivia():
    grid = make_torus(2, 3)
    out = solve_linear_parabolic(1.0, grid, 0.0, 32, 1.0 / 16)
    assert np.all(out.values == 0.0)


def test_linear_solver_maximum_principle():
    grid = make_torus(2, 3)
    rng = np.random.default_rng(1)
    init = rng.normal(size=grid.shape)
    env = _random_static_env(grid, 0.5, 1.5, 2)
    out = solve_linear_parabolic(env, grid, 0.0, 100, 1.0 / 24, init=init)
    assert out.values.max() <= init.max() + 1e-12
    assert out.values.min() >= init.min() - 1e-12


def test_linear_solver_energy_inequality():
    # the linearized corrector w solves dw/dt = div(a grad w) + div(F) with
    # F = a xi, a = V''(p + grad phi) >= c- = 1, and div(F) is the
    # divergence of its spatial fluctuation F - <F>: the fitted constant in
    # |grad w| <= C |F - <F>| stays below 1/c- + 0.1
    grid = make_torus(2, 4)
    V = kinked(0.5)
    p = (0.9, 0.0)
    worst = 0.0
    for seed in range(5):
        phi = run_corrector(grid, 4.0, p, V, NoiseSource(seed=50 + seed))
        xi = np.random.default_rng(seed).normal(size=2)
        w = solve_linearized_corrector(phi, p, xi, V)
        F = np.stack([np.stack([V.vpp(np.roll(phi.values[j], -1, axis=ax)
                                      - phi.values[j] + p[ax]) * xi[ax]
                                for ax in range(2)]) for j in range(phi.nslices)])
        F -= F.mean(axis=(2, 3), keepdims=True)
        gw = np.stack(
            [np.stack([np.roll(w.values[j], -1, axis=ax) - w.values[j]
                       for ax in range(2)]) for j in range(w.nslices)]
        )
        worst = max(worst, _l2(gw, phi.dt) / _l2(F, phi.dt))
    assert worst <= 1.0 / 1.0 + 0.1


def test_linearized_corrector_trivial_cases():
    grid = make_torus(2, 3)
    V = quadratic()
    phi = run_corrector(grid, 4.0, (0.2, 0.0), V, NoiseSource(seed=1))
    w = solve_linearized_corrector(phi, (0.2, 0.0), (1.0, 0.0), V)
    assert np.max(np.abs(w.values)) == 0.0

    Vs = soft_quartic(0.5)
    phi2 = run_corrector(grid, 4.0, None, Vs, NoiseSource(seed=2))
    w0 = solve_linearized_corrector(phi2, None, (0.0, 0.0), Vs)
    assert np.max(np.abs(w0.values)) == 0.0


def test_linearized_corrector_is_linear_in_direction():
    grid = make_torus(2, 3)
    Vs = soft_quartic(0.5)
    phi = run_corrector(grid, 4.0, (0.1, 0.3), Vs, NoiseSource(seed=3))
    w1 = solve_linearized_corrector(phi, (0.1, 0.3), (1.0, 0.0), Vs)
    w3 = solve_linearized_corrector(phi, (0.1, 0.3), (3.0, 0.0), Vs)
    assert np.max(np.abs(w3.values - 3.0 * w1.values)) < 1e-12
    # mean preserved
    assert np.max(np.abs(w1.values.mean(axis=(1, 2)))) < 1e-12


def test_effective_gradient_identity_and_table():
    ident = EffectiveGradient.identity()
    p = np.array([[0.3, -0.2], [1.0, 0.0]])
    assert np.array_equal(ident(p), p)

    knots = np.array([0.0, 0.5, 1.0, 1.5])
    vals = np.array([0.0, 0.6, 1.3, 1.9])
    tab = EffectiveGradient.from_axis_table(knots, vals)
    assert tab(np.array([0.5, -0.5]))[0] == pytest.approx(0.6)
    assert tab(np.array([0.5, -0.5]))[1] == pytest.approx(-0.6)
    assert tab.clamp_events == 0
    tab(np.array([2.0, 0.0]))
    assert tab.clamp_events == 1


def test_effective_gradient_cyclic_monotonicity():
    knots = np.linspace(0.0, 1.5, 7)
    vals = np.array([0.0, 0.2, 0.5, 0.7, 1.2, 1.5, 1.9])
    for Ds in (EffectiveGradient.identity(), EffectiveGradient.from_axis_table(knots, vals)):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = rng.uniform(-1.4, 1.4, size=(3, 2))
            cyc = sum(float(Ds(pts[i]) @ (pts[(i + 1) % 3] - pts[i])) for i in range(3))
            assert cyc <= 1e-12


def test_homogenized_identity_zero_datum():
    dom = DirichletDomain(2, 4)
    out = solve_homogenized(EffectiveGradient.identity(), dom,
                            lambda p: lambda t: np.zeros(p.shape[:-1]), record_stride=16,
                            dt_unit=1.0 / 16)
    assert out.nslices == 17
    assert np.all(out.values == 0.0)


def test_homogenized_matches_dense_eigensolve():
    # identity flux: evolution of the initial slice matches the dense
    # eigendecomposition of the interior Dirichlet Laplacian to 1e-6
    N = 8
    dom = DirichletDomain(2, N)

    def datum(pts):
        values = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        return lambda t: values

    dt_unit = 1.0 / 16
    out = solve_homogenized(EffectiveGradient.identity(), dom, datum,
                            dt_unit=dt_unit, record_stride=64)
    # dense oracle on interior sites (unit-lattice operator)
    n_int = int(dom.interior_mask.sum())
    idx = np.full(dom.shape, -1, dtype=int)
    idx[dom.interior_mask] = np.arange(n_int)
    A = np.zeros((n_int, n_int))
    for a, c in zip(range(n_int), dom.coordinates[dom.interior_mask]):
        A[a, a] = 4.0
        for ax in range(2):
            for s in (-1, 1):
                nb = c.copy()
                nb[ax] += s
                j = idx[tuple(nb)]
                if j >= 0:
                    A[a, j] -= 1.0
    lam, Q = np.linalg.eigh(A)
    u0 = out.values[0][dom.interior_mask]
    coef = Q.T @ u0
    for j_rec in (1, out.nslices // 2, out.nslices - 1):
        n_steps = j_rec * 64
        evolved = Q @ (coef * (1.0 - dt_unit * lam) ** n_steps)
        got = out.values[j_rec][dom.interior_mask]
        assert np.max(np.abs(got - evolved)) < 1e-6


def test_homogenized_integration_by_parts_exact():
    # conservative form: summation by parts holds to 1e-12 for compactly
    # supported fields, including a nonlinear tabulated flux
    dom = DirichletDomain(2, 8)
    rng = np.random.default_rng(9)
    u = np.zeros(dom.shape)
    v = np.zeros(dom.shape)
    u[2:-2, 2:-2] = rng.normal(size=(5, 5))
    v[2:-2, 2:-2] = rng.normal(size=(5, 5))
    knots = np.linspace(0.0, 50.0, 9)
    vals = np.sinh(knots / 20.0) * 3
    for Ds in (EffectiveGradient.identity(), EffectiveGradient.from_axis_table(knots, vals)):
        gap = integration_by_parts_gap(Ds, u, v, dom.mesh)
        assert gap < 1e-12 * u.size


def test_homogenized_counts_clamps_only_on_the_edges_it_reads():
    # hydro's 3-d table config at eps = 1/4: the sites on the cube's edges
    # are never pinned and stay 0, so the face edges that reach them carry
    # gradients past the table's last knot; no interior update reads those
    # edges, so nothing is clamped
    dom = DirichletDomain(3, 4)
    coeffs = np.array([0.5, 0.25, -0.5])
    Ds = EffectiveGradient.from_axis_table([0.0, 0.5, 1.0], [0.0, 0.6, 1.3])
    solve_homogenized(Ds, dom, lambda pts: (lambda t, v=pts @ coeffs: v),
                      record_stride=64, dt_unit=stable_dt(soft_quartic(0.5), 3))
    assert Ds.clamp_events == 0


def test_holder_regularity_diagnostic_on_caloric_solutions():
    # interior smoothing diagnostic: after running the linear equation with
    # a rough random environment from a spike, the parabolic Hoelder
    # seminorm over a trailing window is controlled by the initial mass
    from gradphi.lattice import ParabolicCylinder
    from reference import holder_seminorm

    grid = make_torus(2, 4)
    env = _random_static_env(grid, 0.75, 1.5, 21)
    init = np.zeros(grid.shape)
    init[grid.array_index((0, 0))] = 1.0
    out = solve_linear_parabolic(env, grid, 0.0, 24 * 8, 1.0 / 24, init=init)
    # every 24th step, one slice per unit time
    coarse = SpaceTimeField(grid, out.t0, 1.0, out.values[::24])
    window = ParabolicCylinder(4.0, 8.0, radius=2)
    ratio = holder_seminorm(coarse, window, alpha=0.5)
    assert np.isfinite(ratio)
    assert ratio < 1.0  # far below the initial spike height
