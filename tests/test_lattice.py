import numpy as np
import pytest

from gradphi.lattice import (
    DirichletDomain,
    ParabolicCylinder,
    SpaceTimeField,
    cylinder_average,
    dirichlet_divergence,
    divergence_field,
    forward_difference,
    forward_gradients,
    horizon_steps,
    interior_across,
    make_torus,
    shift,
    time_loop,
)
from gradphi.dynamics import run_dirichlet, stable_dt
from gradphi.noise import MeanSubtractedNoise, NoiseSource
from gradphi.parabolic import EffectiveGradient
from gradphi.potential import quadratic, soft_quartic
from reference import (
    EdgeField,
    divergence,
    grad,
    neighbors,
    nonlinear_div,
    nonlinear_div_field,
)


def test_torus_site_counts():
    assert make_torus(2, 1).nsites == 9
    assert make_torus(2, 8).nsites == 289
    assert make_torus(3, 2).nsites == 125


def test_torus_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_torus(1, 4)
    with pytest.raises(ValueError):
        make_torus(2, 0)


def test_every_site_has_2d_neighbors():
    grid = make_torus(2, 1)
    for coord in [(0, 0), (1, 1), (-1, 1)]:
        ns = neighbors(grid, coord)
        assert len(ns) == 4
        assert len(set(ns)) == 4


def test_grad_basics():
    grid = make_torus(2, 2)
    const = np.ones(grid.shape)
    assert grad(grid, const, (0, 0), (1, 0)) == 0.0
    linear = grid.coordinates[..., 0].astype(float)  # u(x) = x . e1
    assert grad(grid, linear, (0, 0), (1, 0)) == 1.0
    rng = np.random.default_rng(0)
    u = rng.normal(size=grid.shape)
    assert grad(grid, u, (0, 1), (1, 1)) == -grad(grid, u, (1, 1), (0, 1))


def test_divergence_of_constant_field_vanishes():
    grid = make_torus(2, 2)
    g = EdgeField(grid, np.stack([np.full(grid.shape, 0.7), np.full(grid.shape, -0.3)]))
    for coord in [(0, 0), (2, -1)]:
        assert divergence(g, coord) == pytest.approx(0.0, abs=1e-14)


def test_divergence_of_gradient_is_laplacian():
    grid = make_torus(2, 3)
    rng = np.random.default_rng(1)
    u = rng.normal(size=grid.shape)
    g = forward_gradients(u)
    lap = divergence_field(g)
    for coord in [(0, 0), (1, -2)]:
        idx = grid.array_index(coord)
        manual = sum(u[grid.array_index(n)] for n in neighbors(grid, coord)) - 4 * u[idx]
        assert lap[idx] == pytest.approx(manual, abs=1e-12)


def test_total_divergence_telescopes_to_zero():
    grid = make_torus(2, 4)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(2,) + grid.shape)
    assert abs(divergence_field(g).sum()) < 1e-10


def test_integration_by_parts_on_torus():
    # sum_x div(g) v = -sum_edges g grad v, to 1e-12, random fields
    for L in (2, 3, 4):
        grid = make_torus(2, L)
        rng = np.random.default_rng(L)
        g = rng.normal(size=(2,) + grid.shape)
        v = rng.normal(size=grid.shape)
        lhs = float((divergence_field(g) * v).sum())
        gv = forward_gradients(v)
        rhs = -float((g * gv).sum())
        assert lhs == pytest.approx(rhs, abs=1e-12 * grid.nsites)


def test_nonlinear_div_quadratic_cases():
    grid = make_torus(2, 2)
    V = quadratic()
    zero = np.zeros(grid.shape)
    assert nonlinear_div(V, (0.0, 0.0), zero, (0, 0)) == 0.0
    rng = np.random.default_rng(3)
    u = rng.normal(size=grid.shape)
    lap = divergence_field(forward_gradients(u))
    field = nonlinear_div_field(V, None, u)
    assert np.allclose(field, lap, atol=1e-12)


def test_nonlinear_div_hand_sum():
    grid = make_torus(2, 1)
    V = quadratic()
    u = np.zeros(grid.shape)
    u[grid.array_index((0, 0))] = 1.0
    assert nonlinear_div(V, (0.0, 0.0), u, (0, 0)) == pytest.approx(-4.0)


def test_dirichlet_gradient_scaling():
    # mesh-eps gradient of the amplitude-scaled lifted field equals the
    # unit-lattice gradient exactly
    N = 8
    dom = DirichletDomain(2, N)
    rng = np.random.default_rng(4)
    u = rng.normal(size=(N + 1, N + 1))
    lifted = dom.mesh * u
    for x, y in [((1, 1), (2, 1)), ((3, 4), (3, 5))]:
        micro = u[y] - u[x]
        assert grad(dom, lifted, x, y) == pytest.approx(micro, rel=1e-12)


def test_dirichlet_boundary_is_adjacent_to_interior():
    dom = DirichletDomain(2, 4)
    bmask = dom.boundary_mask
    imask = dom.interior_mask
    coords = dom.coordinates
    for c in coords[bmask]:
        neigh = []
        for ax in range(2):
            for s in (-1, 1):
                n = c.copy()
                n[ax] += s
                if np.all(n >= 0) and np.all(n <= dom.resolution):
                    neigh.append(tuple(n))
        assert any(imask[n] for n in neigh)
        assert not imask[tuple(c)]


def test_cylinder_average_constants_and_time_ramp():
    grid = make_torus(2, 2)
    nsl = 17
    dt = 1.0 / (nsl - 1)
    vals = np.full((nsl,) + grid.shape, 3.25)
    f = SpaceTimeField(grid, -1.0, dt, vals)
    Q = ParabolicCylinder(-1.0, 0.0, radius=grid.radius)
    assert cylinder_average(f, Q) == pytest.approx(3.25)

    ramp = np.empty((nsl,) + grid.shape)
    for j in range(nsl):
        ramp[j] = -1.0 + j * dt
    f2 = SpaceTimeField(grid, -1.0, dt, ramp)
    assert cylinder_average(f2, Q) == pytest.approx(-0.5, abs=1e-12)


def test_space_time_field_holds_site_stacks_only():
    # (n, *shape) site values are a field; a stack with a component axis,
    # edge values (n, d, *shape) included, is not
    for grid in (make_torus(2, 2), make_torus(3, 1), DirichletDomain(2, 4)):
        d = grid.dim
        assert SpaceTimeField(grid, 0.0, 0.5, np.zeros((3,) + grid.shape)).nslices == 3
        for bad in ((3, d) + grid.shape, (3, d + 1) + grid.shape, (3, 1) + grid.shape,
                    (3,) + grid.shape[1:]):
            with pytest.raises(ValueError):
                SpaceTimeField(grid, 0.0, 0.5, np.zeros(bad))


def test_edge_field_antisymmetric_lookup():
    grid = make_torus(2, 2)
    rng = np.random.default_rng(5)
    g = EdgeField(grid, rng.normal(size=(2,) + grid.shape))
    assert g.value((0, 0), (1, 0)) == -g.value((1, 0), (0, 0))
    assert g.value((2, 0), (-2, 0)) == -g.value((-2, 0), (2, 0))  # wrap edge
    with pytest.raises(ValueError):
        g.value((0, 0), (1, 1))


# The stencil must reproduce the np.roll and np.diff + np.pad expressions it
# replaced bit for bit, on 2-d, 3-d and batched (leading replica axis) fields.
STENCIL_SHAPES = [(7, 7), (5, 6, 4), (3, 7, 7)]


def _stencil_fields():
    rng = np.random.default_rng(12)
    return [rng.normal(size=shape) for shape in STENCIL_SHAPES]


def test_periodic_stencil_equals_roll():
    for a in _stencil_fields():
        for ax in range(a.ndim):
            for step in (1, -1):
                assert np.array_equal(shift(a, ax, step), np.roll(a, step, axis=ax))
                out = np.empty_like(a)
                assert shift(a, ax, step, out=out) is out
                assert np.array_equal(out, np.roll(a, step, axis=ax))
            assert np.array_equal(forward_difference(a, ax), np.roll(a, -1, axis=ax) - a)


def test_gradient_and_divergence_fields_equal_roll():
    rng = np.random.default_rng(13)
    V = soft_quartic(0.5)
    for u in _stencil_fields()[:2]:
        d = u.ndim
        rolled = np.stack([np.roll(u, -1, axis=ax) - u for ax in range(d)])
        assert np.array_equal(forward_gradients(u), rolled)
        g = rng.normal(size=(d,) + u.shape)
        div = np.zeros(u.shape)
        drift = np.zeros(u.shape)
        q = rng.normal(size=d)
        for ax in range(d):
            div += g[ax] - np.roll(g[ax], 1, axis=ax)
            f = V.vp(np.roll(u, -1, axis=ax) - u + q[ax])
            drift += f - np.roll(f, 1, axis=ax)
        assert np.array_equal(divergence_field(g), div)
        assert np.array_equal(nonlinear_div_field(V, q, u), drift)


def _padded(a, ax, far):
    """a padded by one zero row along ax, on the far or the near side."""
    width = [(0, 0)] * a.ndim
    width[ax] = (0, 1) if far else (1, 0)
    return np.pad(a, width)


def _padded_divergence(F, ax):
    """F(x) - F(x - e_ax) of a full-grid edge field, zero at the near face."""
    return _padded(np.diff(F, axis=ax), ax, far=False)


@pytest.mark.parametrize("d", [2, 3])
def test_dirichlet_interior_updates_equal_the_padded_stencil(d):
    # every step of a noisy batched run updates the interior bitwise as the
    # zero-padded stencil does: V' of the forward difference on the full
    # grid (zero past the far face), then its backward difference
    V = soft_quartic(0.5)
    dom = DirichletDomain(d, 4)  # eps = 1/4 scales exactly: records / eps are the states
    eps = dom.mesh
    src, reps = NoiseSource(seed=31), np.arange(2)
    rec = run_dirichlet(dom, lambda p: lambda t: np.exp(t) * np.sin(3.0 * p.sum(axis=-1)),
                        V, src, reps, record_stride=1, threads=None)
    dt = stable_dt(V, d)
    t0, n_steps = horizon_steps(1.0 / (eps * eps), dt)
    k0 = int(round(t0 / dt))
    draws = MeanSubtractedNoise(src, dom.site_keys, reps, d, None)(range(k0, k0 + n_steps))
    inner = (Ellipsis,) + dom.interior_box
    for k in range(n_steps):
        u = rec[k] / eps
        drift = np.zeros_like(u)
        for ax in range(1, 1 + d):
            drift += _padded_divergence(V.vp(_padded(np.diff(u, axis=ax), ax, far=True)), ax)
        expect = u[inner] + dt * drift[inner]
        expect += np.sqrt(2.0 * dt) * next(draws).reshape(u.shape)[inner]
        assert np.array_equal(rec[k + 1][inner] / eps, expect)


@pytest.mark.parametrize("d", [2, 3])
def test_dirichlet_divergence_equals_the_padded_stencil(d):
    # the effective flux of the forward differences, zero-padded to the
    # grid, and its backward difference; the edges off interior_across lie
    # in a face, where no interior update reads them, so the reference
    # zeroes them: clamps count on the edges read only
    dom = DirichletDomain(d, 5)
    eps = dom.mesh
    u = np.random.default_rng(32).normal(size=dom.shape) * 4.0
    div = dirichlet_divergence(u.shape, d, eps)  # one binding serves both fluxes
    for make in (EffectiveGradient.identity,
                 lambda: EffectiveGradient.from_axis_table([0.0, 5.0, 10.0], [0.0, 6.0, 13.0])):
        Ds, ref = make(), make()
        expect = np.zeros_like(u)
        for ax in range(d):
            read = np.zeros(dom.shape, dtype=bool)
            read[interior_across(d, ax, slice(None))] = True
            g = _padded(np.diff(u, axis=ax), ax, far=True) / eps
            expect += _padded_divergence(ref(np.where(read, g, 0.0)), ax) / eps
        got = div(u, Ds)
        assert np.array_equal(got, expect[dom.interior_box])
        assert Ds.clamp_events == ref.clamp_events
    assert ref.clamp_events > 0


# ---------------------------------------------------------------------------
# explicit time loop
# ---------------------------------------------------------------------------

def _loop_state():
    return np.random.default_rng(7).normal(size=(2, 5, 5))


def test_time_loop_records_what_on_step_saw():
    seen, times = {}, []
    stride = 3

    def drift(k, t, u):
        times.append(t)
        return np.sin(u) + k

    def on_step(k, t, u):
        seen[k] = (t, u.copy())

    u = _loop_state()
    init = u.copy()
    t0, dt = -1.0, 0.1
    rec = time_loop(u, drift, t0, dt, 10, on_step=on_step, record_stride=stride)
    assert rec.shape == (10 // stride + 1,) + u.shape
    assert np.array_equal(rec[0], init)
    for j in range(1, len(rec)):
        assert np.array_equal(rec[j], seen[j * stride - 1][1])
    assert np.array_equal(u, seen[9][1])
    assert times == [t0 + k * dt for k in range(10)]
    assert [seen[k][0] for k in range(10)] == [t0 + (k + 1) * dt for k in range(10)]


def test_time_loop_masked_sites_change_only_through_the_pin():
    rng = np.random.default_rng(8)
    box = (slice(1, -1), slice(1, -1))
    mask = np.zeros((5, 5), dtype=bool)
    mask[box] = True
    pin_mask = np.zeros((5, 5), dtype=bool)
    pin_mask[0, 1:-1] = True
    pin_values = np.arange(3.0)
    u = _loop_state()
    init = u.copy()
    time_loop(u, lambda k, t, u: rng.normal(size=u[(Ellipsis,) + box].shape), 0.0, 0.01, 6,
              mask=box, noise=lambda steps: (rng.normal(size=u.shape) for _ in steps),
              pin=(pin_mask, lambda t: pin_values * t), record_stride=None)
    rest = ~(mask | pin_mask)
    assert np.array_equal(u[:, rest], init[:, rest])
    assert np.array_equal(u[:, pin_mask], np.broadcast_to(pin_values * (6 * 0.01), (2, 3)))
    assert np.all(u[:, mask] != init[:, mask])


@pytest.mark.parametrize("d", [2, 3])
def test_time_loop_interior_box_matches_the_boolean_mask(d):
    # stepping the interior as a box (views) gives the bits of the boolean
    # gather and scatter of interior_mask, pin, noise and records included
    dom = DirichletDomain(d, 5)
    mask, box = dom.interior_mask, dom.interior_box
    boxed = np.zeros(dom.shape, dtype=bool)
    boxed[box] = True
    assert np.array_equal(boxed, mask)
    pin_mask = dom.boundary_mask
    B, dt, n_steps, stride = 3, 0.01, 12, 4
    rng = np.random.default_rng(11 + d)
    init = rng.normal(size=(B,) + dom.shape)
    draws = rng.normal(size=(n_steps, B * mask.size))
    pins = rng.normal(size=(n_steps, int(pin_mask.sum())))

    def drift(k, t, u):
        out = np.cos(u) * (1.0 + t)
        for ax in range(1, d + 1):
            out -= np.roll(u, 1, axis=ax)
        return out

    def noise(steps):
        # the loop scales each draw in place: yield scratch copies
        return (draws[step + 3].copy() for step in steps)

    def pin(t):
        return pins[int(round(t / dt)) - 1 + 3]

    u = init.copy()
    rec = time_loop(u, lambda k, t, u: drift(k, t, u)[(Ellipsis,) + box], -3 * dt, dt,
                    n_steps, mask=box, noise=noise, pin=(pin_mask, pin), record_stride=stride)

    # the same loop written with the boolean gather and scatter
    ref = init.copy()
    ref_rec = [ref.copy()]
    sq = np.sqrt(2.0 * dt)
    for k in range(n_steps):
        du = drift(k, -3 * dt + k * dt, ref)
        ref[..., mask] += dt * du[..., mask]
        ref[..., mask] += sq * draws[k].reshape(ref.shape)[..., mask]
        ref[..., pin_mask] = pin(-3 * dt + (k + 1) * dt)
        if (k + 1) % stride == 0:
            ref_rec.append(ref.copy())
    assert np.array_equal(u, ref)
    assert np.array_equal(rec, np.stack(ref_rec))
    with pytest.raises(TypeError):
        time_loop(init.copy(), drift, 0.0, dt, 1, mask=(mask,), record_stride=None)


def test_time_loop_rejects_a_drift_not_of_the_masked_shape():
    # under a mask the drift holds the masked sites only: a full-shape drift
    # raises, and so does an interior drift without the batch axis, which
    # would broadcast over the replicas
    box = (slice(1, -1), slice(1, -1))
    u = _loop_state()
    for shape in (u.shape, u[(0,) + box].shape):
        with pytest.raises(ValueError, match="drift"):
            time_loop(u.copy(), lambda k, t, u: np.ones(shape), 0.0, 0.1, 1, mask=box,
                      record_stride=None)


def test_time_loop_draws_noise_at_the_absolute_step():
    steps = []

    def noise(run):
        for step in run:
            steps.append(step)
            yield np.full(25, float(step))  # reshaped to the state's shape

    u = np.zeros((1, 5, 5))
    dt = 0.02
    # the absolute step index counts from round(t0 / dt)
    time_loop(u, lambda k, t, u: np.zeros_like(u), -5 * dt, dt, 5, noise=noise,
              record_stride=None)
    assert steps == [-5, -4, -3, -2, -1]
    expected = 0.0
    for step in steps:
        expected += np.sqrt(2.0 * dt) * step
    assert np.array_equal(u, np.full(u.shape, expected))


def test_time_loop_without_stride_records_nothing():
    u = _loop_state()
    assert time_loop(u, lambda k, t, u: -u, 0.0, 0.1, 4, record_stride=None) is None
    assert np.allclose(u, _loop_state() * 0.9**4, rtol=1e-14, atol=0.0)
