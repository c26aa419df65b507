import dataclasses
import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from gradphi import homogenize, noise
from gradphi.dynamics import (
    SlopePath,
    as_slope_path,
    evolve_torus,
    run_stationary_periodic,
    stable_dt,
)
from gradphi.homogenize import (
    build_two_scale,
    estimate_hessian,
    estimate_tau,
    excess_decay,
    flux_decay_experiment,
    linearization_modulus,
    make_correctors,
    partition_of_unity,
    tabulate_effective_gradient,
    variance_with_jackknife,
    _StreamSum,
)
from gradphi.lattice import (
    DirichletDomain,
    SpaceTimeField,
    forward_difference,
    horizon_steps,
    make_torus,
)
from gradphi.noise import CHANNEL_BACKWARD, NoiseSource
from gradphi.parabolic import (
    EffectiveGradient,
    solve_homogenized,
    solve_linearized_corrector,
)
from gradphi.potential import kinked, quadratic, soft_quartic
from reference import WindowAccumulator


def test_tau_quadratic_centered_on_tilt():
    est = estimate_tau((1.0, 0.0), 8, quadratic(), 100, NoiseSource(seed=1))
    assert est.samples.shape == (100, 2)
    assert np.all(np.abs(est.mean - np.array([1.0, 0.0])) <= 3 * est.stderr)


def test_tau_zero_tilt_symmetric():
    est = estimate_tau((0.0, 0.0), 8, soft_quartic(0.5), 64, NoiseSource(seed=2))
    assert np.all(np.abs(est.mean) <= 3 * est.stderr + 1e-12)


def test_tau_replica_offset_draws_later_replicas():
    # with_replica(3) runs replicas 3..5: the second half of a six-replica
    # run, not a copy of replicas 0..2
    V = quadratic()
    six = estimate_tau((0.2, 0.0), 4, V, 6, NoiseSource(seed=41))
    late = estimate_tau((0.2, 0.0), 4, V, 3, NoiseSource(seed=41).with_replica(3))
    early = estimate_tau((0.2, 0.0), 4, V, 3, NoiseSource(seed=41))
    assert not np.array_equal(late.mean, early.mean)
    assert np.array_equal(late.samples, six.samples[3:])


def test_tau_requires_replicas():
    with pytest.raises(ValueError):
        estimate_tau((0.0, 0.0), 4, quadratic(), 1, NoiseSource(seed=1))


def test_hessian_and_modulus_require_replicas():
    # one replica has no standard error
    with pytest.raises(ValueError):
        estimate_hessian((0.0, 0.0), 4, quadratic(), 1, NoiseSource(seed=1))
    with pytest.raises(ValueError):
        linearization_modulus((0.0, 0.0), [(0.1, 0.0)], 4, quadratic(), NoiseSource(seed=1),
                              replicas=1)


def test_tau_constant_equals_constant_path_on_same_noise():
    # a tuple tilt, shared by the batch, and the constant path of one tilt
    # per member drive the zero-started dynamic to the same window fluxes
    V, L, B = soft_quartic(0.5), 6, 8
    grid = make_torus(2, L)
    dt = stable_dt(V, 2)
    t0, n_steps = horizon_steps(float(L * L), dt)
    fluxes = []
    for slope in (as_slope_path((0.5, 0.0), 2),
                  SlopePath.constant(np.tile([0.5, 0.0], (B, 1)))):
        acc = homogenize._WindowAccumulator(grid, [L // 2], B)
        evolve_torus(grid, V, slope, NoiseSource(seed=3), t0, n_steps, dt,
                     np.zeros(grid.shape), replicas=np.arange(B), on_flux=acc)
        fluxes.append(acc.averages(L // 2)[0])
    assert np.max(np.abs(fluxes[0] - fluxes[1])) <= 1e-12


def test_hessian_quadratic_is_exactly_identity():
    est = estimate_hessian((0.0, 0.0), 6, quadratic(), 4, NoiseSource(seed=4))
    assert np.max(np.abs(est.matrix - np.eye(2))) <= 3 * est.stderr.max() + 1e-12
    assert est.positive


def test_hessian_axis_relabeling_symmetry():
    # at zero tilt the two diagonal entries are exchangeable; with permuted
    # seeds they agree within 4 combined standard errors
    V = soft_quartic(0.5)
    a = estimate_hessian((0.0, 0.0), 6, V, 12, NoiseSource(seed=5))
    b = estimate_hessian((0.0, 0.0), 6, V, 12, NoiseSource(seed=6))
    gap = abs(a.matrix[0, 0] - b.matrix[1, 1])
    se = np.hypot(a.stderr[0, 0], b.stderr[1, 1])
    assert gap <= 4 * se


def test_variance_jackknife_null():
    var, se = variance_with_jackknife(np.full(16, 0.37))
    assert var == 0.0 and se == 0.0


def test_flux_decay_variance_decreases():
    res = flux_decay_experiment([2, 4, 8], 16, soft_quartic(0.5), 64,
                                NoiseSource(seed=7), horizon=96.0, threads=None)
    assert np.all(np.diff(res.flux_variance) < 0)
    assert res.exponent < -0.8
    assert np.all(np.diff(res.gradient_variance) < 0)


def test_flux_decay_needs_three_scales():
    with pytest.raises(ValueError):
        flux_decay_experiment([2, 4], 8, quadratic(), 8, NoiseSource(seed=8), threads=None)


@pytest.fixture
def paired_accumulators(monkeypatch):
    """Runs the reference accumulator, which recomputes the box gradients and
    fluxes from each state as `on_step`, next to every `_WindowAccumulator`
    that homogenize's torus runs feed through `on_flux`; the list holds the
    pairs.  A run's accumulator is the one its thread built last.  An
    accumulator that holds a slice when step 0 ends was handed the start
    slice, and the reference gets the start state too."""
    pairs = []
    built = {}  # thread id -> the accumulator that thread built last
    run = homogenize.evolve_torus

    class Found(homogenize._WindowAccumulator):
        def __init__(self, *args):
            super().__init__(*args)
            built[threading.get_ident()] = self

    def paired(grid, V, slope, src, t0, n_steps, dt, init, on_flux=None, **kw):
        if on_flux is not None:
            acc = built.pop(threading.get_ident())
            ref = WindowAccumulator(grid, V, slope, acc.radii, acc.n_batch)
            start = np.broadcast_to(init, (acc.n_batch,) + grid.shape)

            def on_step(k, t, state):
                if k == 0 and any(acc.counts.values()):
                    ref(0, t0, start)
                ref(k, t, state)

            pairs.append((acc, ref))
            kw["on_step"] = on_step
        return run(grid, V, slope, src, t0, n_steps, dt, init, on_flux=on_flux, **kw)

    monkeypatch.setattr(homogenize, "_WindowAccumulator", Found)
    monkeypatch.setattr(homogenize, "evolve_torus", paired)
    return pairs


def _assert_pairs_equal(pairs, n_runs):
    assert len(pairs) == n_runs
    for acc, ref in pairs:
        for r in ref.radii:
            assert acc.counts[r] == ref.counts[r] > 0
            flux, grad = acc.averages(r)
            ref_flux, ref_grad = ref.averages(r)
            assert np.array_equal(flux, ref_flux)
            assert np.array_equal(grad, ref_grad)


_POTENTIALS = {"quadratic": quadratic(), "soft_quartic": soft_quartic(0.5),
               "kinked": kinked(0.5)}


@pytest.mark.parametrize("d, L", [(2, 6), (3, 3)])
@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_flux_decay_accumulator_equals_the_reference(paired_accumulators, name, d, L):
    # bit for bit at every chunking; the horizon cuts the window of radius 1
    V = _POTENTIALS[name]
    for threads in (1, 2, 3):
        paired_accumulators.clear()
        flux_decay_experiment([1, 2, 3], L, V, 7, NoiseSource(5), d=d, horizon=3.0,
                              threads=threads)
        _assert_pairs_equal(paired_accumulators, threads)


@pytest.fixture
def tile_sizes(monkeypatch):
    """The replica count of every `evolve_torus` call of homogenize."""
    sizes = []
    run = homogenize.evolve_torus

    def counted(*args, replicas, **kw):
        sizes.append(len(replicas))
        return run(*args, replicas=replicas, **kw)

    monkeypatch.setattr(homogenize, "evolve_torus", counted)
    return sizes


@pytest.mark.parametrize("per_tile", [None, 1, 2])
def test_flux_decay_is_tile_and_thread_independent(tile_sizes, monkeypatch, per_tile):
    # six replicas in one tile against tiles of at most one or two replicas
    # (a budget just short of the next replica) and against the budget's
    # own tiling, which splits six replicas on four threads into 2, 2, 1, 1
    args = ([2, 4, 8], 8, soft_quartic(0.5), 6, NoiseSource(5))
    ref = flux_decay_experiment(*args, horizon=2.0, threads=1)
    assert tile_sizes == [6]
    nsites = make_torus(2, 8).nsites
    if per_tile is not None:
        monkeypatch.setattr(noise, "BUDGET", (per_tile + 1) * nsites - 1)
    for threads in (1, 3, 4):
        tile_sizes.clear()
        res = flux_decay_experiment(*args, horizon=2.0, threads=threads)
        assert sum(tile_sizes) == 6
        assert max(tile_sizes) <= (per_tile or 6)
        for e in ref.samples:
            assert np.array_equal(res.samples[e], ref.samples[e])
        for name in ("flux_variance", "flux_variance_se", "gradient_variance"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))
        assert (res.exponent, res.r_squared) == (ref.exponent, ref.r_squared)


@pytest.mark.parametrize("d, L", [(2, 6), (3, 3)])
@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_tau_accumulator_equals_the_reference(paired_accumulators, name, d, L):
    # a constant tilt (from the stationary start) and a tilt that changes
    # inside the window (from zero)
    V = _POTENTIALS[name]
    tilt = np.zeros(d)
    tilt[0] = 0.3
    path = SlopePath(np.array([-np.inf, -0.5]), np.array([0.2 - tilt, tilt]))
    for slope in (tuple(tilt), path):
        paired_accumulators.clear()
        estimate_tau(slope, L, V, 4, NoiseSource(9), d=d)
        _assert_pairs_equal(paired_accumulators, 1)


@pytest.fixture
def window_accumulators(monkeypatch):
    """Every `_WindowAccumulator` that homogenize builds."""
    built = []

    class Recorded(homogenize._WindowAccumulator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(homogenize, "_WindowAccumulator", Recorded)
    return built


def test_tau_window_averages_n_w_plus_one_slices(window_accumulators):
    # the slices of [-r^2, 0] from any start: the quadratic constant tilt's
    # run starts at -r^2 itself, the others before it
    L, r = 6, 3
    path = SlopePath(np.array([-np.inf, -4.0]), np.array([[0.1, 0.0], [0.3, 0.0]]))
    for slope, V in [((0.3, 0.0), quadratic()), (path, quadratic()),
                     ((0.3, 0.0), soft_quartic(0.5))]:
        window_accumulators.clear()
        estimate_tau(slope, L, V, 2, NoiseSource(10))
        (acc,) = window_accumulators
        n_w = int(round(r * r / stable_dt(V, 2)))
        assert acc.counts[r] == n_w + 1


def test_flux_decay_window_cut_by_the_horizon_leaves_out_the_start(window_accumulators):
    # horizon 4 at dt = 1/24: the uncut window of radius 1 averages the 25
    # slices of [-1, 0]; the cut windows of radii 2 and 3, the 96 slices of
    # (-4, 0], without the start slice at -4
    V = soft_quartic(0.5)
    flux_decay_experiment([1, 2, 3], 6, V, 3, NoiseSource(5), horizon=4.0, threads=None)
    (acc,) = window_accumulators
    assert stable_dt(V, 2) == 1 / 24
    assert acc.counts == {1: 25, 2: 96, 3: 96}


def test_linearization_modulus_quadratic_vanishes():
    mod = linearization_modulus((0.1, 0.0), [(0.5, 0.0), (0.2, 0.3)], 6,
                                quadratic(), NoiseSource(seed=12), replicas=3)
    assert np.max(mod.residuals) <= 1e-10


def _stream_values(j, lo, hi):
    # values in [0, 1) from integer arithmetic, so every slice of stream j
    # is the same bits however it is cut
    k = np.arange(lo, hi, dtype=np.int64)
    return (k * 2654435761 + np.asarray(j)[..., None] * 40503) % 1000003 / 1000003.0


@pytest.mark.parametrize("lead", [(), (3, 8, 2)])
@pytest.mark.parametrize("width", [1, 17, 289])
@pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 1000, homogenize._LEAF - 1,
                               homogenize._LEAF + 1, 3 * homogenize._LEAF + 5, 1537 * 289])
def test_stream_sum_is_numpys_sum_of_each_whole_stream(lead, width, n):
    streams = np.arange(int(np.prod(lead))).reshape(lead)
    acc = _StreamSum(lead, n, width)
    block = 8192 - 8192 % width  # values drawn per call, a whole number of pieces
    for lo in range(0, n, block):
        values = _stream_values(streams, lo, min(lo + block, n))
        for at in range(0, values.shape[-1], width):
            piece = values[..., at:at + width]
            acc.slot(piece.shape[-1])[...] = piece
            acc.advance(piece.shape[-1])
    total = acc.total()
    assert total.shape == lead
    for j in streams.flat:
        stream = _stream_values(j, 0, n)
        assert total.flat[j] == np.add.reduce(stream)


def _halved_gap_residual_ratio():
    # soft quartic is smooth, so halving the tilt gap quarters the residual;
    # a residual of first order in the gap would only halve
    mod = linearization_modulus((0.3, 0.0), [(0.5, 0.0), (0.4, 0.0)], 4,
                                soft_quartic(0.5), NoiseSource(seed=12), replicas=3)
    return mod.residuals[1] / mod.residuals[0]


def test_linearization_residual_is_second_order_in_the_gap():
    assert _halved_gap_residual_ratio() <= 2 ** -1.5


def _flip_linearized_flux(monkeypatch):
    """Negate the linearized flux, and so the corrector's divergence."""
    flux = homogenize.linearized_flux

    def flipped(env, xi):
        f = flux(env, xi)
        return lambda ax, grad, out, tmp: np.negative(f(ax, grad, out, tmp), out=out)

    monkeypatch.setattr(homogenize, "linearized_flux", flipped)


def test_second_order_bound_catches_a_flipped_divergence(monkeypatch):
    # the quadratic bound above cannot: there the corrector's drift is
    # identically zero, whatever its sign
    _flip_linearized_flux(monkeypatch)
    assert not _halved_gap_residual_ratio() <= 2 ** -1.5


def test_linearize_step_allocates_no_state_sized_array():
    # numpy reports its array data to tracemalloc: once the run is set up,
    # a step of linearize's batch (the coupled p and q members, their noise
    # drawn on this thread, the correctors and the residual sums) allocates
    # no state-sized array (74 KB at this shape).  The level is taken at the
    # first V' of step 1, once step 0 has made the noise buffers.  A step
    # still allocates about 51 KB below that size: the noise draw's
    # temporaries and V'' without an `out` (CHANGES.md, the FOUND line on a
    # linearize step's allocations).
    V = kinked(0.5)
    calls = itertools.count()
    level = []

    def vp(x, out=None, tmp=None):
        if next(calls) == 2:  # two axes a step
            level.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return V.vp(x, out=out, tmp=tmp)

    tracemalloc.start()
    try:
        linearization_modulus((0.3, 0.0), [(0.7, 0.0), (0.5, 0.0), (0.4, 0.0)], 8,
                              dataclasses.replace(V, vp=vp), NoiseSource(seed=5), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - level[0] < 64 * 1024 < 32 * 17 * 17 * 8


def test_linearization_modulus_memory_does_not_grow_with_the_horizon():
    # numpy reports its array data to tracemalloc; a record of the residual
    # (probes, replicas, slices, *shape) would be 85 MB at this shape
    L, replicas, V = 8, 8, kinked(0.5)
    n_slices = horizon_steps(float(L * L), stable_dt(V, 2))[1] + 1
    record_bytes = 3 * replicas * n_slices * (2 * L + 1) ** 2 * 8
    tracemalloc.start()
    try:
        linearization_modulus((0.3, 0.0), [(0.7, 0.0), (0.5, 0.0), (0.4, 0.0)], L, V,
                              NoiseSource(seed=5), replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record_bytes > 85e6
    assert peak < record_bytes / 5


def test_linearization_modulus_zero_gap():
    mod = linearization_modulus((0.2, 0.1), [(0.2, 0.1)], 6, soft_quartic(0.5),
                                NoiseSource(seed=13), replicas=3)
    assert mod.residuals[0] <= 1e-14


@pytest.fixture
def draws(monkeypatch):
    """Record (step, number of replica streams) of every normal draw, one
    entry per step of a block draw."""
    seen = []
    raw = NoiseSource.raw_normals

    def counting(self, keys, step, replicas, channel=None, **kwargs):
        for s in step if isinstance(step, range) else [step]:
            absolute = -1 - s if channel == CHANNEL_BACKWARD else s
            seen.append((absolute, len(replicas)))
        return raw(self, keys, step, replicas, channel, **kwargs)

    monkeypatch.setattr(NoiseSource, "raw_normals", counting)
    return seen


def _linearization_reference(p, qs, L, V, src, replicas, d=2):
    # one run per tilt and chunk of 16 replicas, then one corrector per
    # replica and probe along the recorded p-trajectory
    grid = make_torus(d, L)
    dt = stable_dt(V, d)
    t0, n_steps = horizon_steps(float(L * L), dt)
    pv = np.asarray(p, dtype=float)
    res = np.zeros((replicas, len(qs)))
    for lo in range(0, replicas, 16):
        ids = np.arange(lo, min(lo + 16, replicas))

        def run(v):
            return evolve_torus(grid, V, SlopePath.constant(v), src, t0, n_steps,
                                dt, np.zeros(grid.shape), replicas=ids,
                                record_stride=1)[1]

        rec_p = run(pv)
        for iq, q in enumerate(np.asarray(qs, dtype=float)):
            rec_q = run(q)
            for b, rep in enumerate(ids):
                traj = SpaceTimeField(grid, t0, dt, rec_p[:, b])
                w = solve_linearized_corrector(traj, pv, q - pv, V)
                diff = rec_q[:, b] - traj.values - w.values
                acc = 0.0
                for ax in range(d):
                    acc += (forward_difference(diff, 1 + ax) ** 2).mean()
                res[rep, iq] = np.sqrt(acc)
    return res.mean(axis=0), res.std(axis=0, ddof=1) / np.sqrt(replicas)


@pytest.mark.parametrize("V, p, qs, replicas, seed", [
    (kinked(0.5), (0.3, 0.0), [(0.7, 0.0), (0.5, 0.0), (0.4, 0.0)], 18, 901),
    (soft_quartic(0.5), (0.1, 0.0), [(0.2, 0.3), (0.6, 0.0)], 5, 31),
])
def test_linearization_modulus_one_pass_matches_per_probe_runs(draws, monkeypatch, V, p,
                                                               qs, replicas, seed):
    # one time loop per chunk of replicas: bitwise the per-probe runs and
    # per-replica correctors, with each increment drawn once
    src = NoiseSource(seed=seed, replica=2)
    mod = linearization_modulus(p, qs, 3, V, src, replicas)
    n_steps = horizon_steps(9.0, stable_dt(V, 2))[1]
    assert len(draws) == n_steps * -(-replicas // 16)
    assert sum(n for _, n in draws) == n_steps * replicas
    draws.clear()
    # the running sum's tree, with leaves that no slice of 49 sites fills
    # evenly: 10,633 values per stream make 16 leaves of 1000 or less
    monkeypatch.setattr(homogenize, "_LEAF", 1000)
    small_leaves = linearization_modulus(p, qs, 3, V, src, replicas)
    residuals, stderr = _linearization_reference(p, qs, 3, V, src, replicas)
    for est in (mod, small_leaves):
        assert np.array_equal(est.residuals, residuals)
        assert np.array_equal(est.stderr, stderr)
    assert np.all(mod.residuals > 0)


# ---------------------------------------------------------------------------
# two-scale expansion
# ---------------------------------------------------------------------------

def _sine_datum(pts):
    s0, s1 = np.sin(np.pi * pts[..., 0]), np.sin(np.pi * pts[..., 1])
    return lambda t: np.exp(t) * s0 * s1


@pytest.fixture(scope="module")
def small_expansion():
    V = quadratic()
    dom = DirichletDomain(2, 8)
    ubar = solve_homogenized(EffectiveGradient.identity(), dom, _sine_datum,
                             dt_unit=stable_dt(V, 2), record_stride=16)
    pack = make_correctors(ubar, 0.25, V, NoiseSource(seed=14))
    return ubar, pack, build_two_scale(ubar, pack)


def test_partition_sums_to_one():
    dom = DirichletDomain(2, 8)
    centers, chi = partition_of_unity(dom, 0.25)
    total = chi.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_two_scale_zero_correctors_reduce_to_ubar(small_expansion):
    ubar, (chi, correctors), _ = small_expansion
    zeros = [SpaceTimeField(t.grid, t.t0, t.dt, np.zeros_like(t.values))
             for t in correctors]
    w0 = build_two_scale(ubar, (chi, zeros))
    assert np.max(np.abs(w0 - ubar.values)) == 0.0


def _two_scale_by_site(ubar, pack):
    # w rebuilt site by site: ubar + eps sum_i chi_i phi_i(t/eps^2), each
    # corrector read at its recorded slice nearest to the micro time clamped
    # to the recorded range, on its box's overlap with the domain
    chi, correctors = pack
    dom = ubar.grid
    eps = dom.mesh
    ref = ubar.values.copy()
    for chi_i, traj in zip(chi, correctors):
        lo = np.asarray(traj.grid.origin) - traj.grid.radius
        for j, t in enumerate(ubar.times):
            phi = traj.values[traj.slice_index(np.clip(t / eps**2, traj.t0, traj.t1))]
            for x in np.ndindex(dom.shape):
                b = tuple(int(c) for c in np.asarray(x) - lo)
                if all(0 <= c < traj.grid.side for c in b):
                    ref[(j,) + x] += eps * chi_i[x] * phi[b]
    return ref


def test_two_scale_adds_eps_chi_corrector_at_micro_time(small_expansion):
    ubar, pack, w = small_expansion
    assert np.any(w != ubar.values)
    assert np.max(np.abs(w - _two_scale_by_site(ubar, pack))) < 1e-12


def test_two_scale_clamps_micro_time_to_recorded_range():
    # recorded every 1/24 at mesh 1/8, the correctors keep every 43rd step
    # of 1/16, so their last slice lies at micro time -2.1875 and the slice
    # at t = 0 rounds past it
    V = quadratic()
    dom = DirichletDomain(2, 8)
    times = -1.0 + np.arange(25) / 24
    vals = np.stack([_sine_datum(dom.coordinates * dom.mesh)(t) for t in times])
    ubar = SpaceTimeField(dom, -1.0, 1.0 / 24, vals)
    pack = make_correctors(ubar, 0.25, V, NoiseSource(seed=15))
    assert pack[1][0].t1 < 0.0
    w = build_two_scale(ubar, pack)
    assert np.max(np.abs(w - _two_scale_by_site(ubar, pack))) < 1e-12


def test_make_correctors_requires_commensurate_mesoscale():
    dom = DirichletDomain(2, 8)
    vals = np.zeros((9,) + dom.shape)
    ubar = SpaceTimeField(dom, -1.0, 1.0 / 8, vals)
    with pytest.raises(ValueError):
        make_correctors(ubar, 0.3, quadratic(), NoiseSource(seed=16))


# ---------------------------------------------------------------------------
# excess decay
# ---------------------------------------------------------------------------

def test_excess_decay_affine_is_zero():
    grid = make_torus(2, 16)
    coords = grid.coordinates
    vals = np.broadcast_to(0.7 * coords[..., 0] - 0.3 * coords[..., 1] + 2.0,
                           (65,) + grid.shape).copy()
    u = SpaceTimeField(grid, -256.0, 4.0, vals)
    prof = excess_decay(u, [4, 8, 16])
    assert np.max(prof.excess) < 1e-12


def test_excess_decay_spike_scaling():
    # affine plus a single-site single-slice spike: the least-squares
    # residual scales like l^(-2 - d/2)
    grid = make_torus(2, 16)
    coords = grid.coordinates
    nsl = 257
    u_vals = np.broadcast_to(0.1 * coords[..., 0],
                             (nsl,) + grid.shape).copy()
    u_vals[-1, grid.radius, grid.radius] += 1.0
    u = SpaceTimeField(grid, -256.0, 1.0, u_vals)
    prof = excess_decay(u, [4, 8, 16])
    from gradphi.harness import fit_power_law

    fit = fit_power_law(prof.scales, prof.excess)
    assert abs(fit.exponent - (-3.0)) < 0.1  # d = 2: -2 - d/2 = -3
    assert np.max(prof.excess) > 0


def test_excess_decay_validates_scales():
    grid = make_torus(2, 8)
    u = SpaceTimeField(grid, -64.0, 1.0, np.zeros((65,) + grid.shape))
    with pytest.raises(ValueError):
        excess_decay(u, [2, 4])
    with pytest.raises(ValueError):
        excess_decay(u, [4, 16])


def test_tabulate_effective_gradient_quadratic_near_identity():
    Ds = tabulate_effective_gradient(quadratic(), 6, 24, NoiseSource(seed=17),
                                     knots=[0.0, 0.5, 1.0])
    probe = np.array([0.5, -1.0])
    out = Ds(probe)
    assert np.max(np.abs(out - probe)) < 0.05
    assert np.max(np.diff(Ds.table) / np.diff(Ds.knots)) < 1.3


def test_hessian_tilt_sign_symmetry_and_bounds():
    # symmetric potential: estimates at p and -p agree within 4 combined SE;
    # at zero tilt the diagonal sits inside the convexity window and the
    # off-diagonal entries are compatible with zero
    V = soft_quartic(0.5)
    plus = estimate_hessian((0.4, 0.0), 6, V, 12, NoiseSource(seed=18))
    minus = estimate_hessian((-0.4, 0.0), 6, V, 12, NoiseSource(seed=19))
    gap = np.abs(plus.matrix - minus.matrix)
    comb = np.hypot(plus.stderr, minus.stderr)
    assert np.all(gap <= 4 * comb)

    zero = estimate_hessian((0.0, 0.0), 6, V, 12, NoiseSource(seed=20))
    diag = np.diag(zero.matrix)
    assert np.all(diag >= V.c_minus - 0.1) and np.all(diag <= V.c_plus + 0.1)
    off = zero.matrix[0, 1], zero.matrix[1, 0]
    se_off = zero.stderr[0, 1], zero.stderr[1, 0]
    assert all(abs(o) <= 4 * s for o, s in zip(off, se_off))


def test_tabulate_effective_gradient_draws_one_replica_block_per_knot():
    # each knot is the flux mean on the replica block the tabulation
    # assigns to it, counted from the source's own replica
    src = NoiseSource(seed=24).with_replica(2)
    knots = [0.0, 0.5, 1.0]
    Ds = tabulate_effective_gradient(quadratic(), 2, 3, src, knots=knots)
    means = [0.0]
    for i, s in enumerate(knots[1:]):
        est = estimate_tau((s, 0.0), 2, quadratic(), 3, src.with_replica(2 + (i + 1) * 3))
        means.append(float(est.mean[0]))
    assert np.array_equal(Ds.table, np.maximum.accumulate(means))


def _hessian_reference(p, L, V, replicas, src, d=2):
    # one stationary run and d linearized correctors per replica
    grid = make_torus(d, L)
    pv = np.asarray(p, dtype=float)
    r = L // 2
    box = grid.box_slices(r)
    entries = np.zeros((replicas, d, d))
    for rep in range(replicas):
        traj = run_stationary_periodic(grid, pv, V, src.with_replica(src.replica + rep),
                                       horizon=float(L * L), record_stride=1)
        j0 = traj.slice_index(-float(r * r))
        for i in range(d):
            w = solve_linearized_corrector(traj, pv, np.eye(d)[i], V)
            acc = np.zeros(d)
            for j in range(j0, traj.nslices):
                for ax in range(d):
                    gphi = forward_difference(traj.values[j], ax) + pv[ax]
                    gw = forward_difference(w.values[j], ax) + (1.0 if ax == i else 0.0)
                    acc[ax] += (V.vpp(gphi)[box] * gw[box]).mean()
            entries[rep, i] = acc / (traj.nslices - j0)
    return entries.mean(axis=0), entries.std(axis=0, ddof=1) / np.sqrt(replicas)


@pytest.mark.parametrize("V, p", [(soft_quartic(0.5), (0.2, -0.1)),
                                  (kinked(0.5), (0.9, 0.0)),
                                  (quadratic(), (0.0, 0.0))])
def test_estimate_hessian_batch_matches_per_replica_runs(draws, V, p):
    # the replicas run as one batch with the responses stepping along:
    # bitwise the per-replica trajectories and correctors, one draw per step
    src = NoiseSource(seed=43, replica=1)
    est = estimate_hessian(p, 3, V, 4, src)
    assert all(n == 4 for _, n in draws)
    assert len(draws) == len({s for s, _ in draws})
    draws.clear()
    mean, se = _hessian_reference(p, 3, V, 4, src)
    assert np.array_equal(est.matrix, mean)
    assert np.array_equal(est.stderr, se)
