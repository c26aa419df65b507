"""Surface-tension estimators, concentration experiments, and the two-scale
expansion.

Everything here is replica-averaged measurement on top of the dynamics
module: flux means and their derivatives (the effective nonlinearity and
its Hessian), decay of window averages, linearization residuals, and the
assembly of the corrected effective solution.  All estimates carry standard
errors and acceptance comparisons happen at stated multiples of them.  The
power-law fit and the thread map live here too, because the flux-decay
experiment needs them and the harness imports this module.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import noise
from .dynamics import (
    SlopePath,
    evolve_torus,
    sample_gff,
    stable_dt,
    stationary_start,
)
from .lattice import (
    DirichletDomain,
    SpaceTimeField,
    TorusGrid,
    dirichlet_edges,
    forward_difference,
    horizon_steps,
    make_torus,
    periodic_divergence,
)
from .noise import NoiseSource
from .parabolic import EffectiveGradient, linearized_environment, linearized_flux
from .potential import Potential


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class FluxEstimate:
    slope: object
    window_radius: int
    replicas: int
    mean: np.ndarray  # (d,)
    stderr: np.ndarray  # (d,)
    samples: np.ndarray  # (replicas, d)


@dataclass
class HessianEstimate:
    slope: np.ndarray
    matrix: np.ndarray  # (d, d)
    stderr: np.ndarray  # (d, d)
    eigenvalues: np.ndarray = field(init=False)
    positive: bool = field(init=False)

    def __post_init__(self):
        sym = 0.5 * (self.matrix + self.matrix.T)
        self.eigenvalues = np.linalg.eigvalsh(sym)
        self.positive = bool(self.eigenvalues.min() > 0)


@dataclass
class ModulusEstimate:
    gaps: np.ndarray  # |p - q| per probe
    residuals: np.ndarray  # mean L2 residual per probe
    stderr: np.ndarray


@dataclass
class ExcessProfile:
    scales: np.ndarray
    excess: np.ndarray  # E1(l)
    gradient_bound: np.ndarray  # (1/l) || u - (u)_{Q_l} ||


@dataclass
class FluxDecayResult:
    scales: np.ndarray
    flux_variance: np.ndarray
    flux_variance_se: np.ndarray
    gradient_variance: np.ndarray
    exponent: float
    r_squared: float
    samples: dict


@dataclass
class FitResult:
    exponent: float
    log_prefactor: float
    r_squared: float
    residuals: np.ndarray


def fit_power_law(xs, ys) -> FitResult:
    """Least squares of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least three points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ coef
    resid = ly - fitted
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return FitResult(float(coef[0]), float(coef[1]), r2, resid)


def parallel_map(fn, items, threads: int | None):
    """Order-preserving map over items, optionally on a thread pool."""
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def variance_with_jackknife(samples: np.ndarray) -> tuple[float, float]:
    """Sample variance of scalar samples with its delete-one jackknife SE."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 3:
        raise ValueError("need at least three samples for a jackknife error")
    full = samples.var(ddof=1)
    total = samples.sum()
    sq_total = (samples**2).sum()
    loo_mean = (total - samples) / (n - 1)
    loo_var = (sq_total - samples**2 - (n - 1) * loo_mean**2) / (n - 2)
    se = np.sqrt((n - 1) / n * ((loo_var - loo_var.mean()) ** 2).sum())
    return float(full), float(se)


# ---------------------------------------------------------------------------
# windowed flux accumulation
# ---------------------------------------------------------------------------

class _WindowAccumulator:
    """Running space-time averages of flux and gradient over trailing windows.

    For each requested radius r, accumulates the vector averages of
    V'(q + grad phi) and of grad phi over the slices at times t >= -r^2,
    times Lambda_r, while the dynamics runs; slices enter with unit weight
    (rectangle rule on the integration grid).  It is `evolve_torus`'s
    `on_flux`: the drift hands over the gradient and the flux it evaluates
    anyway, for every state of the run, the start included.  So the window
    of `estimate_tau`, whose run may start at -r^2, averages the n_w + 1
    slices of [-r^2, 0], where n_w = r^2 / dt.  `flux_decay_experiment`
    keeps the start slice from it, so a horizon shorter than r^2 leaves
    that slice out.

    Each box is copied into a buffer laid out as a box gathered with
    `np.ix_` (batch axis last in memory), so every box mean sums its
    values in the order of that gather.  The buffer has at least two batch
    columns: numpy sums a one-column buffer pairwise, as one contiguous
    run, and two or more columns sequentially, so a one-replica batch is
    summed in a padded buffer to get the bits of any other batch.
    """

    def __init__(self, grid: TorusGrid, radii, n_batch: int):
        self.radii = list(radii)
        self.n_batch = n_batch
        d = grid.dim
        self.space = tuple(range(1, d + 1))
        self.flux_acc = {r: np.zeros((n_batch, d)) for r in self.radii}
        self.grad_acc = {r: np.zeros((n_batch, d)) for r in self.radii}
        self.counts = {r: 0 for r in self.radii}
        self.views = {r: (slice(None),) + (slice(grid.radius - r, grid.radius + r + 1),) * d
                      for r in self.radii}
        self.bufs = {r: np.moveaxis(np.zeros((2 * r + 1,) * d + (max(n_batch, 2),)), -1, 0)
                     for r in self.radii}

    def __call__(self, t: float, ax: int, grad: np.ndarray, flux: np.ndarray):
        for r in self.radii:
            if t < -(r * r) - 1e-9:
                continue
            view, buf, n = self.views[r], self.bufs[r], self.n_batch
            np.copyto(buf[:n], flux[view])
            self.flux_acc[r][:, ax] += buf.mean(axis=self.space)[:n]
            np.copyto(buf[:n], grad[view])
            self.grad_acc[r][:, ax] += buf.mean(axis=self.space)[:n]
            if ax == 0:
                self.counts[r] += 1

    def averages(self, r) -> tuple[np.ndarray, np.ndarray]:
        c = max(self.counts[r], 1)
        return self.flux_acc[r] / c, self.grad_acc[r] / c


# leaf length of `_StreamSum`'s tree: at least numpy's pairwise block of 128
# values and within its iterator buffer of 8192, so that `np.add.reduce`
# sums each leaf in one inner loop
_LEAF = 4096


def _pairwise_leaves(n: int, merges: int = 0) -> list:
    """The leaves of numpy's pairwise sum of n values, in stream order, as
    (length, merges): after a leaf's sum is pushed, the top two sums are
    replaced by their sum `merges` times.  A node longer than _LEAF splits
    where numpy splits it."""
    if n <= _LEAF:
        return [(n, merges)]
    half = n // 2 - (n // 2) % 8
    return _pairwise_leaves(half) + _pairwise_leaves(n - half, merges + 1)


class _StreamSum:
    """Running sums of streams of n values each, bitwise `np.add.reduce` of
    each stream held whole.

    numpy sums a contiguous float64 array pairwise: a node of more than 128
    values splits at n//2 - (n//2 % 8), and `np.add.reduce` of a stretch
    that is a node computes that node's sum.  The values arrive a piece at a
    time in a buffer of shape (*lead, _LEAF + width); each leaf of the tree
    is reduced, for all streams at once, when it fills, and the leaf sums
    are combined in the tree's order on a stack.  The buffer does not grow
    with n.
    """

    def __init__(self, lead: tuple, n: int, width: int):
        self.leaves = _pairwise_leaves(n)
        self.done = 0
        self.stack = []
        self.buf = np.empty(tuple(lead) + (_LEAF + width,))
        self.carry = np.empty(tuple(lead) + (width,))
        self.fill = 0

    def slot(self, width: int) -> np.ndarray:
        """The buffer view that the streams' next `width` values go into."""
        return self.buf[..., self.fill:self.fill + width]

    def advance(self, width: int):
        """Take the `width` values written into `slot`, and sum every leaf
        they complete."""
        self.fill += width
        while self.done < len(self.leaves) and self.fill >= self.leaves[self.done][0]:
            size, merges = self.leaves[self.done]
            self.stack.append(np.add.reduce(self.buf[..., :size], axis=-1))
            for _ in range(merges):
                right = self.stack.pop()
                self.stack[-1] = self.stack[-1] + right
            self.fill -= size
            # through `carry`, as numpy copies overlapping views to a temporary
            np.copyto(self.carry[..., :self.fill], self.buf[..., size:size + self.fill])
            np.copyto(self.buf[..., :self.fill], self.carry[..., :self.fill])
            self.done += 1

    def total(self) -> np.ndarray:
        """The sum of each whole stream, shape `lead`."""
        assert self.done == len(self.leaves), "the streams are not complete"
        return self.stack[0]


# ---------------------------------------------------------------------------
# surface-tension estimators
# ---------------------------------------------------------------------------

def estimate_tau(
    slope,
    L: int,
    V: Potential,
    replicas: int,
    src: NoiseSource,
    d: int = 2,
) -> FluxEstimate:
    """Replica mean of the flux average over the trailing half-size window,
    with the (replicas, d) per-replica averages as its samples.

    `slope` is a constant tilt or a SlopePath.  Constant tilts start in
    `stationary_start` with a horizon of r^2, where r = L // 2; a SlopePath
    starts the dynamic from zero and runs a horizon of L^2.  The window is
    [-r^2, 0].
    """
    if replicas < 2:
        raise ValueError("need at least two replicas")
    grid = make_torus(d, L)
    r = L // 2
    ids = np.arange(replicas)
    if isinstance(slope, SlopePath):
        dt = stable_dt(V, d)
        t0, n_steps = horizon_steps(float(L * L), dt)
        start, path = np.zeros(grid.shape), slope
    else:
        start, path, t0, n_steps, dt = stationary_start(grid, slope, V, src, ids,
                                                        horizon=float(r * r))
    acc = _WindowAccumulator(grid, [r], replicas)
    evolve_torus(grid, V, path, src, t0, n_steps, dt, start, replicas=ids, on_flux=acc)
    flux, _ = acc.averages(r)
    mean = flux.mean(axis=0)
    se = flux.std(axis=0, ddof=1) / np.sqrt(replicas)
    return FluxEstimate(slope, r, replicas, mean, se, flux)


def estimate_hessian(
    p,
    L: int,
    V: Potential,
    replicas: int,
    src: NoiseSource,
    d: int = 2,
) -> HessianEstimate:
    """Derivative of the flux mean with respect to the tilt.

    Entry (i, j) averages V''(tilted gradient) (e_i + grad w_i) over the
    edges in direction j of the trailing half-size window, where w_i is the
    linearized response to tilt direction e_i; replica means with SEs.
    The replicas run as one batch of the stationary dynamic, and the d
    responses step along with it.
    """
    if replicas < 2:
        raise ValueError("need at least two replicas")
    grid = make_torus(d, L)
    pv = np.asarray(p, dtype=float)
    r = L // 2
    window = float(r * r)
    box = (slice(None),) + grid.box_slices(r)

    state, path, t_keep, n_keep, dt = stationary_start(
        grid, pv, V, src, np.arange(replicas), horizon=float(L * L))
    j0 = int(round((-window - t_keep) / dt))  # first slice of the window
    env = np.empty((d, replicas) + grid.shape)
    w = np.zeros((d, replicas) + grid.shape)
    div, flux = periodic_divergence(w.shape, d), linearized_flux(env, np.eye(d))
    acc = np.zeros((replicas, d, d))
    count = n_keep + 1 - max(j0, 0)  # slices in the window

    def measured(ax, grad, out, tmp):
        # the corrector's flux V''(p + grad phi) (e_i + grad w_i) along ax
        # is the summand of entry (i, ax)
        f = flux(ax, grad, out, tmp)
        for i in range(d):
            prod = f[i][box]
            for b in range(replicas):  # per-replica means keep their order
                acc[b, i, ax] += prod[b].mean()
        return f

    def step(j):  # the corrector step from slice j, in the environment of slice j
        du = div(w, measured if j >= j0 else flux)
        np.add(w, np.multiply(du, dt, out=du), out=w)

    def on_flux(t, ax, grad, f):  # the environment of the slice the drift evaluates
        linearized_environment(V, grad, pv[ax], env[ax])

    evolve_torus(grid, V, path, src, t_keep, n_keep, dt, state, replicas=np.arange(replicas),
                 on_step=lambda k, t, phi: step(k), on_flux=on_flux)
    step(n_keep)  # measures the last slice
    entries = acc / count
    mean = entries.mean(axis=0)
    se = entries.std(axis=0, ddof=1) / np.sqrt(replicas)
    return HessianEstimate(pv, mean, se)


def tabulate_effective_gradient(
    V: Potential,
    L: int,
    replicas: int,
    src: NoiseSource,
    knots,
) -> EffectiveGradient:
    """Tabulated effective nonlinearity of the planar dynamic from
    axis-aligned flux means.

    Evaluates the flux mean at tilts s e_1 over the nonnegative knot grid,
    then interpolates monotonically.  The table acts componentwise, odd in
    the tilt: Dsigma(p)_i = g(p_i) for every axis i.  That is exact only at
    the quadratic potential, whose flux mean is the tilt itself.  For any
    other V it neglects the dependence of each flux component on the other
    tilt components: at L = 8 with soft quartic 0.5, tau_1(0.5, 1) -
    tau_1(0.5, 0) = -0.00082 +- 0.00011 on 64 common-noise replicas.
    """
    knots = np.asarray(knots, dtype=float)
    values = [0.0]
    for i, s in enumerate(knots[1:]):
        est = estimate_tau((s, 0.0), L, V, replicas,
                           src.with_replica(src.replica + (i + 1) * replicas))
        values.append(float(est.mean[0]))
    return EffectiveGradient.from_axis_table(knots, np.asarray(values))


# ---------------------------------------------------------------------------
# decay and fluctuation experiments
# ---------------------------------------------------------------------------

def flux_decay_experiment(
    ells,
    L: int,
    V: Potential,
    replicas: int,
    src: NoiseSource,
    d: int = 2,
    horizon: float | None = None,
    *,
    threads: int | None,
) -> FluxDecayResult:
    """Variance of window flux averages against the window size.

    Runs the zero-started, untilted dynamic once per replica tile and
    accumulates the flux and gradient averages over trailing windows of
    every requested radius; the decay exponent is the log-log slope of the
    total variance.
    A tile holds at most noise.BUDGET // grid.nsites replicas (one, if a
    replica has more sites), and the tile count is a multiple of
    `threads`.  The tiles run on `threads` worker threads, so at most that
    many tiles are in memory at once.  Every replica's trajectory and
    window averages are the same in any tile, so the results do not depend
    on the tiling or the thread count.
    """
    ells = sorted(int(e) for e in ells)
    if len(ells) < 3:
        raise ValueError("need at least three window sizes for a decay fit")
    if ells[-1] > L:
        raise ValueError("windows must fit in the torus")
    grid = make_torus(d, L)
    dt = stable_dt(V, d)
    if horizon is None:
        horizon = float(ells[-1] ** 2 + 64)
    t0, n_steps = horizon_steps(horizon, dt)

    workers = max(int(threads or 1), 1)
    per_tile = max(noise.BUDGET // grid.nsites, 1)
    n_tiles = workers * -(-replicas // (per_tile * workers))
    tiles = [ids for ids in np.array_split(np.arange(replicas), n_tiles) if len(ids)]

    # the tiles take no noise worker (no `threads`): the tiles already keep
    # every core busy, so a worker would only compete with them
    def run_tile(ids):
        acc = _WindowAccumulator(grid, ells, len(ids))
        # leaves out the start slice: a window that `horizon` cuts averages
        # (t0, 0], not [t0, 0] (FOUND in CHANGES.md; mending it moves
        # bench/golden.json)
        evolve_torus(grid, V, None, src, t0, n_steps, dt, np.zeros(grid.shape), replicas=ids,
                     on_flux=lambda t, *flux: acc(t, *flux) if t > t0 else None)
        return [acc.averages(e) for e in ells]

    parts = parallel_map(run_tile, tiles, workers)

    flux_var, flux_se, grad_var = [], [], []
    samples = {}
    for i, e in enumerate(ells):
        flux = np.vstack([p[i][0] for p in parts])
        gradv = np.vstack([p[i][1] for p in parts])
        samples[e] = flux
        var_components = []
        se_sq = 0.0
        for ax in range(d):
            v, se = variance_with_jackknife(flux[:, ax])
            var_components.append(v)
            se_sq += se**2
        flux_var.append(float(np.sum(var_components)))
        flux_se.append(float(np.sqrt(se_sq)))
        grad_var.append(float(sum(gradv[:, ax].var(ddof=1) for ax in range(d))))
    fit = fit_power_law(np.asarray(ells, dtype=float), np.asarray(flux_var))
    return FluxDecayResult(np.asarray(ells, dtype=float), np.asarray(flux_var),
                           np.asarray(flux_se), np.asarray(grad_var),
                           fit.exponent, fit.r_squared, samples)


@dataclass
class FluctuationResult:
    sizes: np.ndarray
    center_variance: np.ndarray
    center_variance_se: np.ndarray
    l2_norm_sq: np.ndarray  # mean of the averaged squared L2 norm
    grad_q999: np.ndarray  # empirical 99.9th percentile of |grad phi|


def site_variance_with_jackknife(final: np.ndarray) -> tuple[float, float]:
    """Site-averaged per-site variance over replicas, with delete-one SE.

    Every site estimates the same translation-invariant variance; averaging
    the per-site sample variances sharpens the estimate, and the jackknife
    over replicas accounts for the spatial correlations.
    """
    n = final.shape[0]
    flat = final.reshape(n, -1)
    if n < 3:
        raise ValueError("need at least three replicas")
    mean = flat.mean(axis=0)
    sq = (flat**2).sum(axis=0)
    full = float(((sq - n * mean**2) / (n - 1)).mean())
    total = flat.sum(axis=0)
    loo_mean = (total[None, :] - flat) / (n - 1)
    loo_var = (sq[None, :] - flat**2 - (n - 1) * loo_mean**2) / (n - 2)
    loo = loo_var.mean(axis=1)
    se = float(np.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum()))
    return full, se


def corrector_fluctuation_experiment(
    Ls,
    V: Potential,
    replicas: int,
    src: NoiseSource,
    d: int,
    stationary_window: float = 8.0,
) -> FluctuationResult:
    """Site variance, averaged L2 mass, and gradient tail per size.

    The quadratic dynamic starts from an exact free-field sample, under
    which the law of the final slice equals the law at the end of the full
    zero-started L^2 window (the slow modes have relaxed by time L^2 up to
    a relative error below 1e-8), so a short stationary run suffices.
    Non-quadratic potentials start from zero over the full L^2 window.
    The variance estimator averages the per-site sample variances.
    """
    dt = stable_dt(V, d)
    sizes, var_c, var_se, l2m, gq = [], [], [], [], []
    for L in Ls:
        grid = make_torus(d, int(L))
        reps = np.arange(replicas)
        if V.name == "quadratic":
            horizon = min(float(L * L), stationary_window)
            start = sample_gff(grid, src, reps, tag=int(L))
        else:
            horizon = float(L * L)
            start = np.zeros(grid.shape)
        t0, n_steps = horizon_steps(horizon, dt)

        sq_acc = np.zeros(replicas)
        count = 0

        def on_step(k, t, state):
            nonlocal count
            sq_acc[:] += (state.reshape(replicas, -1) ** 2).mean(axis=1)
            count += 1

        final, _ = evolve_torus(grid, V, None, src, t0, n_steps, dt, start,
                                replicas=reps, on_step=on_step)
        v, se = site_variance_with_jackknife(final)
        grads = np.concatenate([
            np.abs(forward_difference(final, 1 + ax)).ravel()
            for ax in range(d)
        ])
        sizes.append(float(L))
        var_c.append(v)
        var_se.append(se)
        l2m.append(float(sq_acc.mean() / max(count, 1)))
        gq.append(float(np.quantile(grads, 0.999)))
    return FluctuationResult(np.asarray(sizes), np.asarray(var_c),
                             np.asarray(var_se), np.asarray(l2m), np.asarray(gq))


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def linearization_modulus(
    p,
    qs,
    L: int,
    V: Potential,
    src: NoiseSource,
    replicas: int,
    d: int = 2,
    threads: int | None = None,
) -> ModulusEstimate:
    """Residual of the first-order tilt expansion, per tilt gap.

    Couples the dynamics at p and at every probe tilt q through the same
    noise, solves the linearized equation along the p-trajectory in the
    direction q - p, and measures || grad phi_q - grad phi_p - grad w ||
    over the cylinder.  Replicas run in batches of 16; within a batch p,
    every q and every linearized corrector advance in one time loop, with
    one noise draw per replica and step.  With `threads` >= 2 a worker
    thread draws the noise a block ahead.  The squared residual is summed as
    the run goes, bitwise in the order of a sum over the whole space-time
    record, so memory does not grow with the horizon.
    """
    if replicas < 2:
        raise ValueError("need at least two replicas")
    grid = make_torus(d, L)
    dt = stable_dt(V, d)
    chunk = 16
    pv = np.asarray(p, dtype=float)
    qs = [np.asarray(q, dtype=float) for q in qs]
    m = len(qs)
    xi = np.array([q - pv for q in qs]).reshape(m, d)
    t0, n_steps = horizon_steps(float(L * L), dt)
    # values per (probe, replica, axis) stream: every slice, the start too
    n = (n_steps + 1) * grid.nsites

    res = np.zeros((replicas, m))
    for lo in range(0, replicas, chunk):
        ids = np.arange(lo, min(lo + chunk, replicas))
        b = len(ids)
        # members: p for every replica, then each q for every replica
        tilts = SlopePath.constant(np.repeat([pv] + qs, b, axis=0))
        env = np.empty((d, b) + grid.shape)
        w = np.zeros((m, b) + grid.shape)
        div, flux = periodic_divergence(w.shape, d), linearized_flux(env, xi)
        resid, sq_grad = np.empty_like(w), np.empty_like(w)
        # the squared residual gradients, summed as if each (probe, replica,
        # axis) stream were one contiguous (slices, *shape) array
        sq = _StreamSum((m, b, d), n, grid.nsites)
        sq.slot(grid.nsites)[...] = 0.0  # every member and w start at zero
        sq.advance(grid.nsites)

        def on_flux(t, ax, grad, f):  # slice k, from the p-members, the first b
            linearized_environment(V, grad[:b], pv[ax], env[ax])

        def on_step(k, t, state):
            # the corrector step k uses the environment of slice k, i.e.
            # before the update that produced `state`
            members = state.reshape((1 + m, b) + grid.shape)
            du = div(w, flux)
            np.add(w, np.multiply(du, dt, out=du), out=w)
            for i in range(m):
                np.subtract(members[1 + i], members[0], out=resid[i])
            np.subtract(resid, w, out=resid)
            slot = sq.slot(grid.nsites).reshape((m, b, d) + grid.shape)
            for ax in range(d):
                g = forward_difference(resid, 2 + ax, out=sq_grad)
                np.copyto(slot[:, :, ax], np.square(g, out=g))
            sq.advance(grid.nsites)

        evolve_torus(grid, V, tilts, src, t0, n_steps, dt, np.zeros(grid.shape),
                     replicas=np.tile(ids, 1 + m), on_step=on_step, on_flux=on_flux,
                     threads=threads)
        total = sq.total()
        acc = np.zeros((m, b))
        for ax in range(d):
            acc += total[..., ax] / n
        res[ids] = np.sqrt(acc).T
    gaps = np.array([np.linalg.norm(q - pv) for q in qs])
    return ModulusEstimate(gaps, res.mean(axis=0),
                           res.std(axis=0, ddof=1) / np.sqrt(replicas))


# ---------------------------------------------------------------------------
# two-scale expansion
# ---------------------------------------------------------------------------

def _bspline_bump(u: np.ndarray) -> np.ndarray:
    """Cubic B-spline kernel: C^2, piecewise cubic, supported on [-2, 2]."""
    au = np.abs(u)
    out = np.zeros_like(au)
    inner = au <= 1.0
    outer = (au > 1.0) & (au < 2.0)
    out[inner] = (4.0 - 6.0 * au[inner] ** 2 + 3.0 * au[inner] ** 3) / 6.0
    out[outer] = (2.0 - au[outer]) ** 3 / 6.0
    return out


def partition_of_unity(dom: DirichletDomain, kappa: float):
    """Tensor cubic-spline bumps on the kappa-grid, normalized pointwise."""
    step = kappa
    n_per_axis = int(np.floor(1.0 / step + 1e-9)) + 1
    axes = [np.arange(n_per_axis) * step for _ in range(dom.dim)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dom.dim)
    pts = dom.coordinates * dom.mesh  # physical positions, (*shape, d)
    chi = np.empty((len(centers),) + dom.shape)
    for i, y in enumerate(centers):
        w = np.ones(dom.shape)
        for ax in range(dom.dim):
            w = w * _bspline_bump((pts[..., ax] - y[ax]) / kappa)
        chi[i] = w
    total = chi.sum(axis=0)
    total[total == 0.0] = 1.0
    chi /= total
    return centers, chi


def local_slopes(ubar: SpaceTimeField, kappa: float, centers: np.ndarray):
    """Per-center piecewise-constant tilt from windowed gradient averages.

    Window for the cell ending at t_c at center y: (t_c - 4 kappa^2, t_c)
    times the box of half-width 2 kappa around y.  Cells within kappa of
    the lateral boundary, or whose window leaves the time range, fall back
    to tilt zero.
    """
    dom: DirichletDomain = ubar.grid
    eps = dom.mesh
    d = dom.dim
    pts = dom.coordinates * eps
    n_cells = max(int(np.ceil(1.0 / (kappa * kappa))), 1)
    cell_edges = [max(-1.0, -(j + 1) * kappa**2) for j in range(n_cells)]
    paths = []
    for y in centers:
        near_boundary = min(float(np.min(y)), float(np.min(1.0 - y))) < kappa
        bps, vals = [], []
        for j in range(n_cells - 1, -1, -1):
            t_hi = -j * kappa**2
            t_lo = cell_edges[j]
            if near_boundary or (t_hi - 4 * kappa**2) < -1.0:
                xi = np.zeros(d)
            else:
                xi = _window_gradient_average(ubar, pts, y, 2 * kappa,
                                              t_hi - 4 * kappa**2, t_hi)
            bps.append(t_lo)
            vals.append(xi)
        paths.append(SlopePath(np.asarray(bps), np.asarray(vals)))
    return paths


def _window_gradient_average(ubar, pts, y, half_width, t_lo, t_hi):
    """Per axis, the mesh-scaled gradient of the slices covering (t_lo, t_hi)
    on the edges (x, x + e_ax) with x in the box of the given half-width
    around y, averaged over the edges of each slice and then over the
    slices."""
    dom: DirichletDomain = ubar.grid
    j0, j1 = ubar.time_window(max(t_lo, ubar.t0), min(t_hi, ubar.t1))
    mask = np.all(np.abs(pts - y) <= half_width + 1e-12, axis=-1)
    vals = ubar.values[j0:j1 + 1]
    averages = []
    for ax in range(dom.dim):
        g = np.diff(vals, axis=1 + ax)[:, mask[dirichlet_edges(dom.dim, ax)]] / dom.mesh
        averages.append(sum(row.mean() for row in g) / (j1 - j0 + 1))
    return np.array(averages)


def make_correctors(ubar: SpaceTimeField, kappa: float, V: Potential,
                    src: NoiseSource):
    """Run one microscopic corrector per partition cell.

    Boxes have radius 2 floor(kappa/eps) around the rescaled centers; the
    noise is keyed by absolute lattice coordinates, so overlapping boxes
    share their Brownian motions.  Corrector trajectories are recorded at
    the macroscopic recording resolution of `ubar`.  Returns the partition
    of unity (nY, *dom.shape) and the corrector of each cell, whose grid's
    origin is the integer center of its box.
    """
    dom: DirichletDomain = ubar.grid
    eps = dom.mesh
    d = dom.dim
    ratio = kappa / eps
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("mesoscale must be an integer multiple of the mesh")
    L_micro = int(round(ratio))
    centers, chi = partition_of_unity(dom, kappa)
    xi = local_slopes(ubar, kappa, centers)

    dt = stable_dt(V, d)
    stride = max(int(round(ubar.dt / (eps * eps) / dt)), 1)
    t0, n_steps = horizon_steps(1.0 / (eps * eps), dt)

    grids = [TorusGrid(d, 2 * L_micro, origin=tuple(int(c) for c in np.rint(y / eps)))
             for y in centers]
    keys = np.stack([g.site_keys for g in grids])
    # every center's path has the same breakpoints: one path, one tilt per box
    micro_path = SlopePath(xi[0].breakpoints / (eps * eps),
                           np.stack([p.slopes for p in xi], axis=1))
    _, rec = evolve_torus(grids[0], V, micro_path, src, t0,
                          n_steps, dt, np.zeros(grids[0].shape),
                          batch_keys=keys, record_stride=stride)
    correctors = [
        SpaceTimeField(g, t0, dt * stride, rec[:, i])
        for i, g in enumerate(grids)
    ]
    return chi, correctors


def build_two_scale(ubar: SpaceTimeField, correctors_pack) -> np.ndarray:
    """The corrected effective solution on the recorded slices of `ubar`,
    shape (nslices, *dom.shape).

    w = ubar + eps sum_y chi_y phi_y(t/eps^2, x/eps; xi_y(t)), each
    corrector read at the micro time t/eps^2 clamped to its recorded range
    and added on its box's overlap with the domain.
    """
    chi, correctors = correctors_pack
    dom: DirichletDomain = ubar.grid
    eps = dom.mesh
    w = ubar.values.copy()
    for chi_i, traj in zip(chi, correctors):
        overlap = _box_overlap(traj.grid, dom)
        if overlap is None:
            continue
        dom_sel, box_sel = overlap
        chi_i = chi_i[dom_sel]
        for j, t in enumerate(ubar.times):
            micro_slice = traj.at_clamped(t / (eps * eps))
            w[(j,) + dom_sel] += eps * chi_i * micro_slice[box_sel]
    return w


def _box_overlap(grid: TorusGrid, dom: DirichletDomain):
    """Index pair (into the domain, into the micro box) selecting the part
    of the micro box, centered at its origin, that lies on the domain, or
    None."""
    z_y = np.asarray(grid.origin)
    lo = z_y - grid.radius
    lo_c = np.maximum(lo, 0)
    hi_c = np.minimum(z_y + grid.radius, dom.resolution)
    if np.any(lo_c > hi_c):
        return None
    dom_sel = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo_c, hi_c))
    box_sel = tuple(slice(int(a - l), int(b - l) + 1)
                    for a, b, l in zip(lo_c, hi_c, lo))
    return dom_sel, box_sel


# ---------------------------------------------------------------------------
# excess decay
# ---------------------------------------------------------------------------

def excess_decay(u: SpaceTimeField, ls) -> ExcessProfile:
    """Scale-wise distance to affine profiles and to constants.

    E1(l) = (1/l) inf over affine maps of the averaged L2 distance on the
    trailing cylinder of radius l; the affine fit is an ordinary least
    squares on the regressors (1, x_1, ..., x_d), whose normal equations
    are diagonal on the symmetric box.
    """
    grid: TorusGrid = u.grid
    d = grid.dim
    ls = sorted(int(v) for v in ls)
    if ls[0] < 4 or ls[-1] > grid.radius:
        raise ValueError("scales must lie in [4, L]")
    excess, centered = [], []
    coords_full = grid.coordinates
    for l in ls:
        box = grid.box_slices(l)
        coords = np.stack([coords_full[..., ax][box] for ax in range(d)], axis=-1)
        j0, j1 = u.time_window(-float(l * l), 0.0)
        vals = u.values[(slice(j0, j1 + 1),) + box]
        nt = vals.shape[0]
        flat = vals.reshape(nt, -1)
        x = coords.reshape(-1, d).astype(float)
        mean_val = flat.mean()
        sum_x2 = (x**2).sum(axis=0) * nt
        p_hat = np.array([
            float((flat * x[:, ax]).sum()) / sum_x2[ax] for ax in range(d)
        ])
        fitted = mean_val + x @ p_hat
        resid = flat - fitted[None, :]
        e1 = np.sqrt((resid**2).mean()) / l
        cen = np.sqrt(((flat - mean_val) ** 2).mean()) / l
        excess.append(float(e1))
        centered.append(float(cen))
    return ExcessProfile(np.asarray(ls, dtype=float), np.asarray(excess),
                         np.asarray(centered))
