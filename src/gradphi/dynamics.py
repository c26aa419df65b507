"""Stochastic integrators for the lattice Langevin dynamics.

Two drifts, the bound divergences of V' of `lattice`, both stepped by the
explicit Euler-Maruyama loop `lattice.time_loop`: `evolve_torus` drives the
periodic interface dynamic with (possibly time-dependent) tilt and the
Gaussian free-field dynamic, and `run_dirichlet` drives the Dirichlet
dynamic for the rescaled boundary-value problem.  The step is
dt = 1/(8 d c+), at which the drift is contractive and the explicit scheme
preserves the maximum principle.

Noise is addressed by absolute step index and absolute site coordinates, so
trajectories driven by the same NoiseSource are coupled pathwise whether or
not their windows coincide; mean subtraction keeps every torus slice at
spatial average zero.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .lattice import (
    DirichletDomain,
    SpaceTimeField,
    TorusGrid,
    dirichlet_divergence,
    horizon_steps,
    periodic_divergence,
    time_loop,
)
from .noise import MeanSubtractedNoise, NoiseSource
from .potential import Potential, quadratic
from .spectral import laplacian_eigenvalues


def stable_dt(V: Potential | float, d: int) -> float:
    """Largest admissible explicit step, 1/(8 d c+), for a potential or for
    a bound c+ on the coefficients of a linear equation."""
    c_plus = V.c_plus if isinstance(V, Potential) else V
    return 1.0 / (8.0 * d * c_plus)


@dataclass(frozen=True)
class SlopePath:
    """Piecewise-constant tilt q(t): value i holds on [breakpoints[i], breakpoints[i+1]).

    The values are (n, d) slopes shared by every member of a batch, or
    (n, B, d) slopes with one tilt per member; `at` returns (d,) or (B, d).
    """

    breakpoints: np.ndarray  # (n,), strictly increasing
    slopes: np.ndarray  # (n, d) or (n, B, d)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        sl = np.asarray(self.slopes, dtype=np.float64)
        if bp.ndim != 1 or sl.ndim not in (2, 3) or len(bp) != len(sl):
            raise ValueError("slopes must have shape (n, d) or (n, B, d) for n breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)

    @classmethod
    def constant(cls, q) -> "SlopePath":
        """The tilt q at all times: a (d,) vector, or (B, d) with one tilt per member."""
        return cls(np.array([-np.inf]), np.asarray(q, dtype=np.float64)[None])

    @property
    def dim(self) -> int:
        return self.slopes.shape[-1]

    def piece(self, t: float) -> int:
        """Index i of the value holding at t."""
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        if i < 0:
            raise ValueError(f"slope path does not cover time {t}")
        return i

    def at(self, t: float) -> np.ndarray:
        return self.slopes[self.piece(t)]


def as_slope_path(q, d: int) -> SlopePath:
    if isinstance(q, SlopePath):
        return q
    return SlopePath.constant(np.zeros(d) if q is None else q)


def slope_from_config(spec, d: int) -> SlopePath:
    """Tilt from a config value: a constant vector or a breakpoint list
    [{"t": t0, "q": [...]}, ...]; a tilt of other than d components is a
    ValueError."""
    if spec is None:
        return SlopePath.constant(np.zeros(d))
    if isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], dict):
        bps = np.array([float(item["t"]) for item in spec])
        vals = np.array([[float(v) for v in item["q"]] for item in spec])
        path = SlopePath(bps, vals)
    else:
        path = SlopePath.constant(spec)
    if path.slopes.shape[1:] != (d,):
        raise ValueError(f"a tilt needs {d} components, got {spec!r}")
    return path


def _noise_worker(src: NoiseSource | None, threads: int | None):
    """The one-thread pool on which a run draws its noise a block ahead,
    held for the run: with noise and `threads` >= 2, else no pool (None)."""
    if src is None or threads is None or threads < 2:
        return nullcontext()
    return ThreadPoolExecutor(1)


# ---------------------------------------------------------------------------
# core torus engine
# ---------------------------------------------------------------------------

def evolve_torus(
    grid: TorusGrid,
    V: Potential,
    slope: SlopePath | None,
    src: NoiseSource | None,
    t0: float,
    n_steps: int,
    dt: float,
    init: np.ndarray,
    replicas: np.ndarray | None = None,
    on_step=None,
    record_stride: int | None = None,
    batch_keys: np.ndarray | None = None,
    threads: int | None = None,
    on_flux=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance the periodic Langevin dynamic by n_steps explicit steps.

    Exactly one of `replicas` and `batch_keys` gives the batch axis.
    `replicas` holds B replica ids, counted from `src.replica`; an id may
    repeat, and members with the same id share one noise draw (coupled
    trajectories).  `batch_keys` of shape (B, *grid.shape) runs B windows of
    the stream `src.replica` in parallel, each addressed by its own absolute
    site coordinates.  `slope` is None (no tilt) or a SlopePath: with (n, d)
    slopes every member feels the same tilt, with (n, B, d) slopes member b
    feels its own.  init has shape grid.shape (the same start for every
    member) or (B, *grid.shape).
    Returns (final_state, recorded), both with the batch axis, where
    recorded stacks every record_stride-th slice (including the initial one)
    if requested.  `on_step(k, t_next, state)` is invoked after each update.
    `on_flux(t, ax, grad, flux)` sees the same states: for each axis ax, the
    untilted forward difference grad along ax and the flux V'(grad + q(t)),
    both of shape (B, *grid.shape).  The drift hands them over as it
    evaluates them, and one more evaluation after the loop covers the final
    state; the arrays are the run's buffers, valid during the call only.
    With `threads` >= 2 a worker thread draws the noise a block ahead.

    The absolute step index is round(t/dt): windows driven by the same
    NoiseSource share their Brownian increments.
    """
    if (replicas is None) == (batch_keys is None):
        raise ValueError("give exactly one of replicas and batch_keys")
    d = grid.dim
    b = len(replicas) if batch_keys is None else len(batch_keys)
    state = np.array(init, dtype=np.float64, copy=True)
    if state.ndim == d:
        state = np.broadcast_to(state, (b,) + grid.shape).copy()

    keys, ids = (grid.site_keys, replicas) if batch_keys is None else (batch_keys, np.arange(1))

    # the run owns every per-step array: what a step allocates costs page faults
    div = periodic_divergence(state.shape, d)
    tilted = np.empty_like(state) if slope is not None else None

    def torus_drift(k, t, phi):
        q = slope.at(t) if slope is not None else None
        # step k evaluates the state on_step saw after step k - 1
        observe = on_flux if k > 0 else None

        def flux(ax, grad, out, tmp):
            x = grad
            if q is not None:
                if q.ndim == 2:  # one tilt per member, broadcast by a copy
                    np.copyto(tilted, q[:, ax].reshape((-1,) + (1,) * d))
                    x = np.add(tilted, grad, out=tilted)
                elif q[ax] != 0.0:
                    x = np.add(grad, q[ax], out=tilted)
            V.vp(x, out=out, tmp=tmp)
            if observe is not None:
                observe(t, ax, grad, out)
            return out

        return div(phi, flux)

    with _noise_worker(src, threads) as pool:
        noise = MeanSubtractedNoise(src, keys, ids, d, pool) if src is not None else None
        recorded = time_loop(state, torus_drift, t0, dt, n_steps, noise=noise,
                             on_step=on_step, record_stride=record_stride)
    if on_flux is not None and n_steps > 0:
        torus_drift(n_steps, t0 + n_steps * dt, state)
    return state, recorded


# ---------------------------------------------------------------------------
# public dynamics
# ---------------------------------------------------------------------------

def run_corrector(
    grid: TorusGrid,
    horizon: float,
    slope,
    V: Potential,
    src: NoiseSource,
    record_stride: int = 1,
) -> SpaceTimeField:
    """Mean-zero periodic dynamic with tilt, started from zero at -horizon and
    run to t = 0 at the stable step.

    Returns the recorded trajectory; the spatial mean of every slice stays
    at zero because the noise is mean-subtracted and the drift conserves the
    spatial sum for symmetric potentials.
    """
    dt = stable_dt(V, grid.dim)
    t0, n_steps = horizon_steps(horizon, dt)
    _, rec = evolve_torus(grid, V, as_slope_path(slope, grid.dim), src, t0, n_steps, dt,
                          np.zeros(grid.shape), replicas=np.arange(1),
                          record_stride=record_stride)
    return SpaceTimeField(grid, t0, dt * record_stride, rec[:, 0])


def sample_gff(grid: TorusGrid, src: NoiseSource, replicas: np.ndarray,
               tag: int = 0) -> np.ndarray:
    """Mean-zero Gaussian free fields by spectral synthesis, one per replica
    id: shape (B, *grid.shape).

    White noise on the sites is pushed to Fourier space, scaled by
    1/sqrt(lambda_k) on every nonzero mode, and transformed back; starting
    from a real field enforces the conjugacy constraint between opposite
    modes exactly.
    """
    g = src.field_normals(grid.site_keys, replicas, tag=tag)
    lam = laplacian_eigenvalues(grid)
    scale = np.zeros(grid.shape)
    flat = scale.reshape(-1)
    lam_flat = lam.reshape(-1)
    flat[1:] = 1.0 / np.sqrt(lam_flat[1:])
    axes = tuple(range(1, grid.dim + 1))
    ghat = np.fft.fftn(g, axes=axes)
    ghat *= scale
    return np.fft.ifftn(ghat, axes=axes).real


def run_gff_dynamic(
    grid: TorusGrid,
    horizon: float,
    src: NoiseSource,
    replicas: np.ndarray,
    record_stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Stationary free-field dynamic on (-horizon, 0): GFF initial data plus
    quadratic drift.  Returns (final, recorded) as `evolve_torus` does: the
    states at t = 0, shape (B, *shape), and every record_stride-th slice.

    The initial slice comes from tag 1 of the initial-condition noise
    channel, so it is independent of the driving increments.
    """
    V = quadratic()
    dt = stable_dt(V, grid.dim)
    t0, n_steps = horizon_steps(horizon, dt)
    init = sample_gff(grid, src, replicas, tag=1)
    return evolve_torus(grid, V, None, src, t0, n_steps, dt, init,
                        replicas=replicas, record_stride=record_stride)


def stationary_start(
    grid: TorusGrid,
    p,
    V: Potential,
    src: NoiseSource,
    replicas: np.ndarray,
    horizon: float,
) -> tuple[np.ndarray, SlopePath, float, int, float]:
    """Equilibrated start of a stationary run of the tilted dynamic that
    lasts `horizon` and ends at t = 0, one member per replica id.

    The quadratic potential starts from an exact free-field sample and needs
    no burn-in; other potentials start from zero and discard a burn-in of
    L^2.  Returns (state, path, t_start, n_steps, dt), where state
    has shape (B, *grid.shape) and holds at time t_start.
    """
    dt = stable_dt(V, grid.dim)
    if V.name == "quadratic":
        state, n_burn = sample_gff(grid, src, replicas), 0
    else:
        state = np.zeros((len(replicas),) + grid.shape)
        n_burn = int(round(grid.radius**2 / dt))
    n_keep = int(round(horizon / dt))
    t0 = -(n_burn + n_keep) * dt
    path = as_slope_path(p, grid.dim)
    if n_burn:
        state, _ = evolve_torus(grid, V, path, src, t0, n_burn, dt, state,
                                replicas=replicas)
    return state, path, t0 + n_burn * dt, n_keep, dt


def run_stationary_periodic(
    grid: TorusGrid,
    p,
    V: Potential,
    src: NoiseSource,
    horizon: float,
    record_stride: int,
) -> SpaceTimeField:
    """Trajectory of the tilted dynamic after equilibration (see
    `stationary_start`), ending at t = 0."""
    one = np.arange(1)
    state, path, t_keep, n_keep, dt = stationary_start(grid, p, V, src, one, horizon)
    _, rec = evolve_torus(grid, V, path, src, t_keep, n_keep, dt, state,
                          replicas=one, record_stride=record_stride)
    return SpaceTimeField(grid, t_keep, dt * record_stride, rec[:, 0])


# ---------------------------------------------------------------------------
# Dirichlet dynamic (rescaled boundary-value problem)
# ---------------------------------------------------------------------------

def smoothed_boundary_datum(f, dom: DirichletDomain):
    """Return g(t, mask) evaluating the local average of f at masked sites.

    A boundary datum is bound to its points once: `f(points)` takes points
    of shape (..., d) in the unit cube and returns `t -> values` of shape
    points.shape[:-1], so the spatial work is done at binding time.  The
    datum is averaged over the cube of half-width one mesh around each site
    with a fixed 8-point tensor Gauss-Legendre rule, normalized so
    constants are reproduced exactly.  Each mask binds `f` to its quadrature
    points on its first evaluation; later evaluations reuse the binding.
    """
    eps = dom.mesh
    nodes = 8
    x1, w1 = np.polynomial.legendre.leggauss(nodes)
    x1 = x1 * eps
    w1 = w1 / w1.sum()
    offsets = np.stack(np.meshgrid(*([x1] * dom.dim), indexing="ij"), axis=-1).reshape(-1, dom.dim)
    weights = np.ones(len(offsets))
    for ax in range(dom.dim):
        weights = weights * np.tile(
            np.repeat(w1, nodes ** (dom.dim - ax - 1)), nodes**ax
        )

    bound = {}  # mask bytes -> f bound to the quadrature points (M, nodes^d, d)

    def g(t: float, mask: np.ndarray) -> np.ndarray:
        key = mask.tobytes()
        at = bound.get(key)
        if at is None:
            at = bound[key] = f(dom.points(mask)[:, None, :] + offsets[None, :, :])
        return at(t) @ weights

    return g


def run_dirichlet(
    dom: DirichletDomain,
    f,
    V: Potential,
    src: NoiseSource | None,
    replicas: np.ndarray,
    on_step,
    *,
    record: tuple[int, int] | None,
    threads: int | None,
) -> np.ndarray | None:
    """Langevin dynamic on the mesh-eps domain driven by diffusively rescaled noise.

    Internally runs the unit-lattice dynamic U at the stable step on the
    time interval (-1/eps^2, 0) and returns u(t, x) = eps U(t/eps^2, x/eps),
    which solves the mesh-eps system with noise amplitude sqrt(2) eps;
    macroscopic times live in (-1, 0).  Boundary sites (and the initial slice) are pinned to
    the locally averaged datum f at every step; `f` is a boundary datum as
    `smoothed_boundary_datum` takes it, `f(points) -> (t -> values)`.

    The B replica streams of `replicas` (ids counted from `src.replica`)
    advance together; `on_step`, unless None, sees them at macroscopic
    times.  `record` = (stride, n) returns every stride-th step of the first
    n replicas, shape (slices, n, *dom.shape), from macroscopic time -1;
    with None nothing is recorded and None is returned.  With src=None the
    noise is switched off (deterministic diagnostic mode).  With `threads`
    >= 2 a worker thread draws the noise a block ahead.
    """
    eps = dom.mesh
    d = dom.dim
    dt_unit = stable_dt(V, d)
    t0_unit, n_steps = horizon_steps(1.0 / (eps * eps), dt_unit)

    datum = smoothed_boundary_datum(f, dom)
    boundary = dom.boundary_mask
    all_mask = dom.interior_mask | boundary

    # initial slice: averaged datum everywhere (interior + boundary), in
    # unit-lattice amplitude
    state = np.zeros((len(replicas),) + dom.shape)
    state[:, all_mask] = datum(t0_unit * eps * eps, all_mask) / eps

    recorded = None
    if record is not None:
        stride, n = record
        recorded = np.empty((n_steps // stride + 1, n) + dom.shape)
        recorded[0] = state[:n]

    def step(k, t, u):  # the loop runs in unit time, on_step sees macroscopic time
        if recorded is not None and (k + 1) % stride == 0:
            recorded[(k + 1) // stride] = u[:n]
        if on_step is not None:
            on_step(k, t * eps * eps, u)

    div = dirichlet_divergence(state.shape, d, 1.0)
    pin = (boundary, lambda t: datum(t * eps * eps, boundary) / eps)
    with _noise_worker(src, threads) as pool:
        noise = (MeanSubtractedNoise(src, dom.site_keys, replicas, d, pool)
                 if src is not None else None)
        time_loop(state, lambda k, t, u: div(u, V.vp), t0_unit, dt_unit, n_steps,
                  mask=dom.interior_box, noise=noise, pin=pin, on_step=step, record_stride=None)
    if recorded is not None:
        recorded *= eps
    return recorded
