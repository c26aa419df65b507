"""Deterministic discrete parabolic solvers.

Each solver supplies a drift kernel to the explicit loop
`lattice.time_loop` that also steps the stochastic integrators, under the
same stability rule (dt <= 1/(8 d c+)), so deterministic and stochastic
trajectories can be coupled exactly.  The periodic heat kernel is started
from a mean-zero point mass; superposing kernel tables realizes the
representation formula for forced equations.  The linearized equation
dw/dt = div(a (grad w + xi)), a = V''(p + grad phi), steps through the torus
dynamic's divergence with another flux, `linearized_flux`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import smoothed_boundary_datum, stable_dt
from .lattice import (
    DirichletDomain,
    SpaceTimeField,
    TorusGrid,
    dirichlet_divergence,
    divergence_field,
    forward_difference,
    periodic_divergence,
    time_loop,
)
from .potential import Potential


def _check_dt(dt: float, d: int, c_plus: float):
    """A ValueError unless dt is stable for coefficients bounded by c_plus."""
    cap = stable_dt(c_plus, d)
    if dt > cap * (1 + 1e-12):
        raise ValueError(f"dt={dt} violates the stability bound {cap}")


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------

def _static_env(a, grid: TorusGrid) -> np.ndarray:
    """The coefficient array (d, *shape) of a scalar or array environment."""
    shape = (grid.dim,) + grid.shape
    if np.isscalar(a):
        return np.full(shape, float(a))
    if not isinstance(a, np.ndarray):
        raise TypeError(f"unsupported environment type {type(a)!r}")
    if a.shape != shape:
        raise ValueError("static environment must have shape (dim, *grid.shape)")
    return a


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def heat_kernel(a, grid: TorusGrid, s: float, y, t_end: float,
                dt: float) -> SpaceTimeField:
    """Explicit stepping of the periodic kernel started from delta_y - 1/|L|
    at the source time s, which is the field's t0; dt must be stable for
    the largest coefficient of `a`."""
    P = np.full(grid.shape, -1.0 / grid.nsites)
    P[grid.array_index(y)] += 1.0
    n_steps = int(round((t_end - s) / dt))
    return solve_linear_parabolic(a, grid, s, n_steps, dt, init=P)


def duhamel_solve(a, f: SpaceTimeField) -> SpaceTimeField:
    """Solution of du/dt - div(a grad u) = f, u(t0) = 0, by kernel superposition.

    The forcing must have zero spatial sum on every slice.  Superposition
    uses one kernel table per (source step, source site), with each source
    placed at the end of its forcing interval so the sum reproduces the
    explicit scheme's discrete representation formula.
    """
    grid: TorusGrid = f.grid
    sums = f.values.sum(axis=tuple(range(1, f.values.ndim)))
    if np.max(np.abs(sums)) > 1e-9 * grid.nsites:
        raise ValueError("forcing must have zero spatial sum on every slice")
    dt = f.dt
    n = f.nslices - 1
    coords = list(np.ndindex(*grid.shape))

    if np.all(f.values == f.values[0]):
        # time-invariant forcing and kernel: one table per source site,
        # superposed with cumulative time weights
        u = np.zeros((f.nslices,) + grid.shape)
        f0 = f.values[0]
        for idx in coords:
            w = f0[idx]
            if w == 0.0:
                continue
            coord = tuple(int(c) - grid.radius for c in idx)
            tab = heat_kernel(a, grid, 0.0, coord, n * dt, dt)
            acc = np.zeros(grid.shape)
            for m in range(1, f.nslices):
                acc += tab.values[m - 1]
                u[m] += dt * w * acc
        return SpaceTimeField(grid, f.t0, dt, u)

    if f.nslices * grid.nsites > 10**4 * 4:
        raise ValueError("cylinder too large for kernel superposition")
    u = np.zeros((f.nslices,) + grid.shape)
    for j in range(n):  # forcing interval [t_j, t_{j+1})
        t_src = f.t0 + (j + 1) * dt
        fj = f.values[j]
        for idx in coords:
            w = fj[idx]
            if w == 0.0:
                continue
            coord = tuple(int(c) - grid.radius for c in idx)
            tab = heat_kernel(a, grid, t_src, coord, f.t1, dt)
            # kernel slice m corresponds to time t_src + m dt = t0 + (j+1+m) dt
            u[j + 1:] += dt * w * tab.values[: f.nslices - (j + 1)]
    return SpaceTimeField(grid, f.t0, dt, u)


# ---------------------------------------------------------------------------
# linear parabolic solver
# ---------------------------------------------------------------------------

def solve_linear_parabolic(
    a,
    grid: TorusGrid,
    t0: float,
    n_steps: int,
    dt: float,
    init: np.ndarray | None = None,
    site_forcing=None,
) -> SpaceTimeField:
    """Explicit stepping of du/dt = div(a grad u) + f, periodic, recorded at
    every step.

    The environment `a` is a scalar or a (d, *shape) array, and dt must be
    stable for its largest coefficient; `site_forcing` is a SpaceTimeField
    of site values, read at the nearest slice.  Mean-zero data stays
    mean-zero exactly.
    """
    a = _static_env(a, grid)
    _check_dt(dt, grid.dim, float(a.max()))
    u = np.zeros(grid.shape) if init is None else np.array(init, dtype=float, copy=True)

    def linear_drift(k, t, u):
        du = divergence_field(a * np.stack([forward_difference(u, ax) for ax in range(u.ndim)]))
        if site_forcing is not None:
            du += site_forcing.at(t)
        return du

    out = time_loop(u, linear_drift, t0, dt, n_steps, record_stride=1)
    return SpaceTimeField(grid, t0, dt, out)


def linearized_environment(V: Potential, grad: np.ndarray, p: float, out: np.ndarray) -> None:
    """a = V''(p + grad phi) on the edges along one axis, into `out`, from
    phi's untilted differences `grad` and the tilt's component p there."""
    out[...] = V.vpp(np.add(grad, p, out=out))


def linearized_flux(env: np.ndarray, xi: np.ndarray):
    """The flux a (grad w + xi) of the linearized equation, as
    `lattice.periodic_divergence` takes it, for w of shape (m, B, *shape):
    m tilt directions xi (shape (m, d)) times B environments.  env, shape
    (d, B, *shape), holds a along each axis, read at each call.  A step is
    `w += dt * div(w, flux)`; mean-zero w stays mean-zero.
    """
    tilted = [bool(np.any(xi[:, ax] != 0.0)) for ax in range(xi.shape[1])]

    def flux(ax, grad, out, tmp):
        for i in range(len(xi)):  # per direction, not broadcast over them
            g = grad[i]
            if tilted[ax]:  # adding 0.0 is exact: w starts at +0.0, never -0.0
                g = np.add(g, xi[i, ax], out=out[i])
            np.multiply(g, env[ax], out=out[i])
        return out

    return flux


def solve_linearized_corrector(phi: SpaceTimeField, p, xi, V: Potential) -> SpaceTimeField:
    """Response of the tilted dynamic to an infinitesimal tilt shift.

    Solves dw/dt = div(a grad w) + div(a xi) from w = 0 at the start of the
    recorded trajectory, with a(t, e) = V''(p.e + grad phi(t, e)); periodic,
    and the spatial mean is conserved exactly.
    """
    grid: TorusGrid = phi.grid
    d = grid.dim
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"tilt direction must be a {d}-vector")
    pv = np.zeros(d) if p is None else np.asarray(p, dtype=float)
    dt = phi.dt
    _check_dt(dt, d, V.c_plus)
    n = phi.nslices
    # environment along the whole trajectory, vectorized over slices
    env = np.empty((n - 1, d, 1) + grid.shape)
    for ax in range(d):
        linearized_environment(V, forward_difference(phi.values[:-1], 1 + ax), pv[ax],
                               env[:, ax, 0])
    w = np.zeros((1, 1) + grid.shape)
    div = periodic_divergence(w.shape, d)
    out = time_loop(w, lambda k, t, w: div(w, linearized_flux(env[k], xi[None])),
                    phi.t0, dt, n - 1, record_stride=1)
    return SpaceTimeField(grid, phi.t0, dt, out[:, 0, 0])


# ---------------------------------------------------------------------------
# effective gradient (homogenized nonlinearity)
# ---------------------------------------------------------------------------

@dataclass
class EffectiveGradient:
    """Evaluator p -> gradient of the effective free energy.

    Either the exact identity map (the Gaussian case) or a componentwise
    monotone piecewise-linear interpolation of axis-aligned flux estimates,
    extended oddly and clamped (with a flag) outside the tabulated range.
    """

    kind: str  # "identity" | "table"
    knots: np.ndarray | None = None  # (m,), nonnegative, increasing
    table: np.ndarray | None = None  # (m,), h(knots), odd extension implied
    clamp_events: int = field(default=0, compare=False)

    @classmethod
    def identity(cls) -> "EffectiveGradient":
        return cls(kind="identity")

    @classmethod
    def from_axis_table(cls, knots, values) -> "EffectiveGradient":
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots[0] != 0.0:
            raise ValueError("axis table must start at slope 0")
        # enforce monotonicity (running maximum) so the map stays cyclically
        # monotone: it is the gradient of the convex sum of antiderivatives
        values = np.maximum.accumulate(values)
        return cls(kind="table", knots=knots, table=values)

    def __call__(self, P: np.ndarray, out: np.ndarray | None = None,
                 tmp: np.ndarray | None = None) -> np.ndarray:
        """Dsigma(P), with `out` and `tmp` as `Potential.vp` takes them:
        arrays of P's shape, neither of them P's memory; the value is
        written through `out`, and `tmp` is scratch."""
        P = np.asarray(P, dtype=float)
        if out is None:
            out = np.empty_like(P)
        if self.kind == "identity":
            np.copyto(out, P)
            return out
        s = np.abs(P, out=np.empty_like(P) if tmp is None else tmp)
        if np.any(s > self.knots[-1]):
            self.clamp_events += int(np.count_nonzero(s > self.knots[-1]))
            np.minimum(s, self.knots[-1], out=s)
        np.sign(P, out=out)
        return np.multiply(out, np.interp(s, self.knots, self.table), out=out)


def solve_homogenized(
    Dsigma: EffectiveGradient,
    dom: DirichletDomain,
    f,
    record_stride: int,
    dt_unit: float,
) -> SpaceTimeField:
    """Explicit stepping of the effective equation on the mesh-eps domain.

    The drift is `dirichlet_divergence` of Dsigma, so Dsigma is evaluated,
    and its clamps counted, only on the edges the interior update reads.
    Boundary sites are pinned to the locally averaged datum at every step.
    The step is dt_unit on the unit lattice, dt_unit eps^2 on the domain.
    Every record_stride-th step is recorded, the initial slice first.
    """
    eps = dom.mesh
    dt = dt_unit * eps * eps
    n_steps = int(round(1.0 / dt))
    datum = smoothed_boundary_datum(f, dom)
    boundary = dom.boundary_mask
    both = dom.interior_mask | boundary

    u = np.zeros(dom.shape)
    u[both] = datum(-1.0, both)
    div = dirichlet_divergence(u.shape, dom.dim, eps)
    out = time_loop(u, lambda k, t, u: div(u, Dsigma), -1.0, dt, n_steps,
                    mask=dom.interior_box, pin=(boundary, lambda t: datum(t, boundary)),
                    record_stride=record_stride)
    return SpaceTimeField(dom, -1.0, dt * record_stride, out)


def integration_by_parts_gap(Dsigma: EffectiveGradient, u: np.ndarray,
                             v: np.ndarray, eps: float) -> float:
    """|sum div(Dsigma(grad u)) v + sum Dsigma(grad u).grad v| for compactly
    supported u, v (zero on all faces)."""
    div = dirichlet_divergence(u.shape, u.ndim, eps)(u, Dsigma)
    lhs = float(np.sum(div * v[(slice(1, -1),) * u.ndim]))
    rhs = sum(float(np.sum(Dsigma(np.diff(u, axis=ax) / eps) * (np.diff(v, axis=ax) / eps)))
              for ax in range(u.ndim))
    return abs(lhs + rhs)


# ---------------------------------------------------------------------------
# pointwise kernel bound
# ---------------------------------------------------------------------------

def gaussian_envelope(C: float, L: int, t: float, dx: np.ndarray) -> np.ndarray:
    """The comparison profile C (t v 1)^{-d/2} exp(-|x|/(C sqrt t)) exp(-t/(C L^2))."""
    d = dx.shape[-1]
    r = np.sqrt(np.sum(dx.astype(float) ** 2, axis=-1))
    tv = max(t, 1.0)
    return C * tv ** (-d / 2.0) * np.exp(-r / (C * np.sqrt(t))) * np.exp(-t / (C * L * L))


@dataclass
class NashAronsonFit:
    c_hat: float | None
    ok: bool
    worst_ratio: float


def nash_aronson_fit(P: SpaceTimeField, y) -> NashAronsonFit:
    """Smallest constant C in 1, 2, 4, ..., 64 whose envelope dominates
    P + 1/|L| up to time L^2, for the kernel P of `heat_kernel` from the
    source site y at the source time s = P.t0.

    The envelope is checked at times 1 <= t - s <= L^2 (below one unit the
    comparison profile saturates).  Returns a flagged result if no grid
    constant works.
    """
    grid = P.grid
    L = grid.radius
    shifted = grid.coordinates - np.asarray(y)
    wrapped = (shifted + grid.radius) % grid.side - grid.radius
    times = P.times - P.t0
    sel = (times >= 1.0 - 1e-9) & (times <= L * L + 1e-9)
    vals = P.values[sel] + 1.0 / grid.nsites
    tsel = times[sel]
    worst = np.inf
    for C in (1, 2, 4, 8, 16, 32, 64):
        ratios = []
        for t, slab in zip(tsel, vals):
            env = gaussian_envelope(float(C), L, float(t), wrapped)
            ratios.append(np.max(slab / env))
        worst = min(worst, float(np.max(ratios)))
        if worst <= 1.0 + 1e-12:
            return NashAronsonFit(c_hat=float(C), ok=True, worst_ratio=worst)
    return NashAronsonFit(c_hat=None, ok=False, worst_ratio=worst)
