"""Lattice geometry and discrete calculus.

Two site sets are supported: the periodic box (torus) of side 2L+1 used by
the interface dynamics, and the Dirichlet discretization of the unit cube
at mesh 1/N used by the rescaled boundary-value problems.  Fields are plain
numpy arrays over the grid shape.  A space-time field (`SpaceTimeField`)
holds site values on one uniform time grid and snaps query times to the
nearest slice.

Every periodic difference and divergence of the package is one of the
stencil functions below: the shift, forward difference and backward
divergence.  A Dirichlet difference is that of `np.diff`, where nothing
wraps around: along axis i the grid has N edges (x, x+e_i), one per site of
`dirichlet_edges`, and no value on the far face.  The one Dirichlet
divergence, `dirichlet_divergence`, is bound once per run to the state's
shape: it owns its index tuples and buffers, and reads only the edges of
`interior_across`, which are all that the interior update needs.  Every
solver steps through the one explicit time loop, `time_loop`, and supplies
only its drift; under an interior mask the drift holds the masked sites
only.

Site indexing is row-major over {-L..L}^d.  Edge fields store the value on
the positively oriented edge (x, x+e_i) at index [i, x]; antisymmetry is
realized by the sign convention g(x, x-e_i) = -g(x-e_i, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import noise as _noise


@dataclass(frozen=True)
class TorusGrid:
    """Periodic box {-L..L}^d with 2d-regular wrap-around adjacency.

    A nonzero `origin` shifts the absolute coordinates used for noise
    addressing (windows cut out of a larger lattice see the Brownian
    motions of their absolute sites) without changing the geometry.
    """

    dim: int
    radius: int
    origin: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.origin is not None and len(self.origin) != self.dim:
            raise ValueError("origin must have one entry per dimension")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dim

    @property
    def nsites(self) -> int:
        return self.side**self.dim

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Integer coordinates of every site, shape (*shape, dim)."""
        axes = [np.arange(-self.radius, self.radius + 1)] * self.dim
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @cached_property
    def site_keys(self) -> np.ndarray:
        coords = self.coordinates
        if self.origin is not None:
            coords = coords + np.asarray(self.origin, dtype=np.int64)
        return _noise.site_keys(coords)

    def array_index(self, coord) -> tuple[int, ...]:
        return tuple(int((c + self.radius) % self.side) for c in coord)

    def box_slices(self, radius: int) -> tuple[np.ndarray, ...]:
        """Index arrays selecting the centered sub-box {-radius..radius}^d."""
        if radius > self.radius:
            raise ValueError("sub-box does not fit in the torus")
        offs = np.arange(-radius, radius + 1) + self.radius
        return np.ix_(*([offs] * self.dim))


def make_torus(d: int, L: int) -> TorusGrid:
    return TorusGrid(dim=d, radius=L)


@dataclass(frozen=True)
class DirichletDomain:
    """Unit cube discretized at mesh 1/N.

    Sites live on the full grid {0..N}^d; interior sites are those with all
    coordinates in {1..N-1}.  The boundary set is the external vertex
    boundary of the interior: sites with exactly one coordinate in {0, N}
    and the rest interior, so every boundary site touches the interior.
    """

    dim: int
    resolution: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")

    @property
    def mesh(self) -> float:
        return 1.0 / self.resolution

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution + 1,) * self.dim

    @property
    def nsites(self) -> int:
        return (self.resolution + 1) ** self.dim

    @cached_property
    def coordinates(self) -> np.ndarray:
        axes = [np.arange(self.resolution + 1)] * self.dim
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @cached_property
    def site_keys(self) -> np.ndarray:
        return _noise.site_keys(self.coordinates)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        c = self.coordinates
        return np.all((c >= 1) & (c <= self.resolution - 1), axis=-1)

    @property
    def interior_box(self) -> tuple[slice, ...]:
        """The interior as a basic index, selecting the same sites as
        `interior_mask` as a view."""
        return (slice(1, -1),) * self.dim

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        c = self.coordinates
        on_face = (c == 0) | (c == self.resolution)
        return (on_face.sum(axis=-1) == 1) & ~self.interior_mask

    def points(self, mask: np.ndarray) -> np.ndarray:
        """Physical coordinates (in [0,1]^d) of the masked sites."""
        return self.coordinates[mask] * self.mesh


@dataclass(frozen=True)
class ParabolicCylinder:
    """Time interval (t_lo, t_hi) times the centered box of the given radius."""

    t_lo: float
    t_hi: float
    radius: int

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError("need t_lo < t_hi")


def horizon_steps(horizon: float, dt: float) -> tuple[float, int]:
    """(t0, n_steps) of a run of round(horizon / dt) steps that ends at t = 0."""
    n_steps = int(round(horizon / dt))
    # 0.0 - x, not -x: a zero horizon starts at +0.0
    return 0.0 - n_steps * dt, n_steps


@dataclass
class SpaceTimeField:
    """Site values on a uniform time grid t0 + j dt.

    `values` has shape (nslices, *grid.shape).  `at` and `time_window` snap
    to the nearest slice and reject times outside the stored range;
    `at_clamped` snaps and then clamps into it.
    """

    grid: TorusGrid | DirichletDomain
    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError("a SpaceTimeField holds a site field of shape "
                             "(nslices, *grid.shape)")

    @property
    def nslices(self) -> int:
        return self.values.shape[0]

    @property
    def t1(self) -> float:
        return self.t0 + (self.nslices - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nslices)

    def slice_index(self, t: float) -> int:
        j = int(round((t - self.t0) / self.dt))
        if j < 0 or j >= self.nslices:
            raise ValueError(f"time {t} outside the stored range [{self.t0}, {self.t1}]")
        return j

    def at(self, t: float) -> np.ndarray:
        return self.values[self.slice_index(t)]

    def at_clamped(self, t: float) -> np.ndarray:
        """The nearest slice, the first or last one outside the stored range."""
        j = int(round((t - self.t0) / self.dt))
        return self.values[min(max(j, 0), self.nslices - 1)]

    def time_window(self, t_lo: float, t_hi: float) -> tuple[int, int]:
        """Slice index range [j0, j1] covering (t_lo, t_hi), snapped."""
        j0 = self.slice_index(max(t_lo, self.t0))
        j1 = self.slice_index(min(t_hi, self.t1))
        if j1 <= j0:
            raise ValueError("cylinder covers fewer than two time slices")
        return j0, j1


# ---------------------------------------------------------------------------
# discrete differential calculus
# ---------------------------------------------------------------------------

# Fields may carry leading batch axes: `ax` counts from the first array
# axis.  Every function returns a new array unless `out` is given.

def _along(ndim: int, ax: int, sl: slice) -> tuple[slice, ...]:
    idx = [slice(None)] * ndim
    idx[ax] = sl
    return tuple(idx)


@lru_cache(maxsize=None)
def _shift_index(ndim: int, ax: int, n: int, step: int) -> tuple[tuple[slice, ...], ...]:
    """(to, from) index pairs of `shift`'s two copies, flattened."""
    k = step % n
    return (_along(ndim, ax, slice(k, None)), _along(ndim, ax, slice(None, n - k)),
            _along(ndim, ax, slice(None, k)), _along(ndim, ax, slice(n - k, None)))


def shift(a: np.ndarray, ax: int, step: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic shift along ax, equal to np.roll(a, step, axis=ax).

    step = -1 reads the forward neighbor, out[x] = a[x + e_ax]; step = +1
    reads the backward one, out[x] = a[x - e_ax].
    """
    if out is None:
        out = np.empty_like(a)
    to_hi, from_lo, to_lo, from_hi = _shift_index(a.ndim, ax, a.shape[ax], step)
    out[to_hi] = a[from_lo]
    out[to_lo] = a[from_hi]
    return out


def forward_difference(u: np.ndarray, ax: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic forward difference u(x + e_ax) - u(x)."""
    return np.subtract(shift(u, ax, -1), u, out=out)


def forward_gradients(u: np.ndarray) -> np.ndarray:
    """All forward differences of a torus slice: out[i] = u(.+e_i) - u(.)."""
    out = np.empty((u.ndim,) + u.shape, dtype=np.float64)
    for ax in range(u.ndim):
        forward_difference(u, ax, out=out[ax])
    return out


def divergence_field(g: np.ndarray) -> np.ndarray:
    """Backward divergence of an edge array (dim, *shape) at every torus
    site: the sum over i of g_i(x) - g_i(x - e_i)."""
    out = np.zeros(g.shape[1:], dtype=np.float64)
    for ax in range(g.shape[0]):
        out += g[ax] - shift(g[ax], ax, 1)
    return out


def dirichlet_edges(ndim: int, ax: int) -> tuple[slice, ...]:
    """Index of the Dirichlet-grid sites x whose edge (x, x + e_ax) stays on
    the grid: every site but the far face along ax.  Entry x of
    np.diff(u, axis=ax) is the difference on the edge at x."""
    return _along(ndim, ax, slice(None, -1))


def interior_across(d: int, ax: int, along: slice) -> tuple:
    """Index of a Dirichlet field (with any leading batch axes) selecting
    the sites `along` spatial axis ax and the interior across it.  With
    `along` every site, slice(None), its difference along ax holds the N
    edges that the interior update of a divergence along ax reads."""
    return (Ellipsis,) + tuple(along if k == ax else slice(1, -1) for k in range(d))


def _c_stride(shape: tuple[int, ...], ax: int) -> int:
    """The step, in elements, from one site to the next along ax of a
    C-contiguous array of this shape."""
    return math.prod(shape[ax + 1:])


def dirichlet_divergence(shape: tuple[int, ...], d: int, h: float):
    """The conservative divergence of a flux of the edge gradients at the
    interior sites of Dirichlet fields of `shape` (leading batch axes
    allowed) at mesh h, bound to that shape once.

    Returns `div(u, flux)`: the sum over axes ax of the difference along ax
    of flux(g) / h, with g = (u(x + e_ax) - u(x)) / h on the edges of
    `interior_across(d, ax, slice(None))`, in a contiguous array of the
    shape of the interior, `u[..., 1:-1, ..., 1:-1]`.  Both divisions are
    skipped at h == 1.0.  The binding owns its index tuples and every
    buffer: the result is overwritten by the next call.  `flux(g, out=,
    tmp=)` maps the edge gradients elementwise, as `Potential.vp` does.

    The flux on edge (x, x + e_ax) enters with opposite signs at x and
    x + e_ax, so the discrete integration-by-parts identity holds exactly.

    numpy runs a ufunc on strided views through buffers of its own, which
    it allocates and fills on every call.  So each difference is taken
    over the flattened field, one contiguous subtraction whose entries at
    the far face (and across rows) are never read, and the entries wanted
    are then copied out of it into a contiguous buffer.
    """
    shape = tuple(shape)
    lead = len(shape) - d
    sides = shape[lead:]
    out = np.empty(shape[:lead] + tuple(n - 2 for n in sides))
    div = np.empty_like(out)
    diffs = np.empty(math.prod(shape))  # of u, flat
    axes = []
    for ax in range(d):
        edges = shape[:lead] + tuple(n - 1 if k == ax else n - 2 for k, n in enumerate(sides))
        g = np.empty(edges)
        f_diffs = np.empty(g.size)  # of the flux, flat
        s_u, s_f = _c_stride(shape, lead + ax), _c_stride(edges, lead + ax)
        axes.append((s_u, diffs[:-s_u],
                     diffs.reshape(shape)[interior_across(d, ax, slice(None, -1))],
                     g, np.empty_like(g), np.empty_like(g), s_f, f_diffs[:-s_f],
                     f_diffs.reshape(edges)[_along(len(shape), lead + ax, slice(None, -1))]))

    def divergence(u: np.ndarray, flux) -> np.ndarray:
        if u.shape != shape:
            raise ValueError(f"bound to fields of shape {shape}, got {u.shape}")
        u = u.reshape(-1)
        out.fill(0.0)
        for s_u, u_diffs, read, g, f, tmp, s_f, f_diffs, inner in axes:
            np.subtract(u[s_u:], u[:-s_u], out=u_diffs)
            np.copyto(g, read)
            if h != 1.0:  # dividing by 1 is exact but not free
                g /= h
            f = flux(g, out=f, tmp=tmp).reshape(-1)
            np.subtract(f[s_f:], f[:-s_f], out=f_diffs)
            np.copyto(div, inner)
            if h != 1.0:
                np.divide(div, h, out=div)
            np.add(out, div, out=out)
        return out

    return divergence


# ---------------------------------------------------------------------------
# explicit time loop
# ---------------------------------------------------------------------------

def _scaled(a: np.ndarray, c: float) -> np.ndarray:
    """a, scaled by c in place."""
    a *= c
    return a


def _gathered(a: np.ndarray, buf: np.ndarray | None) -> np.ndarray:
    """a, copied into buf unless buf is None."""
    if buf is None:
        return a
    np.copyto(buf, a)
    return buf


def time_loop(state: np.ndarray, drift, t0: float, dt: float, n_steps: int,
              mask: tuple[slice, ...] | None = None, noise=None, pin=None, on_step=None,
              *, record_stride: int | None) -> np.ndarray | None:
    """Explicit Euler(-Maruyama) loop shared by every solver; advances
    `state` in place.

    Step k starts at t = t0 + k dt and, with t' = t0 + (k + 1) dt and the
    absolute step index k0 = round(t0 / dt), does

        state[..., mask] += dt * drift(k, t, state)
        state[..., mask] += sqrt(2 dt) * xi_{k0 + k}[..., mask]
        state[..., pin_mask] = pin_values(t')     with pin = (pin_mask, pin_values)
        on_step(k, t', state)

    where `noise(range(k0, k0 + n_steps))` iterates over the draws xi of
    the run's absolute steps, one per step, each consumed before the next
    is taken.  The drift holds the values of the masked sites only, in an
    array of the shape of `state[..., mask]` (of the state's shape without
    a mask); any other shape raises.  The noise draw covers every site and
    is reshaped to the state's shape.  The loop scales the drift and the
    draw in place, by dt and sqrt(2 dt), so both must be scratch arrays
    that the drift kernel or the noise owns and refills on its next call.

    `mask` is a basic index (a tuple of slices) of the trailing spatial
    axes, such as the Dirichlet interior `DirichletDomain.interior_box`, so
    the updates act on a view; None updates every site.  `pin_mask` is a
    boolean mask of those axes.  Leading batch axes are shared.  Returns
    every record_stride-th state (the initial one first), stacked, or None
    without a stride.
    """
    idx = (Ellipsis,) + (() if mask is None else tuple(mask))
    inner = state[idx]
    if not np.may_share_memory(inner, state):
        raise TypeError("mask must be a basic index of the state, such as a tuple of slices")
    recorded = None
    if record_stride is not None:
        recorded = np.empty((n_steps // record_stride + 1,) + state.shape)
        recorded[0] = state
    k0 = int(round(t0 / dt))
    draws = None if noise is None else iter(noise(range(k0, k0 + n_steps)))
    sq = np.sqrt(2.0 * dt)
    # Every per-step array is owned by the run (the drift's and the noise's
    # buffers), so the loop scales them in place and allocates nothing:
    # a step that still allocates part of its arrays costs page faults.
    #
    # Under a mask the interior is a strided view, and numpy runs a ufunc on
    # strided operands through buffers that it allocates on every call: the
    # loop copies the interior and the draw's interior into contiguous
    # buffers of its own, updates there, and copies the interior back.
    work, xi_in = (None, None) if mask is None else (np.empty(inner.shape), np.empty(inner.shape))
    for k in range(n_steps):
        du = drift(k, t0 + k * dt, state)
        if du.shape != inner.shape:
            raise ValueError(f"the drift has shape {du.shape}; the masked state, {inner.shape}")
        u = _gathered(inner, work)
        u += _scaled(du, dt)
        if draws is not None:
            u += _scaled(_gathered(next(draws).reshape(state.shape)[idx], xi_in), sq)
        if work is not None:
            inner[...] = work
        t_next = t0 + (k + 1) * dt
        if pin is not None:
            state[..., pin[0]] = pin[1](t_next)
        if on_step is not None:
            on_step(k, t_next, state)
        if recorded is not None and (k + 1) % record_stride == 0:
            recorded[(k + 1) // record_stride] = state
    return recorded


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def cylinder_average(f: SpaceTimeField, Q: ParabolicCylinder) -> float:
    """Space-time average (f)_Q, trapezoid rule in time."""
    j0, j1 = f.time_window(Q.t_lo, Q.t_hi)
    w = _trapezoid_weights(j1 - j0 + 1)
    w = w / w.sum()
    vals = f.values[j0:j1 + 1]
    vals = vals[(slice(None),) + f.grid.box_slices(Q.radius)]
    spatial = vals.mean(axis=tuple(range(1, vals.ndim)))
    return np.dot(w, spatial)

