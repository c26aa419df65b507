"""Reference implementations that the unit tests compare library code
against: pointwise forms of the torus stencil, the shift stencils of the
torus drift and of the linearized corrector's drift, the window accumulator
that recomputes fluxes from the state, the parabolic Hoelder seminorm, the
dense solve of the exact parabolic dual norm, and the continuous-time
relaxation variance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gradphi.lattice import (
    ParabolicCylinder,
    SpaceTimeField,
    TorusGrid,
    divergence_field,
    forward_difference,
)
from gradphi.spectral import laplacian_eigenvalues


# ---------------------------------------------------------------------------
# pointwise stencil
# ---------------------------------------------------------------------------

def neighbors(grid: TorusGrid, coord) -> list[tuple[int, ...]]:
    """The 2d neighbors of a torus site, in coordinates."""
    out = []
    for ax in range(grid.dim):
        for s in (+1, -1):
            n = list(coord)
            n[ax] = (n[ax] + s + grid.radius) % grid.side - grid.radius
            out.append(tuple(n))
    return out


@dataclass
class EdgeField:
    """Antisymmetric values on directed edges at one time slice.

    data[i, x] is the value on the positively oriented edge (x, x+e_i).
    """

    grid: TorusGrid
    data: np.ndarray  # (dim, *shape)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError("edge data shape must be (dim, *grid.shape)")

    def value(self, x, y) -> float:
        """g(x, y) for neighboring sites x, y (periodic)."""
        dx = np.asarray(y) - np.asarray(x)
        dx = (dx + self.grid.radius) % self.grid.side - self.grid.radius
        (ax,) = np.nonzero(dx)[0:1][0] if np.count_nonzero(dx) == 1 else (None,)
        if ax is None or abs(dx[ax]) != 1:
            raise ValueError(f"{x} and {y} are not neighbors")
        if dx[ax] == 1:
            return float(self.data[(ax,) + self.grid.array_index(x)])
        return -float(self.data[(ax,) + self.grid.array_index(y)])


def grad(grid, u: np.ndarray, x, y) -> float:
    """Discrete gradient u(y) - u(x) on a directed edge; 1/mesh-scaled on
    Dirichlet domains."""
    if isinstance(grid, TorusGrid):
        return float(u[grid.array_index(y)] - u[grid.array_index(x)])
    xi, yi = tuple(x), tuple(y)
    for p in (xi, yi):
        if not all(0 <= c <= grid.resolution for c in p):
            raise ValueError(f"site {p} outside the domain and its boundary")
    if sum(abs(a - b) for a, b in zip(xi, yi)) != 1:
        raise ValueError(f"{x} and {y} are not neighbors")
    return float(u[yi] - u[xi]) / grid.mesh


def divergence(g: EdgeField, x) -> float:
    """Sum of g(x, y) over the 2*dim neighbors y of x."""
    return float(divergence_field(g.data)[g.grid.array_index(x)])


def forward_gradients(u: np.ndarray) -> np.ndarray:
    """All forward differences of a torus slice: out[i] = u(.+e_i) - u(.)."""
    return np.stack([forward_difference(u, ax) for ax in range(u.ndim)])


def nonlinear_div_field(V, q, u: np.ndarray) -> np.ndarray:
    """The drift field x -> sum_y V'(q.(y-x) + u(y) - u(x)) on the torus."""
    g = forward_gradients(u)
    if q is not None:
        g += np.reshape(q, (-1,) + (1,) * u.ndim)
    return divergence_field(V.vp(g))


def nonlinear_div(V, q, u: np.ndarray, x) -> float:
    """Pointwise value of the uniformly convex elliptic operator at site x."""
    return float(nonlinear_div_field(V, np.asarray(q, dtype=float), u)[
        tuple((np.asarray(x) + (u.shape[0] - 1) // 2) % u.shape[0])])


# ---------------------------------------------------------------------------
# shift stencils
# ---------------------------------------------------------------------------

def shift(a: np.ndarray, ax: int, step: int) -> np.ndarray:
    """Periodic shift along ax: step = -1 reads the forward neighbor,
    out[x] = a[x + e_ax]; step = +1 reads the backward one."""
    return np.roll(a, step, axis=ax)


def torus_drift(V, q, u: np.ndarray) -> np.ndarray:
    """The drift of `evolve_torus` on a batch u of shape (B, *shape) under
    the tilt q (None, a shared (d,) tilt or (B, d) per member), axis by axis
    `drift += f; drift -= shift(f)` with f = V'(grad u + q)."""
    d = u.ndim - 1
    drift = np.zeros_like(u)
    for ax in range(d):
        a = 1 + ax
        grad = shift(u, a, -1) - u
        x = grad
        if q is not None:
            q = np.asarray(q, dtype=float)
            if q.ndim == 2:
                x = grad + q[:, ax].reshape((-1,) + (1,) * d)
            elif q[ax] != 0.0:
                x = grad + q[ax]
        f = V.vp(x)
        drift += f
        drift -= shift(f, a, 1)
    return drift


def linearized_corrector_drift(w: np.ndarray, env: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The drift div(a grad w) + div(a xi) of the linearized equation for w
    of shape (m, B, *shape), with env of shape (B, d, *shape) and the m tilt
    directions xi of shape (m, d), in the torus drift's order."""
    lead = (-1,) + (1,) * (w.ndim - 1)
    du = np.zeros_like(w)
    for ax in range(xi.shape[1]):
        a = 2 + ax
        flux = shift(w, a, -1) - w
        if np.any(xi[:, ax] != 0.0):
            flux += xi[:, ax].reshape(lead)
        flux *= env[:, ax]
        du += flux
        du -= shift(flux, a, 1)
    return du


# ---------------------------------------------------------------------------
# window accumulator
# ---------------------------------------------------------------------------

class WindowAccumulator:
    """Running space-time averages of flux and gradient over trailing
    windows, recomputed from every state after an update.

    An `on_step` callback for `evolve_torus`: for each radius r it gathers
    the box Lambda_r and the box shifted one site forward along each axis,
    differences them and evaluates V'(q + grad phi) on the box, and adds
    the box means to the running sums while t lies in (-r^2, 0].
    """

    def __init__(self, grid: TorusGrid, V, path, radii, n_batch: int):
        self.grid = grid
        self.V = V
        self.path = path
        self.radii = list(radii)
        d = grid.dim
        self.flux_acc = {r: np.zeros((n_batch, d)) for r in self.radii}
        self.grad_acc = {r: np.zeros((n_batch, d)) for r in self.radii}
        self.counts = {r: 0 for r in self.radii}
        # per radius and axis: batched index tuples for the box and the box
        # shifted one site forward along that axis (gradients gathered box-locally)
        self.boxes = {}
        self.boxes_shifted = {}
        side = grid.side
        for r in self.radii:
            offs = [(np.arange(-r, r + 1) + grid.radius) % side
                    for _ in range(d)]
            self.boxes[r] = (slice(None),) + np.ix_(*offs)
            shifted = []
            for ax in range(d):
                offs_ax = [o.copy() for o in offs]
                offs_ax[ax] = (offs_ax[ax] + 1) % side
                shifted.append((slice(None),) + np.ix_(*offs_ax))
            self.boxes_shifted[r] = shifted

    def __call__(self, k: int, t: float, state: np.ndarray):
        q = self.path.at(t) if self.path is not None else None
        d = self.grid.dim
        space = tuple(range(1, d + 1))
        for r in self.radii:
            if t < -(r * r) - 1e-9:
                continue
            box = self.boxes[r]
            for ax in range(d):
                g = state[self.boxes_shifted[r][ax]] - state[box]
                tilted = g + q[ax] if q is not None and q[ax] != 0.0 else g
                self.flux_acc[r][:, ax] += self.V.vp(tilted).mean(axis=space)
                self.grad_acc[r][:, ax] += g.mean(axis=space)
            self.counts[r] += 1

    def averages(self, r) -> tuple[np.ndarray, np.ndarray]:
        c = max(self.counts[r], 1)
        return self.flux_acc[r] / c, self.grad_acc[r] / c


# ---------------------------------------------------------------------------
# parabolic Hoelder seminorm
# ---------------------------------------------------------------------------

def _windowed_values(f, Q: ParabolicCylinder | None):
    if Q is None:
        vals = f.values
        dt = f.dt
        duration = (f.nslices - 1) * f.dt
        return vals, dt, duration
    j0, j1 = f.time_window(Q.t_lo, Q.t_hi)
    vals = f.values[j0:j1 + 1]
    vals = vals[(slice(None),) + f.grid.box_slices(Q.radius)]
    return vals, f.dt, (j1 - j0) * f.dt


def holder_seminorm(f: SpaceTimeField, Q: ParabolicCylinder | None, alpha: float) -> float:
    """Parabolic Hoelder seminorm sup |f(t,x)-f(s,y)| / (|t-s|^(a/2) + |x-y|^a).

    Pairs are enumerated on the restriction to Q (the whole field for
    None), with the plain Euclidean distance on coordinates; intended as a
    diagnostic on small cylinders.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"exponent must lie in (0, 1], got {alpha}")
    vals, dt, _ = _windowed_values(f, Q)
    d = vals.ndim - 1
    shape = vals.shape[1:]
    coords = np.stack(np.meshgrid(*[np.arange(n) for n in shape],
                                  indexing="ij"), axis=-1).reshape(-1, d).astype(float)
    flat = vals.reshape(vals.shape[0], -1)
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)) ** alpha
    best = 0.0
    nt = flat.shape[0]
    for j in range(nt):
        for k in range(j, nt):
            gap = (dt * (k - j)) ** (alpha / 2.0)
            denom = gap + dist
            if j == k:
                np.fill_diagonal(denom, np.inf)
            ratio = np.abs(flat[j][:, None] - flat[k][None, :]) / denom
            best = max(best, float(ratio.max()))
    return best


# ---------------------------------------------------------------------------
# exact parabolic dual norm
# ---------------------------------------------------------------------------

def dense_dual_norm(values: np.ndarray, dt: float, L_weight: float) -> float:
    """The exact discrete parabolic dual norm by one dense solve.

    Slices 1..m of `values` pair with test functions v that vanish at slice
    0 and outside the box; the unit ball is v^T B v <= 1 with
    B = s (I x K + D^T D x K^{-1} / dt^2), s = dt / (m dt nsp),
    K = I / L_weight^2 + the Dirichlet Laplacian assembled site by site
    from the box's neighbours, and (D v)_j = v_j - v_{j-1}.  The norm is
    sqrt(l^T B^{-1} l) for the pairing l = s f.
    """
    n_t = values.shape[0]
    shape = values.shape[1:]
    sites = list(np.ndindex(*shape))
    index = {x: i for i, x in enumerate(sites)}
    nsp, m = len(sites), n_t - 1
    K = np.eye(nsp) / L_weight**2
    for x in sites:
        K[index[x], index[x]] += 2 * len(shape)
        for ax in range(len(shape)):
            for step in (-1, 1):
                y = x[:ax] + (x[ax] + step,) + x[ax + 1:]
                if y in index:
                    K[index[x], index[y]] -= 1.0
    D = np.eye(m) - np.eye(m, k=-1)
    s = dt / (m * dt * nsp)
    B = s * (np.kron(np.eye(m), K) + np.kron(D.T @ D, np.linalg.inv(K)) / dt**2)
    ell = s * np.asarray(values[1:], dtype=np.float64).reshape(m * nsp)
    return float(np.sqrt(ell @ np.linalg.solve(B, ell)))


# ---------------------------------------------------------------------------
# continuous-time relaxation
# ---------------------------------------------------------------------------

def relaxation_variance(grid: TorusGrid, T: float) -> float:
    """Variance at a site of the zero-started mean-zero Gaussian dynamic
    run for time T (continuous time)."""
    lam = laplacian_eigenvalues(grid).ravel()[1:]
    return float(np.sum((1.0 - np.exp(-2.0 * lam * T)) / lam) / grid.nsites)
