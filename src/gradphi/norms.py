"""Measurement instruments: the parabolic negative norm of raw slice stacks.

It comes in two forms: a multiscale estimator built from block averages
over a triadic tiling, and an exact discrete dual norm computed by
gradient ascent over the unit ball of parabolic test functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


# ---------------------------------------------------------------------------
# multiscale negative-norm estimator
# ---------------------------------------------------------------------------

def hminus1_par_multiscale(values: np.ndarray, dt: float, m: int) -> float:
    """Upper estimator of the parabolic H^-1 norm from triadic block averages.

    `values` has shape (n_t, 3^m, ..., 3^m) and spans a cylinder of duration
    9^m (temporal length n_t * dt up to grid rounding).  The estimate is

        ||f||_avg-L2  +  sum_{k=0..m} 3^k (mean square of scale-k block averages)^(1/2)

    with prefactor 1; the inequality constant is absorbed into fitted
    constants downstream.
    """
    values = np.asarray(values, dtype=np.float64)
    d = values.ndim - 1
    side = values.shape[1]
    if any(s != side for s in values.shape[1:]):
        raise ValueError("spatial block must be a cube")
    if 3**m != side:
        raise ValueError(f"spatial side {side} is not 3^m for m={m}")
    if m < 0:
        raise ValueError("scale exponent must be nonnegative")
    n_t = values.shape[0]

    l2 = float(np.sqrt(np.mean(values**2)))
    total = l2
    for k in range(m + 1):
        blocks_space = 3 ** (m - k)
        blocks_time = 9 ** (m - k)
        # spatial block means
        shp = (n_t,) + sum(((blocks_space, 3**k),) * d, ())
        sp = values.reshape(shp).mean(axis=tuple(2 * i + 2 for i in range(d)))
        # temporal block means: bucket slices into 9^(m-k) equal groups
        edges = np.linspace(0, n_t, blocks_time + 1).astype(int)
        cell_means = np.array([
            sp[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:]) if b > a
        ])
        total += 3**k * float(np.sqrt(np.mean(cell_means**2)))
    return total


# ---------------------------------------------------------------------------
# exact discrete dual norm
# ---------------------------------------------------------------------------

@dataclass
class DualNormResult:
    value: float
    converged: bool
    iterations: int

    def __float__(self):
        return self.value


class _ParabolicBall:
    """Quadratic form of the discrete parabolic test-function norm.

    Test functions vanish at the initial time and outside the spatial box
    (zero Dirichlet extension).  The squared norm is

        (dt/|Q|) sum_j [ v_j^T K v_j + eta_j^T K^{-1} eta_j ],

    with K = (1/L^2) I + A_dir, eta_j = (v_j - v_{j-1})/dt, a quadratic-form
    realization of the sum of the averaged L2, gradient, and dual-space
    time-derivative seminorms.
    """

    def __init__(self, shape: tuple[int, ...], n_free: int, dt: float,
                 L_weight: float):
        self.shape = shape
        self.n_free = n_free
        self.dt = dt
        nsp = int(np.prod(shape))
        self.nsp = nsp
        d = len(shape)
        K = np.zeros((nsp, nsp))
        idx = np.arange(nsp).reshape(shape)
        np.fill_diagonal(K, 2 * d + 1.0 / L_weight**2)
        for ax in range(d):
            src = idx.take(np.arange(shape[ax] - 1), axis=ax).ravel()
            dst = idx.take(np.arange(1, shape[ax]), axis=ax).ravel()
            K[src, dst] -= 1.0
            K[dst, src] -= 1.0
        self.K = K
        self.K_chol = cho_factor(K)
        duration = n_free * dt
        self.scale = dt / (duration * nsp)

    def _eta(self, v: np.ndarray) -> np.ndarray:
        eta = np.empty_like(v)
        eta[0] = v[0]
        eta[1:] = v[1:] - v[:-1]
        return eta / self.dt

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B v for v of shape (n_free, nsp), where q(v) = v^T B v."""
        w = cho_solve(self.K_chol, self._eta(v).T).T  # K^{-1} eta_j
        adj = np.empty_like(v)
        adj[:-1] = w[:-1] - w[1:]
        adj[-1] = w[-1]
        return self.scale * (v @ self.K.T + adj / self.dt)

    def quad(self, v: np.ndarray) -> float:
        eta = self._eta(v)
        sol = cho_solve(self.K_chol, eta.T).T
        return self.scale * float(np.sum(v * (v @ self.K.T)) + np.sum(eta * sol))


def hminus1_par_exact(values: np.ndarray, dt: float, tol: float = 1e-6) -> DualNormResult:
    """Exact discrete parabolic dual norm by projected gradient ascent.

    Maximizes the normalized pairing (1/|Q|) * dt * sum_j <f_j, v_j> over
    the unit ball of the parabolic test-function form (see _ParabolicBall,
    weighted by half the longest spatial side), by Riemannian gradient
    ascent on the ellipsoid boundary with radial retraction.  Flags
    nonconvergence after 200000 iterations instead of raising.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape[1:]
    n_t = values.shape[0]
    if n_t < 2:
        raise ValueError("need at least two time slices")
    nsp = int(np.prod(shape))
    if (n_t - 1) * nsp > 10**4:
        raise ValueError("cylinder too large for the exact dual norm")
    ball = _ParabolicBall(shape, n_t - 1, dt, max(shape) / 2.0)
    # slice 0 is pinned to zero in the test class; pair against slices 1..n-1
    f = values[1:].reshape(n_t - 1, nsp)
    ell = ball.scale * f  # gradient of the pairing  (1/|Q|) dt sum f v

    if not np.any(ell):
        return DualNormResult(0.0, True, 0)

    # ascend ell.v on the boundary of the ball: project the gradient onto
    # the tangent plane, then take the exact maximizer along that ray (the
    # objective restricted to a ray has the closed form (a+bs)/sqrt(c+2ds+es^2))
    v = ell / np.sqrt(ball.quad(ell))
    value = float(np.sum(ell * v))
    stall = 0
    max_iter = 200_000
    for it in range(1, max_iter + 1):
        Bv = ball.apply(v)
        g = ell - (float(np.sum(ell * Bv)) / float(np.sum(Bv * Bv))) * Bv
        a = value
        b = float(np.sum(ell * g))
        if b <= 0.0:
            return DualNormResult(value, True, it)
        Bg = ball.apply(g)
        dd = float(np.sum(v * Bg))
        e = float(np.sum(g * Bg))
        denom = b * dd - a * e
        if denom == 0.0:
            return DualNormResult(value, True, it)
        s = (a * dd - b * 1.0) / denom
        trial = v + s * g
        trial /= np.sqrt(ball.quad(trial))
        new_value = float(np.sum(ell * trial))
        if new_value <= value * (1.0 + 0.1 * tol):
            stall += 1
            if stall >= 8:
                return DualNormResult(max(new_value, value), True, it)
        else:
            stall = 0
        if new_value > value:
            v, value = trial, new_value
    return DualNormResult(value, False, max_iter)
