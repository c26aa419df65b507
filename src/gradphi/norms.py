"""Measurement instruments: the parabolic negative norm of raw slice stacks.

It comes in two forms: a multiscale estimator built from block averages
over a triadic tiling, and the exact discrete dual norm over the unit ball
of parabolic test functions, in closed form in tensor-product eigenbases.
"""

from __future__ import annotations

import numpy as np


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

def _second_difference_basis(n: int, last: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of the n x n
    tridiag(-1, 2, -1) whose last diagonal entry is `last`."""
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    T[-1, -1] = last
    return np.linalg.eigh(T)


def hminus1_par_exact(values: np.ndarray, dt: float) -> float:
    """Exact discrete parabolic dual norm, in closed form.

    The norm is the largest pairing (1/|Q|) dt sum_j <f_j, v_j> over test
    functions v that vanish at the initial slice and outside the spatial
    box, in the unit ball of the quadratic form

        (dt/|Q|) sum_j [ v_j^T K v_j + eta_j^T K^{-1} eta_j ],

    with K = (1/L^2) I + A_dir (A_dir the Dirichlet Laplacian of the box,
    L half its longest side) and eta_j = (v_j - v_{j-1})/dt: the sum of
    the averaged L2, gradient and dual-space time-derivative seminorms.
    The form is s (I x K + D^T D x K^{-1}/dt^2) with s = 1/(m nsp) over m
    free slices of nsp sites, and D the backward difference in time.  One
    1-D Dirichlet eigenbasis per spatial axis diagonalizes K (eigenvalues
    lambda_i), the eigenbasis of D^T D (eigenvalues mu_j) the time part,
    so with c the coefficients of f in the product basis the norm is

        sqrt( s sum_ij c_ij^2 / (lambda_i + mu_j / (dt^2 lambda_i)) ).
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape[1:]
    n_t = values.shape[0]
    if n_t < 2:
        raise ValueError("need at least two time slices")
    # slice 0 is pinned to zero in the test class; pair against slices 1..n-1
    coef = values[1:]
    evs = []  # per axis, broadcast along it: mu_j in time, then the lambda parts
    for axis, n in enumerate(coef.shape):
        ev, basis = _second_difference_basis(n, 1.0 if axis == 0 else 2.0)
        coef = np.moveaxis(np.tensordot(basis, coef, axes=(0, axis)), 0, axis)
        evs.append(ev.reshape((n,) + (1,) * (coef.ndim - 1 - axis)))
    mu, lam = evs[0], 1.0 / (max(shape) / 2.0) ** 2 + sum(evs[1:])
    s = 1.0 / ((n_t - 1) * int(np.prod(shape)))
    return float(np.sqrt(s * np.sum(coef**2 / (lam + mu / (dt**2 * lam)))))
