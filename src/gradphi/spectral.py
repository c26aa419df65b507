"""Fourier diagnostics for the periodic lattice.

The discrete Laplacian on the torus of side N = 2L+1 is diagonalized by the
exponential modes with eigenvalues lambda_k = sum_i (2 - 2 cos(2 pi k_i/N)).
These closed forms back the Gaussian samplers and every exact oracle used
by the test suite.
"""

from __future__ import annotations

import numpy as np

from .lattice import TorusGrid


def laplacian_eigenvalues(grid: TorusGrid) -> np.ndarray:
    """Eigenvalue array over the mode lattice, shape grid.shape; entry 0 at k=0."""
    N = grid.side
    one_d = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(N) / N)
    lam = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = N
        lam = lam + one_d.reshape(shape)
    return lam


def gff_variance(grid: TorusGrid) -> float:
    """Stationary variance of the mean-zero free field at one site."""
    lam = laplacian_eigenvalues(grid).ravel()
    return float(np.sum(1.0 / lam[1:]) / grid.nsites)


def _mode_cosines(grid: TorusGrid, x) -> np.ndarray:
    """cos(k.x) over the mode lattice, flattened; entry 0 at k=0."""
    N = grid.side
    phase = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = N
        phase = phase + (2.0 * np.pi * x[ax] / N) * np.arange(N).reshape(shape)
    return np.cos(phase).ravel()


def gff_covariance(grid: TorusGrid, x) -> float:
    """Stationary covariance E[psi(0) psi(x)] of the mean-zero free field."""
    lam_flat = laplacian_eigenvalues(grid).ravel()
    cos_flat = _mode_cosines(grid, x)
    return float(np.sum(cos_flat[1:] / lam_flat[1:]) / grid.nsites)


def gff_dynamic_covariance(grid: TorusGrid, x, T: float, dt: float) -> float:
    """Covariance E[psi(0) psi(x)] of the state at time T of the free-field
    dynamic stepped by the explicit scheme from an exact free-field sample
    (`dynamics.run_gff_dynamic`).

    Mode k != 0 starts at variance 1/lambda_k, is damped by r_k = (1 - dt
    lambda_k)^2 per step and gains 2 dt from the mean-subtracted noise, so
    after n = round(T/dt) steps

        (1/N^d) sum_{k != 0} cos(k.x) [r_k^n / lambda_k + 2 dt (1 - r_k^n) / (1 - r_k)].

    The scheme does not leave the free field invariant: its stationary
    variance of mode k is 1 / (lambda_k (1 - dt lambda_k / 2)).
    """
    lam = laplacian_eigenvalues(grid).ravel()[1:]
    n = int(round(T / dt))
    r = (1.0 - dt * lam) ** 2
    rn = r**n
    modes = rn / lam + 2.0 * dt * (1.0 - rn) / (1.0 - r)
    return float(np.sum(_mode_cosines(grid, x)[1:] * modes) / grid.nsites)


def relaxation_variance_discrete(grid: TorusGrid, T: float, dt: float) -> float:
    """Variance at a site of the zero-started mean-zero Gaussian dynamic
    run for time T by the explicit Euler-Maruyama scheme at step dt."""
    lam = laplacian_eigenvalues(grid).ravel()[1:]
    n = int(round(T / dt))
    r = (1.0 - dt * lam) ** 2
    return float(np.sum(2.0 * dt * (1.0 - r**n) / (1.0 - r)) / grid.nsites)


def discrete_decay_rate(lam, dt: float):
    """Per-unit-time decay rate realized by explicit Euler for mode rate lam."""
    return -np.log1p(-dt * np.asarray(lam)) / dt


def heat_kernel_exact(grid: TorusGrid, y, t: float, dt: float) -> np.ndarray:
    """Explicit-scheme heat kernel for a == 1 from source (0, y), via modes.

    Matches stepping of the mean-zero kernel exactly: each mode k != 0 is
    damped by (1 - dt*lambda_k) per step.
    """
    lam = laplacian_eigenvalues(grid)
    n = int(round(t / dt))
    damp = (1.0 - dt * lam) ** n
    damp_flat = damp.ravel().copy()
    damp_flat[0] = 0.0  # mean-zero: the k = 0 mode is removed by the initial condition
    N = grid.side
    dx = grid.coordinates - np.asarray(y)  # (*shape, d)
    # direct mode sum: P(x) = (1/|L|) sum_{k != 0} damp_k cos(2 pi k.(x-y)/N)
    out = np.zeros(grid.shape)
    for k_flat, dval in enumerate(damp_flat):
        if dval == 0.0:
            continue
        k = np.unravel_index(k_flat, grid.shape)
        ang = np.zeros(grid.shape)
        for ax in range(grid.dim):
            ang = ang + 2.0 * np.pi * k[ax] * dx[..., ax] / N
        out += dval * np.cos(ang)
    return out / grid.nsites
