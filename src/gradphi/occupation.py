"""Occupation times of drift-plus-Brownian processes near levels and sets.

Two process kinds are supported: a pure Brownian motion (the reference
case) and the gradient of the interface dynamic across one fixed edge,
whose drift is bounded by the gradient estimates.  Occupation integrals
use the trapezoid rule on the trajectory's time grid; a fine-step Brownian
run serves as the discretization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_torus, stationary_start
from .lattice import make_torus
from .noise import NoiseSource, site_keys
from .potential import Potential


@dataclass(frozen=True)
class BrownianSpec:
    """Brownian motion from 0 over the unit time interval."""

    dt: float


@dataclass(frozen=True)
class EdgeGradientSpec:
    """Gradient of the stationarily started interface dynamic over the
    first-axis edge at the center, over the unit time interval."""

    L: int
    potential: Potential
    d: int = 2


@dataclass
class OccupationReport:
    thresholds: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    replicas: int
    slope: float
    intercept: float

    @property
    def relative_intercept(self) -> float:
        scale = abs(self.slope) * float(self.thresholds.max())
        return abs(self.intercept) / scale if scale > 0 else np.inf


@dataclass
class OccupationSetResult:
    intervals: list
    measure: float
    mean: float
    stderr: float
    per_replica: np.ndarray


def _brownian_paths(spec: BrownianSpec, replicas: int,
                    src: NoiseSource) -> tuple[np.ndarray, float]:
    n = int(round(1.0 / spec.dt))
    chunk = 4096
    reps = np.arange(replicas)
    paths = np.empty((replicas, n + 1))
    paths[:, 0] = 0.0
    x = np.full(replicas, 0.0)
    sq = np.sqrt(spec.dt)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        keys = site_keys(np.arange(lo, hi, dtype=np.int64)[:, None])
        block = src.raw_normals(keys, step=0, replicas=reps)  # (B, hi-lo)
        x_block = np.cumsum(block, axis=1) * sq + x[:, None]
        paths[:, lo + 1:hi + 1] = x_block
        x = x_block[:, -1]
    return paths, spec.dt


def _edge_gradient_paths(spec: EdgeGradientSpec, replicas: int,
                         src: NoiseSource) -> tuple[np.ndarray, float]:
    V = spec.potential
    grid = make_torus(spec.d, spec.L)
    reps = np.arange(replicas)
    start, path, t0, n, dt = stationary_start(grid, None, V, src, reps, horizon=1.0)
    center = (grid.radius,) * spec.d
    out = np.empty((replicas, n + 1))

    def edge_value(state):
        idx = (slice(None),) + center
        nb = list(center)
        nb[0] = (nb[0] + 1) % grid.side
        jdx = (slice(None),) + tuple(nb)
        return state[jdx] - state[idx]

    out[:, 0] = edge_value(start)

    def on_step(k, t, state):
        out[:, k + 1] = edge_value(state)

    evolve_torus(grid, V, path, src, t0, n, dt, start,
                 replicas=reps, on_step=on_step)
    return out, dt


def _paths(process, replicas: int, src: NoiseSource):
    """Simulated trajectories, their step, and whether the start is
    deterministic (an exact-level hit at the start is then an artifact)."""
    if isinstance(process, BrownianSpec):
        return _brownian_paths(process, replicas, src) + (True,)
    if isinstance(process, EdgeGradientSpec):
        return _edge_gradient_paths(process, replicas, src) + (False,)
    raise TypeError(f"unknown process spec {type(process)!r}")


def _trapezoid_occupation(indicator: np.ndarray, dt: float,
                          open_start: bool = False) -> np.ndarray:
    """Trapezoid-rule occupation of the sampled indicator.

    With open_start the initial sample carries no weight: the occupation is
    taken over the open interval after a deterministic starting point, so
    exact-level hits of the start (a Lebesgue-null set) do not register.
    """
    ind = indicator.astype(np.float64)
    inner = ind[:, 1:-1].sum(axis=1)
    w0 = 0.0 if open_start else 0.5
    ends = w0 * ind[:, 0] + 0.5 * ind[:, -1]
    return dt * (inner + ends)


def occupation_experiment(process, eps_list, replicas: int,
                          src: NoiseSource) -> OccupationReport:
    """Mean time spent within each threshold of zero, with a linear fit.

    At least three thresholds are required; the fit is an unconstrained
    least-squares line through the (threshold, mean) points, so a small
    relative intercept certifies proportionality.
    """
    eps_arr = np.asarray(sorted(float(e) for e in eps_list))
    if len(eps_arr) < 3:
        raise ValueError("need at least three thresholds")
    paths, dt, det_start = _paths(process, replicas, src)
    means, ses = [], []
    for eps in eps_arr:
        occ = _trapezoid_occupation(np.abs(paths) <= eps, dt,
                                    open_start=det_start)
        means.append(float(occ.mean()))
        ses.append(float(occ.std(ddof=1) / np.sqrt(replicas)))
    means = np.asarray(means)
    slope, intercept = np.polyfit(eps_arr, means, 1)
    return OccupationReport(eps_arr, means, np.asarray(ses), replicas,
                            float(slope), float(intercept))


def normalize_intervals(intervals) -> list[tuple[float, float]]:
    """Sort and merge possibly overlapping intervals."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    if len(ivs) > 32:
        raise ValueError("at most 32 intervals are supported")
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def occupation_on_set(process, intervals, replicas: int,
                      src: NoiseSource) -> OccupationSetResult:
    """Mean time the process spends in a finite union of intervals.

    Uses the closed trapezoid rule, so the whole line (capped) gives back
    the horizon exactly.
    """
    merged = normalize_intervals(intervals)
    measure = sum(b - a for a, b in merged)
    paths, dt, _ = _paths(process, replicas, src)
    ind = np.zeros(paths.shape, dtype=bool)
    for a, b in merged:
        ind |= (paths >= a) & (paths <= b)
    occ = _trapezoid_occupation(ind, dt)
    return OccupationSetResult(merged, float(measure), float(occ.mean()),
                               float(occ.std(ddof=1) / np.sqrt(replicas)), occ)
