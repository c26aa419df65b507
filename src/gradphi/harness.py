"""Experiment orchestration: configs, drivers, fits, and persistence.

Every experiment is a pure function of its config block and seed: it
returns tabular rows plus a summary with fitted quantities, standard
errors, and per-criterion pass/fail flags.  CSV cells carry 17 significant
digits so a re-run with the same config is byte-identical; summaries embed
the full config echo, seed, tool version, and wall-clock time.
"""

from __future__ import annotations

import csv
import functools
import inspect
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import (
    evolve_torus,
    run_dirichlet,
    run_gff_dynamic,
    slope_from_config,
    stable_dt,
)
from .homogenize import (
    build_two_scale,
    corrector_fluctuation_experiment,
    estimate_hessian,
    estimate_tau,
    excess_decay,
    fit_power_law,
    flux_decay_experiment,
    linearization_modulus,
    make_correctors,
    parallel_map,
)
from .lattice import (
    DirichletDomain,
    SpaceTimeField,
    horizon_steps,
    make_torus,
)
from .noise import NoiseSource
from .occupation import (
    BrownianSpec,
    EdgeGradientSpec,
    occupation_experiment,
)
from .parabolic import EffectiveGradient, heat_kernel, nash_aronson_fit, solve_homogenized
from .potential import Potential, from_config as potential_from_config, quadratic
from .spectral import gff_dynamic_covariance

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


_QUADRATIC = {"kind": "quadratic"}


@dataclass
class ExperimentResult:
    name: str
    header: list
    rows: list
    summary: dict
    criteria: dict

    @property
    def flagged(self) -> bool:
        """Whether some criterion failed."""
        return not all(self.criteria.values())


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']}")
    return cfg


def _bind(fn, block, what: str, *args):
    """fn with the keys of a config block bound to its keyword parameters,
    ready to call; a missing, unknown or misspelled key is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a JSON object")
    try:
        bound = inspect.signature(fn).bind(*args, **block)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return functools.partial(fn, *bound.args, **bound.kwargs)


def _tilt(spec, d: int, what: str) -> np.ndarray:
    """The constant tilt of a config value, zero for None; anything but d
    numbers is a ConfigError."""
    try:
        p = np.zeros(d) if spec is None else np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if p.shape != (d,):
        raise ConfigError(f"{what} needs {d} numbers, got {spec!r}")
    return p


def _potential(spec) -> Potential:
    """The potential of a config block; a malformed block is a ConfigError."""
    try:
        return potential_from_config(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"potential {spec!r}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def write_summary(path: str, result: ExperimentResult, cfg: dict, seed: int,
                  wall_clock: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": result.name,
        "config": cfg,
        "seed": seed,
        "tool_version": __version__,
        "wall_clock_seconds": wall_clock,
        "criteria": result.criteria,
        "flagged": result.flagged,
        "results": result.summary,
    }
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# boundary data library
# ---------------------------------------------------------------------------

# A boundary datum binds its points once: f(points) -> (t -> values), with
# points of shape (..., d) in the unit cube and values of shape
# points.shape[:-1].  The spatial factors are computed at binding time.

def _zero_datum():
    def f(pts):
        zeros = np.zeros(pts.shape[:-1])
        return lambda t: zeros

    return f


def _sine_product():
    def f(pts):
        factors = [np.sin(np.pi * pts[..., ax]) for ax in range(pts.shape[-1])]

        def at(t):
            # exp(t) first, then the factors in axis order: the rounding of
            # exp(t) * sin(pi x_1) * ... * sin(pi x_d) evaluated left to right
            out = np.exp(t)
            for s in factors:
                out = out * s
            return out

        return at

    return f


def _affine(coefficients=(0.3, -0.2)):
    coeffs = np.asarray(coefficients, dtype=float)

    def f(pts):
        if coeffs.shape != pts.shape[-1:]:
            raise ConfigError(f"affine boundary datum: {coeffs.size} coefficients "
                              f"for {pts.shape[-1]}-d points")
        values = pts @ coeffs
        return lambda t: values

    return f


BOUNDARY_DATA = {"zero": _zero_datum, "sine_product": _sine_product, "affine": _affine}


def boundary_datum(spec: dict):
    """The datum f(points) -> (t -> values) of a block like {"name": "affine",
    "coefficients": [...]}: the other keys are bound to the parameters of
    BOUNDARY_DATA[name]."""
    params = dict(spec) if isinstance(spec, dict) else {}
    name = params.pop("name", None)
    if name not in BOUNDARY_DATA:
        raise ConfigError(f"unknown boundary datum {name!r}")
    return _bind(BOUNDARY_DATA[name], params, f"boundary datum {name!r}")()


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def run_corrector_experiment(seed: int, *, potential, sizes, d=2,
                             replicas=200) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    Ls = [int(v) for v in sizes]
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    res = corrector_fluctuation_experiment(Ls, V, replicas, src, d=d)
    rows = [
        (L, v, se, l2, gq, replicas)
        for L, v, se, l2, gq in zip(res.sizes, res.center_variance,
                                    res.center_variance_se, res.l2_norm_sq,
                                    res.grad_q999)
    ]
    summary = {
        "sizes": res.sizes,
        "center_variance": res.center_variance,
        "center_variance_se": res.center_variance_se,
        "l2_norm_sq": res.l2_norm_sq,
        "grad_q999": res.grad_q999,
    }
    criteria = {}
    if d == 2 and len(Ls) >= 3:
        A = np.stack([np.log(res.sizes), np.ones_like(res.sizes)], axis=1)
        coef, *_ = np.linalg.lstsq(A, res.center_variance, rcond=None)
        fitted = A @ coef
        ss_res = float(((res.center_variance - fitted) ** 2).sum())
        ss_tot = float(((res.center_variance - res.center_variance.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / max(ss_tot, 1e-300)
        summary["log_slope"] = float(coef[0])
        summary["log_fit_r2"] = r2
        criteria["log_fit_r2_ge_0.9"] = bool(r2 >= 0.9)
    if d == 3 and len(Ls) >= 2:
        growth = res.center_variance[-1] / res.center_variance[-2] - 1.0
        summary["variance_growth"] = float(growth)
        criteria["variance_growth_below_25pct"] = bool(growth < 0.25)
    return ExperimentResult(
        "corrector",
        ["L", "center_variance", "stderr", "l2_norm_sq", "grad_q999", "replicas"],
        rows, summary, criteria,
    )


def run_flux_decay(seed: int, threads=None, *, potential, L, windows, d=2,
                   replicas=300, horizon=None) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    L = int(L)
    ells = [int(v) for v in windows]
    if len(ells) < 3:
        raise ConfigError(f"flux-decay windows: a decay fit needs three, got {windows!r}")
    if max(ells) > L:
        raise ConfigError(f"flux-decay windows: {windows!r} do not fit in L = {L}")
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    res = flux_decay_experiment(ells, L, V, replicas, src, d=d,
                                horizon=horizon, threads=threads)
    rows = [
        (e, v, se, gv, replicas)
        for e, v, se, gv in zip(res.scales, res.flux_variance,
                                res.flux_variance_se, res.gradient_variance)
    ]
    lo, hi = -d - 0.7, -d + 0.7
    criteria = {
        "exponent_in_range": bool(lo <= res.exponent <= hi),
        "fit_r2_ge_0.9": bool(res.r_squared >= 0.9),
    }
    summary = {
        "exponent": res.exponent,
        "r_squared": res.r_squared,
        "flux_variance": res.flux_variance,
        "gradient_variance": res.gradient_variance,
    }
    return ExperimentResult(
        "flux-decay",
        ["window", "flux_variance", "jackknife_se", "gradient_variance", "replicas"],
        rows, summary, criteria,
    )


def run_surface_tension(seed: int, *, potential, L, slopes, d=2,
                        replicas=500) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    L = int(L)
    try:
        slopes = [slope_from_config(p, d) for p in slopes]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"slopes: {exc!r}") from exc
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    rows, criteria = [], {}
    summary_rows = []
    for i, path in enumerate(slopes):
        constant = len(path.slopes) == 1
        arg = tuple(path.slopes[0]) if constant else path
        est = estimate_tau(arg, L, V, replicas, src.with_replica(i * replicas), d=d)
        p = path.slopes[0] if constant else path.slopes.mean(axis=0)
        rows.append(tuple(p) + tuple(est.mean) + tuple(est.stderr) + (replicas,))
        summary_rows.append({"slope": p, "mean": est.mean, "stderr": est.stderr})
        if V.name == "quadratic" and constant:
            ok = bool(np.all(np.abs(est.mean - p) <= 3 * est.stderr))
            criteria[f"matches_tilt_{i}"] = ok
            criteria[f"stderr_small_{i}"] = bool(np.all(est.stderr <= 0.02))
    header = [f"p{i+1}" for i in range(d)] + [f"mean{i+1}" for i in range(d)] \
        + [f"stderr{i+1}" for i in range(d)] + ["replicas"]
    return ExperimentResult("surface-tension", header, rows,
                            {"estimates": summary_rows}, criteria)


def run_hessian(seed: int, *, potential, L, d=2, slope=None,
                replicas=32) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    L = int(L)
    p = _tilt(slope, d, "slope")
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    est = estimate_hessian(p, L, V, replicas, src, d=d)
    rows = [
        (i + 1, j + 1, est.matrix[i, j], est.stderr[i, j], replicas)
        for i in range(d) for j in range(d)
    ]
    criteria = {"positive_definite": bool(est.positive)}
    if V.name == "quadratic":
        ident = np.eye(d)
        gap = np.abs(est.matrix - ident)
        criteria["matches_identity"] = bool(np.all(gap <= 3 * est.stderr + 1e-9))
    summary = {"matrix": est.matrix, "stderr": est.stderr,
               "eigenvalues": est.eigenvalues}
    return ExperimentResult("hessian", ["i", "j", "entry", "stderr", "replicas"],
                            rows, summary, criteria)


def run_linearize(seed: int, threads=None, *, potential, L, d=2, base_slope=None,
                  gaps=(0.4, 0.2, 0.1), replicas=200) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    L = int(L)
    p = _tilt(base_slope, d, "base_slope")
    gaps = [float(g) for g in gaps]
    qs = [p + np.eye(d)[0] * g for g in gaps]
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    res = linearization_modulus(p, qs, L, V, src, replicas, d=d, threads=threads)
    rows = [(g, r, se, replicas) for g, r, se in zip(res.gaps, res.residuals,
                                                     res.stderr)]
    ratios = res.residuals / res.gaps
    ratio_se = res.stderr / res.gaps
    order = np.argsort(res.gaps)[::-1]  # large gap to small gap
    monotone = all(
        ratios[order[i + 1]] <= ratios[order[i]]
        + 2 * np.hypot(ratio_se[order[i]], ratio_se[order[i + 1]])
        for i in range(len(order) - 1)
    )
    criteria = {"modulus_nonincreasing": bool(monotone)}
    summary = {"gaps": res.gaps, "residuals": res.residuals,
               "stderr": res.stderr, "normalized": ratios}
    return ExperimentResult("linearize", ["gap", "residual", "stderr", "replicas"],
                            rows, summary, criteria)


def run_occupation(seed: int, *, thresholds=(0.05, 0.1, 0.2),
                   replicas=2000, process="brownian", d=2, dt=1e-3,
                   potential=_QUADRATIC, L=8) -> ExperimentResult:
    eps = [float(e) for e in thresholds]
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    if process == "brownian":
        spec = BrownianSpec(dt=float(dt))
    elif process == "edge_gradient":
        spec = EdgeGradientSpec(L=int(L), d=int(d), potential=_potential(potential))
    else:
        raise ConfigError(f"unknown occupation process {process!r}")
    rep = occupation_experiment(spec, eps, replicas, src)
    rows = [(e, m, se, replicas) for e, m, se in zip(rep.thresholds, rep.means,
                                                     rep.stderrs)]
    criteria = {
        "positive_slope": bool(rep.slope > 0),
        "relative_intercept_le_0.1": bool(rep.relative_intercept <= 0.1),
    }
    summary = {"slope": rep.slope, "intercept": rep.intercept,
               "relative_intercept": rep.relative_intercept}
    return ExperimentResult("occupation",
                            ["epsilon", "mean_occupation", "stderr", "replicas"],
                            rows, summary, criteria)


def run_excess(seed: int, threads=None, *, potential=_QUADRATIC, d=2, L=32,
               scales=(8, 16, 32), replicas=20) -> ExperimentResult:
    V = _potential(potential)
    d = int(d)
    L = int(L)
    scales = [int(v) for v in scales]
    if not scales or min(scales) < 4 or max(scales) > L:
        raise ConfigError(f"excess scales: {scales!r} must lie in [4, L] = [4, {L}]")
    replicas = int(replicas)
    src = NoiseSource(seed=seed)
    grid = make_torus(d, L)
    dt = stable_dt(V, d)
    stride = 64
    t0, n_steps = horizon_steps(float(L * L), dt)
    _, rec = evolve_torus(grid, V, None, src, t0, n_steps, dt,
                          np.zeros(grid.shape), replicas=np.arange(replicas),
                          record_stride=stride)
    profiles = parallel_map(
        lambda b: excess_decay(SpaceTimeField(grid, t0, dt * stride, rec[:, b]),
                               scales),
        range(replicas), threads)
    rows = []
    for rep, prof in enumerate(profiles):
        for l, e1, gb in zip(prof.scales, prof.excess, prof.gradient_bound):
            rows.append((rep, l, e1, gb))
    e1 = np.array([p.excess for p in profiles])  # (replicas, nscales)
    gb = np.array([p.gradient_bound for p in profiles])
    idx = {int(s): k for k, s in enumerate(profiles[0].scales)}
    criteria = {}
    if 16 in idx and 32 in idx:
        ok = e1[:, idx[16]] <= e1[:, idx[32]] * np.sqrt(0.5) + 5.0
        criteria["halving_decay_80pct"] = bool(ok.mean() >= 0.8)
    if 8 in idx and int(L) in idx:
        fitted = np.max(gb[:, idx[8]] / (gb[:, idx[int(L)]] + 1.0))
        criteria["gradient_bound_constant_le_20"] = bool(fitted <= 20.0)
    summary = {"scales": profiles[0].scales, "excess_mean": e1.mean(axis=0),
               "gradient_bound_mean": gb.mean(axis=0)}
    return ExperimentResult("excess", ["replica", "scale", "excess",
                                       "gradient_bound"], rows, summary,
                            criteria)


def run_heatkernel(seed: int, *, d=2, L=8, environments=3,
                   contrast=2.0) -> ExperimentResult:
    d = int(d)
    L = int(L)
    n_env = int(environments)
    contrast = float(contrast)
    grid = make_torus(d, L)
    rng = np.random.default_rng(seed)
    rows, criteria = [], {}
    worst_mass = 0.0
    worst_neg = 0.0
    for i in range(n_env):
        env = np.exp(np.log(contrast) / 2 * rng.uniform(-1, 1,
                                                        size=(d,) + grid.shape))
        c_plus = float(np.sqrt(contrast))
        dt = stable_dt(c_plus, d)
        tab = heat_kernel(env, grid, 0.0, (0,) * d, float(L * L), dt)
        fit = nash_aronson_fit(tab, (0,) * d)
        mass = float(np.max(np.abs(tab.values.sum(axis=tuple(range(1, d + 1))))))
        neg = float((tab.values + 1.0 / grid.nsites).min())
        worst_mass = max(worst_mass, mass)
        worst_neg = min(worst_neg, neg)
        rows.append((i, fit.c_hat if fit.c_hat is not None else -1,
                     fit.worst_ratio, mass, neg))
        criteria[f"envelope_constant_exists_{i}"] = bool(fit.ok)
    criteria["mass_conserved_1e-12"] = bool(worst_mass <= 1e-12 * grid.nsites)
    criteria["kernel_shift_nonnegative"] = bool(worst_neg >= -1e-12)
    summary = {"worst_mass_defect": worst_mass, "worst_negative_part": worst_neg}
    return ExperimentResult("heatkernel",
                            ["environment", "c_hat", "worst_ratio",
                             "mass_defect", "min_shifted"],
                            rows, summary, criteria)


def run_gff(seed: int, *, d=2, L=4, replicas=2000) -> ExperimentResult:
    d = int(d)
    L = int(L)
    replicas = int(replicas)
    grid = make_torus(d, L)
    src = NoiseSource(seed=seed)
    T = float(L * L) / 2.0
    dt = stable_dt(quadratic(), d)
    final, _ = run_gff_dynamic(grid, T, src, replicas=np.arange(replicas))
    center = final[(slice(None),) + (grid.radius,) * d]
    rows, criteria = [], {}
    offsets = [[0] * d, [1] + [0] * (d - 1), [1, 1] + [0] * (d - 2)]
    ok_all = True
    for off in offsets:
        off = tuple(int(v) for v in off)
        oracle = gff_dynamic_covariance(grid, off, T, dt)
        idx = tuple((grid.radius + off[ax]) % grid.side for ax in range(d))
        other = final[(slice(None),) + idx]
        emp = float((center * other).mean())
        se = float((center * other).std(ddof=1) / np.sqrt(replicas))
        ok = abs(emp - oracle) <= 4 * se
        ok_all &= ok
        rows.append(off + (emp, oracle, se, int(ok)))
    criteria["covariance_within_4se"] = bool(ok_all)
    summary = {"T": T, "replicas": replicas}
    header = [f"dx{i+1}" for i in range(d)] + ["empirical", "oracle", "stderr", "ok"]
    return ExperimentResult("gff", header, rows, summary, criteria)


def gradient_two_scale_error(traj: np.ndarray, ubar: SpaceTimeField, kappa: float, V,
                             src: NoiseSource) -> float:
    """L2 gap between the gradients of one replica of the noisy dynamic,
    `traj` recorded at the slices of `ubar`, and the corrected effective
    solution, whose cell correctors are driven by `src`, that replica's
    noise stream (both address increments by absolute site coordinates and
    step indices): the pathwise gradient coupling of the expansion."""
    dom: DirichletDomain = ubar.grid
    eps = dom.mesh
    w = build_two_scale(ubar, make_correctors(ubar, kappa, V, src))
    acc = 0.0
    for j in range(ubar.nslices):
        du = traj[j] - w[j]
        for ax in range(dom.dim):
            g = np.diff(du, axis=ax) / eps
            acc += float((g**2).sum()) * ubar.dt
    return float(np.sqrt(eps**dom.dim * acc))


def _gradient_diagnostic(epsilons, replicas):
    """The meshes and the replica count of hydro's gradient diagnostic."""
    return {float(e) for e in epsilons}, int(replicas)


def hydro_limit_experiment(seed: int, threads=None, *, potential, epsilons, f, d=2,
                           replicas=20, zero_noise=False, effective_table=None,
                           gradient_diagnostic=None) -> ExperimentResult:
    """Microscopic vs effective solution across mesh sizes, with a rate fit.

    The noisy mesh-eps dynamic and the effective solver share the boundary
    datum and time step; per (eps, replica) the squared L2 gap on the
    space-time cylinder is accumulated at the effective solver's recording
    times.  The fitted exponent divides out the planar logarithm.  An
    optional gradient diagnostic reports the gap to the corrected effective
    solution for a few noise-coupled replicas.
    """
    V = _potential(potential)
    d = int(d)
    epsilons = [float(e) for e in epsilons]
    replicas = int(replicas)
    f = boundary_datum(f)
    if effective_table is not None:
        Dsigma = _bind(EffectiveGradient.from_axis_table, effective_table,
                       "effective_table")()
    elif V.name == "quadratic":
        Dsigma = EffectiveGradient.identity()
    else:
        raise ConfigError("hydro with a non-quadratic potential needs an "
                          "effective_table config block")
    src = NoiseSource(seed=seed)
    dt_unit = stable_dt(V, d)

    diag_eps, diag_reps = set(), 0
    if gradient_diagnostic is not None:
        diag_eps, diag_reps = _bind(_gradient_diagnostic, gradient_diagnostic,
                                    "gradient_diagnostic")()
    gradient_rows = []

    rows = []
    means = []
    for eps in sorted(epsilons, reverse=True):
        N = int(round(1.0 / eps))
        if abs(1.0 / N - eps) > 1e-12:
            raise ConfigError(f"mesh {eps} is not the inverse of an integer")
        dom = DirichletDomain(d, N)
        n_unit = int(round(1.0 / (eps * eps) / dt_unit))  # steps of the Dirichlet run
        stride = max(n_unit // 256, 1)
        ubar = solve_homogenized(Dsigma, dom, f, dt_unit=dt_unit,
                                 record_stride=stride)
        interior = dom.interior_mask
        dt_rec = ubar.dt

        # the deterministic diagnostic is the batched run with one replica
        # and the noise off; the gradient diagnostic reads the first
        # diag_reps replicas, recorded at the slices of ubar
        diag = eps in diag_eps and diag_reps and not zero_noise
        noise_src, n_rep = (None, 1) if zero_noise else (src, replicas)
        n_run = max(n_rep, diag_reps) if diag else n_rep
        record = (max(n_unit // (ubar.nslices - 1), 1), diag_reps) if diag else None
        acc = np.zeros(n_run)

        def on_step(k, t, state):
            if (k + 1) % stride == 0:
                j = (k + 1) // stride
                diff = state[:, interior] * eps - ubar.values[j][interior]
                acc[:] += (diff**2).sum(axis=1) * dt_rec

        traj = run_dirichlet(dom, f, V, noise_src, np.arange(n_run), on_step,
                             record=record, threads=threads)
        errs = np.sqrt(eps**d * acc[:n_rep])
        for rep, e in enumerate(errs):
            rows.append((eps, rep, float(e)))
        means.append(float(np.mean(errs)))
        if diag:
            kappa = round(np.sqrt(eps) / eps) * eps
            for rep in range(diag_reps):
                gerr = gradient_two_scale_error(traj[:, rep], ubar, kappa, V,
                                                src.with_replica(rep))
                gradient_rows.append((eps, rep, gerr))
    eps_sorted = np.asarray(sorted(epsilons, reverse=True))
    means = np.asarray(means)
    summary = {"epsilons": eps_sorted, "mean_error": means,
               "effective_clamp_events": int(Dsigma.clamp_events)}
    if gradient_rows:
        summary["gradient_two_scale"] = [
            {"epsilon": e, "replica": r, "error": g} for e, r, g in gradient_rows
        ]
    criteria = {}
    if not zero_noise and len(eps_sorted) >= 3:
        decreasing = bool(np.all(np.diff(means) < 0))
        correction = 1.0 + (np.sqrt(np.abs(np.log(eps_sorted))) if d == 2 else 0.0)
        fit = fit_power_law(eps_sorted, means / correction)
        summary["fitted_exponent"] = fit.exponent
        summary["fit_r2"] = fit.r_squared
        criteria["error_strictly_decreasing"] = decreasing
        criteria["exponent_ge_0.3"] = bool(fit.exponent >= 0.3)
    if Dsigma.kind == "table":
        criteria["no_effective_clamping"] = Dsigma.clamp_events == 0
    return ExperimentResult("hydro", ["epsilon", "replica", "l2_error"], rows,
                            summary, criteria)


EXPERIMENTS = {
    "corrector": run_corrector_experiment,
    "flux-decay": run_flux_decay,
    "surface-tension": run_surface_tension,
    "hessian": run_hessian,
    "linearize": run_linearize,
    "hydro": hydro_limit_experiment,
    "occupation": run_occupation,
    "excess": run_excess,
    "heatkernel": run_heatkernel,
    "gff": run_gff,
}


def run_experiment(name: str, cfg: dict, out_dir: str, seed: int | None = None,
                   threads: int | None = None) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    if "experiment" in cfg and cfg["experiment"] != name:
        raise ConfigError(
            f"config is for experiment {cfg['experiment']!r}, not {name!r}")
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    params = {k: v for k, v in cfg.items()
              if k not in ("schema_version", "experiment", "seed")}
    if "threads" in params:
        raise ConfigError(f"{name} config: threads is a run option, not a config key")
    if threads is not None:
        # a driver without a threads parameter rejects a thread count
        params["threads"] = threads
    run = _bind(EXPERIMENTS[name], params, f"{name} config", seed)
    start = time.time()
    result = run()
    wall = time.time() - start
    os.makedirs(out_dir, exist_ok=True)
    stem = {"corrector": "corrector_fluct"}.get(name, name.replace("-", "_"))
    write_csv(os.path.join(out_dir, f"{stem}.csv"), result.header, result.rows)
    write_summary(os.path.join(out_dir, "summary.json"), result, cfg, seed, wall)
    return result
