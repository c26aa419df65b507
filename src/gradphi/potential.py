"""Uniformly convex interaction potentials.

A potential is the pair (V', V'') with certified ellipticity constants
c- <= V'' <= c+.  Three families cover the experiments: the exactly solvable
quadratic, a smooth non-quadratic perturbation, and a potential whose second
derivative jumps, which exercises the mollification machinery.

V' takes `out=` and `tmp=` arrays of its argument's shape, neither of them
the argument's memory: the value is written through `out`, and `tmp` is
scratch.  Given both, the three families allocate nothing, so a stepper can
evaluate the flux into buffers it owns.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Potential:
    name: str
    vp: Callable[..., np.ndarray]  # vp(x, out=None, tmp=None)
    vpp: Callable[[np.ndarray], np.ndarray]
    c_minus: float
    c_plus: float
    params: dict = field(default_factory=dict)


def quadratic() -> Potential:
    """V(x) = x^2/2: the Gaussian case, exactly solvable by Fourier modes."""

    def vp(x, out=None, tmp=None):
        if out is None:
            return np.asarray(x, dtype=np.float64)
        np.copyto(out, x)
        return out

    return Potential(
        name="quadratic",
        vp=vp,
        vpp=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        c_minus=1.0,
        c_plus=1.0,
    )


def soft_quartic(a: float) -> Potential:
    """V(x) = x^2/2 + a*sqrt(1+x^2): smooth, uniformly convex, non-quadratic."""
    if a <= 0:
        raise ValueError(f"strength must be positive, got {a}")

    def vp(x, out=None, tmp=None):
        # x + a * x / sqrt(1 + x * x), one operation at a time
        x = np.asarray(x, dtype=np.float64)
        s = np.multiply(x, x, out=np.empty_like(x) if tmp is None else tmp)
        np.add(1.0, s, out=s)
        np.sqrt(s, out=s)
        out = np.multiply(a, x, out=np.empty_like(x) if out is None else out)
        np.divide(out, s, out=out)
        return np.add(x, out, out=out)

    def vpp(x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 + a * (1.0 + x * x) ** -1.5

    return Potential("soft_quartic", vp, vpp, c_minus=1.0, c_plus=1.0 + a,
                     params={"a": a})


def kinked(b: float) -> Potential:
    """C^{1,1} potential with V''(x) = 1 + b on |x| < 1 and 1 outside.

    V' is the continuous piecewise-linear antiderivative; the jump of V''
    at |x| = 1 drives the Lusin-set and linearization-modulus experiments.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"kink size must lie in (0, 1), got {b}")

    def vp(x, out=None, tmp=None):
        # x + b * clip(x, -1, 1), one operation at a time, without np.clip's wrappers
        x = np.asarray(x, dtype=np.float64)
        out = np.maximum(x, -1.0, out=np.empty_like(x) if out is None else out)
        np.minimum(out, 1.0, out=out)
        np.multiply(b, out, out=out)
        return np.add(x, out, out=out)

    def vpp(x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 + b * (np.abs(x) < 1.0)

    return Potential("kinked", vp, vpp, c_minus=1.0, c_plus=1.0 + b,
                     params={"b": b})


@functools.cache
def _bump_rule():
    """The fixed 64-point Gauss-Legendre rule on [-1, 1] against the bump
    weight, as (nodes, weights), built on first use: the rule imports
    numpy.polynomial and solves an eigenproblem, which a run that never
    mollifies need not pay."""
    nodes, gl_w = np.polynomial.legendre.leggauss(64)
    w = gl_w * np.exp(-1.0 / (1.0 - nodes**2))
    return nodes, w / w.sum()  # normalizer folded in: weights sum to 1


def mollify(V: Potential, kappa: float) -> Potential:
    """Convolution with the standard compactly supported bump at width kappa.

    Both evaluators are convolved with the same fixed 64-node
    quadrature; since the weights sum to one, mollification is exact on
    constants and on any region where the integrand is constant.
    """
    if kappa <= 0:
        raise ValueError(f"mollification width must be positive, got {kappa}")
    nodes, weights = _bump_rule()

    def conv(f):
        def g(x, out=None, tmp=None):
            x = np.asarray(x, dtype=np.float64)
            vals = f(x[..., None] - kappa * nodes)
            out = np.matmul(vals, weights, out=out)
            if not np.all(np.isfinite(out)):
                raise FloatingPointError("mollification quadrature produced non-finite values")
            return out

        return g

    return Potential(
        name=f"{V.name}_mollified",
        vp=conv(V.vp),
        vpp=conv(V.vpp),
        c_minus=V.c_minus,
        c_plus=V.c_plus,
        params={**V.params, "kappa": kappa},
    )


def lusin_measure(V: Potential, S: float, kappa: float, eps: float) -> float:
    """Lebesgue measure of {x in [-S, S] : |V''(x) - V_kappa''(x)| >= eps}.

    Evaluated by quadrature of the indicator on a uniform grid at resolution
    1e-4, refined adaptively near indicator transitions.
    """
    if S < 1:
        raise ValueError("window must satisfy S >= 1")
    if not 0 < eps <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    Vk = mollify(V, kappa)
    resolution = 1e-4

    def indicator(x):
        return np.abs(V.vpp(x) - Vk.vpp(x)) >= eps

    # coarse pass
    n = int(np.ceil(2 * S / (8 * resolution))) + 1
    x = np.linspace(-S, S, n)
    h = x[1] - x[0]
    ind = indicator(x)
    measure = 0.0
    # refine every coarse interval that is inside or touches the set
    active = ind[:-1] | ind[1:]
    for i in np.nonzero(active)[0]:
        xs = np.linspace(x[i], x[i + 1], max(int(np.ceil(h / resolution)), 2) + 1)
        fine = indicator(xs)
        measure += (fine[:-1] & fine[1:]).sum() * (xs[1] - xs[0])
        # half-credit for transition cells keeps the error below resolution
        measure += 0.5 * (fine[:-1] ^ fine[1:]).sum() * (xs[1] - xs[0])
    return float(measure)


def from_config(spec: dict) -> Potential:
    """Potential from a config block like {"kind": "soft_quartic", "a": 0.5};
    the other keys are bound to the parameters of the constructor "kind"
    names, and an unknown kind or a missing or unknown key is a ValueError."""
    params = dict(spec)
    kind = params.pop("kind", None)
    make = {"quadratic": quadratic, "soft_quartic": soft_quartic,
            "kinked": kinked}.get(kind)
    if make is None:
        raise ValueError(f"unknown potential kind: {kind!r}")
    try:
        inspect.signature(make).bind(**params)
    except TypeError as exc:
        raise ValueError(f"potential {kind!r}: {exc}") from exc
    return make(**{k: float(v) for k, v in params.items()})
