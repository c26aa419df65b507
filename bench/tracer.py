"""Span tracing of gradphi's layers, installed from outside the package.

`install(tracer)` rebinds the public functions of the traced modules (the
layers) in every gradphi module that holds a reference to them, because the
package binds names with `from .x import y`: `evolve_torus`, for instance,
is reached through `dynamics`, `homogenize`, `occupation` and `harness`.
On top of the module functions it wraps `NoiseSource.raw_normals`, the
`ndtri` transform inside `noise`, the `vp`/`vpp` evaluators of potentials
built through `potential.from_config`, the `on_step` callbacks handed to the
steppers, and the closure returned by `smoothed_boundary_datum`.

Each thread keeps its own span stack, so self times stay correct when
`flux_decay_experiment` runs replica chunks on worker threads.  Spans are
kept in memory and written out once, after the run.

Times are busy times: thread CPU seconds, so a thread blocked on a pool or
on the interpreter lock is not charged (a span also keeps its wall-clock
start and end).  A span's self time is its busy time minus that of child
spans in another layer and of callbacks handed into it (on_step, the
boundary datum), including those reached through same-layer helpers.
Same-layer helpers (e.g. `ndtri` under `raw_normals`, `homogenized_operator`
under `solve_homogenized`) stay in the caller's self time, so the self
times of layer-entry spans add up to the traced CPU time without double
counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from dataclasses import replace
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("noise", "potential", "dynamics", "parabolic", "homogenize", "harness")
# every gradphi module is an import site, measured or not
MODULES = ("noise", "lattice", "potential", "spectral", "dynamics", "parabolic",
           "norms", "homogenize", "occupation", "harness", "cli")


class _Frame:
    __slots__ = ("span_id", "layer", "child")

    def __init__(self, span_id: int, layer: str):
        self.span_id = span_id
        self.layer = layer
        self.child = 0.0  # time of children subtracted from self time


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._buffers: list[tuple[int, list]] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack, local.spans = [], []
            with self._lock:
                self._buffers.append((threading.get_ident(), local.spans))
            return local.stack, local.spans

    def wrap(self, fn, name: str, layer: str, count=None, callback: bool = False):
        """Return `fn` recording one span per call.

        `count(args, kwargs)` gives the work count stored with the span;
        `callback` marks a function handed into a caller, whose time is kept
        out of the caller's self time even when both share a layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            parent = stack[-1] if stack else None
            frame = _Frame(next(self._ids), layer)
            n = count(args, kwargs) if count is not None else 0
            stack.append(frame)
            start = perf_counter()
            cpu0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                end = perf_counter()
                stack.pop()
                entry = parent is None or parent.layer != layer or callback
                if parent is not None:
                    parent.child += cpu if entry else frame.child
                spans.append((frame.span_id,
                              parent.span_id if parent is not None else 0,
                              name, layer, entry, start, end, cpu, cpu - frame.child, n))

        return traced

    def spans(self) -> list[tuple]:
        """All spans as (thread, id, parent, name, layer, entry, start, end,
        cpu, self, count); start and end are wall-clock, cpu and self busy time."""
        with self._lock:
            buffers = list(self._buffers)
        return [(tid,) + s for tid, spans in buffers for s in spans]

    def write(self, path: str) -> None:
        keys = ("thread", "id", "parent", "name", "layer", "entry", "start",
                "end", "cpu_s", "self_s", "count")
        with open(path, "w") as fh:
            for s in self.spans():
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def summarize(spans) -> dict:
    """Per-name and per-layer totals: busy and wall time, self time, calls
    and counts."""
    by_name: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for _tid, _sid, _parent, name, layer, entry, start, end, cpu, self_s, n in spans:
        row = by_name.setdefault(name, {"total_s": 0.0, "wall_s": 0.0, "self_s": 0.0,
                                        "calls": 0, "count": 0})
        row["total_s"] += cpu
        row["wall_s"] += end - start
        row["self_s"] += self_s
        row["calls"] += 1
        row["count"] += n
        if entry:
            layer_self[layer] += self_s
    return {"names": by_name, "layer_self_s": layer_self}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _size_of_first(args, kwargs) -> int:
    return int(np.size(args[0]))


def _torus_site_updates(bound: inspect.BoundArguments) -> int:
    a = bound.arguments
    grid = a["grid"]
    if a.get("replicas") is not None:
        batch = len(a["replicas"])
    elif a.get("batch_keys") is not None:
        batch = a["batch_keys"].shape[0]
    else:
        init = np.shape(a["init"])
        batch = init[0] if len(init) > grid.dim else 1
    return int(a["n_steps"]) * batch * grid.nsites


def _corrector_site_updates(args, kwargs) -> int:
    phi = args[0] if args else kwargs["phi"]
    return (phi.nslices - 1) * int(np.prod(phi.values.shape[1:]))


def _callback_layer(obj) -> str:
    module = getattr(obj, "__module__", None) or type(obj).__module__
    layer = module.rsplit(".", 1)[-1]
    return layer if layer in LAYERS else "harness"


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported gradphi package in place."""
    mods = {name: importlib.import_module(f"gradphi.{name}") for name in MODULES}
    wrapped: dict[int, object] = {}  # id(original) -> wrapper

    def wrap_on_step(bound: inspect.BoundArguments) -> None:
        cb = bound.arguments.get("on_step")
        if cb is None:
            return
        if type(cb).__name__ == "_WindowAccumulator":
            name, layer = "homogenize.window_acc", "homogenize"
        else:
            layer = _callback_layer(cb)
            name = f"{layer}.on_step"
        bound.arguments["on_step"] = tracer.wrap(cb, name, layer, callback=True)

    def stepper(fn, name, layer, count=None):
        sig = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            wrap_on_step(bound)
            return fn(*bound.args, **bound.kwargs)

        counter = None
        if count is not None:
            counter = lambda args, kwargs: count(sig.bind(*args, **kwargs))  # noqa: E731
        return tracer.wrap(functools.wraps(fn)(call), name, layer, count=counter)

    def boundary_datum_factory(fn, name, layer):
        def make(*args, **kwargs):
            g = fn(*args, **kwargs)
            return tracer.wrap(g, "dynamics.boundary_datum", "dynamics", callback=True)

        return tracer.wrap(functools.wraps(fn)(make), name, layer)

    def potential_factory(fn, name, layer):
        def make(*args, **kwargs):
            V = fn(*args, **kwargs)
            return replace(
                V,
                vp=tracer.wrap(V.vp, "potential.vp", "potential", count=_size_of_first),
                vpp=tracer.wrap(V.vpp, "potential.vpp", "potential", count=_size_of_first),
            )

        return tracer.wrap(functools.wraps(fn)(make), name, layer)

    special = {
        "dynamics.evolve_torus": lambda fn, n, l: stepper(fn, n, l, _torus_site_updates),
        "dynamics.run_dirichlet": lambda fn, n, l: stepper(fn, n, l),
        "dynamics.smoothed_boundary_datum": boundary_datum_factory,
        "potential.from_config": potential_factory,
        "parabolic.solve_linearized_corrector":
            lambda fn, n, l: tracer.wrap(fn, n, l, count=_corrector_site_updates),
    }

    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            make = special.get(name)
            wrapped[id(obj)] = (make(obj, name, layer) if make is not None
                                else tracer.wrap(obj, name, layer))

    noise = mods["noise"]
    noise.ndtri = tracer.wrap(noise.ndtri, "noise.ndtri", "noise", count=_size_of_first)
    cls = noise.NoiseSource
    cls.raw_normals = tracer.wrap(cls.raw_normals, "noise.raw_normals", "noise")

    # rebind at every import site, including dispatch tables like EXPERIMENTS
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
