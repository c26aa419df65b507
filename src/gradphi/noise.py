"""Reproducible counter-based Gaussian noise.

Every normal draw is addressed by the key tuple (seed, replica, channel,
step, site).  The key is hashed into 64 uniform bits with SplitMix64 and
mapped through the inverse normal CDF, so a draw depends only on its key:
simulations are bitwise reproducible across runs and thread counts, and
site/step-addressable draws make replica- and site-level parallelism safe.

Channels keep independent streams apart: forward time steps, negative time
steps (the two-sided Brownian motion) and initial-condition sampling.
"""

from __future__ import annotations

import mmap
import os
import sys
import types
from collections.abc import Iterator
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np
import scipy


def _load_ndtri():
    """scipy's `ndtri` ufunc, loaded from `scipy.special._ufuncs` without
    running `scipy.special`'s package init when that has not run yet.

    The init costs about 0.2 s and 19 MB a process (its array-API layer
    loads numpy.f2py, numpy.testing, numpy.ma and numpy.random), and none
    of it is used here.  The ufunc is the very object that
    `scipy.special.ndtri` names, so every draw keeps its bits, and a later
    `import scipy.special` runs the real init, which reuses the loaded
    extension module.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stub
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        del sys.modules["scipy.special"]
    return ndtri


ndtri = _load_ndtri()

_U64 = np.uint64
_MASK = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# normals per block of steps when a worker thread draws ahead: it overlaps
# the stepper only when its ufunc calls outlast the interpreter's switch
# interval.  On a 2-core VM, `run_dirichlet` at N = 16 with 20 replicas took
# 2.2 s (median of 3) with no worker, 2.0 s at 2^15 normals a block, 2.1 s
# at 2^16, 1.36 s at 2^17 and 1.39 s at 3 * 2^16; a block of 2^17 normals
# is 1 MB, and a run holds three.  The same unit sizes flux-decay's
# replica tiles: a tile holds at most BUDGET // nsites replicas.
BUDGET = 2**17

# channel ids
CHANNEL_FORWARD = 0
CHANNEL_BACKWARD = 1
CHANNEL_INIT = 2

_AXIS_SALTS = (
    0xD1B54A32D192ED03,
    0xABC98388FB8FAC03,
    0x8CB92BA72F3D8DD7,
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a Python integer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, out: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over a uint64 array."""
    z = np.add(z, _U64(_GOLDEN), out=out)
    tmp = np.right_shift(z, _U64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _U64(_MIX1), out=z)
    np.right_shift(z, _U64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _U64(_MIX2), out=z)
    np.right_shift(z, _U64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _bits_to_uniform(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms from the top 53 bits of z, written to the float64 array
    `out` (z is shifted in place).  The offset keeps every value strictly
    inside (0, 1).  `out` must not be z's memory: numpy copies an input that
    overlaps an output of another dtype."""
    np.right_shift(z, _U64(11), out=z)
    u = np.multiply(z, 2.0**-53, out=out)
    u += 2.0**-54
    return u


def site_keys(coords: np.ndarray) -> np.ndarray:
    """Hash integer lattice coordinates (…, d) into per-site uint64 keys.

    Keys depend on the absolute coordinates, so overlapping windows of the
    same lattice see the same Brownian motions.
    """
    coords = np.asarray(coords, dtype=np.int64)
    d = coords.shape[-1]
    acc = np.zeros(coords.shape[:-1], dtype=np.uint64)
    for ax in range(d):
        salt = _U64(_AXIS_SALTS[ax % len(_AXIS_SALTS)])
        acc = _mix_array(np.bitwise_xor(acc, coords[..., ax].astype(np.uint64) * salt))
    return acc


def _channel_step(step: int | range) -> tuple[int, int | range]:
    """(channel, step within the channel) of an absolute step index, or of
    a range of them on one side of step 0: negative steps draw from the
    backward channel, whose steps count down as the absolute ones count up."""
    if isinstance(step, range):
        if step.start < 0 < step.stop:
            raise ValueError(f"{step} crosses from the backward into the forward channel")
        if step.start >= 0:
            return CHANNEL_FORWARD, step
        return CHANNEL_BACKWARD, range(-1 - step.start, -1 - step.stop, -1)
    return (CHANNEL_FORWARD, step) if step >= 0 else (CHANNEL_BACKWARD, -1 - step)


def _step_keys(prefix: np.ndarray, steps: range) -> np.ndarray:
    """Stream keys at each of `steps` from their `NoiseSource.stream_prefix`,
    shape (len(steps), *prefix.shape)."""
    salts = np.array([(s * _MIX2) & _MASK for s in steps], dtype=np.uint64)
    return _mix_array(np.bitwise_xor(prefix[None], salts.reshape((-1,) + (1,) * prefix.ndim)))


@dataclass(frozen=True)
class NoiseSource:
    """Deterministic counter-based source of standard normals.

    The Brownian increment of B over [k*dt, (k+1)*dt] at a site is sqrt(dt)
    times the normal that `raw_normals` draws for its key at step k;
    negative step indices draw from the backward channel, which realizes a
    Brownian motion on the full line.
    """

    seed: int
    replica: int = 0

    def with_replica(self, replica: int) -> "NoiseSource":
        return NoiseSource(self.seed, replica)

    def stream_prefix(self, channel: int, replicas: np.ndarray) -> np.ndarray:
        """The step-independent part of the stream keys of the replica ids
        `self.replica + replicas` on a channel: the seed, replica and channel
        rounds, which every step of the stream shares."""
        base = _mix_int(self.seed & _MASK)
        ids = np.asarray(replicas, dtype=np.uint64) + _U64(self.replica)
        k = _mix_array(np.bitwise_xor(_U64(base), ids * _U64(_GOLDEN)))
        return _mix_array(np.bitwise_xor(k, _U64((channel * _MIX1) & _MASK)))

    def raw_normals(
        self,
        keys: np.ndarray,
        step: int | range,
        replicas: np.ndarray,
        channel: int | None = None,
        prefix: np.ndarray | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Normals for every site key at one step, shape (B, *keys.shape), or
        at each step of a range, shape (len(step), B, *keys.shape).

        `step` is absolute, or counted within `channel` when one is given;
        an absolute range must not cross step 0.  `replicas` (shape (B,))
        holds replica ids counted from `self.replica`, one independent stream
        each.  `prefix`, the `stream_prefix` of these ids on this
        channel, spares rehashing it.  `out`, two uint64 arrays of shape
        (len(step), B, *keys.shape), takes the draw in place: the first
        holds the hashed bits, and the normals go to the float64 view of the
        second, which is returned.
        """
        if channel is None:
            channel, step = _channel_step(step)
        block = isinstance(step, range)
        steps = step if block else range(step, step + 1)
        if prefix is None:
            prefix = self.stream_prefix(channel, replicas)
        bases = _step_keys(prefix, steps)
        z, normals = (None, None) if out is None else out
        z = np.bitwise_xor(keys, bases.reshape(bases.shape + (1,) * keys.ndim), out=z)
        if normals is None:
            normals = np.empty_like(z)
        _mix_array(z, out=z, tmp=normals)  # the normals' memory is scratch until they come
        g = _bits_to_uniform(z, normals.view(np.float64))
        ndtri(g, out=g)
        return g if block else g[0]

    def field_normals(self, keys: np.ndarray, replicas: np.ndarray,
                      tag: int) -> np.ndarray:
        """Normals from the initial-condition channel, distinguished by tag,
        shape (B, *keys.shape)."""
        return self.raw_normals(keys, tag, replicas, channel=CHANNEL_INIT)


def _mapped(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized uint64 array in an anonymous memory map of its own,
    unmapped when the last view of it goes.

    A block buffer from malloc, once freed, raises glibc's mmap threshold
    to its size, so later arrays up to that size come from the heap, where
    what is freed stays resident: hydro-dirichlet held 2.3 MB more after its
    Dirichlet runs."""
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), dtype=np.uint64).reshape(shape)


class MeanSubtractedNoise:
    """One normal field per step and replica minus its spatial mean.

    The draw has shape (B, *keys.shape), one stream per replica id of
    `replicas`.  `keys` may carry a leading window axis (stacked windows
    with distinct absolute coordinates); the spatial mean is always taken
    over the trailing `spatial_ndim` axes.

    Repeated replica ids (coupled trajectories driven by the same noise)
    share one draw: each step draws every distinct id once and gathers the
    rows into a buffer owned by the iterator.  The stream prefix of the ids
    is hashed once per channel, on its first draw, and held here.

    A run draws its steps one at a time, or with a one-thread `pool` in
    blocks of consecutive steps of about `BUDGET` normals, the next block
    drawn on the pool while the stepper consumes the current one.  Every
    draw is a pure function of its key, so the blocks and the thread change
    no bit.
    """

    def __init__(self, src: NoiseSource, keys: np.ndarray, replicas: np.ndarray,
                 spatial_ndim: int, pool: Executor | None):
        self.src = src
        self.keys = keys
        self.pool = pool
        if np.prod(keys.shape[keys.ndim - spatial_ndim:]) < 2:
            raise ValueError("mean subtraction needs at least two sites")
        ids, rows = np.unique(replicas, return_inverse=True)
        self.replicas, self._rows = (replicas, None) if len(ids) == len(replicas) else (ids, rows)
        self._axes = tuple(range(2 + keys.ndim - spatial_ndim, 2 + keys.ndim))
        self._prefixes = {}  # channel -> stream prefix of self.replicas

    def _blocks(self, steps: range) -> list[range]:
        """`steps` cut into blocks, none crossing from the backward into the
        forward channel: of at most BUDGET normals (one step at least) with
        a pool, of one step without.  Longer blocks without a pool would
        save per-call time (0.035 s of hydro-dirichlet's corrector runs,
        measured on a 2-core VM), but their buffers raised the run's peak
        RSS by 1.5-2.6 MB, so memory rules them out."""
        per_step = len(self.replicas) * self.keys.size
        length = 1 if self.pool is None else max(1, BUDGET // per_step)
        blocks, k = [], steps.start
        while k < steps.stop:
            end = min(k + length, steps.stop)
            if k < 0 < end:
                end = 0
            blocks.append(range(k, end))
            k = end
        return blocks

    def _draw(self, block: range, slot: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """The mean-subtracted draw of a block of absolute steps, in slot;
        `bits` is scratch."""
        channel, steps = _channel_step(block)
        prefix = self._prefixes.get(channel)
        if prefix is None:
            prefix = self._prefixes[channel] = self.src.stream_prefix(channel, self.replicas)
        n = len(block)
        g = self.src.raw_normals(self.keys, steps, self.replicas, channel, prefix=prefix,
                                 out=(bits[:n], slot[:n]))
        g -= g.mean(axis=self._axes, keepdims=True)
        return g

    def __call__(self, steps: range) -> Iterator[np.ndarray]:
        """The draw of each absolute step of `steps`, in order.

        A draw is a view into a reused buffer: it stays valid until the next
        draw is taken.  The buffers (one block, two with a pool, one block
        of scratch bits, and the gathered rows where ids repeat) live as
        long as the iterator.
        """
        blocks = self._blocks(steps)
        if not blocks:
            return
        shape = (max(map(len, blocks)), len(self.replicas)) + self.keys.shape
        bits = _mapped(shape)
        slots = [_mapped(shape) for _ in range(1 if self.pool is None else 2)]
        rows = None if self._rows is None else np.empty((len(self._rows),) + self.keys.shape)
        ahead = None  # the next block, drawing on the pool
        try:
            for i, block in enumerate(blocks):
                g = ahead.result() if ahead is not None else self._draw(block, slots[0], bits)
                if self.pool is not None and i + 1 < len(blocks):
                    ahead = self.pool.submit(self._draw, blocks[i + 1], slots[(i + 1) % 2],
                                             bits)
                for row in g:
                    yield row if rows is None else np.take(row, self._rows, axis=0, out=rows,
                                                           mode="wrap")
        finally:
            # a run stopped early still waits for the block in flight and
            # reads its result
            if ahead is not None:
                ahead.result()
