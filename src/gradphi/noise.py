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

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

_U64 = np.uint64
_MASK = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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


def _bits_to_uniform(z: np.ndarray) -> np.ndarray:
    # 53 mantissa bits, offset keeps the value strictly inside (0, 1)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


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


def _channel_step(step: int) -> tuple[int, int]:
    """(channel, step within the channel) of an absolute step index:
    negative steps draw from the backward channel."""
    return (CHANNEL_FORWARD, step) if step >= 0 else (CHANNEL_BACKWARD, -1 - step)


def _step_keys(prefix: np.ndarray, step: int) -> np.ndarray:
    """Stream keys at one step from their `NoiseSource.stream_prefix`."""
    return _mix_array(np.bitwise_xor(prefix, _U64((step * _MIX2) & _MASK)))


@dataclass(frozen=True)
class NoiseSource:
    """Deterministic counter-based source of standard normals.

    The Brownian increment of B over [k*dt, (k+1)*dt] at a site is
    sqrt(dt) * increment(site, k); negative step indices draw from the
    backward channel, which realizes a Brownian motion on the full line.
    """

    seed: int
    replica: int = 0

    def with_replica(self, replica: int) -> "NoiseSource":
        return replace(self, replica=replica)

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
        step: int,
        channel: int | None = None,
        replicas: np.ndarray | None = None,
        out_bits: tuple[np.ndarray, np.ndarray] | None = None,
        prefix: np.ndarray | None = None,
    ) -> np.ndarray:
        """Normals for every site key at one step, shape (B, *keys.shape).

        `replicas` (shape (B,)) holds replica ids counted from
        `self.replica`, one independent stream each.  Without it the draw is
        the single stream `self.replica`, of shape keys.shape.  `prefix`, the
        `stream_prefix` of these ids on this channel, spares rehashing it.
        """
        if channel is None:
            channel, step = _channel_step(step)
        ids = np.zeros(1, dtype=np.uint64) if replicas is None else replicas
        if prefix is None:
            prefix = self.stream_prefix(channel, ids)
        bases = _step_keys(prefix, step).reshape((-1,) + (1,) * keys.ndim)
        bits, tmp = (None, None) if out_bits is None else out_bits
        z = np.bitwise_xor(keys[None, ...], bases, out=bits)
        z = _mix_array(z, out=z, tmp=tmp)
        g = ndtri(_bits_to_uniform(z))
        return g[0] if replicas is None else g

    def increment(self, site_key: int | np.ndarray, step: int) -> float | np.ndarray:
        """One standard normal per (site, step); scalar for a scalar key."""
        keys = np.asarray(site_key, dtype=np.uint64)
        g = self.raw_normals(np.atleast_1d(keys), step)
        return float(g[0]) if keys.ndim == 0 else g.reshape(keys.shape)

    def field_normals(self, keys: np.ndarray, replicas: np.ndarray,
                      tag: int = 0) -> np.ndarray:
        """Normals from the initial-condition channel, distinguished by tag,
        shape (B, *keys.shape)."""
        return self.raw_normals(keys, tag, channel=CHANNEL_INIT, replicas=replicas)


class MeanSubtractedNoise:
    """One normal field per step and replica minus its spatial mean, in
    reused buffers.

    The draw has shape (B, *keys.shape), one stream per replica id of
    `replicas`.  `keys` may carry a leading window axis (stacked windows
    with distinct absolute coordinates); the spatial mean is always taken
    over the trailing `spatial_ndim` axes.

    Repeated replica ids (coupled trajectories driven by the same noise)
    share one draw: each step draws every distinct id once and gathers the
    rows.  With distinct ids the draw is returned as is.  The stream prefix
    of the ids is hashed once per channel, on its first draw, and held here.
    """

    def __init__(self, src: NoiseSource, keys: np.ndarray, replicas: np.ndarray,
                 spatial_ndim: int):
        self.src = src
        self.keys = keys
        if np.prod(keys.shape[keys.ndim - spatial_ndim:]) < 2:
            raise ValueError("mean subtraction needs at least two sites")
        ids, rows = np.unique(replicas, return_inverse=True)
        if len(ids) == len(replicas):
            self.replicas, self._rows = replicas, None
        else:
            self.replicas, self._rows = ids, rows
        shape = (len(self.replicas),) + keys.shape
        self._axes = tuple(range(len(shape) - spatial_ndim, len(shape)))
        self._bits = (np.empty(shape, dtype=np.uint64),
                      np.empty(shape, dtype=np.uint64))
        self._prefixes = {}  # channel -> stream prefix of self.replicas

    def __call__(self, step: int) -> np.ndarray:
        channel, step = _channel_step(step)
        prefix = self._prefixes.get(channel)
        if prefix is None:
            prefix = self._prefixes[channel] = self.src.stream_prefix(channel, self.replicas)
        g = self.src.raw_normals(self.keys, step, channel, self.replicas,
                                 out_bits=self._bits, prefix=prefix)
        g -= g.mean(axis=self._axes, keepdims=True)
        return g if self._rows is None else g[self._rows]
