"""Deterministic counter-based random number streams.

Every random value in the library is a pure function of
``(master_seed, path_index, lane, draw_index)``, produced by a
splitmix64-style mixing chain.  This makes path generation reproducible
regardless of batching, chunking or scheduling: path ``i`` under seed
``s`` always consumes the same uniforms, whether it is simulated alone
or inside a million-path batch.

Mixing function (documented contract):

    mix(z)     = splitmix64 finalizer (Vigna's constants)
    base(s, i) = mix(mix(s) ^ mix(i * 0x9E3779B97F4A7C15))
    u(s, i, c) = mix(base(s, i) + c * 0x9E3779B97F4A7C15) -> top 53 bits

Counters are partitioned into lanes, ``c = (lane << 32) | k``, so that
e.g. interarrival draws and claim-size draws of one path never collide.
Uniforms lie in the open interval (0, 1).
"""

from __future__ import annotations

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# lane layout used by the simulator
LANE_MISC = 0       # draw 0: theta
LANE_ARRIVAL = 1    # interarrival uniforms
LANE_CLAIM = 2      # claim-size uniforms

_LANE_SHIFT = np.uint64(32)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix64(z: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer on uint64 arrays (wraps modulo 2^64)."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
    return z ^ (z >> np.uint64(31))


def _base_state(seed: int, path_index) -> np.ndarray:
    s = _mix64(np.asarray(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    i = _mix64(np.asarray(path_index, dtype=np.uint64) * _GOLDEN)
    return s ^ i


def uniforms(seed: int, path_index, lane: int, draw_index) -> np.ndarray:
    """Uniform(0,1) values for (seed, path, lane, draw) tuples.

    ``path_index`` and ``draw_index`` broadcast against each other, so a
    single call can fill a whole batch.
    """
    counter = (np.uint64(lane) << _LANE_SHIFT) | np.asarray(draw_index, dtype=np.uint64)
    # uint64 wraparound is the point here; silence numpy's scalar overflow noise
    with np.errstate(over="ignore"):
        state = (_base_state(seed, path_index) + counter * _GOLDEN) & _MASK
        bits = _mix64(state)
    return _bits_to_unit(bits)


def _bits_to_unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits -> (0, 1), offset by half an ulp so 0.0 never occurs.

    All 53 bits set would round up to 1.0; that one value is clamped to
    the largest double below 1.
    """
    u = np.asarray(((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53))
    return np.minimum(u, _BELOW_ONE, out=u)  # in place: no second array per call


class RngStream:
    """Sequential view of one path's random stream.

    Owned by exactly one consumer at a time; ``next_uniform`` advances a
    per-lane cursor.  Values are identical to what the vectorized
    ``uniforms`` call produces for the same indices.
    """

    __slots__ = ("seed", "path_index", "_cursors")

    def __init__(self, seed: int, path_index: int = 0):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self._cursors = {}

    def next_uniform(self, lane: int = LANE_MISC) -> float:
        k = self._cursors.get(lane, 0)
        self._cursors[lane] = k + 1
        return float(uniforms(self.seed, self.path_index, lane, k))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path_index={self.path_index})"
