"""Deterministic counter-based random number streams.

Every random value in the library is a pure function of
``(master_seed, path_index, lane, draw_index)``, produced by a
splitmix64-style mixing chain.  This makes path generation reproducible
regardless of batching, chunking or scheduling: path ``i`` under seed
``s`` always consumes the same uniforms, whether it is simulated alone
or inside a million-path batch.

Mixing function (documented contract; all arithmetic modulo 2^64):

    G          = 0x9E3779B97F4A7C15
    mix(z)     = splitmix64 output for state z: the finalizer (Vigna's
                 constants 0xBF58476D1CE4E5B9, 0x94D049BB133111EB and
                 shifts 30, 27, 31) applied to z + G
    base(s, i) = mix(s) ^ mix(i * G)
    u(s, i, c) = mix(base(s, i) + c * G) -> top 53 bits

Counters are partitioned into lanes, ``c = (lane << 32) | k``, so that
e.g. interarrival draws and claim-size draws of one path never collide.
The top 53 bits b map to (b + 1/2) / 2^53, so uniforms lie in the open
interval (0, 1); the one value that rounds to 1 is clamped below it.

``base(s, i)`` depends on the path only, so a caller that draws several
lanes or many draws per path computes it once, as ``PathKeys``, and
passes the keys to ``uniforms`` in place of the path indices.  The values
are the same either way.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# lane layout used by the simulator
LANE_MISC = 0       # draw 0: theta
LANE_ARRIVAL = 1    # interarrival uniforms
LANE_CLAIM = 2      # claim-size uniforms

_LANE_SHIFT = np.uint64(32)
_CACHE_BLOCK = 1 << 16  # uint64 values mixed per block (512 KiB per buffer)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix() of the contract on a uint64 array, in place; ``scratch`` is a
    uint64 array of z's shape whose contents are overwritten."""
    z += _GOLDEN
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _base_state(seed: int, path_index) -> np.ndarray:
    """base(seed, i) for every i, with i's shape; one mix over [s, i * G]."""
    i = np.asarray(path_index, dtype=np.uint64)
    z = np.empty(i.size + 1, dtype=np.uint64)
    z[0] = int(seed) & _MASK
    np.multiply(i.reshape(-1), _GOLDEN, out=z[1:])
    _mix64(z, np.empty_like(z))
    state = z[1:]
    state ^= z[0]
    return state.reshape(i.shape)


class PathKeys:
    """``base(seed, i)`` of a set of path indices, computed once.

    Pass it to ``uniforms`` in place of the path indices to draw any lane
    without repeating the per-path mix.  Indexing (``keys[rows]``,
    ``keys[:, None]``) and ``repeat`` select keys like the index array
    they came from.
    """

    __slots__ = ("seed", "state")

    def __init__(self, seed: int, state: np.ndarray):
        self.seed = int(seed) & _MASK
        self.state = state

    @classmethod
    def of(cls, seed: int, path_index) -> "PathKeys":
        return cls(seed, _base_state(seed, path_index))

    def __getitem__(self, item) -> "PathKeys":
        return PathKeys(self.seed, self.state[item])

    def repeat(self, counts) -> "PathKeys":
        return PathKeys(self.seed, np.repeat(self.state, counts))


def uniforms(seed: int, path_index, lane: int, draw_index) -> np.ndarray:
    """Uniform(0,1) values for (seed, path, lane, draw) tuples.

    ``path_index`` (path indices, or the ``PathKeys`` of seed ``seed``)
    and ``draw_index`` broadcast against each other, so a single call can
    fill a whole batch.
    """
    if isinstance(path_index, PathKeys):
        if path_index.seed != int(seed) & _MASK:
            raise ValueError("path keys were computed under another seed")
        base = path_index.state
    else:
        base = _base_state(seed, path_index)
    base, draw = np.broadcast_arrays(base, np.asarray(draw_index))
    out = np.empty(base.shape)
    base, draw, rows = np.atleast_1d(base, draw, out)  # rows: a view of out
    # mix block by block along the first axis, so that the state and its
    # scratch stay in cache through the chain's passes
    n = len(rows)
    step = max(1, _CACHE_BLOCK // max(1, math.prod(rows.shape[1:])))
    state = np.empty((min(step, n),) + rows.shape[1:], dtype=np.uint64)
    scratch = np.empty_like(state)
    lane_bits = np.uint64(lane) << _LANE_SHIFT
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        z, tmp = state[:hi - lo], scratch[:hi - lo]
        np.copyto(z, draw[lo:hi], casting="unsafe")  # the counter c of the contract
        z |= lane_bits
        z *= _GOLDEN
        z += base[lo:hi]
        _mix64(z, tmp)
        _bits_to_unit(z, out=rows[lo:hi])
    return out


def _bits_to_unit(bits: np.ndarray, out=None) -> np.ndarray:
    """Top 53 bits -> (0, 1), offset by half an ulp so 0.0 never occurs.

    All 53 bits set would round up to 1.0; that one value is clamped to
    the largest double below 1.  ``bits`` is shifted in place; ``out``,
    a float64 array of its shape, receives the result.
    """
    bits >>= np.uint64(11)
    u = np.add(bits, 0.5, out=np.empty(bits.shape) if out is None else out)
    u *= 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


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
