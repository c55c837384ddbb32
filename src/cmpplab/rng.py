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


def _finalize(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array, in place: mix(z) of the
    contract is _finalize(z + G).  ``scratch`` is a uint64 array of z's
    shape whose contents are overwritten."""
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
    z += _GOLDEN
    _finalize(z, np.empty_like(z))
    state = z[1:]
    state ^= z[0]
    return state.reshape(i.shape)


class PathKeys:
    """``base(seed, i)`` of a set of path indices, computed once.

    Pass it to ``uniforms`` in place of the path indices to draw any lane
    without repeating the per-path mix.  Indexing (``keys[rows]``,
    ``keys[:, None]``) selects keys like the index array they came from.
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


def uniforms(seed: int, path_index, lane: int, draw_index, out=None) -> np.ndarray:
    """Uniform(0,1) values for (seed, path, lane, draw) tuples.

    ``path_index`` (path indices, or the ``PathKeys`` of seed ``seed``)
    and ``draw_index`` broadcast against each other, so a single call can
    fill a whole batch.  ``path_index`` may instead be a list of rows of
    path indices or keys, and ``draw_index`` one draw index a row: row j's
    paths at draw index j, the rows one after another in a 1-D array.
    ``out``, a float64 array of the result's shape, receives the values if
    given.
    """
    counter = np.array(draw_index, dtype=np.uint64)  # c * G + G, once a draw index
    counter |= np.uint64(lane) << _LANE_SHIFT
    counter *= _GOLDEN
    counter += _GOLDEN
    if isinstance(path_index, list):
        rows = [_keys(seed, row) for row in path_index]
        shape = (sum(row.size for row in rows),)
    else:
        rows = _keys(seed, path_index)
        shape = np.broadcast_shapes(rows.shape, counter.shape)
    out = np.empty(shape) if out is None else out
    # the mix runs in place in out's bytes, block by block, so that a block
    # and its scratch stay in cache through the chain's passes
    dense = out if out.flags.c_contiguous else np.empty(shape)
    z = dense.view(np.uint64).reshape(-1)
    if isinstance(rows, list):
        lo = 0
        for row, c in zip(rows, counter):
            np.add(row, c, out=z[lo:lo + row.size])
            lo += row.size
    else:
        np.add(rows, counter, out=z.reshape(shape))
    scratch = np.empty(min(z.size, _CACHE_BLOCK), dtype=np.uint64)
    for lo in range(0, z.size, _CACHE_BLOCK):
        block = z[lo:lo + _CACHE_BLOCK]
        _finalize(block, scratch[:block.size])
        _bits_to_unit(block, out=dense.reshape(-1)[lo:lo + _CACHE_BLOCK])
    if dense is not out:
        out[...] = dense
    return out


def _keys(seed: int, path_index) -> np.ndarray:
    """base(seed, i) of path indices, or the state of their ``PathKeys``."""
    if isinstance(path_index, PathKeys):
        if path_index.seed != int(seed) & _MASK:
            raise ValueError("path keys were computed under another seed")
        return path_index.state
    return _base_state(seed, path_index)


def _bits_to_unit(bits: np.ndarray, out=None) -> np.ndarray:
    """Top 53 bits -> (0, 1), offset by half an ulp so 0.0 never occurs.

    All 53 bits set would round up to 1.0; that one value is clamped to
    the largest double below 1.  ``bits`` is shifted in place; ``out``,
    a float64 array of its shape, receives the result.
    """
    bits >>= np.uint64(11)
    u = np.empty(bits.shape) if out is None else out
    np.copyto(u, bits.view(np.int64), casting="unsafe")  # exact: bits < 2^53
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)
