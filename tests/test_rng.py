import math

import numpy as np
import pytest

from cmpplab.rng import (LANE_ARRIVAL, LANE_CLAIM, LANE_MISC, PathKeys, RngStream,
                         _bits_to_unit, uniforms)

# ---------------------------------------------------------------------------
# the mixing contract of the rng module docstring, on Python ints

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix(z):
    z = (z + GOLDEN) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def ref_uniform(seed, i, lane, k):
    base = ref_mix(seed & M64) ^ ref_mix((i * GOLDEN) & M64)
    bits = ref_mix((base + ((lane << 32) | k) * GOLDEN) & M64)
    return min(((bits >> 11) + 0.5) * 2.0**-53, math.nextafter(1.0, 0.0))


SEEDS = [0, 7, 20190521, (1 << 63) - 1, 1 << 63, (1 << 63) + 12345, M64, -1, -20190521]
# plain indices, the family stride (k * 2^40) of sim, and indices near 2^64
PATHS = [0, 1, 5, 1 << 40, 3 * (1 << 40) + 17, (1 << 63) + 1, M64 - (1 << 40), M64 - 1, M64]
DRAWS = [0, 1, 15, 1 << 31, (1 << 32) - 2, (1 << 32) - 1]


def reference_table(seed, lane, paths=PATHS, draws=DRAWS):
    return np.array([[ref_uniform(seed, i, lane, k) for k in draws] for i in paths])


@pytest.mark.parametrize("lane", [LANE_MISC, LANE_ARRIVAL, LANE_CLAIM])
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_match_reference_contract(seed, lane):
    paths = np.array(PATHS, dtype=np.uint64)
    draws = np.array(DRAWS, dtype=np.uint64)
    expected = reference_table(seed, lane)
    # broadcast (n, 1) x (w,)
    got = uniforms(seed, paths[:, None], lane, draws)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # one draw of every path, and every draw of one path
    assert uniforms(seed, paths, lane, DRAWS[3]).tobytes() == expected[:, 3].tobytes()
    assert uniforms(seed, PATHS[4], lane, draws).tobytes() == expected[4].tobytes()


@pytest.mark.parametrize("seed", [3, 1 << 63, -5])
def test_scalar_and_zero_d_inputs_match_reference(seed):
    i, k = 3 * (1 << 40) + 2, (1 << 32) - 1
    expected = ref_uniform(seed, i, LANE_CLAIM, k)
    for path, draw in [(i, k), (np.uint64(i), np.uint64(k)),
                       (np.array(i, dtype=np.uint64), np.array(k, dtype=np.uint64))]:
        got = uniforms(seed, path, LANE_CLAIM, draw)
        assert got.shape == ()
        assert float(got) == expected
    keys = PathKeys.of(seed, np.array(i, dtype=np.uint64))
    assert float(uniforms(seed, keys, LANE_CLAIM, k)) == expected


@pytest.mark.parametrize("seed", [11, (1 << 63) + 3, -2])
def test_path_keys_reused_across_lanes_match_reference(seed):
    paths = np.array(PATHS, dtype=np.uint64)
    keys = PathKeys.of(seed, paths)
    for lane in (LANE_MISC, LANE_ARRIVAL, LANE_CLAIM):
        expected = reference_table(seed, lane)
        assert uniforms(seed, keys[:, None], lane, np.array(DRAWS)).tobytes() \
            == expected.tobytes()
        assert uniforms(seed, keys, lane, DRAWS[1]).tobytes() == expected[:, 1].tobytes()
    # a ragged lane: path j draws 0..counts[j]-1, as sim draws claims
    counts = np.array([2, 0, 3, 1, 0, 0, 4, 1, 2])
    draws = np.concatenate([np.arange(c) for c in counts])
    expected = [ref_uniform(seed, i, LANE_CLAIM, k)
                for i, c in zip(PATHS, counts) for k in range(c)]
    got = uniforms(seed, keys.repeat(counts), LANE_CLAIM, draws)
    assert got.tobytes() == np.array(expected).tobytes()
    # selecting keys selects the same paths
    rows = np.array([8, 2, 2, 0])
    assert uniforms(seed, keys[rows], LANE_ARRIVAL, 9).tobytes() \
        == uniforms(seed, paths[rows], LANE_ARRIVAL, 9).tobytes()


def test_path_keys_refuse_another_seed():
    keys = PathKeys.of(5, np.arange(3, dtype=np.uint64))
    assert float(uniforms(5 + (1 << 64), keys[1], LANE_MISC, 0)) == ref_uniform(5, 1, 0, 0)
    with pytest.raises(ValueError, match="another seed"):
        uniforms(6, keys, LANE_MISC, 0)


def test_uniforms_leave_their_inputs_alone():
    paths = np.arange(1000, dtype=np.uint64)
    draws = np.arange(1000, dtype=np.int64)
    keys = PathKeys.of(9, paths)
    state = keys.state.copy()
    first = uniforms(9, paths, LANE_CLAIM, draws)
    assert uniforms(9, keys, LANE_CLAIM, draws).tobytes() == first.tobytes()
    assert np.array_equal(paths, np.arange(1000)) and np.array_equal(draws, np.arange(1000))
    assert np.array_equal(keys.state, state)


def test_uniforms_across_cache_blocks_match_reference():
    """More values than one mixing block, in both layouts sim uses."""
    n = 70_001
    flat = uniforms(13, 7, LANE_CLAIM, np.arange(n))
    assert flat.shape == (n,)
    for k in (0, 65_535, 65_536, n - 1):
        assert flat[k] == ref_uniform(13, 7, LANE_CLAIM, k)
    wide = uniforms(13, np.arange(5000)[:, None], LANE_ARRIVAL, np.arange(16))
    for i, k in ((0, 0), (4095, 15), (4096, 0), (4999, 7)):
        assert wide[i, k] == ref_uniform(13, i, LANE_ARRIVAL, k)
    assert uniforms(13, np.arange(0), LANE_MISC, 0).shape == (0,)
    assert uniforms(13, np.arange(3)[:, None], LANE_MISC, np.arange(0)).shape == (3, 0)


def test_scalar_stream_matches_batch():
    s = RngStream(42, 3)
    seq = np.array([s.next_uniform(LANE_ARRIVAL) for _ in range(8)])
    batch = uniforms(42, 3, LANE_ARRIVAL, np.arange(8))
    assert np.array_equal(seq, batch)


def test_pure_function_of_coordinates():
    a = uniforms(7, np.arange(1000), LANE_CLAIM, 5)
    b = uniforms(7, np.arange(1000), LANE_CLAIM, 5)
    assert np.array_equal(a, b)


def test_values_in_open_unit_interval():
    u = uniforms(1, np.arange(200_000), LANE_MISC, 0)
    assert u.min() > 0.0 and u.max() < 1.0


def test_bits_to_unit_stays_inside_open_interval():
    bits = np.array([0, 1 << 11, (1 << 64) - (1 << 11), (1 << 64) - 1], dtype=np.uint64)
    u = _bits_to_unit(bits)
    assert u[0] == 2.0**-54 and u[1] == 3 * 2.0**-54
    # all 53 top bits set: (2^53 - 1) + 0.5 rounds to 2^53, clamped below 1
    assert u[3] == np.nextafter(1.0, 0.0) and u[2] == u[3]
    assert (u > 0.0).all() and (u < 1.0).all()
    # every other value keeps its bits
    rest = np.array([12345 << 11, (1 << 63) + (7 << 11), (1 << 64) - (2 << 11)], dtype=np.uint64)
    expected = ((rest >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert _bits_to_unit(rest).tobytes() == expected.tobytes()


def test_uniform_moments():
    u = uniforms(11, np.arange(400_000), LANE_MISC, 0)
    n = len(u)
    # 4 standard errors around 1/2 and 1/12
    assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * 0.0745 / math.sqrt(n)


def test_lanes_seeds_and_draws_decorrelated():
    idx = np.arange(200_000)
    a = uniforms(7, idx, LANE_ARRIVAL, 0)
    assert abs(np.corrcoef(a, uniforms(7, idx, LANE_ARRIVAL, 1))[0, 1]) < 0.01
    assert abs(np.corrcoef(a, uniforms(7, idx, LANE_CLAIM, 0))[0, 1]) < 0.01
    assert abs(np.corrcoef(a, uniforms(8, idx, LANE_ARRIVAL, 0))[0, 1]) < 0.01


def test_different_paths_differ():
    u = uniforms(3, np.arange(10_000), LANE_MISC, 0)
    assert len(np.unique(u)) == len(u)


def test_stream_cursor_per_lane():
    s = RngStream(5, 0)
    u1 = s.next_uniform(LANE_ARRIVAL)
    u2 = s.next_uniform(LANE_CLAIM)
    u3 = s.next_uniform(LANE_ARRIVAL)
    assert u1 == float(uniforms(5, 0, LANE_ARRIVAL, 0))
    assert u2 == float(uniforms(5, 0, LANE_CLAIM, 0))
    assert u3 == float(uniforms(5, 0, LANE_ARRIVAL, 1))
