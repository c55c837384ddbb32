import math

import numpy as np

from cmpplab.rng import (LANE_ARRIVAL, LANE_CLAIM, LANE_MISC, RngStream, _bits_to_unit,
                         uniforms)


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
