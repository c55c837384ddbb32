import io
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import cmpplab.verify
from cmpplab import sim
from cmpplab.cli import main
from cmpplab.dist import Beta, Degenerate, DistError, Exponential, Gamma, Tilted, expectation
from cmpplab.expr import DomainError, RealFn, parse
from cmpplab.model import (BaseModel, derive_q_model, identity_change,
                           measure_change, validate_change)
from cmpplab.rng import LANE_ARRIVAL, LANE_CLAIM, LANE_MISC, uniforms
from cmpplab.verify import Consumer, run_streams, singularity_probe
from cmpplab.sim import (_FAMILY_STRIDE, BASE_P, DERIVED_Q, OutOfHorizon, PathBatch,
                         SimulationError, conditional_p, conditional_q, dump_paths,
                         log_density_batch, simulate_batch)

SEED = 20190521


def one_path(theta, times, claims, horizon):
    """A hand-made path: a one-path batch."""
    n = len(times)
    return PathBatch(thetas=np.array([float(theta)]), counts=np.array([n], dtype=np.int64),
                     offsets=np.array([0, n], dtype=np.int64),
                     times=np.asarray(times, dtype=float),
                     claims=np.asarray(claims, dtype=float), horizon=horizon)


def member(batch, i):
    """Path i of a batch, copied out as a one-path batch."""
    lo, hi = batch.offsets[i], batch.offsets[i + 1]
    return one_path(batch.thetas[i], batch.times[lo:hi].copy(),
                    batch.claims[lo:hi].copy(), batch.horizon)


def assert_same_paths(a, b):
    for name in ("thetas", "counts", "offsets", "times", "claims"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.horizon == b.horizon


@pytest.fixture(scope="module")
def base62():
    return BaseModel(Exponential(0.2), Gamma(2.0, 2.0))


@pytest.fixture(scope="module")
def change62():
    return measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                          xi="(27/8)*theta^2*exp(-theta)")


@pytest.fixture(scope="module")
def derived62(base62, change62):
    return derive_q_model(validate_change(base62, change62, level=2))


# ---------------------------------------------------------------------------
# path values

def test_zero_horizon_empty_path(base62):
    p = simulate_batch(base62, None, BASE_P, 0.0, seed=1, n=1)
    assert len(p) == 1 and p.counts[0] == 0 and p.times.size == 0
    assert p.counts_at(0.0)[0] == 0
    assert p.aggregates_at(0.0)[0] == 0.0


def test_count_and_aggregate_by_hand():
    p = one_path(1.0, [0.3, 0.7], [2.0, 5.0], horizon=1.0)
    assert p.aggregates_at(0.5)[0] == 2.0
    assert p.aggregates_at(0.7)[0] == 7.0     # event exactly at t counts
    assert p.counts_at(0.7)[0] == 2
    assert p.counts_at(0.2)[0] == 0
    with pytest.raises(OutOfHorizon):
        p.counts_at(1.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4000),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_aggregate_nondecreasing(idx, t1, t2):
    base = BaseModel(Exponential(0.2), Gamma(2.0, 2.0))
    p = simulate_batch(base, None, BASE_P, 2.0, seed=7, n=1, start_index=idx)
    lo, hi = min(t1, t2), max(t1, t2)
    assert p.aggregates_at(lo)[0] <= p.aggregates_at(hi)[0]
    assert p.counts_at(lo)[0] <= p.counts_at(hi)[0]


# ---------------------------------------------------------------------------
# memoized path functionals

def sequential_sum(values):
    """+0, then each value added left to right: the last entry of
    ``np.cumsum`` from +0."""
    return np.cumsum(np.concatenate([[0.0], values]))[-1]


def reference_functionals(batch, t):
    """N_t and S_t of every path from its own segment of the flat arrays,
    S_t the sequential sum of its first N_t claims: the rounding every
    report depends on, and no other path's."""
    upto = batch.times <= t
    spans = list(zip(batch.offsets[:-1], batch.offsets[1:]))
    return (np.array([upto[lo:hi].sum() for lo, hi in spans]),
            np.array([sequential_sum(batch.claims[lo:hi][upto[lo:hi]]) for lo, hi in spans]))


def kept(batch):
    """The reads a batch holds a value of (see sim.PathBatch)."""
    return [read for read, _ in batch._kept]


def test_functionals_memoized_read_only_and_exact(base62, derived62):
    def batch():
        return simulate_batch(base62, derived62, DERIVED_Q, 2.0, seed=SEED, n=3000)

    b = batch()
    for t in (0.0, 0.37, 1.0, 2.0):
        counts, aggs = b.counts_at(t), b.aggregates_at(t)
        assert b.counts_at(t) is counts and b.aggregates_at(t) is aggs
        assert not counts.flags.writeable and not aggs.flags.writeable
        with pytest.raises(ValueError):
            aggs[0] = 1.0
        fresh = batch()
        assert counts.dtype == np.int64
        assert counts.tobytes() == fresh.counts_at(t).tobytes()
        assert aggs.tobytes() == fresh.aggregates_at(t).tobytes()
        ref_counts, ref_aggs = reference_functionals(fresh, t)
        assert counts.tobytes() == ref_counts.astype(np.int64).tobytes()
        assert aggs.tobytes() == ref_aggs.tobytes()
    # at the horizon N_t is the event count, and the batch's counts stay writable
    assert np.array_equal(b.counts_at(2.0), b.counts)
    assert b.counts.flags.writeable
    with pytest.raises(OutOfHorizon):
        b.aggregates_at(2.5)


# ---------------------------------------------------------------------------
# N counted at declared times

@pytest.fixture(params=["short", "long"])
def declared_case(request, base62, derived62):
    """(simulate_batch arguments, its times drawn afresh, declared times):
    paths of a few events, most inside their first block, or of about 80
    events over several blocks.  The declared times include 0, an event
    time, the doubles either side of it and the horizon."""
    tag = DERIVED_Q if request.param == "short" else conditional_p(40.0)
    args = (base62, derived62, tag, 2.0, SEED)
    times = simulate_batch(*args, n=3000).times
    hit = float(times[times.size // 2])
    return args, times, [0.0, hit, np.nextafter(hit, 0.0), np.nextafter(hit, 3.0), 0.37,
                         1.0, 2.0]


@pytest.fixture
def span(declared_case):
    """simulate_batch keywords for 600 paths of the declared case, around
    the path whose event is the declared time ``hit``: few enough to run a
    path a row block."""
    args, times, _ = declared_case
    offsets = simulate_batch(*args, n=3000).offsets
    path = int(np.searchsorted(offsets, times.size // 2, side="right")) - 1
    return {"n": 600, "start_index": min(max(path - 300, 0), 2400)}


def test_counts_at_declared_times_equal_the_drawn_times(declared_case):
    args, times, ts = declared_case
    b = simulate_batch(*args, n=3000, reads=ts)
    # counted with the paths: nothing read yet, no time drawn
    assert kept(b) == [("N", t) for t in [2.0, *ts[:-1]]]
    spans = list(zip(b.offsets[:-1], b.offsets[1:]))
    for t in ts:
        upto = times <= t
        want = np.array([upto[lo:hi].sum() for lo, hi in spans], dtype=np.int64)
        assert b.counts_at(t).tobytes() == want.tobytes(), t
    assert ("times",) not in kept(b)
    hit, below, above = ts[1:4]
    # the event at hit counts at hit and above, and not one double below
    assert (b.counts_at(hit) - b.counts_at(below)).sum() >= 1
    assert np.array_equal(b.counts_at(hit), b.counts_at(above))
    assert not b.counts_at(0.0).any()
    for i in (0, 1, 77, 1500, 2999):
        solo = simulate_batch(*args, n=1, start_index=i, reads=ts)
        assert [solo.counts_at(t)[0] for t in ts] == [b.counts_at(t)[i] for t in ts]


def test_sums_at_declared_times_equal_eager_reference(declared_case, change62):
    args, _, ts = declared_case
    b = simulate_batch(*args, n=3000, reads=ts)
    ref = simulate_batch(*args, n=3000)  # eager arrays, from its times drawn again
    for t in ts:
        aggs = reference_functionals(ref, t)[1]
        assert b.aggregates_at(t).tobytes() == aggs.tobytes(), t
        gammas = per_claim_sums(ref, t, change62.gamma)
        assert b.claim_prefix_apply(t, change62.gamma).tobytes() == gammas.tobytes(), t
    assert ("times",) not in kept(b)


def evaluated(monkeypatch, fn):
    """The sizes of the arrays fn, or a function equal to it, is evaluated on."""
    sizes, evaluate = [], RealFn.eval_array

    def recorded(self, xs):
        if self == fn:
            sizes.append(np.size(xs))
        return evaluate(self, xs)

    monkeypatch.setattr(RealFn, "eval_array", recorded)
    return sizes


@pytest.fixture
def lane_draws(monkeypatch):
    """lane -> the sizes of the sim.uniforms calls on that lane."""
    sizes = {LANE_ARRIVAL: [], LANE_CLAIM: [], LANE_MISC: []}

    def counted(seed, keys, lane, draw, **kwargs):
        u = uniforms(seed, keys, lane, draw, **kwargs)
        sizes[lane].append(u.size)
        return u

    monkeypatch.setattr(sim, "uniforms", counted)
    return sizes


@pytest.mark.parametrize("row_block", [1 << 16, 25, 1])
@pytest.mark.parametrize("last", ["horizon", "inside"])
def test_declared_sums_equal_eager_claim_sums(declared_case, span, change62, monkeypatch,
                                             lane_draws, row_block, last):
    # declared sums are filled by the arrival loop, row block by row block,
    # whether the latest declared time is the horizon or inside it: each the
    # sequential sum of a path's values to t.  The loop draws one claim-lane
    # uniform an event, fewer than the arrival lane's, and fn sees each claim
    # once
    args, _, ts = declared_case
    ref = simulate_batch(*args, **span)  # eager arrays, each drawn by a rerun
    assert ref.times.size and ref.claims.size
    read = ts if last == "horizon" else [t for t in ts if t <= 1.0]
    gamma = change62.gamma
    want = [(reference_functionals(ref, t)[1].tobytes(), per_claim_sums(ref, t, gamma).tobytes())
            for t in read]
    monkeypatch.setattr(sim, "_ROW_BLOCK", row_block)
    seen = evaluated(monkeypatch, gamma)
    for lane in lane_draws.values():
        lane.clear()
    b = simulate_batch(*args, **span, reads=ts, sums=[(t, f) for t in read for f in (None, gamma)])
    assert sum(seen) == b.counts.sum() == ref.claims.size
    assert sum(lane_draws[LANE_CLAIM]) == b.counts.sum() < sum(lane_draws[LANE_ARRIVAL])
    assert [(b.aggregates_at(t).tobytes(), b.claim_prefix_apply(t, gamma).tobytes())
            for t in read] == want
    # no rerun, and no flat array
    assert sum(seen) == b.counts.sum() and ("times",) not in kept(b) and ("claims",) not in kept(b)
    assert b.claim_prefix_apply(read[1], gamma) is b.claim_prefix_apply(read[1], gamma)
    assert not b.claim_prefix_apply(read[1], gamma).flags.writeable


@pytest.mark.parametrize("row_block", [25, 1000])
def test_undeclared_sums_draw_no_claim_array(declared_case, span, change62, monkeypatch,
                                             row_block):
    # a sum not declared reruns the arrival loop with that sum declared, and
    # draws no claim array: byte for byte the declared sum.  Equal declared
    # sums, here two equal gamma objects, are kept once
    args, _, ts = declared_case
    gamma = change62.gamma
    declared = simulate_batch(*args, **span, reads=ts,
                              sums=[(t, f) for t in ts for f in (None, gamma, replace(gamma))])
    assert [r for r in kept(declared) if r[0] == "S"] == \
        [("S", t, f) for t in ts for f in (None, gamma)]
    want = [(declared.aggregates_at(t).tobytes(), declared.claim_prefix_apply(t, gamma).tobytes())
            for t in ts]
    monkeypatch.setattr(sim, "_ROW_BLOCK", row_block)
    b = simulate_batch(*args, **span, reads=ts)
    assert [(b.aggregates_at(t).tobytes(), b.claim_prefix_apply(t, gamma).tobytes())
            for t in ts] == want
    assert ("claims",) not in kept(b)


@pytest.mark.parametrize("tag", [BASE_P, DERIVED_Q])
def test_sums_at_t_do_not_depend_on_the_horizon(base62, derived62, change62, tag):
    # S_t and a gamma sum at t are the sequential sums of a path's first N_t
    # values: bit for bit the same on a stream to t, 5t or 25t, with or
    # without other declared sums, declared or read undeclared
    t, gamma, other = 0.8, change62.gamma, parse("ln(1+x)", "x")

    def sums(horizon, extra=(), declared=True):
        b = simulate_batch(base62, derived62, tag, horizon, SEED, n=2000, reads=[t],
                           sums=[(t, None), (t, gamma), *extra] if declared else ())
        return [a.tobytes() for a in (b.counts_at(t), b.aggregates_at(t),
                                      b.claim_prefix_apply(t, gamma))]

    alone = sums(t)
    for horizon in (t, 5 * t, 25 * t):
        assert sums(horizon) == alone, horizon
        assert sums(horizon, [(horizon, None), (horizon / 2, other), (horizon, gamma)]) == alone
        assert sums(horizon, declared=False) == alone, horizon


@pytest.mark.parametrize("row_block", [1, 3, 7])
def test_row_blocks_change_no_bit(declared_case, span, monkeypatch, row_block):
    # the arrival loop runs over blocks of sim._ROW_BLOCK paths; a path's
    # draws depend on its own draw count only, so no block changes a bit
    args, _, ts = declared_case

    def paths():
        b = simulate_batch(*args, **span, reads=ts)
        return [b.counts.tobytes(), *(b.counts_at(t).tobytes() for t in ts), b.times.tobytes()]

    cpus = sim._cpus
    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    monkeypatch.setattr(sim, "_ROW_BLOCK", 1 << 20)
    one_block = paths()
    monkeypatch.setattr(sim, "_cpus", cpus)
    monkeypatch.setattr(sim, "_ROW_BLOCK", row_block)
    assert paths() == one_block


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_count_changes_no_bit(declared_case, change62, monkeypatch, workers):
    # row blocks run on up to sim._cpus() worker threads; each writes its own
    # rows only, so the thread count, more threads than CPUs included,
    # changes no bit
    args, _, ts = declared_case
    gamma, undeclared = change62.gamma, parse("ln(1+x)", "x")
    monkeypatch.setattr(sim, "_ROW_BLOCK", 256)

    def paths():
        b = simulate_batch(*args, n=3000, reads=ts, sums=[(t, f) for t in ts for f in (None, gamma)])
        assert len(b) > 2 * sim._ROW_BLOCK
        return [a.tobytes() for a in (
            b.counts, *(b.counts_at(t) for t in ts), *(b.aggregates_at(t) for t in ts),
            *(b.claim_prefix_apply(t, gamma) for t in ts), log_density_batch(b, 1.0, change62),
            b.claim_prefix_apply(0.37, undeclared), b.times, b.claims)]

    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    serial = paths()
    monkeypatch.setattr(sim, "_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave as often as they can
    try:
        assert paths() == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def row_blocks(monkeypatch):
    """The row arrays of the arrival loop's items, one list a _spread call,
    in the order they were handed to it."""
    calls, spread = [], sim._spread

    def recorded(fn, items):
        calls.append([item[-1].copy() for item in items])
        return spread(fn, items)

    monkeypatch.setattr(sim, "_spread", recorded)
    return calls


def test_row_blocks_run_heaviest_first(base62, derived62, monkeypatch, row_blocks):
    # the arrival loop orders a batch's paths by expected event count,
    # rate * horizon, most first and ties in path order, and cuts its row
    # blocks from that order; a batch of at most _ROW_BLOCK paths is one
    # item, whatever the CPUs
    monkeypatch.setattr(sim, "_ROW_BLOCK", 256)
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    b = simulate_batch(base62, derived62, DERIVED_Q, 20.0, SEED, n=3000)
    blocks, = row_blocks
    assert [r.size for r in blocks] == [256] * 11 + [184]
    order = np.concatenate(blocks)
    assert np.array_equal(np.sort(order), np.arange(3000))
    load = sim.stream_law(DERIVED_Q, base62, derived62)[1].eval_array(b.thetas) * 20.0
    assert load.max() > 10 * load.min()
    # the sort key rounds the load to 11 significant bits
    for before, after in zip(blocks, blocks[1:]):
        assert load[after].max() <= load[before].min() * (1 + 2 ** -10)

    row_blocks.clear()
    simulate_batch(base62, derived62, DERIVED_Q, 20.0, SEED, n=256)
    assert [r.size for r in row_blocks[0]] == [256]
    # equal rates keep path order: block b holds paths 256 b, ..., 256 b + 255
    row_blocks.clear()
    simulate_batch(base62, None, conditional_p(40.0), 2.0, SEED, n=600)
    assert [r.tolist() for r in row_blocks[0]] == \
        [list(range(lo, min(lo + 256, 600))) for lo in range(0, 600, 256)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_heaviest_first_blocks_change_no_bit(base62, derived62, change62, monkeypatch,
                                             row_blocks, workers):
    # gamma-mixed paths of a few to over a hundred events, in reordered row
    # blocks of 256 over many steps, on 1-3 workers: every read is the
    # one-block serial batch's, byte for byte
    ts, gamma = (0.5, 7.0, 20.0), change62.gamma

    def paths():
        b = simulate_batch(base62, derived62, DERIVED_Q, 20.0, SEED, n=1000, reads=ts,
                           sums=[(t, f) for t in ts for f in (None, gamma)])
        return [a.tobytes() for a in (
            b.counts, *(b.counts_at(t) for t in ts), *(b.aggregates_at(t) for t in ts),
            *(b.claim_prefix_apply(t, gamma) for t in ts), b.times, b.claims)], b.counts

    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    serial, counts = paths()
    assert counts.min() < 4 and counts.max() > 100
    assert [len(call) for call in row_blocks] == [1, 1, 1]
    row_blocks.clear()
    monkeypatch.setattr(sim, "_ROW_BLOCK", 256)
    monkeypatch.setattr(sim, "_cpus", lambda: workers)
    assert paths()[0] == serial
    blocks = row_blocks[0]
    assert len(blocks) == 4 and not np.array_equal(np.concatenate(blocks), np.arange(1000))


def test_a_claim_law_table_is_built_once_across_threads(base62, monkeypatch):
    # the row-block threads make a fresh Gamma claim law's first draws
    # together: its table is built once
    law, builds, build = Gamma(0.2, 2.0), [], Gamma._build_table

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(Gamma, "_build_table", counted)
    monkeypatch.setattr(sim, "_cpus", lambda: 3)
    monkeypatch.setattr(sim, "_ROW_BLOCK", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave as often as they can
    try:
        simulate_batch(BaseModel(law, base62.mixing_law), None, BASE_P, 2.0, SEED, n=3000,
                       sums=[(2.0, None)])
    finally:
        sys.setswitchinterval(interval)
    assert [b for b in builds if b is law] == [law]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spread_raises_the_first_failing_item_in_order(monkeypatch, workers):
    # items 0 and 1 fail, item 1 first when threads run them together: the
    # error raised is item 0's, as the serial loop raises it, and no item
    # starts once one failed
    monkeypatch.setattr(sim, "_cpus", lambda: workers)
    ran = []

    def item(i, delay):
        time.sleep(delay)
        ran.append(i)
        if i < 2:
            raise ValueError(i)

    with pytest.raises(ValueError) as info:
        sim._spread(item, [(0, 0.1), (1, 0.0), (2, 0.05), (3, 0.0)])
    assert info.value.args == (0,)
    assert 0 in ran and 3 not in ran


@pytest.mark.parametrize("workers, items, made", [(1, 4, 0), (3, 1, 0), (3, 0, 0), (2, 4, 1)])
def test_spread_runs_inline_with_one_worker(monkeypatch, workers, items, made):
    # one worker, one item or none: the calling thread runs the items in
    # order and no thread is made
    monkeypatch.setattr(sim, "_cpus", lambda: workers)
    threads = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            threads.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Recorded)
    ran = []
    sim._spread(lambda i: ran.append(i), [(i,) for i in range(items)])
    assert len(threads) == made and sorted(ran) == list(range(items))
    if not made:
        assert ran == list(range(items))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_a_run_on_one_cpu_writes_the_golden_report(tmp_path, monkeypatch):
    # example-6.2 in a child pinned to one CPU (one worker), and here (a
    # worker a CPU), both in small row blocks, write the golden
    golden = (Path(__file__).parent / "golden" / "example-6.2.csv").read_bytes()
    code = ("import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from cmpplab import sim\n"
            "from cmpplab.cli import main\n"
            "sim._ROW_BLOCK = 1 << 8\n"
            "assert sim._cpus() == 1\n"
            "sys.exit(main(['run', 'example-6.2', '--paths', '2000', '--output', sys.argv[1]]))\n")
    out = tmp_path / "one-cpu.csv"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True)
    assert proc.returncode in (0, 1) and proc.stderr == "", proc.stderr
    assert out.read_bytes() == golden
    here = tmp_path / "here.csv"
    monkeypatch.setattr(sim, "_ROW_BLOCK", 1 << 8)
    assert main(["run", "example-6.2", "--paths", "2000", "--output", str(here)]) == \
        proc.returncode
    assert here.read_bytes() == golden


@pytest.mark.parametrize("t", [math.nan, -0.25, -math.inf, 2.5, math.inf])
def test_every_functional_refuses_a_time_outside_the_horizon(base62, change62, t):
    # NaN compares false both ways, so it must be refused, not read as "inside"
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=SEED, n=300)
    reads = (b.counts_at, b.aggregates_at, lambda t: b.claim_prefix_apply(t, change62.gamma),
             lambda t: b.claim_prefix_apply(t, parse("0", "x")))
    for read in reads:
        with pytest.raises(OutOfHorizon):
            read(t)
    assert kept(b) == [("N", 2.0)]


# ---------------------------------------------------------------------------
# stream laws

@pytest.mark.parametrize("tag", [BASE_P, DERIVED_Q, conditional_p(1.5), conditional_q(1.5)])
def test_stream_law_resolves_each_tag(base62, derived62, tag):
    base_side = (base62.mixing_law, base62.rate_fn, base62.claim_law)
    q_side = (derived62.q_mixing, derived62.g, derived62.q_claim)
    expected = {"base_p": base_side, "derived_q": q_side,
                "conditional_p": base_side, "conditional_q": q_side}[tag.kind]
    mixing, rate, claim = sim.stream_law(tag, base62, derived62)
    assert rate is expected[1] and claim is expected[2]
    if tag.kind.startswith("conditional"):
        assert mixing == Degenerate(1.5)
    else:
        assert mixing is expected[0]


@pytest.mark.parametrize("tag", [DERIVED_Q, conditional_q(1.5)])
def test_a_q_tag_without_a_derived_model_is_refused(base62, tag):
    message = re.escape(f"measure {tag} requires a derived model")
    with pytest.raises(ValueError, match=message):
        sim.stream_law(tag, base62, None)
    with pytest.raises(ValueError, match=message):
        simulate_batch(base62, None, tag, 1.0, seed=SEED, n=10)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan, None])
@pytest.mark.parametrize("kind", ["conditional_p", "conditional_q"])
def test_a_conditional_tag_needs_a_positive_finite_theta(kind, theta):
    # conditional_p(inf) was accepted and ran until a path hit the event cap
    with pytest.raises(ValueError, match="positive finite theta"):
        sim.MeasureTag(kind, theta)


def assert_same_stream(a, b, reads=(0.7, 2.0)):
    assert_same_paths(a, b)
    for t in reads:
        assert a.aggregates_at(t).tobytes() == b.aggregates_at(t).tobytes()


@pytest.mark.parametrize("theta", [0.4, 1.5])
def test_conditional_p_batch_equals_a_point_mass_mixing_batch(base62, theta):
    point = BaseModel(base62.claim_law, Degenerate(theta))
    args = (2.0, SEED, 700, 0, 3)
    fixed = simulate_batch(base62, None, conditional_p(theta), *args)
    assert (fixed.thetas == theta).all()
    assert_same_stream(fixed, simulate_batch(point, None, BASE_P, *args))


@pytest.mark.parametrize("theta", [0.4, 1.5])
def test_conditional_q_batch_equals_a_point_mass_q_mixing_batch(base62, derived62, theta):
    point = replace(derived62, q_mixing=Degenerate(theta))
    args = (2.0, SEED, 700, 0, 3)
    fixed = simulate_batch(base62, derived62, conditional_q(theta), *args)
    assert (fixed.thetas == theta).all()
    assert_same_stream(fixed, simulate_batch(base62, point, DERIVED_Q, *args))


# ---------------------------------------------------------------------------
# distributional checks

def test_conditional_counts_chi_square(base62):
    lam = 2.0
    b = simulate_batch(base62, None, conditional_p(lam), 1.0, seed=SEED, n=100_000)
    counts = b.counts_at(1.0)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), lam)
    pmf[-1] = 1.0 - pmf[:-1].sum()
    expected = pmf * len(counts)
    # pool tail bins so expected counts stay above 5
    while expected[-1] < 5.0 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = ((observed - expected) ** 2 / expected).sum()
    p_value = stats.chi2.sf(stat, df=len(expected) - 1)
    assert p_value > 0.001


def test_mixed_count_matches_quadrature_pmf(base62):
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=SEED, n=100_000)
    counts = b.counts_at(1.0)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    mixed = np.array([
        expectation(base62.mixing_law,
                    lambda th, k=k: np.exp(-th) * th**k / math.gamma(k + 1))
        for k in range(kmax + 1)])
    mixed[-1] = 1.0 - mixed[:-1].sum()
    expected = mixed * len(counts)
    while expected[-1] < 5.0 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = ((observed - expected) ** 2 / expected).sum()
    p_value = stats.chi2.sf(stat, df=len(expected) - 1)
    assert p_value > 0.001
    # closed form of the mixed law for this mixing: 4(k+1)/3^(k+2)
    for k in range(4):
        assert mixed[k] == pytest.approx(4.0 * (k + 1) / 3.0 ** (k + 2), rel=1e-9)


def test_base_aggregate_mean(base62):
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=SEED, n=100_000)
    s1 = b.aggregates_at(1.0)
    se = s1.std(ddof=1) / math.sqrt(len(s1))
    assert abs(s1.mean() - 5.0) <= 3.0 * se


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_wald_identity_all_tags(base62, derived62, t):
    tags = [
        (BASE_P, expectation(base62.mixing_law, lambda th: th) * 5.0),
        (DERIVED_Q, expectation(derived62.q_mixing, derived62.g)
         * derived62.q_claim.moment(1)),
        (conditional_p(1.3), 1.3 * 5.0),
        (conditional_q(1.3), derived62.g(1.3) * derived62.q_claim.moment(1)),
    ]
    for tag, rate_mean in tags:
        b = simulate_batch(base62, derived62, tag, t, seed=SEED + 1, n=60_000)
        s = b.aggregates_at(t)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - t * rate_mean) <= 4.0 * se, str(tag)


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_same_path(base62):
    a = simulate_batch(base62, None, BASE_P, 2.0, seed=313, n=1, start_index=5)
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=313, n=1, start_index=5)
    assert_same_paths(a, b)


def test_one_path_batch_equals_batch_member(base62, derived62):
    assert isinstance(derived62.q_claim, Gamma) and isinstance(derived62.q_mixing, Gamma)
    batch = simulate_batch(base62, derived62, DERIVED_Q, 1.5, seed=271, n=600)
    for i in (0, 1, 77, 599):
        solo = simulate_batch(base62, derived62, DERIVED_Q, 1.5, seed=271, n=1, start_index=i)
        assert_same_paths(solo, member(batch, i))


@pytest.fixture(scope="module")
def derived_tilted(base62):
    # no closure rule matches this change, so both Q laws are Tilted
    change = measure_change(alpha="ln(1+theta)", gamma="ln(1+x) - ln(6)",
                            xi="(1+theta)/2")
    derived = derive_q_model(validate_change(base62, change, level=2))
    assert isinstance(derived.q_claim, Tilted) and isinstance(derived.q_mixing, Tilted)
    return derived


def test_one_path_batch_equals_batch_member_tilted(base62, derived_tilted):
    batch = simulate_batch(base62, derived_tilted, DERIVED_Q, 2.0, seed=SEED, n=600)
    for i in (0, 1, 2, 77, 301, 599):
        solo = simulate_batch(base62, derived_tilted, DERIVED_Q, 2.0, seed=SEED, n=1,
                              start_index=i)
        assert_same_paths(solo, member(batch, i))


@pytest.mark.parametrize("split", [600, 990])
def test_batch_independent_of_chunking_tilted(base62, derived_tilted, split):
    args = (base62, derived_tilted, DERIVED_Q, 2.0)
    whole = simulate_batch(*args, seed=SEED, n=1000)
    first = simulate_batch(*args, seed=SEED, n=split)
    second = simulate_batch(*args, seed=SEED, n=1000 - split, start_index=split)
    assert np.array_equal(whole.thetas, np.concatenate([first.thetas, second.thetas]))
    assert np.array_equal(whole.times, np.concatenate([first.times, second.times]))
    assert np.array_equal(whole.claims, np.concatenate([first.claims, second.claims]))


def test_batch_independent_of_chunking(base62):
    whole = simulate_batch(base62, None, BASE_P, 1.0, seed=5, n=1000)
    first = simulate_batch(base62, None, BASE_P, 1.0, seed=5, n=600)
    second = simulate_batch(base62, None, BASE_P, 1.0, seed=5, n=400, start_index=600)
    assert np.array_equal(whole.times, np.concatenate([first.times, second.times]))
    assert np.array_equal(whole.thetas, np.concatenate([first.thetas, second.thetas]))


# ---------------------------------------------------------------------------
# claims and times on demand

def eager_paths(base, derived, tag, horizon, seed, n, start_index=0, family=0):
    """(times, claims) of simulate_batch's paths built eagerly from the rng
    contract: the fixed-block arrival loop, and the claim law's quantile
    of every event's claim-lane draw, indexed by path index."""
    batch = simulate_batch(base, derived, tag, horizon, seed, n, start_index, family)
    rate_fn = derived.g if tag.is_q_side else base.rate_fn
    times = fixed_block_times(batch, rate_fn.eval_array(batch.thetas), seed,
                              start_index, family)
    indices = np.arange(start_index, start_index + n, dtype=np.uint64) \
        + np.uint64(family * _FAMILY_STRIDE)
    counts = np.array([len(ts) for ts in times])
    draws = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
    law = derived.q_claim if tag.is_q_side else base.claim_law
    claims = law.quantile(uniforms(seed, np.repeat(indices, counts), LANE_CLAIM, draws))
    return (np.array([x for ts in times for x in ts], dtype=float),
            np.asarray(claims, dtype=float))


def dumped(batch):
    fh = io.StringIO()
    dump_paths(batch, fh)
    return fh.getvalue()


@pytest.fixture(scope="module")
def beta_claims():
    base = BaseModel(Beta(2.0, 3.0), Gamma(2.0, 2.0))
    assert isinstance(base.claim_law, Beta)
    return base


@pytest.mark.parametrize("row_block", [1 << 16, 25, 1])
@pytest.mark.parametrize("law", ["Exponential", "Gamma", "Beta", "Tilted"])
def test_deferred_claims_and_times_equal_eager(base62, derived62, derived_tilted,
                                               beta_claims, monkeypatch, law, row_block):
    # times and claims are each a rerun of the arrival loop, over row blocks
    # of sim._ROW_BLOCK paths: one block, short blocks, or a path a block
    base, derived, tag = {"Exponential": (base62, None, BASE_P),
                          "Gamma": (base62, derived62, DERIVED_Q),
                          "Beta": (beta_claims, None, BASE_P),
                          "Tilted": (base62, derived_tilted, DERIVED_Q)}[law]
    monkeypatch.setattr(sim, "_ROW_BLOCK", row_block)
    args = (base, derived, tag, 2.0, SEED)
    times, claims = eager_paths(*args, n=600, family=2)
    assert claims.size > 600
    assert type(derived.q_claim if tag.is_q_side else base.claim_law).__name__ == law

    # the whole batch, reading claims before times and the other way round
    claims_first = simulate_batch(*args, n=600, family=2)
    assert claims_first.claims.tobytes() == claims.tobytes()
    assert claims_first.times.tobytes() == times.tobytes()
    times_first = simulate_batch(*args, n=600, family=2)
    assert times_first.times.tobytes() == times.tobytes()
    assert times_first.claims.tobytes() == claims.tobytes()
    assert claims_first.claims is claims_first.claims  # memoized

    # one-path batches
    for i in (0, 1, 77, 599):
        solo = simulate_batch(*args, n=1, start_index=i, family=2)
        lo, hi = claims_first.offsets[i], claims_first.offsets[i + 1]
        assert solo.times.tobytes() == times[lo:hi].tobytes()
        assert solo.claims.tobytes() == claims[lo:hi].tobytes()

    # the dump of a deferred batch and of one built from the eager arrays
    eager = PathBatch(thetas=times_first.thetas, counts=times_first.counts,
                      offsets=times_first.offsets, times=times, claims=claims,
                      horizon=times_first.horizon)
    assert dumped(simulate_batch(*args, n=600, family=2)) == dumped(eager)


def test_deferred_draws_equal_eager_across_chunk_boundaries(base62, derived62, monkeypatch):
    # a stream fed in 250-path chunks, each chunk deferring its own draws
    times, claims = eager_paths(base62, derived62, DERIVED_Q, 2.0, SEED, n=600)
    monkeypatch.setattr(cmpplab.verify, "CHUNK", 250)
    seen = []
    consumer = Consumer((DERIVED_Q, SEED, 600, 0),
                        lambda b: seen.append((len(b), b.claims, b.times)), None, {2.0})
    run_streams(base62, derived62, [consumer])
    assert consumer.result() is None and [m for m, _, _ in seen] == [250, 250, 100]
    assert np.concatenate([c for _, c, _ in seen]).tobytes() == claims.tobytes()
    assert np.concatenate([t for _, _, t in seen]).tobytes() == times.tobytes()


def per_claim_sums(batch, t, fn):
    """The sequential sum of fn over each path's claims up to t."""
    upto, vals = batch.times <= t, fn.eval_array(batch.claims)
    return np.array([sequential_sum(vals[lo:hi][upto[lo:hi]])
                     for lo, hi in zip(batch.offsets[:-1], batch.offsets[1:])])


@pytest.fixture
def lanes_drawn(monkeypatch):
    """The lanes of every sim.uniforms call, in order."""
    lanes = []

    def counted(seed, paths, lane, draw, **kwargs):
        lanes.append(lane)
        return uniforms(seed, paths, lane, draw, **kwargs)

    monkeypatch.setattr(sim, "uniforms", counted)
    return lanes


def test_zero_gamma_singularity_draws_no_claim(lanes_drawn):
    # long-horizon's change: alpha = ln 2, gamma = 0, xi = 1
    base = BaseModel(Exponential(0.2), Gamma(2.0, 2.0))
    derived = derive_q_model(validate_change(base, measure_change(alpha="ln(2)"), level=1))
    for theta in (None, 0.84):
        rows = singularity_probe(derived, horizons=[20.0, 100.0], n=300, seed=SEED,
                                 theta_fixed=theta).run()
        assert len(rows) == 4
    assert LANE_ARRIVAL in lanes_drawn and LANE_CLAIM not in lanes_drawn


@pytest.mark.parametrize("t", [0.0, 0.9, 2.0])
def test_constant_zero_gamma_reads_no_claim(base62, lanes_drawn, t):
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=SEED, n=400)
    zeros = b.claim_prefix_apply(t, parse("0", "x"))
    assert LANE_CLAIM not in lanes_drawn
    assert zeros.tobytes() == per_claim_sums(b, t, parse("0", "x")).tobytes()
    assert LANE_CLAIM in lanes_drawn
    # a sum from +0 of -0 values is +0 too
    del lanes_drawn[:]
    assert b.claim_prefix_apply(t, parse("-0", "x")).tobytes() == zeros.tobytes()
    assert LANE_CLAIM not in lanes_drawn
    # every other constant keeps the per-claim sum and its rounding
    for src in ("0.5", "0.1"):
        fn = parse(src, "x")
        assert b.claim_prefix_apply(t, fn).tobytes() == per_claim_sums(b, t, fn).tobytes()
    if t > 0.0:
        assert (b.claim_prefix_apply(t, parse("0.1", "x")) != 0.1 * b.counts_at(t)).any()


@pytest.mark.parametrize("fails", [1, 1000])
def test_a_failed_claim_draw_is_not_kept(base62, monkeypatch, fails):
    monkeypatch.setattr(sim, "_cpus", lambda: 1)  # one draw a rerun fails
    calls = []

    class Refusing(Exponential):
        def quantile(self, p):  # raises on its first `fails` calls
            calls.append(np.size(p))
            if len(calls) <= fails:
                raise DistError("no claim today")
            return super().quantile(p)

    refusing = BaseModel(Refusing(0.2), base62.mixing_law)
    b = simulate_batch(refusing, None, BASE_P, 2.0, seed=SEED, n=300)
    assert b.counts_at(2.0).sum() > 0 and b.times.size and not calls
    with pytest.raises(DistError, match="no claim today"):
        b.aggregates_at(1.0)
    if fails > 1:  # the draw runs again on every read, and raises again
        for read in (lambda: b.claims, lambda: b.aggregates_at(1.0)):
            with pytest.raises(DistError, match="no claim today"):
                read()
        assert len(calls) == 3 and not {("S", 1.0, None), ("claims",)} & set(kept(b))
    else:  # no half-built value was kept: the next read draws every claim
        want = simulate_batch(base62, None, BASE_P, 2.0, seed=SEED, n=300)
        assert b.aggregates_at(1.0).tobytes() == want.aggregates_at(1.0).tobytes()
        # the undeclared sum's rerun kept no claim; `claims` reruns the loop
        drawn = len(calls)
        assert b.claims.tobytes() == want.claims.tobytes() and len(calls) == 2 * drawn - 1


# ---------------------------------------------------------------------------
# arrival accumulation against the fixed-block reference loop

def fixed_block_times(batch, rates, seed, start_index=0, family=0):
    """Event times per path by the plain loop of 16-draw blocks: event k of a
    block at (time of the last block) + cumsum(block)[k].  simulate_batch
    draws fewer uniforms but must round exactly like this."""
    n = len(batch)
    indices = np.arange(start_index, start_index + n, dtype=np.uint64) \
        + np.uint64(family * _FAMILY_STRIDE)
    times = [[] for _ in range(n)]
    last_time = np.zeros(n)
    drawn = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while batch.horizon > 0.0 and active.size:
        u = uniforms(seed, indices[active][:, None], LANE_ARRIVAL,
                     drawn[active][:, None] + np.arange(16)[None, :])
        w = -np.log(u) / rates[active][:, None]
        csum = last_time[active][:, None] + np.cumsum(w, axis=1)
        ok = csum <= batch.horizon
        for row, values, keep in zip(active, csum, ok):
            times[row].extend(values[keep])
        drawn[active] += 16
        full = ok.sum(axis=1) == 16
        last_time[active[full]] = csum[full, -1]
        active = active[full]
    return times


def assert_times_match_reference(batch, rates, seed, **kw):
    reference = fixed_block_times(batch, rates, seed, **kw)
    for i, expected in enumerate(reference):
        got = batch.times[batch.offsets[i]:batch.offsets[i + 1]]
        assert got.tobytes() == np.array(expected, dtype=float).tobytes()


def test_accumulation_matches_reference_across_blocks(base62):
    # rate 40 on [0, 2]: about 80 events, five or more blocks per path
    batch = simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)
    assert batch.counts.min() > 3 * 16
    assert_times_match_reference(batch, np.full(300, 40.0), SEED)


def test_event_cap_stops_a_runaway_path(base62, monkeypatch):
    batch = simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)
    most = int(batch.counts.max())
    monkeypatch.setattr(sim, "EVENT_CAP", most)
    again = simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)
    assert again.times.tobytes() == batch.times.tobytes()
    monkeypatch.setattr(sim, "EVENT_CAP", most - 1)
    with pytest.raises(SimulationError, match="event cap"):
        simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)


def test_event_cap_stops_a_runaway_path_in_a_later_row_block(base62, monkeypatch):
    batch = simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)
    most = int(batch.counts.max())
    monkeypatch.setattr(sim, "_ROW_BLOCK", 7)
    assert (batch.counts[:7] < most).all()  # the runaway paths run in later blocks
    monkeypatch.setattr(sim, "EVENT_CAP", most - 1)
    with pytest.raises(SimulationError, match="event cap"):
        simulate_batch(base62, None, conditional_p(40.0), 2.0, seed=SEED, n=300)


def test_accumulation_matches_reference_short_paths(base62):
    batch = simulate_batch(base62, None, BASE_P, 5.0, seed=SEED, n=2000)
    counts = batch.counts
    # paths that stop inside the first sub-block, in the second, and later
    assert (counts < 4).any() and ((counts >= 4) & (counts < 16)).any() \
        and (counts >= 16).any()
    assert_times_match_reference(batch, base62.rate_fn.eval_array(batch.thetas), SEED)


def test_accumulation_matches_reference_q_side_chunked(base62, derived62):
    assert isinstance(derived62.q_claim, Gamma)
    args = (base62, derived62, DERIVED_Q, 2.0)
    whole = simulate_batch(*args, seed=SEED, n=1000, family=3)
    first = simulate_batch(*args, seed=SEED, n=990, family=3)
    second = simulate_batch(*args, seed=SEED, n=10, start_index=990, family=3)
    assert whole.times.tobytes() == np.concatenate([first.times, second.times]).tobytes()
    assert whole.claims.tobytes() == np.concatenate([first.claims, second.claims]).tobytes()
    assert_times_match_reference(whole, derived62.g.eval_array(whole.thetas), SEED, family=3)
    assert_times_match_reference(second, derived62.g.eval_array(second.thetas), SEED,
                                 start_index=990, family=3)
    # path 995, in the second chunk of the split, alone
    solo = simulate_batch(*args, seed=SEED, n=1, start_index=995, family=3)
    assert_same_paths(solo, member(whole, 995))
    assert_same_paths(solo, member(second, 5))


# ---------------------------------------------------------------------------
# likelihood-ratio density

def test_identity_change_density_is_zero(base62):
    p = simulate_batch(base62, None, BASE_P, 2.0, seed=8, n=1, start_index=3)
    for t in (0.0, 0.5, 1.7, 2.0):
        assert log_density_batch(p, t, identity_change())[0] == 0.0


def test_empty_path_hand_value():
    p = one_path(2.0, [], [], horizon=1.0)
    change = measure_change(alpha="ln(2)", gamma="0", xi="1")
    # N_t = 0: 0*alpha + 0 - t*theta*(e^alpha - 1) = -1*2*(2-1)
    assert log_density_batch(p, 1.0, change)[0] == pytest.approx(-2.0, abs=1e-14)


def test_density_rejects_nonpositive_xi(base62):
    change = measure_change(xi="theta-1")
    p = one_path(0.5, [0.2], [3.0], horizon=1.0)
    with pytest.raises(DomainError):
        log_density_batch(p, 1.0, change)
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=5, n=200)
    assert (b.thetas < 1.0).any()
    with pytest.raises(DomainError):
        log_density_batch(b, 1.0, change)
    # the conditional density has no xi term
    assert np.isfinite(log_density_batch(b, 1.0, change, include_xi=False)).all()


def test_density_normalization(base62, change62, derived62):
    b = simulate_batch(base62, derived62, BASE_P, 1.0, seed=SEED, n=100_000)
    m = np.exp(log_density_batch(b, 1.0, change62))
    se = m.std(ddof=1) / math.sqrt(len(m))
    assert abs(m.mean() - 1.0) <= 3.0 * se


def test_density_batch_matches_scalar(base62, change62):
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=17, n=300)
    lb = log_density_batch(b, 1.3, change62)
    for i in range(0, 300, 29):
        solo = simulate_batch(base62, None, BASE_P, 2.0, seed=17, n=1, start_index=i)
        assert lb[i] == log_density_batch(solo, 1.3, change62)[0]


@pytest.mark.parametrize("t", [0.0, 0.7, 1.3, 2.0])
def test_path_functionals_are_exact_scalar_views(base62, derived62, change62, t):
    # a path's sums are taken over its own events only, so no rounding of
    # the paths before it reaches them
    b = simulate_batch(base62, derived62, DERIVED_Q, 2.0, seed=17, n=2000)
    counts, aggs = b.counts_at(t), b.aggregates_at(t)
    gammas = b.claim_prefix_apply(t, change62.gamma)
    assert counts.dtype == np.int64 and (counts[b.counts == 0] == 0).all()
    for i in range(len(b)):
        one = member(b, i)
        assert counts[i] == one.counts_at(t)[0]
        assert aggs[i] == one.aggregates_at(t)[0]
        assert gammas[i] == one.claim_prefix_apply(t, change62.gamma)[0]


@pytest.mark.parametrize("row_block", [25, 1])
def test_path_sums_in_runs_equal_one_run(base62, derived62, change62, monkeypatch, row_block):
    # N_t, S_t and claim sums are taken for runs of paths, the arrival loop's
    # row blocks of sim._ROW_BLOCK paths; each path's sum is its own,
    # whatever the blocks
    ts, gamma = (0.0, 0.7, 2.0), change62.gamma

    def sums():
        b = simulate_batch(base62, derived62, DERIVED_Q, 2.0, seed=17, n=2000, reads=ts,
                           sums=[(t, f) for t in ts for f in (None, gamma)])
        return [f.tobytes() for t in ts
                for f in (b.counts_at(t), b.aggregates_at(t), b.claim_prefix_apply(t, gamma))]

    cpus = sim._cpus
    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    one_run = sums()  # 2000 paths: one block of the default size
    monkeypatch.setattr(sim, "_cpus", cpus)
    monkeypatch.setattr(sim, "_ROW_BLOCK", row_block)
    assert sums() == one_run


def test_path_sums_allocate_no_batch_long_temporary(base62, monkeypatch):
    # beyond its result, an undeclared read (a rerun of the arrival loop)
    # takes memory for a row block of paths, 1-2 MB measured for these 2^10
    # paths, far less than one flat array (80 events a path, 10 MB)
    monkeypatch.setattr(sim, "_ROW_BLOCK", 1 << 10)
    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    b = simulate_batch(base62, None, BASE_P, 80.0, seed=SEED, n=1 << 14)
    flat = 8 * int(b.offsets[-1])
    assert flat > 8 << 20
    reads = (lambda: b.counts_at(7.5), lambda: b.aggregates_at(7.5),
             lambda: b.aggregates_at(80.0),
             lambda: b.claim_prefix_apply(7.5, parse("ln(1+x)", "x")))
    for read in reads:
        tracemalloc.start()
        try:
            out = read()
            extra = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert extra < flat / 4, extra


def test_a_stream_and_its_martingale_reads_hold_bounded_memory(monkeypatch):
    # long-horizon's Q stream (alpha = ln 2, exp claims) read by its V table,
    # at horizons T and 4T, small blocks, and no read reruns the loop.  The
    # tracemalloc peak is bounded by 200 bytes a path (the chunk's arrays of
    # its path count, and the consumer's values, indicators and increments:
    # about 100 measured) and 1024 bytes a path of a row block, a block for
    # each worker thread: the arrival loop's (16, rows) uniforms, claims,
    # masks and the three S_t sums' values, and the claims of its accepted
    # slots: 1024, about 520 measured.  Two workers' peaks may or may not
    # overlap, so the growth with the horizon is checked on one worker
    base = BaseModel(Exponential(0.2), Gamma(2.0, 2.0))
    derived = derive_q_model(validate_change(base, measure_change(alpha="ln(2)"), level=1))
    arrivals = sim._arrivals

    def no_rerun(*args, offsets=None):
        assert offsets is None, "a read reran the loop"
        return arrivals(*args)

    monkeypatch.setattr(sim, "_arrivals", no_rerun)
    monkeypatch.setattr(sim, "_ROW_BLOCK", 1 << 10)
    n = 1 << 14
    workers = sim._cpus()

    def bound(workers):
        return 200 * n + workers * 1024 * sim._ROW_BLOCK

    def peak(horizon):
        plan = cmpplab.verify.check_martingale(
            cmpplab.verify.process_v(derived), base, derived, DERIVED_Q,
            [(horizon / 4, horizon / 2), (horizon / 2, horizon)], n=n, seed=SEED)
        tracemalloc.start()
        try:
            assert plan.run().verdict in ("pass", "fail")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    spread = peak(80.0)
    assert spread < bound(workers), (spread, workers, bound(workers))
    monkeypatch.setattr(sim, "_cpus", lambda: 1)
    short, long = peak(20.0), peak(80.0)
    # 160 events a path at 4T: its claim array alone would be 1280 bytes a path
    assert short < bound(1) and long < bound(1), (short, long, bound(1))
    assert long < 1.1 * short, (short, long)


def test_a_batch_holds_no_arrival_time():
    # long-horizon's largest singularity batch: conditional Q at T = 500, 4000
    # paths, about 3.4M events.  Until a read, the batch holds arrays of the
    # path count only, where its event times would take 8 bytes per event
    base = BaseModel(Exponential(0.2), Gamma(2.0, 2.0))
    derived = derive_q_model(validate_change(base, measure_change(alpha="ln(2)"), level=1))
    tag = conditional_q(float(base.mixing_law.quantile(0.5)))
    tracemalloc.start()
    try:
        b = simulate_batch(base, derived, tag, 500.0, seed=SEED, n=4000,
                           family=cmpplab.verify.FAM_SING_Q)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert b.offsets[-1] > 3_000_000
    assert held < 100 * len(b), held


def test_density_additive_over_increments(base62, change62):
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=23, n=50)
    for i in (0, 13, 49):
        p = member(b, i)
        theta = p.thetas[0]
        for s, t in ((0.0, 0.4), (0.4, 1.1), (1.1, 2.0)):
            whole = log_density_batch(p, t, change62, include_xi=False)[0]
            left = log_density_batch(p, s, change62, include_xi=False)[0]
            n_s, n_t = p.counts_at(s)[0], p.counts_at(t)[0]
            inc = ((n_t - n_s) * change62.alpha(theta)
                   + sum(change62.gamma(x) for x in p.claims[n_s:n_t])
                   - (t - s) * theta * math.expm1(change62.alpha(theta)))
            assert whole == pytest.approx(left + inc, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# the V coefficient

def test_v_coefficient_recomputation_consistent(base62, change62, derived62):
    fresh = derive_q_model(validate_change(base62, change62, level=2))
    assert fresh is not derived62
    assert fresh.q_claim.moment(1) == derived62.q_claim.moment(1)  # bit-stable
    assert fresh.mean_rate == derived62.mean_rate


# ---------------------------------------------------------------------------
# path dump

def test_dump_paths_roundtrip(tmp_path, base62):
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=77, n=20)
    out = tmp_path / "paths.txt"
    with open(out, "w") as fh:
        dump_paths(b, fh)
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    # full double precision: the theta field parses back bit-exactly
    first_theta = float(lines[0].split()[0].split("=")[1])
    assert first_theta == b.thetas[0]
