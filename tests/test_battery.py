"""Functional batteries and the run's single derived model.

A battery is evaluated on one pass over shared batches; it must give the
same reports, bit for bit, as one call per functional.  A scenario run
plans every job's stream requests first and simulates each distinct
(measure, seed, n, family) stream once for all of its jobs, to the latest
time they read; its rows equal the standalone entry points', and an error
stays in its job.
It validates and derives its model once.
"""

import csv
import gc
import math
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import cmpplab.scenario
import cmpplab.sim
import cmpplab.verify
from cmpplab.dist import DistError, Exponential, Gamma
from cmpplab.model import BaseModel, derive_q_model, measure_change, validate_change
from cmpplab.premium import premium_density
from cmpplab.rng import LANE_ARRIVAL, LANE_CLAIM
from cmpplab.scenario import run_scenario
from cmpplab.expr import DomainError, parse
from cmpplab.scenario import BUILTIN_SCENARIOS, resolve_scenario
from cmpplab.sim import (BASE_P, DERIVED_Q, SimulationError, conditional_p, conditional_q,
                         log_density_batch, simulate_batch)
from cmpplab.verify import (FAM_DEFAULT, FAM_SING_P, FAM_SING_Q, Consumer, Moments,
                            PathFunctional, check_martingale, check_reweighting,
                            degeneracy_test, f_aggregate, f_count, f_count_eq, f_one,
                            mc_estimate, process_v, run_streams, singularity_probe)

SEED = 20190521
WORKLOADS = Path(__file__).parent.parent / "benchmarks" / "workloads"
SCENARIOS = sorted(BUILTIN_SCENARIOS) + [str(WORKLOADS / f"{w}.scn")
                                         for w in ("long-horizon", "tilted-mixture")]


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


@pytest.fixture
def small_chunks(monkeypatch):
    # several batches per side, so the one-pass accumulation is exercised
    monkeypatch.setattr(cmpplab.verify, "CHUNK", 1500)


@pytest.mark.parametrize("theta", [None, 1.5])
def test_reweighting_battery_matches_single_calls(derived62, small_chunks, theta):
    battery = [f_one(), f_count(), f_aggregate(), f_count_eq(0)]
    oracles = [1.0, None, 200.0 / 9.0, None]
    shared = check_reweighting(battery, derived62, t=1.0, n=4000, seed=SEED,
                               under_conditional=theta, oracle=oracles).run()
    single = [check_reweighting(f, derived62, t=1.0, n=4000, seed=SEED,
                                under_conditional=theta, oracle=o).run()
              for f, o in zip(battery, oracles)]
    assert shared == single


def test_mc_estimate_battery_matches_single_calls(base62, derived62, small_chunks):
    battery = [f_aggregate(), f_count(), PathFunctional("theta", lambda b, t: b.thetas)]
    oracles = [200.0 / 9.0, None, None]
    shared = mc_estimate(battery, base62, derived62, DERIVED_Q, 1.0, 4000, SEED,
                         oracle=oracles).run()
    single = [mc_estimate(f, base62, derived62, DERIVED_Q, 1.0, 4000, SEED, oracle=o).run()
              for f, o in zip(battery, oracles)]
    assert shared == single


def test_battery_oracles_must_match(base62, derived62):
    with pytest.raises(ValueError):
        mc_estimate([f_one(), f_count()], base62, derived62, BASE_P, 1.0, 1000, SEED,
                    oracle=[1.0]).run()


def test_chunked_estimate_matches_concatenated_samples(base62, derived62, small_chunks):
    # 4000 paths in chunks of 1500: the merged moments agree with numpy on
    # the whole sample, which does not depend on the chunking
    rep = mc_estimate(f_aggregate(), base62, derived62, DERIVED_Q, 1.0, 4000, SEED).run()
    x = simulate_batch(base62, derived62, DERIVED_Q, 1.0, SEED, n=4000).aggregates_at(1.0)
    assert rep.n == 4000
    assert rep.estimate == pytest.approx(np.mean(x), rel=1e-12, abs=0.0)
    se = np.std(x, ddof=1) / math.sqrt(x.size)
    assert rep.stderr == pytest.approx(se, rel=1e-12, abs=0.0)


# the streams of each scenario's jobs: simulate 2, verify-reweighting 2,
# degeneracy 1, singularity 2 (one per side, for both horizons) and
# verify-martingale 1, or none beside simulate, whose Q stream it reads
STREAMS = {"example-6.1a": 4, "example-6.1b": 6, "example-6.2": 5, "example-6.3": 4,
           "long-horizon": 3, "tilted-mixture": 5}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_simulates_each_stream_once(tmp_path, monkeypatch, scenario):
    calls = {"simulate_batch": 0, "derive_q_model": 0, "validate_change": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cmpplab.verify, "simulate_batch")
    counted(cmpplab.scenario, "derive_q_model")
    counted(cmpplab.scenario, "validate_change")
    out = tmp_path / "r.csv"
    assert run_scenario(scenario, {"paths": 1000, "output": str(out)}) in (0, 1)
    streams = STREAMS[Path(scenario).name.removesuffix(".scn")]  # one chunk each
    assert calls == {"simulate_batch": streams, "derive_q_model": 1, "validate_change": 1}


def test_run_computes_premium_quote_once(tmp_path, monkeypatch):
    calls = []
    orig = cmpplab.scenario.premium_density

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(cmpplab.scenario, "premium_density", counted)
    scn = tmp_path / "q.scn"
    scn.write_text('[base]\nclaim = exp(rate=0.2)\nmixing = gamma(rate=2,shape=2)\n'
                   '[change]\nalpha = "ln(theta)"\ngamma = "ln(x/5)"\n'
                   'xi = "(27/8)*theta^2*exp(-theta)"\n'
                   '[run]\njobs = validate, premium, simulate\n[mc]\npaths = 200\n')
    assert run_scenario(str(scn), {"output": str(tmp_path / "q.csv")}) in (0, 1)
    # the premium and simulate jobs share the run's quote
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_planning_simulates_nothing(scenario, no_simulation):
    # every job plans its consumers without a path: only run_streams
    # simulates, so every simulation is deduplicated and fed in chunks
    scn = resolve_scenario(scenario)
    derived = derive_q_model(validate_change(scn.base, scn.change, scn.level))
    quote = lambda: premium_density(scn.base, derived)
    planned = [cmpplab.scenario._JOB_RUNNERS[job](scn, derived, quote)
               for job in scn.jobs if job != "validate"]
    assert sum(len(plan.consumers) for plan in planned) >= 2


def record_batches(monkeypatch):
    """Every simulate_batch call of the verify layer, as (under, seed, n,
    family, start_index), whatever horizon it simulates to; the horizon, the
    times it counts N at and the claim sums it declares are passed on."""
    seen = []
    orig = cmpplab.verify.simulate_batch

    def wrapper(base, derived, under, horizon, seed, n, start_index=0, family=0, reads=(),
                sums=()):
        seen.append((under, seed, n, family, start_index))
        return orig(base, derived, under, horizon, seed, n, start_index, family, reads, sums)

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", wrapper)
    return seen


def run_rows(tmp_path, scenario, name="r.csv"):
    out = tmp_path / name
    assert run_scenario(scenario, {"paths": 1000, "output": str(out)}) in (0, 1)
    with open(out, newline="") as fh:
        return [(r["job"], r["quantity"], r) for r in csv.DictReader(fh)]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_no_stream_is_simulated_twice(tmp_path, monkeypatch, scenario):
    seen = record_batches(monkeypatch)
    run_rows(tmp_path, scenario)
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_runs_draw_no_event_time(tmp_path, monkeypatch, scenario):
    # every consumer declares the times and the claim sums it reads, so the
    # arrival loop fills them, and no read reruns a batch's loop: no batch
    # draws its event times, its claim array or a sum again
    arrivals = cmpplab.sim._arrivals

    def no_rerun(*args, offsets=None):
        assert offsets is None, "a read reran the arrival loop"
        return arrivals(*args)

    monkeypatch.setattr(cmpplab.sim, "_arrivals", no_rerun)
    rows = run_rows(tmp_path, scenario)
    assert rows and not [r["detail"] for job, q, r in rows if q == "error"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_runs_draw_each_claim_once(tmp_path, monkeypatch, scenario):
    # a batch whose consumers declared a claim sum draws one claim-lane
    # uniform an event of its arrival loop, fewer than arrival-lane ones, and
    # no more while they read it; a batch whose consumers read no claim
    # (gamma = 0) draws none
    batches, drawn = [], []
    simulate, draw = cmpplab.verify.simulate_batch, cmpplab.sim.uniforms

    def recorded(*args, **kwargs):
        drawn.append({LANE_ARRIVAL: [], LANE_CLAIM: []})
        batches.append(simulate(*args, **kwargs))
        return batches[-1]

    def counted(seed, keys, lane, index, **kwargs):
        u = draw(seed, keys, lane, index, **kwargs)
        if lane in drawn[-1]:
            drawn[-1][lane].append(u.size)  # one list append: safe on any thread
        return u

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", recorded)
    monkeypatch.setattr(cmpplab.sim, "uniforms", counted)
    run_rows(tmp_path, scenario)
    summed = [any(read[0] == "S" for read, _ in b._kept) for b in batches]
    assert [sum(d[LANE_CLAIM]) for d in drawn] == \
        [b.counts.sum() if s else 0 for b, s in zip(batches, summed)]
    assert all(sum(d[LANE_CLAIM]) < sum(d[LANE_ARRIVAL]) for d in drawn)
    assert any(summed)


@pytest.mark.parametrize("name", ["example-6.2", "example-6.1b"])
def test_run_rows_match_standalone_entry_points(tmp_path, monkeypatch, name):
    # 1000 paths in chunks of 300: every planned stream has 4 chunks
    monkeypatch.setattr(cmpplab.verify, "CHUNK", 300)
    seen = record_batches(monkeypatch)
    listed = run_rows(tmp_path, name)
    rows = {(job, q): r for job, q, r in listed}
    chunks = {}
    for under, seed, n, family, start in seen:
        chunks[(under, family)] = chunks.get((under, family), 0) + 1
    assert min(chunks.values()) >= 3

    scn = resolve_scenario(name)
    base, n, t = scn.base, 1000, scn.horizon
    derived = derive_q_model(validate_change(base, scn.change, scn.level))
    got = lambda job, q: (float(rows[(job, q)]["estimate"]), float(rows[(job, q)]["stderr"]))

    p_reps = mc_estimate([f_aggregate(), f_count()], base, derived, BASE_P, t, n, SEED).run()
    q_rep = mc_estimate(f_aggregate(), base, derived, DERIVED_Q, t, n, SEED).run()
    for q, rep in zip(("E_P[S_2]", "E_P[N_2]", "E_Q[S_2]"), p_reps + [q_rep]):
        assert got("simulate", q) == (rep.estimate, rep.stderr)

    battery = [f_one(), f_count(), f_aggregate(), f_count_eq(0)]
    reweighting = check_reweighting(battery, derived, t=t / 2, n=n, seed=SEED).run()
    for f, res in zip(battery, reweighting):
        assert got("verify-reweighting", f"gap[{f.name}]@t=1") == \
            (res.gap.estimate, res.gap.stderr)

    table = check_martingale(process_v(derived), base, derived, DERIVED_Q,
                             [(t / 4, t / 2), (t / 2, t)], n=n, seed=SEED).run()
    cells = [(r["estimate"], r["stderr"]) for job, q, r in listed
             if job == "verify-martingale" and q.startswith("V[")]
    assert [(float(e), float(se)) for e, se in cells] == \
        [(c.report.estimate, c.report.stderr) for c in table.cells]

    if "degeneracy" in scn.jobs:
        res = degeneracy_test(derived, n=n, seed=SEED).run()
        assert got("degeneracy", "centered-aggregate martingale dichotomy") == \
            (res.witness.estimate, res.witness.stderr)
    if "singularity" in scn.jobs:
        theta = float(base.mixing_law.quantile(0.5))
        for r in singularity_probe(derived, horizons=[5 * t, 25 * t], n=n, seed=SEED,
                                   theta_fixed=theta).run():
            assert got("singularity", f"log-density drift T={r.horizon:g} under {r.side}") \
                == (r.drift.estimate, r.drift.stderr)


@pytest.mark.parametrize("scenario", ["example-6.1b", str(WORKLOADS / "long-horizon.scn")])
def test_merged_singularity_sides_equal_separate_horizons(monkeypatch, scenario):
    # both changes have gamma = 0, so ln M~_T reads only N_T and theta: one
    # stream per side, simulated to 25T, gives the 5T rows of a stream that
    # ends at 5T bit for bit, chunk by chunk
    monkeypatch.setattr(cmpplab.verify, "CHUNK", 300)
    scn = resolve_scenario(scenario)
    derived = derive_q_model(validate_change(scn.base, scn.change, scn.level))
    theta, n = float(scn.base.mixing_law.quantile(0.5)), 1000
    seen = record_batches(monkeypatch)
    rows = singularity_probe(derived, horizons=[5 * scn.horizon, 25 * scn.horizon], n=n,
                             seed=scn.seed, theta_fixed=theta).run()
    assert len(seen) == len(set(seen)) == 2 * 4  # two streams of four chunks
    for r in rows:
        tag, fam = ((conditional_p(theta), FAM_SING_P) if r.side == "p"
                    else (conditional_q(theta), FAM_SING_Q))
        acc = Moments()
        for start in range(0, n, 300):
            b = simulate_batch(scn.base, derived, tag, r.horizon, scn.seed,
                               n=min(300, n - start), start_index=start, family=fam)
            acc.add(log_density_batch(b, r.horizon, derived.change, include_xi=False))
        assert (r.mean_log_density, r.sd, r.drift.estimate, r.drift.stderr) == \
            (acc.mean, acc.sd, acc.mean / r.horizon, acc.stderr / r.horizon)


def test_consumer_error_is_its_jobs_error_row(tmp_path, monkeypatch):
    clean = run_rows(tmp_path, "example-6.2", "clean.csv")

    def boom(*args, **kwargs):
        raise DomainError("boom")

    # the martingale cells fail on their first chunk; simulate's E_Q[S_T]
    # reads the same stream and must keep being fed
    monkeypatch.setattr(cmpplab.scenario, "process_v",
                        lambda derived: PathFunctional("V_t", boom))
    broken = run_rows(tmp_path, "example-6.2", "broken.csv")
    errors = [(job, q, r["verdict"], r["detail"]) for job, q, r in broken
              if job == "verify-martingale"]
    assert errors == [("verify-martingale", "error", "fail", "DomainError: boom")]
    assert [row for row in broken if row[0] != "verify-martingale"] == \
        [row for row in clean if row[0] != "verify-martingale"]


def test_stream_error_reaches_every_consumer(tmp_path, monkeypatch):
    clean = run_rows(tmp_path, "example-6.2", "clean.csv")
    orig = cmpplab.verify.simulate_batch
    requested = []

    def failing(base, derived, under, horizon, seed, n, start_index=0, family=0, reads=(),
                sums=()):
        requested.append((under, horizon, family))
        if under == DERIVED_Q and family == FAM_DEFAULT and horizon == 2.0:
            raise SimulationError("cap")
        return orig(base, derived, under, horizon, seed, n, start_index, family, reads, sums)

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", failing)
    broken = run_rows(tmp_path, "example-6.2", "broken.csv")
    shared = ("simulate", "verify-martingale")
    assert [(job, q, r["detail"]) for job, q, r in broken if job in shared] == \
        [(job, "error", "SimulationError: cap") for job in shared]
    assert [row for row in broken if row[0] not in shared] == \
        [row for row in clean if row[0] not in shared]
    # the shared Q stream runs first; the simulate job's base-P consumer then
    # takes its mate's error, and the base-P stream is not simulated
    assert (DERIVED_Q, 2.0, FAM_DEFAULT) in requested
    assert (BASE_P, 2.0, FAM_DEFAULT) not in requested


def refuse_claims(self, p):
    raise DistError("no claims")


def test_claim_draw_error_reaches_only_claim_readers(tmp_path, monkeypatch):
    # example-6.1b draws its claims, and only its claims, from exp(rate=0.2);
    # claims are drawn on a batch's first read of them, so the gamma = 0
    # singularity job, which reads N at the horizon only, is not touched
    clean = run_rows(tmp_path, "example-6.1b", "clean.csv")
    monkeypatch.setattr(Exponential, "quantile", refuse_claims)
    broken = run_rows(tmp_path, "example-6.1b", "broken.csv")
    readers = ("simulate", "verify-reweighting", "verify-martingale")
    assert [(job, q, r["detail"]) for job, q, r in broken if job in readers] == \
        [(job, "error", "DistError: no claims") for job in readers]
    assert any(job == "singularity" for job, _, _ in broken)
    assert [row for row in broken if row[0] not in readers] == \
        [row for row in clean if row[0] not in readers]


def test_kept_claim_draw_error_pins_no_batch(base62, derived62, small_chunks, monkeypatch):
    monkeypatch.setattr(Exponential, "quantile", refuse_claims)
    batches = []
    orig = cmpplab.verify.simulate_batch

    def recorded(*args, **kwargs):
        batch = orig(*args, **kwargs)
        batches.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", recorded)
    request = (BASE_P, SEED, 4000, FAM_DEFAULT)
    readers = [Consumer(request, lambda b: b.aggregates_at(0.5), None, {0.5}) for _ in range(2)]
    counter = Consumer(request, lambda b: b.counts_at(1.0), None, {1.0})
    run_streams(base62, derived62, readers + [counter])
    for c in readers:  # each reader drew, and failed, on its own
        with pytest.raises(DistError, match="no claims"):
            c.result()
    assert readers[0].error is not readers[1].error
    assert counter.result() is None and len(batches) == 3  # fed every chunk
    gc.collect()
    assert all(ref() is None for ref in batches)


def test_a_worker_error_reaches_its_consumer_as_the_serial_error(base62, monkeypatch):
    # row blocks, their claims and sums with them, run on worker threads.
    # An event-cap error, a gamma DomainError and a claim draw error, each in
    # a row block, reach Consumer.result() with the type and message of the
    # one-thread run's error (the first failing block's, of several that
    # fail), and no thread outlives run_streams
    monkeypatch.setattr(cmpplab.sim, "_ROW_BLOCK", 64)
    fast = conditional_p(40.0)
    most = int(simulate_batch(base62, None, fast, 1.0, SEED, n=3000).counts.max())
    ref = simulate_batch(base62, None, BASE_P, 2.0, SEED, n=3000)
    edge = np.nextafter(ref.claims[:ref.offsets[64]].max(), np.inf)  # past block 0's claims
    gamma = parse("ln(c - x)", "x", params={"c": float(edge)})

    class Picky(Exponential):
        def quantile(self, p):  # refuses a block's step holding a claim past the edge
            x = super().quantile(p)
            if (x > edge).any():
                raise DistError(f"a step of {x.size} claims")
            return x

    picky = BaseModel(Picky(0.2), base62.mixing_law)

    def alone(a):  # the error of the row block of paths a..a+63, run alone
        try:
            simulate_batch(picky, None, BASE_P, 2.0, SEED, n=64, start_index=a, sums=[(2.0, None)])
        except DistError as e:
            return str(e)

    monkeypatch.setattr(cmpplab.sim, "_cpus", lambda: 1)
    failing = [e for e in map(alone, range(0, 3000, 64)) if e]
    assert alone(0) is None and len(set(failing)) > 1
    batches = []
    orig = cmpplab.verify.simulate_batch

    def recorded(*args, **kwargs):
        batch = orig(*args, **kwargs)
        batches.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", recorded)
    monkeypatch.setattr(cmpplab.sim, "EVENT_CAP", most - 1)

    def failures(workers):
        monkeypatch.setattr(cmpplab.sim, "_cpus", lambda: workers)
        consumers = [
            Consumer((fast, SEED, 3000, FAM_DEFAULT), lambda b: b.counts_at(1.0), None, {1.0}),
            Consumer((BASE_P, SEED, 3000, FAM_DEFAULT), lambda b: b.claim_prefix_apply(2.0, gamma),
                     None, {2.0}, sums=[(2.0, gamma)]),
            Consumer((BASE_P, SEED, 3000, FAM_DEFAULT), lambda b: b.aggregates_at(2.0), None,
                     {2.0}, sums=[(2.0, None)])]
        threads = threading.active_count()
        run_streams(base62, None, consumers[:2])
        run_streams(picky, None, consumers[2:])
        assert threading.active_count() == threads
        for c in consumers:
            with pytest.raises(Exception):
                c.result()
        return [(type(c.error), str(c.error)) for c in consumers], consumers

    serial, _ = failures(1)
    assert serial[0][0] is SimulationError and serial[1][0] is DomainError
    assert serial[2] == (DistError, failing[0])
    batches.clear()
    spread, kept = failures(2)  # the consumers keep their errors
    assert spread == serial
    # each error is raised inside its stream's simulate_batch, so no batch is
    # made for a kept error to pin
    assert not batches
    monkeypatch.setattr(cmpplab.sim, "EVENT_CAP", most)
    threads = threading.active_count()  # and on a run that raises nothing
    counter = Consumer((fast, SEED, 3000, FAM_DEFAULT), lambda b: b.counts_at(1.0), None, {1.0})
    run_streams(base62, None, [counter])
    assert counter.result() is None and threading.active_count() == threads
