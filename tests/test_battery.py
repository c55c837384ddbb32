"""Functional batteries and the run's single derived model.

A battery is evaluated on one pass over shared batches; it must give the
same reports, bit for bit, as one call per functional.  A scenario run
simulates each (measure, horizon, seed, family, n) stream of a job once,
and validates and derives its model once.
"""

import math

import numpy as np
import pytest

import cmpplab.scenario
import cmpplab.verify
from cmpplab.dist import Exponential, Gamma
from cmpplab.model import BaseModel, derive_q_model, measure_change, validate_change
from cmpplab.scenario import run_scenario
from cmpplab.sim import BASE_P, DERIVED_Q, simulate_batch
from cmpplab.verify import (check_reweighting, f_aggregate, f_count, f_count_eq,
                            f_one, mc_estimate)

SEED = 20190521


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
                               under_conditional=theta, oracle=oracles)
    single = [check_reweighting(f, derived62, t=1.0, n=4000, seed=SEED,
                                under_conditional=theta, oracle=o)
              for f, o in zip(battery, oracles)]
    assert shared == single


def test_mc_estimate_battery_matches_single_calls(base62, derived62, small_chunks):
    battery = [f_aggregate(), f_count(), lambda p, t: float(p.theta)]
    oracles = [200.0 / 9.0, None, None]
    shared = mc_estimate(battery, base62, derived62, DERIVED_Q, 1.0, 4000, SEED,
                         oracle=oracles)
    single = [mc_estimate(f, base62, derived62, DERIVED_Q, 1.0, 4000, SEED, oracle=o)
              for f, o in zip(battery, oracles)]
    assert shared == single


def test_battery_oracles_must_match(base62, derived62):
    with pytest.raises(ValueError):
        mc_estimate([f_one(), f_count()], base62, derived62, BASE_P, 1.0, 1000, SEED,
                    oracle=[1.0])


def test_chunked_estimate_matches_concatenated_samples(base62, derived62, small_chunks):
    # 4000 paths in chunks of 1500: the merged moments agree with numpy on
    # the whole sample, which does not depend on the chunking
    rep = mc_estimate(f_aggregate(), base62, derived62, DERIVED_Q, 1.0, 4000, SEED)
    x = simulate_batch(base62, derived62, DERIVED_Q, 1.0, SEED, n=4000).aggregates_at(1.0)
    assert rep.n == 4000
    assert rep.estimate == pytest.approx(np.mean(x), rel=1e-12, abs=0.0)
    se = np.std(x, ddof=1) / math.sqrt(x.size)
    assert rep.stderr == pytest.approx(se, rel=1e-12, abs=0.0)


def test_run_simulates_each_stream_once(tmp_path, monkeypatch):
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
    out = tmp_path / "r62.csv"
    assert run_scenario("example-6.2", {"paths": 1000, "output": str(out)}) in (0, 1)
    # simulate 2, verify-reweighting 2, verify-martingale 2 (pilot + paths,
    # the latter repeating simulate's Q stream), degeneracy 1
    assert calls == {"simulate_batch": 7, "derive_q_model": 1, "validate_change": 1}


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
