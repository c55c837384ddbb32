import math

import numpy as np
import pytest

import cmpplab.sim
import cmpplab.verify
from cmpplab.dist import Degenerate, Exponential, Gamma, expectation
from cmpplab.model import (BaseModel, NotValidated, derive_q_model, identity_change,
                           measure_change, validate_change)
from cmpplab.premium import esscher_change, expected_value_change
from cmpplab.scenario import resolve_scenario
from cmpplab.sim import (BASE_P, DERIVED_Q, conditional_p, conditional_q,
                         log_density_batch, simulate_batch)
from cmpplab.verify import (Consumer, DegeneracyResult, MCReport, Moments, PathFunctional,
                            aggregate_at_most, check_martingale, check_reweighting,
                            count_at_most, default_event_family, degeneracy_test,
                            f_aggregate, f_count, f_count_eq, f_one, mc_estimate,
                            process_density, process_v, process_y, run_streams,
                            singularity_probe, theta_in, whole_space)

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


# ---------------------------------------------------------------------------
# the moment accumulator

@pytest.mark.parametrize("n", [1, 2, 3, 100, 4097, 65_536, 131_072])
def test_moments_one_chunk_is_numpy_bit_for_bit(n):
    x = np.random.default_rng(n).standard_normal(n) * 3.0 + 0.5
    acc = Moments()
    acc.add(x)
    assert acc.n == n
    assert acc.mean == np.mean(x)
    expect = np.std(x, ddof=1) / math.sqrt(n) if n > 1 else 0.0
    assert acc.stderr == expect


def test_moments_merge_chunks_matches_concatenation():
    x = np.random.default_rng(5).gamma(0.5, 4.0, size=10_000)
    acc = Moments()
    for lo, hi in ((0, 1), (1, 1500), (1500, 1500), (1500, 7001), (7001, 10_000)):
        acc.add(x[lo:hi])
    assert acc.n == x.size
    assert acc.mean == pytest.approx(np.mean(x), rel=1e-12, abs=0.0)
    se = np.std(x, ddof=1) / math.sqrt(x.size)
    assert acc.stderr == pytest.approx(se, rel=1e-12, abs=0.0)


def test_moments_do_not_cancel_on_a_large_offset():
    n = 100_000
    x = 1e8 + 1e-3 * np.random.default_rng(11).standard_normal(n)
    # the raw-sum formula loses every digit of the variance here
    tot, tot2 = float(x.sum()), float((x * x).sum())
    raw_se = math.sqrt(max(tot2 / n - (tot / n) ** 2, 0.0) / n)
    acc = Moments()
    for chunk in np.array_split(x, 7):
        acc.add(chunk)
    se = np.std(x, ddof=1) / math.sqrt(n)
    assert not raw_se == pytest.approx(se, rel=0.5)
    assert se == pytest.approx(3.17e-6, rel=0.01)
    assert acc.stderr == pytest.approx(se, rel=1e-9)


# ---------------------------------------------------------------------------
# mc_estimate

def test_constant_functional(base62, derived62):
    rep = mc_estimate(f_one(), base62, derived62, BASE_P, 1.0, 1000, SEED, oracle=1.0).run()
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0
    assert rep.verdict == "pass" and rep.z == 0.0


@pytest.mark.parametrize("estimate,stderr,oracle,z,verdict", [
    (1.0, 0.5, 2.0, -2.0, "pass"),
    (1.0, 0.5, 2.5, -3.0, "pass"),
    (1.0, 0.5, 2.6, -3.2, "fail"),
    (1.0, 0.5, None, 0.0, "inconclusive"),
    (0.0, 0.0, 0.0, 0.0, "pass"),
    (0.25, 0.0, 0.0, 0.0, "fail"),
    (math.nan, 0.5, 0.0, math.nan, "fail"),
])
def test_mc_report_judged_at_three_stderr(estimate, stderr, oracle, z, verdict):
    rep = MCReport("q", estimate, stderr, 10, oracle)
    assert rep.verdict == verdict
    assert rep.z == pytest.approx(z, rel=1e-12, nan_ok=True)
    assert MCReport("q", estimate, stderr, 10).against(oracle) == rep


def test_count_mean_oracle(base62, derived62):
    oracle = expectation(base62.mixing_law, lambda th: th)
    rep = mc_estimate(f_count(), base62, derived62, BASE_P, 1.0, 100_000, SEED,
                      oracle=oracle).run()
    assert rep.verdict == "pass"
    assert oracle == pytest.approx(1.0, rel=1e-10)


def test_aggregate_mean_oracle(base62, derived62):
    rep = mc_estimate(f_aggregate(), base62, derived62, BASE_P, 1.0, 100_000,
                      SEED, oracle=5.0).run()
    assert rep.verdict == "pass"


@pytest.mark.parametrize("estimator", [
    "mc_estimate", "check_reweighting", "check_martingale", "degeneracy_test",
    "singularity_probe"])
def test_minimum_path_count(base62, derived62, estimator, no_simulation):
    # building the plan is refused, before any path
    plan = {
        "mc_estimate": lambda: mc_estimate(f_one(), base62, derived62, BASE_P, 1.0, 50, SEED),
        "check_reweighting": lambda: check_reweighting(f_one(), derived62, t=1.0, n=50,
                                                       seed=SEED),
        "check_martingale": lambda: check_martingale(
            process_v(derived62), base62, derived62, DERIVED_Q, [(0.5, 1.0)],
            events=[whole_space()], n=50, seed=SEED),
        "degeneracy_test": lambda: degeneracy_test(derived62, n=50, seed=SEED),
        "singularity_probe": lambda: singularity_probe(derived62, horizons=[1.0], n=50,
                                                       seed=SEED),
    }[estimator]
    with pytest.raises(ValueError, match="at least 100"):
        plan()


def test_custom_callable_functional(base62, derived62):
    theta = PathFunctional("theta", lambda b, t: b.thetas)
    rep = mc_estimate(theta, base62, derived62, BASE_P, 1.0, 500, SEED, oracle=1.0).run()
    assert rep.verdict == "pass"


def test_bare_callable_is_refused_when_planned(base62, derived62, no_simulation):
    theta = PathFunctional("theta", lambda b, t: b.thetas)
    for f in (lambda b, t: b.thetas, [theta, "S_t"]):
        with pytest.raises(TypeError, match="PathFunctional"):
            mc_estimate(f, base62, derived62, BASE_P, 1.0, 500, SEED)
        with pytest.raises(TypeError, match="PathFunctional"):
            check_reweighting(f, derived62, t=1.0, n=500, seed=SEED)
    # before the default events are built, too
    with pytest.raises(TypeError, match="expected a PathFunctional, got function"):
        check_martingale(lambda b, t: b.aggregates_at(t), base62, derived62, DERIVED_Q,
                         [(0.5, 1.0)], n=200_000, seed=1)


def test_a_plan_runs_once(base62, derived62, request):
    plan = mc_estimate(f_count(), base62, derived62, BASE_P, 1.0, 1000, SEED)
    rep = plan.run()
    assert rep.n == 1000
    request.getfixturevalue("no_simulation")
    with pytest.raises(ValueError, match="fed once"):
        plan.run()
    assert plan.finish() == rep  # the second run added nothing
    fresh = mc_estimate(f_count(), base62, derived62, BASE_P, 1.0, 1000, SEED)
    with pytest.raises(ValueError, match="never fed"):
        fresh.finish()  # not an empty estimate
    with pytest.raises(ValueError, match="fed once"):
        run_streams(base62, derived62, fresh.consumers * 2)


# ---------------------------------------------------------------------------
# reweighting

def test_reweighting_trivial_functional(derived62):
    res = check_reweighting(f_one(), derived62, t=1.0, n=5000, seed=SEED).run()
    assert res.direct.estimate == 1.0
    assert res.gap.verdict == "pass"


def test_reweighting_vacuous_probability(derived62):
    oracle = expectation(Gamma(3.0, 4.0), lambda th: np.exp(-th * th))
    res = check_reweighting(f_count_eq(0), derived62, t=1.0, n=100_000,
                            seed=SEED, oracle=oracle).run()
    assert res.gap.verdict == "pass"
    assert abs(res.direct.estimate - oracle) <= 3.0 * res.direct.stderr
    assert abs(res.weighted.estimate - oracle) <= 3.0 * res.weighted.stderr


def test_reweighting_aggregate_with_oracle(derived62):
    res = check_reweighting(f_aggregate(), derived62, t=1.0, n=100_000,
                            seed=SEED, oracle=200.0 / 9.0).run()
    assert res.gap.verdict == "pass"
    assert abs(res.direct.estimate - 200.0 / 9.0) <= 3.0 * res.direct.stderr


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_reweighting_conditional(derived62, theta):
    res = check_reweighting(f_aggregate(), derived62, t=1.0, n=60_000,
                            seed=SEED, under_conditional=theta,
                            oracle=theta**2 * 10.0).run()
    assert res.gap.verdict == "pass"
    assert abs(res.direct.estimate - theta**2 * 10.0) <= 3.0 * res.direct.stderr


def test_reweighting_symmetry(base62, change62, derived62):
    # swap roles: simulate under the derived measure, weight by exp(-log M)
    n = 100_000
    batches = [simulate_batch(base62, derived62, DERIVED_Q, 1.0, seed=SEED,
                              n=n, family=9)]
    vals = np.concatenate([
        b.aggregates_at(1.0) * np.exp(-log_density_batch(b, 1.0, change62))
        for b in batches])
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(est - 5.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# martingale tables

def test_constant_process_passes(base62, derived62):
    seven = PathFunctional("7", lambda b, t: np.full(len(b), 7.0))
    table = check_martingale(seven, base62, derived62,
                             DERIVED_Q, [(0.5, 1.0)], n=1000, seed=SEED).run()
    assert table.verdict == "pass"
    assert all(c.report.estimate == 0.0 and c.report.stderr == 0.0 for c in table.cells)


def test_v_is_martingale_under_q(base62, derived62):
    table = check_martingale(process_v(derived62), base62, derived62, DERIVED_Q,
                             [(0.5, 1.0), (1.0, 2.0)], n=60_000, seed=SEED).run()
    assert table.verdict == "pass"
    assert len(table.cells) == 16


def test_y_is_martingale_under_p(base62):
    table = check_martingale(process_y(base62), base62, None, BASE_P,
                             [(0.5, 1.0), (1.0, 2.0)], n=60_000, seed=SEED).run()
    assert table.verdict == "pass"
    assert len(table.cells) == 16


def test_raw_aggregate_fails_with_wald_drift(base62, change62, derived62):
    e_g = expectation(derived62.q_mixing, derived62.g)
    e_x = derived62.q_claim.moment(1)
    table = check_martingale(f_aggregate(), base62, derived62, DERIVED_Q,
                             [(0.5, 1.0)], n=60_000, seed=SEED).run()
    assert table.verdict == "fail"
    ws = next(c.report for c in table.cells if c.report.quantity == "whole_space")
    oracle = 0.5 * e_g * e_x
    assert abs(ws.estimate - oracle) <= 4.0 * ws.stderr
    assert ws.verdict == "fail"


def test_density_is_conditional_martingale(base62, change62, derived62):
    cond = conditional_p(1.0)
    table = check_martingale(process_density(change62, cond), base62, derived62,
                             cond, [(0.5, 1.0), (1.0, 2.0)],
                             n=60_000, seed=SEED).run()
    assert table.verdict == "pass"


@pytest.fixture
def loop_log(monkeypatch):
    """The reads of every run of the arrival loop, in order."""
    log = []
    arrivals = cmpplab.sim._arrivals

    def logged(seed, keys, rates, horizon, law, reads, offsets=None):
        log.append(list(reads))
        return arrivals(seed, keys, rates, horizon, law, reads, offsets)

    monkeypatch.setattr(cmpplab.sim, "_arrivals", logged)
    return log


@pytest.mark.parametrize("process", ["v", "density"])
def test_martingale_computes_each_functional_once_per_batch(
        base62, derived62, change62, loop_log, monkeypatch, process):
    declared = []
    orig = cmpplab.verify.simulate_batch

    def recorded(*args, reads=(), **kwargs):
        declared.append(tuple(reads))
        return orig(*args, reads=reads, **kwargs)

    monkeypatch.setattr(cmpplab.verify, "simulate_batch", recorded)
    spec = process_v(derived62) if process == "v" else process_density(change62, DERIVED_Q)
    table = check_martingale(spec, base62, derived62, DERIVED_Q,
                             [(0.5, 1.0), (1.0, 2.0)], n=3000, seed=SEED).run()
    assert len(table.cells) == 16  # the default 8 events, two pairs
    # the one 3000-path batch counts N at the pair times and at the events'
    # anchors, 0.5 and 0 (the theta events and the whole space)
    assert declared == [(0.0, 0.5, 1.0, 2.0)]
    # its one arrival loop fills every read: the events need N and S at
    # s = 0.5; the process needs V_t (from S_t) or the density (from N_t and
    # the gamma sum) at each distinct time 0.5, 1 and 2.  No read reruns it
    loop, = loop_log
    fn = None if process == "v" else change62.gamma
    want = [("N", t) for t in (2.0, 0.0, 0.5, 1.0)] + [("S", 0.5, None)] \
        + [("S", t, fn) for t in (0.5, 1.0, 2.0) if (t, fn) != (0.5, None)]
    assert len(loop) == len(want) and all(r in loop for r in want)


def test_repeated_events_are_separate_cells(base62, derived62):
    ev = count_at_most(0.5, 1)
    kw = dict(n=4000, seed=3)
    once = check_martingale(process_v(derived62), base62, derived62, DERIVED_Q,
                            [(0.5, 1.0)], events=[ev], **kw).run()
    twice = check_martingale(process_v(derived62), base62, derived62, DERIVED_Q,
                             [(0.5, 1.0)], events=[ev, ev], **kw).run()
    assert len(twice.cells) == 2
    assert twice.cells[0] == twice.cells[1] == once.cells[0]
    # a second cell tightens the Bonferroni threshold, nothing else
    assert twice.z_threshold > once.z_threshold


def _family_case(name):
    """(base, derived, s) of a default martingale table: a low-intensity
    mixing whose S_0.5 is 0 on most paths, or a builtin's first pair start."""
    if name.startswith("low-intensity"):
        claim = Exponential(0.2) if name.endswith("exp") else Gamma(1.0, 0.5)
        base = BaseModel(claim, Gamma(200.0, 2.0))
        return base, derive_q_model(validate_change(base, identity_change())), 0.5
    scn = resolve_scenario(name)
    derived = derive_q_model(validate_change(scn.base, scn.change, scn.level))
    return scn.base, derived, scn.horizon / 4.0


@pytest.mark.parametrize("name", ["low-intensity-exp", "low-intensity-gamma",
                                  "example-6.1a", "example-6.3"])
def test_default_family_has_eight_distinct_events(name):
    # the aggregate thresholds E[S_s] and 2 E[S_s] are positive, so with
    # positive claims neither event is N_s<=0
    base, derived, s = _family_case(name)
    events = default_event_family(s, base, derived, DERIVED_Q)
    assert len({ev.name for ev in events}) == 8
    table = check_martingale(process_v(derived), base, derived, DERIVED_Q,
                             [(s, 2.0 * s)], n=2000, seed=SEED).run()
    assert [c.report.quantity for c in table.cells] == [ev.name for ev in events]
    # about 15 of 2000 paths have a claim by 0.5 at low intensity, and an
    # exp(rate=0.2) claim is below 2 E[S_0.5] = 0.05 with probability 1%:
    # the difference needs 20000 paths there
    n = 20_000 if name == "low-intensity-exp" else 2000
    b = simulate_batch(base, derived, DERIVED_Q, 2.0 * s, SEED, n=n)
    no_claim = events[0].indicator(b)
    for ev in events[3:5]:
        assert ev.name.startswith(f"S_{s:g}<=")
        assert (ev.indicator(b) != no_claim).any(), ev.name


@pytest.mark.parametrize("tag", [BASE_P, DERIVED_Q, conditional_p(1.5), conditional_q(1.5)])
def test_default_family_thresholds_come_from_the_law(base62, derived62, tag, no_simulation):
    # E[S_s] = s E[rate] E[X] under the tag: the base or derived rate and
    # claim mean, the mixing law integrated or theta fixed
    rate, e_x = ((derived62.g, derived62.q_claim.moment(1)) if tag.is_q_side
                 else (base62.rate_fn, base62.claim_law.moment(1)))
    law = derived62.q_mixing if tag.is_q_side else base62.mixing_law
    e_rate = (rate.eval_array(np.array([tag.theta]))[0] if tag.is_conditional
              else expectation(law, rate))
    events = default_event_family(0.5, base62, derived62, tag)
    assert [ev.name for ev in events[3:5]] == \
        [aggregate_at_most(0.5, c * 0.5 * e_rate * e_x).name for c in (1.0, 2.0)]
    theta_med = tag.theta if tag.is_conditional else law.quantile(0.5)
    assert events[5].name == theta_in(0.0, theta_med).name


@pytest.mark.parametrize("tag", [BASE_P, DERIVED_Q, conditional_p(1.5), conditional_q(1.5)])
def test_default_family_at_zero_has_three_events(base62, derived62, tag, no_simulation):
    # N_0 = S_0 = 0, so every count and aggregate event at 0 is the whole space
    events = default_event_family(0.0, base62, derived62, tag)
    names = [ev.name for ev in events]
    assert len(set(names)) == len(names) == 3
    assert names[2] == "whole_space" and names[0].startswith("theta_in[0,")


@pytest.mark.parametrize("reads", [(), [math.nan], [math.inf], [-1.0], [0.5, -math.inf]])
def test_consumer_refuses_reads_that_give_no_horizon(reads):
    # a stream is simulated to its consumers' latest read
    with pytest.raises(ValueError, match="reads must be finite times >= 0, one at least"):
        Consumer((BASE_P, SEED, 1000, 0), lambda b: None, None, reads)


def test_consumer_refuses_a_claim_sum_at_a_time_it_does_not_read():
    with pytest.raises(ValueError, match="claim sums must be read at times of reads"):
        Consumer((BASE_P, SEED, 1000, 0), lambda b: None, None, {1.0}, sums=[(2.0, None)])


@pytest.mark.parametrize("tag", [BASE_P, DERIVED_Q])
def test_undeclared_claim_sums_equal_declared(base62, derived62, change62, tag):
    # a functional that reads S_t or a density's gamma sum without declaring
    # it reruns the batch's arrival loop, and gets the same bits
    density = process_density(change62, tag)
    declared = [f_aggregate(), density]
    undeclared = [PathFunctional(f.name, f.eval_batch) for f in declared]
    assert not any(f.sums for f in undeclared)
    reps = [mc_estimate(fs, base62, derived62, tag, 1.0, 2000, SEED).run()
            for fs in (declared, undeclared)]
    assert reps[0] == reps[1]


def test_event_anchor_validation(base62, derived62):
    with pytest.raises(ValueError):
        check_martingale(process_v(derived62), base62, derived62, DERIVED_Q,
                         [(0.5, 1.0)], events=[count_at_most(0.8, 1)],
                         n=1000, seed=SEED)


@pytest.mark.parametrize("event,name", [
    (count_at_most(0.5, 1), "N_0.5<=1"),
    (aggregate_at_most(0.5, 8.522238), "S_0.5<=8.52224"),
    (theta_in(0.0, 1.5), "theta_in[0,1.5)"),
    (theta_in(1.5, math.inf), "theta_in[1.5,inf)"),
    (whole_space(), "whole_space"),
])
def test_event_names(event, name):
    # the names are report quantities: V[s->t]@<name>
    assert event.name == name


@pytest.mark.parametrize("empty", ["pairs", "events"])
def test_empty_martingale_inputs_are_refused(base62, derived62, empty):
    kw = dict(pairs=[(0.5, 1.0)], events=[whole_space()])
    kw[empty] = []
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        check_martingale(process_v(derived62), base62, derived62, DERIVED_Q,
                         n=1000, seed=SEED, **kw)


# ---------------------------------------------------------------------------
# surplus processes

def test_surplus_formulas_62(base62, derived62):
    assert derived62.q_claim.moment(1) == pytest.approx(10.0, rel=1e-9)
    b = simulate_batch(base62, derived62, DERIVED_Q, 1.0, seed=3, n=500)
    v = process_v(derived62).eval_batch(b, 1.0)
    expect = b.aggregates_at(1.0) - 10.0 * b.thetas**2
    assert np.max(np.abs(v - expect)) < 1e-9


def test_surplus_formulas_63():
    c = 1.0
    base = BaseModel(Gamma(c + 1.0, 2.0), Degenerate(0.5))
    change = measure_change(alpha="ln(c+theta) + 2*ln((c+1)/(c+1+theta))",
                            gamma="c*x - 2*ln(c+1)", xi="1",
                            params={"c": c})
    # xi = 1 works for the degenerate mixing; the V coefficient is E[X e^gamma] = 2
    derived = derive_q_model(validate_change(base, change, level=2))
    p = simulate_batch(base, None, BASE_P, 1.0, seed=9, n=1, start_index=4)
    th = p.thetas[0]
    expect = p.aggregates_at(1.0)[0] - 2.0 * (c + th) * (c + 1.0) ** 2 * th / (c + 1.0 + th) ** 2
    assert process_v(derived).eval_batch(p, 1.0)[0] == pytest.approx(expect, rel=1e-9)


def test_identity_change_v_equals_y(base62):
    identity = derive_q_model(validate_change(base62, identity_change()))
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=12, n=200)
    v = process_v(identity).eval_batch(b, 1.0)
    y = process_y(base62).eval_batch(b, 1.0)
    assert np.max(np.abs(v - y)) < 1e-9


# ---------------------------------------------------------------------------
# degeneracy dichotomy

def test_degenerate_mixing_centered_aggregate_is_martingale():
    base = BaseModel(Exponential(0.2), Degenerate(1.0))
    change = measure_change(alpha="ln(theta)", gamma="ln(x/5)", xi="1")
    res = degeneracy_test(derive_q_model(validate_change(base, change, level=2)),
                          n=200_000, seed=SEED).run()
    assert res.is_martingale


def test_nondegenerate_mixing_violation_with_oracle(derived62):
    res = degeneracy_test(derived62, n=400_000, seed=SEED).run()
    assert not res.is_martingale
    assert abs(res.witness.z) >= 5.0
    # estimate agrees with the quadrature covariance oracle
    assert abs(res.witness.estimate - res.witness_oracle) <= 4.0 * res.witness.stderr
    assert res.witness_oracle != 0.0


def test_zero_stderr_witness_off_zero_is_no_martingale():
    # a witness cell with no spread and a nonzero mean fails its own cell,
    # so the increment is no martingale (its z reads 0: there is no stderr)
    res = DegeneracyResult(MCReport("theta_in[0,1)", 0.25, 0.0, 1000, 0.0),
                           witness_oracle=0.25, s=0.5, t=1.0)
    assert res.witness.z == 0.0 and res.witness.verdict == "fail"
    assert not res.is_martingale
    assert res.describe().startswith("violation on theta_in[0,1): estimate 0.25")
    assert DegeneracyResult(MCReport("A", 0.0, 0.0, 1000, 0.0), 0.25, 0.5, 1.0).is_martingale


def test_degeneracy_whole_space_centered(base62, change62, derived62):
    # with unconditional centering the whole-space cell has mean zero even
    # in the non-degenerate case
    e_g = expectation(derived62.q_mixing, derived62.g)
    e_x = derived62.q_claim.moment(1)
    b = simulate_batch(base62, derived62, DERIVED_Q, 1.0, seed=SEED, n=200_000)
    inc = (b.aggregates_at(1.0) - 1.0 * e_g * e_x) - (b.aggregates_at(0.5) - 0.5 * e_g * e_x)
    se = inc.std(ddof=1) / math.sqrt(len(inc))
    assert abs(inc.mean()) <= 3.0 * se


# ---------------------------------------------------------------------------
# singularity probe

def test_identity_change_probe_is_zero(base62):
    derived = derive_q_model(validate_change(base62, identity_change(), level=2))
    rows = singularity_probe(derived, horizons=[2.0, 5.0], n=500, seed=SEED).run()
    assert all(r.mean_log_density == 0.0 for r in rows)
    assert all(r.frac_below == 0.0 and r.frac_above == 0.0 for r in rows)


def test_expected_value_drifts(base62):
    c = math.log(2.0)
    change = expected_value_change(c)
    derived = derive_q_model(validate_change(base62, change, level=2))
    rows = singularity_probe(derived, horizons=[10.0, 50.0], n=4000,
                             seed=SEED, theta_fixed=1.0).run()
    by = {(r.horizon, r.side): r for r in rows}
    for T in (10.0, 50.0):
        p_row, q_row = by[(T, "p")], by[(T, "q")]
        assert p_row.drift.oracle == pytest.approx(math.log(2.0) - 1.0, rel=1e-9)
        assert q_row.drift.oracle == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-9)
        assert p_row.drift.verdict == "pass" and q_row.drift.verdict == "pass"
    # divergence trend: mass below -5 grows with the horizon on the base side
    assert by[(50.0, "p")].frac_below > by[(10.0, "p")].frac_below


def test_singularity_consumer_holds_only_moments(base62):
    # one consumer per side reads every horizon; its ln M and shares beyond
    # -+5 stream through one Moments triple per horizon, and on one chunk
    # they are numpy's values bit for bit
    derived = derive_q_model(validate_change(base62, expected_value_change(math.log(2.0)),
                                             level=2))
    plan = singularity_probe(derived, horizons=[10.0, 50.0], n=1000, seed=SEED,
                             theta_fixed=1.0)
    rows = plan.run()
    assert len(plan.consumers) == 2
    assert all(len(c.state) == 2 and isinstance(acc, Moments)
               for c in plan.consumers for triple in c.state for acc in triple)
    sides = [(conditional_p(1.0), cmpplab.verify.FAM_SING_P),
             (conditional_q(1.0), cmpplab.verify.FAM_SING_Q)]
    for row, (tag, fam) in zip(rows, sides * 2):
        b = simulate_batch(base62, derived, tag, row.horizon, SEED, n=1000, family=fam)
        log_m = log_density_batch(b, row.horizon, derived.change, include_xi=False)
        assert row.mean_log_density == np.mean(log_m)
        assert row.sd == np.std(log_m, ddof=1)
        assert row.frac_below == np.mean(log_m < -5.0)
        assert row.frac_above == np.mean(log_m > 5.0)
    assert [(r.horizon, r.side) for r in rows] == [(10.0, "p"), (10.0, "q"),
                                                   (50.0, "p"), (50.0, "q")]
    assert rows[2].frac_below > 0.0 and rows[3].frac_above > 0.0


def test_drift_sign_battery(base62):
    # under the base conditional measure the drift of the log density is
    # nonpositive for any admissible change (negative relative entropy),
    # zero only for the identity
    theta = 1.0
    changes = [
        esscher_change(0.05, base62),
        esscher_change(0.1, base62),
        expected_value_change(0.4),
        expected_value_change(-0.3),
        measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                       xi="(27/8)*theta^2*exp(-theta)"),
    ]
    for change in changes:
        derived = derive_q_model(validate_change(base62, change, level=1))
        alpha = change.alpha(theta)
        eg_p = expectation(base62.claim_law, change.gamma)
        drift = theta * alpha + theta * eg_p - theta * math.expm1(alpha)
        assert drift < 0.0
    # identity change has exactly zero drift
    drift0 = 0.0
    assert drift0 == 0.0


def test_probe_requires_validation(base62):
    with pytest.raises(NotValidated):
        singularity_probe(derive_q_model(validate_change(base62, measure_change(xi="theta^2"))),
                          horizons=[1.0], n=500, seed=SEED)
