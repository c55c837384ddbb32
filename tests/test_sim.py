import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cmpplab import sim
from cmpplab.dist import Degenerate, Exponential, Gamma, Tilted, expectation
from cmpplab.expr import DomainError
from cmpplab.model import (BaseModel, derive_q_model, identity_change,
                           measure_change, validate_change)
from cmpplab.rng import LANE_ARRIVAL, RngStream, uniforms
from cmpplab.sim import (_FAMILY_STRIDE, BASE_P, DERIVED_Q, OutOfHorizon, Path,
                         SimulationError, claim_tilt_mean, conditional_p,
                         conditional_q, dump_paths, log_density_M,
                         log_density_batch, simulate_batch, simulate_path,
                         surplus_v, surplus_v_batch, surplus_y, surplus_y_batch)

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
    validate_change(base62, change62, level=2)
    return derive_q_model(base62, change62)


# ---------------------------------------------------------------------------
# path values

def test_zero_horizon_empty_path(base62):
    p = simulate_path(base62, None, BASE_P, 0.0, RngStream(1, 0))
    assert len(p) == 0
    assert p.count_at(0.0) == 0
    assert p.aggregate_at(0.0) == 0.0


def test_count_and_aggregate_by_hand():
    p = Path(theta=1.0, event_times=np.array([0.3, 0.7]),
             claims=np.array([2.0, 5.0]), horizon=1.0)
    assert p.aggregate_at(0.5) == 2.0
    assert p.aggregate_at(0.7) == 7.0     # event exactly at t counts
    assert p.count_at(0.7) == 2
    assert p.count_at(0.2) == 0
    with pytest.raises(OutOfHorizon):
        p.count_at(1.5)


def test_path_invariants_enforced():
    with pytest.raises(ValueError):
        Path(1.0, np.array([0.5, 0.4]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        Path(1.0, np.array([0.5]), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        Path(1.0, np.array([1.5]), np.array([1.0]), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4000),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_aggregate_nondecreasing(idx, t1, t2):
    base = BaseModel(Exponential(0.2), Gamma(2.0, 2.0))
    p = simulate_path(base, None, BASE_P, 2.0, RngStream(7, idx))
    lo, hi = min(t1, t2), max(t1, t2)
    assert p.aggregate_at(lo) <= p.aggregate_at(hi)
    assert p.count_at(lo) <= p.count_at(hi)


# ---------------------------------------------------------------------------
# memoized path functionals

def reference_functionals(batch, t):
    """N_t and S_t of every path by the plain running sums of the flat arrays:
    the rounding every report depends on."""
    upto = batch.times <= t
    n_inc = np.concatenate([[0], np.cumsum(upto)])
    s_inc = np.concatenate([[0.0], np.cumsum(np.where(upto, batch.claims, 0.0))])
    lo, hi = batch.offsets[:-1], batch.offsets[1:]
    return n_inc[hi] - n_inc[lo], s_inc[hi] - s_inc[lo]


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
# distributional checks

def test_conditional_counts_chi_square(base62):
    lam = 2.0
    b = simulate_batch(base62, None, conditional_p(lam), 1.0, seed=SEED, n=100_000)
    counts = b.counts_at(1.0)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    from cmpplab.dist import Poisson
    pmf = np.array([Poisson(lam).density(k) for k in range(kmax + 1)])
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
    a = simulate_path(base62, None, BASE_P, 2.0, RngStream(313, 5))
    b = simulate_path(base62, None, BASE_P, 2.0, RngStream(313, 5))
    assert a.theta == b.theta
    assert np.array_equal(a.event_times, b.event_times)
    assert np.array_equal(a.claims, b.claims)


def test_scalar_equals_batch_member(base62, derived62):
    batch = simulate_batch(base62, derived62, DERIVED_Q, 1.5, seed=271, n=600)
    for i in (0, 1, 77, 599):
        solo = simulate_path(base62, derived62, DERIVED_Q, 1.5, RngStream(271, i))
        member = batch.path(i)
        assert solo.theta == member.theta
        assert np.array_equal(solo.event_times, member.event_times)
        assert np.array_equal(solo.claims, member.claims)


@pytest.fixture(scope="module")
def derived_tilted(base62):
    # no closure rule matches this change, so both Q laws are Tilted
    change = measure_change(alpha="ln(1+theta)", gamma="ln(1+x) - ln(6)",
                            xi="(1+theta)/2")
    validate_change(base62, change, level=2)
    derived = derive_q_model(base62, change)
    assert isinstance(derived.q_claim, Tilted) and isinstance(derived.q_mixing, Tilted)
    return derived


def test_scalar_equals_batch_member_tilted(base62, derived_tilted):
    batch = simulate_batch(base62, derived_tilted, DERIVED_Q, 2.0, seed=SEED, n=600)
    for i in (0, 1, 2, 77, 301, 599):
        solo = simulate_path(base62, derived_tilted, DERIVED_Q, 2.0, RngStream(SEED, i))
        member = batch.path(i)
        assert solo.theta == member.theta
        assert np.array_equal(solo.event_times, member.event_times)
        assert np.array_equal(solo.claims, member.claims)


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


def test_accumulation_matches_reference_short_paths(base62):
    batch = simulate_batch(base62, None, BASE_P, 5.0, seed=SEED, n=2000)
    counts = batch.counts
    # paths that stop inside the first sub-block, in the second, and later
    assert (counts < 4).any() and ((counts >= 4) & (counts < 16)).any() \
        and (counts >= 16).any()
    assert_times_match_reference(batch, base62.rate_at(batch.thetas), SEED)


def test_accumulation_matches_reference_q_side_chunked(base62, derived62):
    assert isinstance(derived62.q_claim, Gamma)
    args = (base62, derived62, DERIVED_Q, 2.0)
    whole = simulate_batch(*args, seed=SEED, n=1000, family=3)
    first = simulate_batch(*args, seed=SEED, n=990, family=3)
    second = simulate_batch(*args, seed=SEED, n=10, start_index=990, family=3)
    assert whole.times.tobytes() == np.concatenate([first.times, second.times]).tobytes()
    assert whole.claims.tobytes() == np.concatenate([first.claims, second.claims]).tobytes()
    assert_times_match_reference(whole, derived62.g_at(whole.thetas), SEED, family=3)
    assert_times_match_reference(second, derived62.g_at(second.thetas), SEED,
                                 start_index=990, family=3)
    member = simulate_batch(*args, seed=SEED, n=1000).path(995)
    solo = simulate_path(*args, RngStream(SEED, 995))
    assert solo.theta == member.theta
    assert solo.event_times.tobytes() == member.event_times.tobytes()
    assert solo.claims.tobytes() == member.claims.tobytes()


# ---------------------------------------------------------------------------
# likelihood-ratio density

def test_identity_change_density_is_zero(base62):
    p = simulate_path(base62, None, BASE_P, 2.0, RngStream(8, 3))
    for t in (0.0, 0.5, 1.7, 2.0):
        assert log_density_M(p, t, identity_change()) == 0.0


def test_empty_path_hand_value():
    p = Path(theta=2.0, event_times=np.array([]), claims=np.array([]), horizon=1.0)
    change = measure_change(alpha="ln(2)", gamma="0", xi="1")
    # N_t = 0: 0*alpha + 0 - t*theta*(e^alpha - 1) = -1*2*(2-1)
    assert log_density_M(p, 1.0, change) == pytest.approx(-2.0, abs=1e-14)


def test_density_rejects_nonpositive_xi(base62):
    change = measure_change(xi="theta-1")
    p = Path(theta=0.5, event_times=np.array([0.2]), claims=np.array([3.0]), horizon=1.0)
    with pytest.raises(DomainError):
        log_density_M(p, 1.0, change)
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
        assert lb[i] == pytest.approx(
            log_density_M(b.path(i), 1.3, change62), rel=1e-12, abs=1e-12)


def test_density_additive_over_increments(base62, change62):
    b = simulate_batch(base62, None, BASE_P, 2.0, seed=23, n=50)
    for i in (0, 13, 49):
        p = b.path(i)
        for s, t in ((0.0, 0.4), (0.4, 1.1), (1.1, 2.0)):
            whole = log_density_M(p, t, change62, include_xi=False)
            left = log_density_M(p, s, change62, include_xi=False)
            n_s, n_t = p.count_at(s), p.count_at(t)
            inc = ((n_t - n_s) * change62.alpha(p.theta)
                   + sum(change62.gamma(x) for x in p.claims[n_s:n_t])
                   - (t - s) * p.theta * math.expm1(change62.alpha(p.theta)))
            assert whole == pytest.approx(left + inc, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# surplus processes

def test_surplus_formulas_62(base62, change62, derived62):
    assert claim_tilt_mean(base62, change62) == pytest.approx(10.0, rel=1e-9)
    b = simulate_batch(base62, derived62, DERIVED_Q, 1.0, seed=3, n=500)
    v = surplus_v_batch(b, 1.0, base62, change62)
    expect = b.aggregates_at(1.0) - 10.0 * b.thetas**2
    assert np.max(np.abs(v - expect)) < 1e-9
    p = b.path(7)
    assert surplus_v(p, 1.0, base62, change62) == pytest.approx(
        p.aggregate_at(1.0) - 10.0 * p.theta**2, rel=1e-9)


def test_surplus_formulas_63():
    c = 1.0
    base = BaseModel(Gamma(c + 1.0, 2.0), Degenerate(0.5))
    change = measure_change(alpha="ln(c+theta) + 2*ln((c+1)/(c+1+theta))",
                            gamma="c*x - 2*ln(c+1)", xi="1",
                            params={"c": c})
    # xi = 1 works for the degenerate mixing; the V coefficient is E[X e^gamma] = 2
    validate_change(base, change, level=2)
    p = simulate_path(base, None, BASE_P, 1.0, RngStream(9, 4))
    th = p.theta
    expect = p.aggregate_at(1.0) - 2.0 * (c + th) * (c + 1.0) ** 2 * th / (c + 1.0 + th) ** 2
    assert surplus_v(p, 1.0, base, change) == pytest.approx(expect, rel=1e-9)


def test_identity_change_v_equals_y(base62):
    b = simulate_batch(base62, None, BASE_P, 1.0, seed=12, n=200)
    v = surplus_v_batch(b, 1.0, base62, identity_change())
    y = surplus_y_batch(b, 1.0, base62)
    assert np.max(np.abs(v - y)) < 1e-9
    p = b.path(0)
    assert surplus_v(p, 0.7, base62, identity_change()) == pytest.approx(
        surplus_y(p, 0.7, base62), rel=1e-12)


def test_v_coefficient_recomputation_consistent(base62, change62):
    a = claim_tilt_mean(base62, change62)
    b = claim_tilt_mean(base62, change62)
    assert a == b  # cached value is bit-stable


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
