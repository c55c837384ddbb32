import math

import numpy as np
import pytest

from cmpplab.dist import Degenerate, Exponential, Gamma, expectation
from cmpplab.model import (BaseModel, derive_q_model, identity_change,
                           measure_change, validate_change)
from cmpplab.premium import esscher_change, expected_value_change
from cmpplab.sim import (BASE_P, DERIVED_Q, PathBatch, conditional_p, log_density_batch,
                         simulate_batch)
from cmpplab.verify import (check_martingale, check_reweighting,
                            degeneracy_test, f_aggregate, f_count,
                            f_count_eq, f_one, mc_estimate,
                            process_constant, process_density, process_raw,
                            process_v, singularity_probe)

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
# mc_estimate

def test_constant_functional(base62, derived62):
    rep = mc_estimate(f_one(), base62, derived62, BASE_P, 1.0, 1000, SEED, oracle=1.0)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0
    assert rep.verdict == "pass"
    assert rep.ci_low <= rep.estimate <= rep.ci_high


def test_count_mean_oracle(base62, derived62):
    oracle = expectation(base62.mixing_law, lambda th: th)
    rep = mc_estimate(f_count(), base62, derived62, BASE_P, 1.0, 100_000, SEED,
                      oracle=oracle)
    assert rep.verdict == "pass"
    assert oracle == pytest.approx(1.0, rel=1e-10)


def test_aggregate_mean_oracle(base62, derived62):
    rep = mc_estimate(f_aggregate(), base62, derived62, BASE_P, 1.0, 100_000,
                      SEED, oracle=5.0)
    assert rep.verdict == "pass"


def test_minimum_path_count(base62, derived62):
    with pytest.raises(ValueError):
        mc_estimate(f_one(), base62, derived62, BASE_P, 1.0, 50, SEED)


def test_custom_callable_functional(base62, derived62):
    rep = mc_estimate(lambda p, t: float(p.theta), base62, derived62, BASE_P,
                      1.0, 500, SEED, oracle=1.0)
    assert rep.verdict == "pass"


# ---------------------------------------------------------------------------
# reweighting

def test_reweighting_trivial_functional(base62, change62):
    res = check_reweighting(f_one(), base62, change62, t=1.0, n=5000, seed=SEED)
    assert res.direct.estimate == 1.0
    assert res.verdict == "pass"


def test_reweighting_vacuous_probability(base62, change62, derived62):
    oracle = expectation(Gamma(3.0, 4.0), lambda th: np.exp(-th * th))
    res = check_reweighting(f_count_eq(0), base62, change62, t=1.0, n=100_000,
                            seed=SEED, oracle=oracle)
    assert res.verdict == "pass"
    assert abs(res.direct.estimate - oracle) <= 3.0 * res.direct.stderr
    assert abs(res.weighted.estimate - oracle) <= 3.0 * res.weighted.stderr


def test_reweighting_aggregate_with_oracle(base62, change62):
    res = check_reweighting(f_aggregate(), base62, change62, t=1.0, n=100_000,
                            seed=SEED, oracle=200.0 / 9.0)
    assert res.verdict == "pass"
    assert abs(res.direct.estimate - 200.0 / 9.0) <= 3.0 * res.direct.stderr


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_reweighting_conditional(base62, change62, theta):
    res = check_reweighting(f_aggregate(), base62, change62, t=1.0, n=60_000,
                            seed=SEED, under_conditional=theta,
                            oracle=theta**2 * 10.0)
    assert res.verdict == "pass"
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
    table = check_martingale(process_constant(7.0), base62, derived62,
                             DERIVED_Q, [(0.5, 1.0)], n=1000, seed=SEED)
    assert table.verdict == "pass"
    assert all(c.estimate == 0.0 and c.stderr == 0.0 for c in table.cells)


def test_v_is_martingale_under_q(base62, change62, derived62):
    table = check_martingale(process_v(change62), base62, derived62, DERIVED_Q,
                             [(0.5, 1.0), (1.0, 2.0)], n=60_000, seed=SEED)
    assert table.verdict == "pass"
    assert len(table.cells) == 16


def test_raw_aggregate_fails_with_wald_drift(base62, change62, derived62):
    e_g = expectation(derived62.q_mixing, derived62.g)
    e_x = derived62.q_claim.moment(1)
    table = check_martingale(process_raw(), base62, derived62, DERIVED_Q,
                             [(0.5, 1.0)], n=60_000, seed=SEED)
    assert table.verdict == "fail"
    ws = next(c for c in table.cells if c.event == "whole_space")
    oracle = 0.5 * e_g * e_x
    assert abs(ws.estimate - oracle) <= 4.0 * ws.stderr
    assert not ws.cell_pass


def test_density_is_conditional_martingale(base62, change62, derived62):
    table = check_martingale(process_density(change62), base62, derived62,
                             conditional_p(1.0), [(0.5, 1.0), (1.0, 2.0)],
                             n=60_000, seed=SEED)
    assert table.verdict == "pass"


@pytest.fixture
def functional_log(monkeypatch):
    """(batch id, kind, t) of every N_t or S_t a batch computes afresh."""
    log, alive = [], []  # batches stay alive so that their ids stay unique
    compute = PathBatch._functional

    def counted(batch, kind, t):
        alive.append(batch)
        log.append((id(batch), kind, t))
        return compute(batch, kind, t)

    monkeypatch.setattr(PathBatch, "_functional", counted)
    return log


@pytest.mark.parametrize("process", ["v", "density"])
def test_martingale_computes_each_functional_once_per_batch(
        base62, derived62, change62, functional_log, process):
    spec = process_v(change62) if process == "v" else process_density(change62)
    table = check_martingale(spec, base62, derived62, DERIVED_Q,
                             [(0.5, 1.0), (1.0, 2.0)], n=3000, seed=SEED)
    assert len(table.cells) == 16  # the default 8 events, two pairs
    assert len(functional_log) == len(set(functional_log))
    by_batch = {}
    for batch, kind, t in functional_log:
        by_batch.setdefault(batch, set()).add((kind, t))
    # the pilot batch of the event family, then the one 3000-path batch
    pilot, main = by_batch.values()
    assert pilot == {("S", 0.5)}
    # the events need N and S at s = 0.5; the process needs V_t (from S_t)
    # or the density (from N_t) at each distinct time 0.5, 1 and 2
    kind = "S" if process == "v" else "N"
    expected = {("N", 0.5), ("S", 0.5), (kind, 1.0), (kind, 2.0)}
    assert main == expected


def test_event_anchor_validation(base62, derived62, change62):
    from cmpplab.verify import count_at_most
    with pytest.raises(ValueError):
        check_martingale(process_v(change62), base62, derived62, DERIVED_Q,
                         [(0.5, 1.0)], events=[count_at_most(0.8, 1)],
                         n=1000, seed=SEED)


# ---------------------------------------------------------------------------
# degeneracy dichotomy

def test_degenerate_mixing_centered_aggregate_is_martingale():
    base = BaseModel(Exponential(0.2), Degenerate(1.0))
    change = measure_change(alpha="ln(theta)", gamma="ln(x/5)", xi="1")
    validate_change(base, change, level=2)
    res = degeneracy_test(base, change, n=200_000, seed=SEED)
    assert res.is_martingale


def test_nondegenerate_mixing_violation_with_oracle(base62, change62):
    res = degeneracy_test(base62, change62, n=400_000, seed=SEED)
    assert not res.is_martingale
    assert abs(res.witness_z) >= 5.0
    # estimate agrees with the quadrature covariance oracle
    assert abs(res.witness_estimate - res.witness_oracle) <= 4.0 * res.witness_stderr
    assert res.witness_oracle != 0.0


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
    validate_change(base62, identity_change(), level=2)
    rows = singularity_probe(base62, identity_change(), horizons=[2.0, 5.0],
                             n=500, seed=SEED)
    assert all(r.mean_log_density == 0.0 for r in rows)
    assert all(r.frac_below == 0.0 and r.frac_above == 0.0 for r in rows)


def test_expected_value_drifts(base62):
    c = math.log(2.0)
    change = expected_value_change(c)
    validate_change(base62, change, level=2)
    rows = singularity_probe(base62, change, horizons=[10.0, 50.0], n=4000,
                             seed=SEED, theta_fixed=1.0)
    by = {(r.horizon, r.side): r for r in rows}
    for T in (10.0, 50.0):
        p_row, q_row = by[(T, "p")], by[(T, "q")]
        assert p_row.drift_oracle == pytest.approx(math.log(2.0) - 1.0, rel=1e-9)
        assert q_row.drift_oracle == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-9)
        assert abs(p_row.drift - p_row.drift_oracle) <= 3.0 * p_row.drift_stderr
        assert abs(q_row.drift - q_row.drift_oracle) <= 3.0 * q_row.drift_stderr
    # divergence trend: mass below -5 grows with the horizon on the base side
    assert by[(50.0, "p")].frac_below > by[(10.0, "p")].frac_below


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
        validate_change(base62, change, level=1)
        derived = derive_q_model(base62, change)
        alpha = change.alpha(theta)
        eg_p = expectation(base62.claim_law, change.gamma)
        drift = theta * alpha + theta * eg_p - theta * math.expm1(alpha)
        assert drift < 0.0
    # identity change has exactly zero drift
    drift0 = 0.0
    assert drift0 == 0.0


def test_probe_requires_validation(base62):
    with pytest.raises(Exception):
        singularity_probe(base62, measure_change(xi="theta^2"),
                          horizons=[1.0], n=500, seed=SEED)
