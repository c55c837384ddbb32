import math

import numpy as np
import pytest
from scipy import integrate as sci

from cmpplab.dist import (Beta, Exponential, Gamma, OutsideConvergenceStrip,
                          expectation, log_weighted_expectation)
from cmpplab.model import (BaseModel, derive_g, derive_q_model,
                           identity_change, measure_change, validate_change)
from cmpplab.premium import (AssumptionViolated, BadInterval,
                             check_condition_13, check_condition_14,
                             esscher_change, expected_value_change,
                             j_integral, j_integral_by_quadrature,
                             premium_density, premium_schedule)
from cmpplab.sim import DERIVED_Q
from cmpplab.verify import f_aggregate, mc_estimate

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


def scenario63(c=1.0):
    base = BaseModel(Gamma(c + 1.0, 2.0), Beta(2.0, 1.0))
    change = measure_change(alpha="ln(c+theta) + 2*ln((c+1)/(c+1+theta))",
                            gamma="c*x - 2*ln(c+1)", xi="1/(2*theta)",
                            params={"c": c})
    validate_change(base, change, level=2)
    return base, change, derive_q_model(base, change)


# ---------------------------------------------------------------------------
# premium densities

def test_worked_quote_62(base62, derived62):
    quote = premium_density(base62, derived62)
    assert quote.p_base == pytest.approx(5.0, rel=1e-12)
    assert quote.p_derived == pytest.approx(200.0 / 9.0, rel=1e-9)
    assert str(quote.per_theta_base) == "5*theta"
    assert str(quote.per_theta_derived) == "10*theta^2"
    assert quote.per_theta_derived(0.7) == pytest.approx(10.0 * 0.49, rel=1e-12)
    # independent recomputation by raw quadrature
    recomputed = (sci.quad(lambda t: t * t * float(Gamma(3, 4).density(t)), 0, 60)[0]
                  * sci.quad(lambda x: x * float(Gamma(0.2, 2).density(x)), 0, 400)[0])
    assert quote.p_derived == pytest.approx(recomputed, abs=1e-8 * recomputed)


def test_identity_quote(base62):
    validate_change(base62, identity_change(), level=1)
    quote = premium_density(base62, derive_q_model(base62, identity_change()))
    assert quote.p_base == quote.p_derived
    assert not check_condition_13(quote)
    assert not check_condition_14(1.0, base62, identity_change())


def test_quote_without_derived_model(base62):
    quote = premium_density(base62)
    assert quote.p_base == quote.p_derived == pytest.approx(5.0, rel=1e-12)
    assert not quote.cond13


def test_worked_quote_63():
    base, change, derived = scenario63(1.0)
    quote = premium_density(base, derived)
    assert quote.p_base == pytest.approx((4.0 / 3.0) / 2.0, rel=1e-9)
    assert quote.p_derived == pytest.approx(2.0 * 4.0 * j_integral(1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# schedule

def test_schedule_endpoints(base62, derived62):
    quote = premium_density(base62, derived62)
    assert premium_schedule(quote, 1.0, 1.0) == 0.0
    assert premium_schedule(quote, 0.0, 1.0) == pytest.approx(quote.p_derived, rel=1e-12)
    with pytest.raises(BadInterval):
        premium_schedule(quote, 2.0, 1.0)
    with pytest.raises(BadInterval):
        premium_schedule(quote, -0.5, 1.0)


def test_schedule_worked_value_63():
    base, change, derived = scenario63(1.0)
    quote = premium_density(base, derived)
    # 8 J(1), with J by its quadrature oracle
    assert premium_schedule(quote, 0.0, 1.0) == pytest.approx(
        8.0 * j_integral_by_quadrature(1.0), rel=1e-8)


def test_schedule_linearity(base62, derived62):
    quote = premium_density(base62, derived62)
    T = 3.0
    for u in (0.0, 0.4, 1.7, 3.0):
        assert premium_schedule(quote, T - u, T) == pytest.approx(
            u * quote.p_derived, rel=1e-12)


# ---------------------------------------------------------------------------
# loading conditions

def test_condition_13_62(base62, derived62):
    quote = premium_density(base62, derived62)
    assert check_condition_13(quote)
    assert quote.p_base < quote.p_derived


def test_condition_13_63():
    base, change, derived = scenario63(1.0)
    assert check_condition_13(premium_density(base, derived))
    assert j_integral(1.0) > (2.0 / 3.0) / 8.0


def test_condition_14_boundary_62(base62, change62):
    assert check_condition_14(0.6, base62, change62)
    assert not check_condition_14(0.4, base62, change62)
    assert check_condition_14(0.5 + 1e-6, base62, change62)
    assert not check_condition_14(0.5 - 1e-6, base62, change62)


def test_condition_14_brute_force_grid_63():
    base, change, derived = scenario63(1.0)
    quote = premium_density(base, derived)
    for theta in np.linspace(0.005, 0.995, 100):
        direct = quote.per_theta_base(theta) < quote.per_theta_derived(theta)
        assert check_condition_14(theta, base, change) == direct
        # the quadratic criterion with c = 1: theta^2 - 4 theta - 4 < 0
        assert direct == (theta**2 - 4.0 * theta - 4.0 < 0.0)


def test_condition_14_expected_value_iff_positive_loading(base62):
    for c, expected in ((0.3, True), (1.0, True), (-0.2, False), (0.0, False)):
        change = expected_value_change(c)
        validate_change(base62, change, level=1)
        for theta in (0.5, 1.0, 2.0):
            assert check_condition_14(theta, base62, change) is expected


# ---------------------------------------------------------------------------
# preset builders

def test_esscher_change_normalized(base62):
    change = esscher_change(0.05, base62)
    rep = validate_change(base62, change, level=1)
    assert rep.verdict
    assert abs(rep.gamma_norm - 1.0) <= 1e-10
    assert str(derive_g(change)) == "theta"


def test_esscher_outside_strip(base62):
    with pytest.raises(OutsideConvergenceStrip):
        esscher_change(0.25, base62)


def test_esscher_condition_14_iff_covariance(base62):
    c = 0.05
    change = esscher_change(c, base62)
    validate_change(base62, change, level=1)
    claims = base62.claim_law
    lhs = claims.moment(1) * claims.mgf(c)
    rhs = log_weighted_expectation(claims, lambda x: c * x, f=lambda x: x)
    assert (lhs < rhs) == check_condition_14(1.0, base62, change)
    assert lhs < rhs


def test_esscher_monotone_in_c(base62):
    values = []
    for c in (0.01, 0.05, 0.1, 0.15, 0.19):
        change = esscher_change(c, base62)
        validate_change(base62, change, level=1)
        quote = premium_density(base62, derive_q_model(base62, change))
        values.append(quote.per_theta_derived(1.0))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_expected_value_loading_factor(base62):
    c = 0.7
    change = expected_value_change(c)
    validate_change(base62, change, level=1)
    quote = premium_density(base62, derive_q_model(base62, change))
    for theta in (0.3, 1.0, 2.2):
        ratio = quote.per_theta_derived(theta) / quote.per_theta_base(theta)
        assert ratio == pytest.approx(math.exp(c), rel=1e-12)


def test_expected_value_zero_is_identity():
    change = expected_value_change(0.0)
    assert str(derive_g(change)) == "theta"
    assert change.gamma(3.0) == 0.0
    assert change.xi(2.0) == 1.0


# ---------------------------------------------------------------------------
# the j integral

def test_j_integral_closed_form_vs_quadrature():
    for c in (0.5, 1.0, 2.0, 5.0):
        assert j_integral(c) == pytest.approx(j_integral_by_quadrature(c), abs=1e-8)


def test_j_integral_positivity_assumption():
    # at c = 1: 4 > 9 ln(1.5) = 3.6492...
    assert 4.0 > 9.0 * math.log(1.5)
    j_integral(1.0)
    with pytest.raises(AssumptionViolated):
        j_integral(-0.5)


def test_per_theta_consistency(base62, derived62):
    quote = premium_density(base62, derived62)
    integrated = expectation(derived62.q_mixing, quote.per_theta_derived)
    assert integrated == pytest.approx(quote.p_derived, abs=1e-8 * quote.p_derived)
    base, change, derived = scenario63(1.0)
    q63 = premium_density(base, derived)
    integrated = expectation(derived.q_mixing, q63.per_theta_derived)
    assert integrated == pytest.approx(q63.p_derived, abs=1e-8 * max(1.0, q63.p_derived))


def test_closed_form_premium_matches_monte_carlo_all_builtins():
    from cmpplab.scenario import resolve_scenario
    for name in ("example-6.1a", "example-6.1b", "example-6.2", "example-6.3"):
        scn = resolve_scenario(name)
        validate_change(scn.base, scn.change, scn.level)
        derived = derive_q_model(scn.base, scn.change)
        quote = premium_density(scn.base, derived)
        rep = mc_estimate(f_aggregate(), scn.base, derived, DERIVED_Q, 1.0,
                          100_000, SEED, oracle=quote.p_derived)
        assert abs(rep.estimate - quote.p_derived) <= 4.0 * rep.stderr, name
