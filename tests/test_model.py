import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmpplab.dist import Beta, Degenerate, Exponential, Gamma, Tilted, Uniform
from cmpplab.expr import Bin, Call, DomainError, Neg, Num, RealFn, Var, parse
from cmpplab.model import (BaseModel, MeasureChange, ModelError, NotValidated,
                           _log_linear, derive_g, derive_q_model, identity_change,
                           measure_change, validate_change)


@pytest.fixture
def base62():
    return BaseModel(Exponential(0.2), Gamma(2.0, 2.0))


@pytest.fixture
def change62():
    return measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                          xi="(27/8)*theta^2*exp(-theta)")


@pytest.fixture
def base63():
    return BaseModel(Gamma(2.0, 2.0), Beta(2.0, 1.0))


@pytest.fixture
def change63():
    return measure_change(alpha="ln(c+theta) + 2*ln((c+1)/(c+1+theta))",
                          gamma="c*x - 2*ln(c+1)", xi="1/(2*theta)",
                          params={"c": 1.0})


# ---------------------------------------------------------------------------
# base model construction

def test_base_model_rejects_bad_supports():
    with pytest.raises(ModelError):
        BaseModel(Uniform(-1.0, 1.0), Gamma(2.0, 2.0))


# ---------------------------------------------------------------------------
# validation

def test_identity_change_passes_level_2(base62):
    rep = validate_change(base62, identity_change(), level=2)
    assert rep.verdict
    assert rep.gamma_norm == pytest.approx(1.0, abs=1e-10)
    assert rep.xi_norm == pytest.approx(1.0, abs=1e-10)
    assert rep.level_achieved == 2


def test_worked_change_passes(base62, change62):
    rep = validate_change(base62, change62, level=2)
    assert rep.verdict
    assert abs(rep.gamma_norm - 1.0) <= 1e-8
    assert abs(rep.xi_norm - 1.0) <= 1e-8
    # gate values: E[X^2 e^gamma] = E[X^3]/5 and E[xi g^2] = Gamma(8)/(2 3^8)*27*4
    assert rep.claim_gate == pytest.approx(150.0, rel=1e-9)
    assert rep.mixing_gate == pytest.approx(840.0 / 81.0, rel=1e-9)


def test_divergent_gamma_reported_not_raised(base62):
    rep = validate_change(base62, measure_change(gamma="x"))
    assert not rep.verdict
    assert any("gamma_norm" in f and "divergent" in f for f in rep.failures)


def test_negative_xi_fails(base62):
    rep = validate_change(base62, measure_change(xi="2 - theta"))
    assert not rep.verdict
    assert not rep.xi_positive


def test_unnormalized_xi_fails(base62):
    # E[Theta^2] = 1.5 under this mixing, so the weight is not a density
    rep = validate_change(base62, measure_change(xi="theta^2"))
    assert not rep.verdict
    assert any("xi_norm" in f for f in rep.failures)


# ---------------------------------------------------------------------------
# derive_g

def test_derive_g_identity():
    g = derive_g(identity_change())
    assert str(g) == "theta"
    assert g(1.7) == 1.7


def test_derive_g_log_alpha(change62):
    g = derive_g(change62)
    assert str(g) == "theta^2"
    for t in (0.3, 1.0, 2.5):
        assert g(t) == pytest.approx(t * t, rel=1e-15)


def test_derive_g_constant_alpha():
    g = derive_g(measure_change(alpha="c", params={"c": math.log(2.0)}))
    assert str(g) == "2*theta"
    assert g(3.0) == 6.0


def test_derive_g_general_composition(change63):
    c = 1.0
    g = derive_g(change63)
    for t in (0.1, 0.5, 0.9):
        expect = t * (c + t) * (c + 1.0) ** 2 / (c + 1.0 + t) ** 2
        assert g(t) == pytest.approx(expect, rel=1e-12)


def test_g_times_exp_minus_alpha_is_theta(base62, change62, change63):
    for change, grid in ((change62, Gamma(2.0, 2.0).interior_grid(64)),
                         (change63, Beta(2.0, 1.0).interior_grid(64))):
        g = derive_g(change)
        for t in grid:
            assert g(t) * math.exp(-change.alpha(t)) == pytest.approx(t, abs=1e-12)


# ---------------------------------------------------------------------------
# derived models and closure rules

def test_worked_derivation_62(base62, change62):
    dm = derive_q_model(validate_change(base62, change62, level=2))
    assert dm.q_mixing == Gamma(3.0, 4.0)
    assert dm.q_claim == Gamma(0.2, 2.0)
    assert dm.q_claim.moment(1) == pytest.approx(10.0, rel=1e-12)


def test_worked_derivation_63(base63, change63):
    dm = derive_q_model(validate_change(base63, change63, level=2))
    assert dm.q_mixing == Uniform(0.0, 1.0)
    assert dm.q_claim == Gamma(1.0, 2.0)
    assert dm.q_claim.moment(1) == pytest.approx(2.0, rel=1e-12)


def test_esscher_closure_on_gamma():
    base = BaseModel(Gamma(1.5, 2.0), Beta(2.0, 1.0))
    change = measure_change(gamma="c*x - 2*ln(c+1)", params={"c": 0.5})
    rep = validate_change(base, change)
    assert rep.verdict
    dm = derive_q_model(rep)
    assert dm.q_claim == Gamma(1.0, 2.0)
    # density algebra cross-check at 20 grid points
    xs = dm.q_claim.interior_grid(20)
    lhs = dm.q_claim.density(xs)
    rhs = np.exp(change.gamma.eval_array(xs)) * base.claim_law.density(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_power_weight_closure_on_gamma():
    base = BaseModel(Exponential(1.0), Gamma(2.0, 3.0))
    # weight theta e^{-theta} * Gamma(3)/Gamma(4) * 2^3/3^4... use normalizer
    norm = (3.0 ** 4 / 2.0 ** 3) * math.gamma(3.0) / math.gamma(4.0)
    change = measure_change(xi="n*theta*exp(-theta)", params={"n": norm})
    rep = validate_change(base, change)
    assert rep.verdict
    dm = derive_q_model(rep)
    assert dm.q_mixing == Gamma(3.0, 4.0)


def test_unmatched_weight_falls_back_to_tilted(base62):
    # a genuinely non-catalog tilt: normalize w(theta) = C (1 + sin-free poly mix)
    from cmpplab.dist import expectation
    raw = parse("theta/(1+theta)", var="theta")
    norm = expectation(Gamma(2.0, 2.0), raw)
    change = measure_change(xi="(theta/(1+theta))/n", params={"n": norm})
    rep = validate_change(base62, change)
    assert rep.verdict
    dm = derive_q_model(rep)
    assert isinstance(dm.q_mixing, Tilted)


def test_pointwise_tilt_identity_even_when_catalog(base62, change62):
    dm = derive_q_model(validate_change(base62, change62, level=2))
    xs = dm.q_mixing.interior_grid(64)
    lhs = dm.q_mixing.density(xs)
    rhs = change62.xi.eval_array(xs) * base62.mixing_law.density(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    ys = dm.q_claim.interior_grid(64)
    lhs = dm.q_claim.density(ys)
    rhs = np.exp(change62.gamma.eval_array(ys)) * base62.claim_law.density(ys)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_degenerate_mixing_reduces_to_plain_compound_poisson():
    base = BaseModel(Exponential(0.2), Degenerate(1.0))
    change = measure_change(alpha="ln(theta)", gamma="ln(x/5)", xi="1")
    rep = validate_change(base, change, level=2)
    assert rep.verdict
    dm = derive_q_model(rep)
    assert dm.q_mixing == Degenerate(1.0)
    assert dm.g(1.0) == 1.0
    assert dm.q_claim == Gamma(0.2, 2.0)


@pytest.mark.parametrize("base,change", [
    (BaseModel(Exponential(0.2), Degenerate(1.0)), measure_change(xi="(1+theta)/2")),
    (BaseModel(Degenerate(2.0), Exponential(1.0)), measure_change(gamma="(x-2)^3")),
])
def test_degenerate_law_keeps_itself_under_any_validated_weight(base, change):
    # neither weight is log-linear, and a validated weight is 1 at the point
    dm = derive_q_model(validate_change(base, change, level=2))
    assert dm.q_claim == base.claim_law
    assert dm.q_mixing == base.mixing_law


def test_identity_change_maps_base_to_itself(base62):
    dm = derive_q_model(validate_change(base62, identity_change(), level=2))
    assert dm.q_claim == base62.claim_law
    assert dm.q_mixing == base62.mixing_law
    assert str(dm.g) == "theta"


def test_not_validated_error(base62):
    fresh = measure_change(alpha="0", gamma="0", xi="0.5 + theta*0.25")
    rep = validate_change(base62, fresh)
    assert not rep.verdict
    with pytest.raises(NotValidated, match="xi_norm"):
        derive_q_model(rep)


def test_report_carries_its_pair(base62, change62):
    rep = validate_change(base62, change62, level=2)
    assert rep.base is base62 and rep.change is change62
    dm = derive_q_model(rep)
    assert dm.base is base62 and dm.change is change62


def test_role_enforcement():
    with pytest.raises(ModelError):
        MeasureChange(alpha=parse("x", var="x"), gamma=parse("0", var="x"),
                      xi=parse("1", var="theta"))


# ---------------------------------------------------------------------------
# the closure matcher: gamma as c + k ln x + s x, ln xi as c + k ln theta + s theta

MATCHER_CORPUS = [
    # gamma (matched as is): builtins, workloads, premium presets, tests
    ("x", "ln(x/5)", {}, (1.0, 0.0)),
    ("x", "c*x - 2*ln(c+1)", {"c": 1.0}, (0.0, 1.0)),
    ("x", "c*x - lnM", {"c": 0.05, "lnM": 0.3}, (0.0, 0.05)),
    ("x", "0", {}, (0.0, 0.0)),
    ("x", "x", {}, (0.0, 1.0)),
    ("x", "(-2)*(-x)", {}, (0.0, 2.0)),
    ("x", "ln(1+x) - ln(6)", {}, None),
    ("x", "ln(x-1)", {}, None),
    # newly matched: the same laws the parent left Tilted
    ("x", "ln(x)/2", {}, (0.5, 0.0)),
    ("x", "ln(exp(x))", {}, (0.0, 1.0)),
    # xi (matched under the log)
    ("theta", "(27/8)*theta^2*exp(-theta)", {}, (2.0, -1.0)),
    ("theta", "1/(2*theta)", {}, (-1.0, 0.0)),
    ("theta", "1", {}, (0.0, 0.0)),
    ("theta", "theta^2", {}, (2.0, 0.0)),
    ("theta", "n*theta*exp(-theta)", {"n": 0.3}, (1.0, -1.0)),
    ("theta", "exp(ln(theta)/2)", {}, (0.5, 0.0)),
    ("theta", "(1+theta)/2", {}, None),
    ("theta", "2 - theta", {}, None),
    ("theta", "theta-1", {}, None),
    ("theta", "0.5 + theta*0.25", {}, None),
    ("theta", "(theta/(1+theta))/n", {"n": 0.3}, None),
    ("theta", "(1.0001 - 2*exp(-((theta-c)*10000)^2))/n", {"c": 1.0, "n": 0.3}, None),
    # no longer matched: negative factors that cancel
    ("theta", "(-2)*(-theta)", {}, None),
]


@pytest.mark.parametrize("var,src,params,expected", MATCHER_CORPUS,
                         ids=[f"{v}:{s}" for v, s, _, _ in MATCHER_CORPUS])
def test_log_linear_corpus(var, src, params, expected):
    fn = parse(src, var=var, params=params)
    got = _log_linear(fn.tree, fn.params, var == "theta")
    assert (None if got is None else got[1:]) == expected


def test_newly_matched_forms_derive_catalog_laws(base62):
    # e^{ln(x)/2} x e^{-0.2x} needs normalizing by Gamma(1.5)/0.2^0.5
    shift = math.lgamma(1.5) - 0.5 * math.log(0.2)
    change = measure_change(gamma=f"ln(x)/2 - {shift!r}")
    dm = derive_q_model(validate_change(base62, change))
    assert dm.q_claim == Gamma(0.2, 1.5)


def _trees(depth=3):
    leaf = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]).map(Num),
                     st.just(Var("v")))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(st.sampled_from(["ln", "exp", "sqrt"]), sub).map(lambda t: Call(*t)),
    )


@settings(max_examples=400, deadline=None)
@given(_trees(), st.booleans())
def test_log_linear_matches_the_tree(tree, of_log):
    """Where the matcher answers (c, k, s), the tree (its log with of_log)
    equals c + k ln v + s v on a grid in (0.1, 10), to 1e-12 of the terms."""
    vs = np.geomspace(0.11, 9.9, 17)
    try:
        value = RealFn(tree, "v").eval_array(vs)
    except DomainError:
        value = None
    assume(value is not None and np.isfinite(value).all())
    got = _log_linear(tree, {}, of_log)
    assume(got is not None)
    c, k, s = got
    if of_log:
        assert (value > 0.0).all()
        value = np.log(value)
    fit = c + k * np.log(vs) + s * vs
    scale = 1.0 + abs(c) + np.abs(k * np.log(vs)) + np.abs(s * vs)
    assert np.all(np.abs(value - fit) <= 1e-12 * scale)
