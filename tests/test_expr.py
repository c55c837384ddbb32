import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpplab.expr import (DomainError, ExprSyntaxError, UnboundParameter,
                          UnknownIdentifier, parse)

PARAMS = {"a": 1.0, "b": 2.0, "c": 3.0}


def test_mixing_weight_value():
    f = parse("(27/8)*theta^2*exp(-theta)")
    # 27/(8e), checked on an independent calculator
    assert f(1.0) == pytest.approx(1.2415931139536178, rel=1e-12)


def test_identity():
    assert parse("x")(3.0) == 3.0


def test_malformed_input_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("ln(")
    assert exc.value.offset == 3


def test_exponential_tilt_expression():
    g = parse("c*x - 2*ln(c+1)", var="x", params={"c": 1.0})
    assert g(0.0) == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)


def test_zero_function():
    assert parse("0")(123.0) == 0.0


def test_log_eval():
    assert parse("ln(theta)")(0.5) == pytest.approx(-0.6931471805599453, rel=1e-12)


def test_precedence():
    assert parse("2+3*4")(0.0) == 14.0
    assert parse("2^3^2")(0.0) == 512.0
    assert parse("-2^2")(0.0) == -4.0
    assert parse("2^-1")(0.0) == 0.5
    assert parse("6/3/2")(0.0) == 1.0
    assert parse("1-2-3")(0.0) == -4.0


GOLDEN_CORPUS = [
    "0", "1", "x", "-x", "x+1", "1-x", "2*x", "x/2", "x^2", "x^2^3",
    "-x^2", "(x+1)*(x-1)", "x*(x+1)", "(2^3)^2", "2^-x", "x--1",
    "ln(x)", "exp(-x)", "sqrt(x+1)", "ln(x/5)", "exp(x)*exp(-x)",
    "a*x+b", "c*x - 2*ln(c+1)", "(27/8)*x^2*exp(-x)", "1/(2*x)",
    "a/(b*c)", "a/b/c", "x^a^2", "-(x+1)/2", "1e-07*x + 2.5e3",
]


@pytest.mark.parametrize("src", GOLDEN_CORPUS)
def test_golden_roundtrip(src):
    first = parse(src, var="x", params=PARAMS)
    second = parse(str(first), var="x", params=PARAMS)
    assert first.tree == second.tree


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("foo + x")
    with pytest.raises(UnknownIdentifier):
        parse("theta", var="x")          # wrong free variable for the role
    with pytest.raises(UnknownIdentifier):
        parse("qqq(x)")                  # not a known function


def test_both_variables_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x + theta")


DOMAIN_ERRORS = [
    ("ln(x)", 0.0), ("ln(x-1)", 0.5), ("ln(x-1)", 1.0), ("1/x", 0.0),
    ("1/(x-1)", 1.0), ("(x-1)^(-1)", 1.0), ("sqrt(-x)", 4.0), ("(-2)^x", 0.5),
    ("exp(1000*x) - exp(1000*x)", 1.0),
]


def test_domain_errors():
    import numpy as np
    for src, point in DOMAIN_ERRORS:
        f = parse(src)
        with pytest.raises(DomainError):
            f(point)
        with pytest.raises(DomainError):
            f.eval_array(np.array([point]))
        with pytest.raises(DomainError):       # one bad element spoils the array
            f.eval_array(np.array([point + 10.0, point]))


def test_unbound_parameter():
    f = parse("c*x", params=["c"])
    with pytest.raises(UnboundParameter):
        f(1.0)
    assert f.bind(c=3.0)(2.0) == 6.0


def test_overflow_saturates():
    assert parse("exp(x)")(1e6) == math.inf


def test_referential_transparency():
    f = parse("exp(-x)*x^3 + ln(x+2)")
    vals = {f(1.2345) for _ in range(50)}
    assert len(vals) == 1


def test_eval_array_matches_scalar():
    import numpy as np
    f = parse("(x+1)*exp(-x/3)")
    xs = np.linspace(0.1, 9.0, 43)
    assert np.allclose(f.eval_array(xs), [f(v) for v in xs], rtol=0, atol=0)


# ---------------------------------------------------------------------------
# property: printing any generated tree reparses identically

def trees(depth=3):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
            lambda v: f"{v!r}"),
        st.just("x"), st.just("a"), st.just("b"),
    )
    if depth == 0:
        return leaf
    sub = trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(st.sampled_from(["ln", "exp", "sqrt"]), sub).map(
            lambda t: f"{t[0]}(({t[1]})^2+1)"),
    )


@settings(max_examples=150, deadline=None)
@given(trees())
def test_roundtrip_property(src):
    fn = parse(src, var="x", params=PARAMS)
    again = parse(str(fn), var="x", params=PARAMS)
    assert fn.tree == again.tree


GRID = [-2.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.7, 10.0]


@settings(max_examples=300, deadline=None)
@given(trees())
def test_scalar_and_array_agree(src):
    """Both modes raise DomainError at a point, or they agree bit for bit."""
    import numpy as np
    fn = parse(src, var="x", params=PARAMS)
    for point in GRID:
        try:
            scalar = fn(point)
        except DomainError:
            scalar = None
        try:
            array = fn.eval_array(np.array([point]))[0]
        except DomainError:
            array = None
        assert (scalar is None) == (array is None), (src, point)
        if scalar is not None:
            assert scalar == array, (src, point)
