import math

import numpy as np
import pytest

from cmpplab.quadrature import (DivergentIntegral, integrate_finite,
                                integrate_semi_infinite)


def gamma22_pdf(x):
    return 4.0 * x * np.exp(-2.0 * x)


def gamma22_tail(T):
    return math.exp(-2.0 * T) * (1.0 + 2.0 * T)


def test_finite_interval_polynomial():
    assert integrate_finite(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0, rel=1e-12)
    assert integrate_finite(lambda x: 3 * x * x, 2.0, 0.0) == pytest.approx(-8.0, rel=1e-12)


def test_finite_empty_interval_is_zero():
    assert integrate_finite(lambda x: 1e9, 1.5, 1.5) == 0.0


def test_semi_infinite_normalization_and_moments():
    assert integrate_semi_infinite(gamma22_pdf, 0.0, gamma22_tail) == pytest.approx(1.0, abs=1e-10)
    m1 = integrate_semi_infinite(lambda x: x * gamma22_pdf(x), 0.0, gamma22_tail)
    assert m1 == pytest.approx(1.0, rel=1e-9)
    m3 = integrate_semi_infinite(lambda x: x**3 * gamma22_pdf(x), 0.0, gamma22_tail)
    assert m3 == pytest.approx(3.0, rel=1e-9)  # Gamma(5)/(Gamma(2) 2^3)


def exp_rate_pdf(rate):
    return lambda x: rate * np.exp(-rate * x)


def test_divergence_guard_exponential_moment():
    # E[e^X] under a mean-5 exponential does not exist
    pdf = exp_rate_pdf(0.2)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: np.exp(x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-0.2 * T))


def test_divergence_guard_boundary_rate():
    pdf = exp_rate_pdf(0.2)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: np.exp(0.2 * x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-0.2 * T))


def test_near_critical_convergent_tilt_not_flagged():
    # mass shifts far beyond the reference tail yet the integral exists:
    # E[e^{0.19 X}] = 0.2/0.01 = 20 under Exp(0.2); evaluate in log space
    def integrand(x):
        return np.exp(0.19 * x + math.log(0.2) - 0.2 * x)

    v = integrate_semi_infinite(integrand, 0.0, tail_mass=lambda T: math.exp(-0.2 * T))
    assert v == pytest.approx(20.0, rel=1e-7)


def test_overflowing_integrand_reports_divergence():
    pdf = exp_rate_pdf(1.0)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: np.exp(x * x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-T))


# ---------------------------------------------------------------------------
# the Gauss-Kronrod rule against closed forms and against QUADPACK

def close(value, exact):
    return abs(value - exact) <= max(1e-9 * abs(exact), 1e-12)


def quadpack(f, a, b):
    from scipy import integrate
    return integrate.quad(lambda x: float(f(np.array(x))), a, b,
                          epsabs=1e-12, epsrel=1e-9, limit=400)[0]


# (integrand, a, b or inf, reference tail mass, closed form)
CONVERGENT = {
    "polynomial": (lambda x: 3 * x * x, 0.0, 2.0, None, 8.0),
    "gamma22_pdf": (gamma22_pdf, 0.0, math.inf, gamma22_tail, 1.0),
    "gamma22_mean": (lambda x: x * gamma22_pdf(x), 0.0, math.inf, gamma22_tail, 1.0),
    "gamma22_m3": (lambda x: x**3 * gamma22_pdf(x), 0.0, math.inf, gamma22_tail, 3.0),
    "near_critical_tilt": (lambda x: np.exp(0.19 * x + math.log(0.2) - 0.2 * x), 0.0,
                           math.inf, lambda T: math.exp(-0.2 * T), 20.0),
}


@pytest.mark.parametrize("name", sorted(CONVERGENT))
def test_convergent_integrands_match_closed_form_and_quadpack(name):
    f, a, b, tail, exact = CONVERGENT[name]
    if math.isinf(b):
        value = integrate_semi_infinite(f, a, tail)
    else:
        value = integrate_finite(f, a, b)
    assert close(value, exact)
    assert close(value, quadpack(f, a, b))


def gamma_pdf(rate, shape):
    from scipy import special
    return lambda x: np.exp(shape * math.log(rate) + (shape - 1.0) * np.log(x)
                            - rate * x - special.gammaln(shape))


def gamma_tail(rate, shape):
    from scipy import special
    return lambda T: float(special.gammaincc(shape, rate * T))


@pytest.mark.parametrize("shape", [0.5, 0.2])
def test_singular_gamma_density_integrates_to_one(shape):
    pdf = gamma_pdf(2.0, shape)
    value = integrate_semi_infinite(pdf, 0.0, gamma_tail(2.0, shape))
    assert close(value, 1.0)


def test_small_shape_gamma_normalizes_within_validation_tolerance():
    # the mesh grades into the singularity at 0; plain bisection runs out of
    # its interval budget here (7e-7)
    from cmpplab.dist import Gamma, expectation
    assert abs(expectation(Gamma(2.0, 0.05), lambda x: 1.0) - 1.0) <= 1e-8


@pytest.mark.parametrize("rate,shape", [(2.0, 0.5), (2.0, 0.2), (0.5, 3.0)])
def test_log_moment_of_gamma(rate, shape):
    from scipy import special
    pdf = gamma_pdf(rate, shape)
    value = integrate_semi_infinite(lambda x: np.log(x) * pdf(x), 0.0,
                                    gamma_tail(rate, shape))
    assert close(value, special.digamma(shape) - math.log(rate))


@pytest.mark.parametrize("a,b", [(0.5, 2.0), (2.0, 3.0)])
def test_log_weight_on_beta(a, b):
    from scipy import special
    from cmpplab.dist import Beta, expectation
    value = expectation(Beta(a, b), np.log)
    assert close(value, special.digamma(a) - special.digamma(a + b))


@pytest.mark.parametrize("a,b", [(2.0, 0.5), (1.0, 0.2)])
def test_beta_density_singular_at_one(a, b):
    # doubles next to 1 are too coarse for this density (plain quadrature in
    # x loses 1.1e-8 and 5.7e-4 of the mass), so the upper half of the
    # support is integrated in the distance to 1
    from cmpplab.dist import Beta, Exponential, Tilted, expectation
    from cmpplab.expr import parse
    from cmpplab.model import BaseModel, measure_change, validate_change
    from scipy import special
    law = Beta(a, b)
    assert close(expectation(law, lambda x: 1.0), 1.0)
    assert close(expectation(law, lambda x: x), a / (a + b))
    assert close(expectation(law, np.log), special.digamma(a) - special.digamma(a + b))
    # the size-biased law Beta(a+1, b), as a tilt: E = (a+1)/(a+b+1)
    tilted = Tilted(law, weight=parse(f"{(a + b) / a}*theta"))
    assert close(expectation(tilted, lambda x: 1.0), 1.0)
    assert close(tilted.moment(1), (a + 1.0) / (a + b + 1.0))
    assert validate_change(BaseModel(Exponential(0.2), law), measure_change()).verdict


def test_library_integrands_match_quadpack():
    from cmpplab.dist import Gamma, Tilted, expectation, log_weighted_expectation
    from cmpplab.expr import parse
    law = Gamma(2.0, 2.0)
    xi = parse("(1+theta)/2", var="theta")
    assert close(expectation(law, xi), 1.0)
    assert close(expectation(law, np.log), quadpack(lambda x: np.log(x) * law.density(x),
                                                    0.0, math.inf))
    tilt = parse("0.5*x - ln(2)", var="x")
    assert close(log_weighted_expectation(Gamma(1.0, 1.0), tilt, f=lambda x: x), 2.0)
    q = Tilted(law, weight=xi)
    assert close(q.moment(2), quadpack(lambda x: x * x * xi.eval_array(x) * law.density(x),
                                       0.0, math.inf))


# ---------------------------------------------------------------------------
# the array-integrand contract

def test_integrand_sees_arrays_in_rounds():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.sqrt(x)

    value = integrate_finite(f, 0.0, 1.0)
    assert close(value, 2.0 / 3.0)
    assert sizes[0] == (21,)
    assert all(len(s) == 1 and s[0] % 42 == 0 for s in sizes[1:])


def test_scalar_result_is_broadcast():
    assert integrate_finite(lambda x: 2.0, 1.0, 4.0) == pytest.approx(6.0, rel=1e-15)


def test_overflow_reads_as_inf_without_warnings():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integrate_finite(lambda x: np.exp(1e4 * x), 0.0, 1.0) == math.inf
        with pytest.raises(DivergentIntegral):
            integrate_semi_infinite(lambda x: np.exp(x * x) * np.exp(-x), 0.0,
                                    tail_mass=lambda T: math.exp(-T))


def test_interval_budget_bounds_a_divergent_finite_integral():
    points = [0]

    def f(x):
        points[0] += x.size
        return 1.0 / x

    assert integrate_finite(f, 0.0, 1.0) > 10.0
    assert points[0] <= 21 * 2 * 400
