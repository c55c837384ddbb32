import math

import pytest

from cmpplab.quadrature import (DivergentIntegral, integrate_finite,
                                integrate_semi_infinite)


def gamma22_pdf(x):
    return 4.0 * x * math.exp(-2.0 * x)


def gamma22_tail(T):
    return math.exp(-2.0 * T) * (1.0 + 2.0 * T)


def test_finite_interval_polynomial():
    assert integrate_finite(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0, rel=1e-12)


def test_finite_empty_interval_is_zero():
    assert integrate_finite(lambda x: 1e9, 1.5, 1.5) == 0.0


def test_semi_infinite_normalization_and_moments():
    assert integrate_semi_infinite(gamma22_pdf, 0.0, gamma22_tail) == pytest.approx(1.0, abs=1e-10)
    m1 = integrate_semi_infinite(lambda x: x * gamma22_pdf(x), 0.0, gamma22_tail)
    assert m1 == pytest.approx(1.0, rel=1e-9)
    m3 = integrate_semi_infinite(lambda x: x**3 * gamma22_pdf(x), 0.0, gamma22_tail)
    assert m3 == pytest.approx(3.0, rel=1e-9)  # Gamma(5)/(Gamma(2) 2^3)


def exp_rate_pdf(rate):
    return lambda x: rate * math.exp(-rate * x)


def test_divergence_guard_exponential_moment():
    # E[e^X] under a mean-5 exponential does not exist
    pdf = exp_rate_pdf(0.2)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: math.exp(x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-0.2 * T))


def test_divergence_guard_boundary_rate():
    pdf = exp_rate_pdf(0.2)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: math.exp(0.2 * x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-0.2 * T))


def test_near_critical_convergent_tilt_not_flagged():
    # mass shifts far beyond the reference tail yet the integral exists:
    # E[e^{0.19 X}] = 0.2/0.01 = 20 under Exp(0.2); evaluate in log space
    def integrand(x):
        return math.exp(0.19 * x + math.log(0.2) - 0.2 * x)

    v = integrate_semi_infinite(integrand, 0.0, tail_mass=lambda T: math.exp(-0.2 * T))
    assert v == pytest.approx(20.0, rel=1e-7)


def test_overflowing_integrand_reports_divergence():
    pdf = exp_rate_pdf(1.0)
    with pytest.raises(DivergentIntegral):
        integrate_semi_infinite(lambda x: math.exp(x * x) * pdf(x), 0.0,
                                tail_mass=lambda T: math.exp(-T))
