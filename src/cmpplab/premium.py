"""Premium densities and classical loading principles.

The premium density per unit time is E[S_1] = E[Theta] * E[X];
under the derived measure that is E_Q[g(Theta)] * E_Q[X].  A derived
measure prices the risk sensibly when it strictly loads the base premium
(condition ``p(P) < p(Q) < inf``, checked at t = 1 since both sides are
linear in t) and per structure parameter (``p(P_theta) < p(Q_theta)``).

Two preset families reproduce the classical principles: the exponential
tilt of the claim law (gamma(x) = c x - ln E[e^{cX}], pure claim-side
loading) and the constant intensity multiplier (alpha = c, loading
factor e^c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .dist import Distribution, DivergentMoment, Tilted, expectation
from .expr import Bin, Num, RealFn, Var, parse
from .model import BaseModel, DerivedModel, MeasureChange
from .quadrature import DivergentIntegral, integrate_finite
from .sim import BASE_P, DERIVED_Q, stream_law


class BadInterval(ValueError):
    pass


class AssumptionViolated(ValueError):
    pass


@dataclass(frozen=True)
class PremiumQuote:
    p_base: float                    # premium density under the base measure
    p_derived: float                 # premium density under the derived measure
    per_theta_base: RealFn           # theta -> p(P_theta)
    per_theta_derived: RealFn        # theta -> p(Q_theta)
    cond13: bool                     # strict loading: p_base < p_derived < inf
    cond13_margin: float             # p_derived - p_base
    method: str                      # closed-form | quadrature


def _scaled(coef: float, fn: RealFn) -> RealFn:
    return RealFn(Bin("*", Num(coef), fn.tree), fn.var, fn.params)


def _stream_premium(mixing: Distribution, rate: RealFn,
                    claim: Distribution) -> Tuple[float, RealFn]:
    """(E[rate(Theta)] E[X], theta -> rate(theta) E[X]) of a stream's
    (mixing law, rate, claim law); a divergent expectation gives inf."""
    try:
        e_x = claim.moment(1)
    except (DivergentIntegral, DivergentMoment):
        e_x = math.inf
    try:
        e_rate = mixing.moment(1) if isinstance(rate.tree, Var) else expectation(mixing, rate)
    except (DivergentIntegral, DivergentMoment):
        e_rate = math.inf
    return e_rate * e_x, _scaled(e_x, rate)


def premium_density(base: BaseModel, derived: Optional[DerivedModel] = None) -> PremiumQuote:
    """Premium densities of the base and (optionally) derived model.

    Without a derived model the quote is the identity one: both sides
    coincide and the strict-loading condition is vacuously false.  A
    divergent derived-side expectation marks the quote infinite.
    """
    p_base, per_theta_base = _stream_premium(*stream_law(BASE_P, base, derived))
    p_derived, per_theta_derived, method = p_base, per_theta_base, "closed-form"
    if derived is not None:
        p_derived, per_theta_derived = _stream_premium(*stream_law(DERIVED_Q, base, derived))
        if isinstance(derived.q_claim, Tilted) or isinstance(derived.q_mixing, Tilted):
            method = "quadrature"
    return PremiumQuote(p_base=p_base, p_derived=p_derived,
                        per_theta_base=per_theta_base, per_theta_derived=per_theta_derived,
                        cond13=math.isfinite(p_derived) and p_base < p_derived,
                        cond13_margin=p_derived - p_base, method=method)


def premium_schedule(quote: PremiumQuote, t: float, T: float) -> float:
    """Premium for the remaining risk of (t, T]: (T - t) * p(Q)."""
    if not 0.0 <= t <= T:
        raise BadInterval(f"need 0 <= t <= T, got t={t!r}, T={T!r}")
    return (T - t) * quote.p_derived


def check_condition_13(quote: PremiumQuote) -> bool:
    """Strict premium loading p(P) < p(Q) < inf (t = 1 suffices: both
    sides are linear in t)."""
    return quote.cond13


def check_condition_14(theta: float, derived: DerivedModel) -> bool:
    """Per-theta strict loading p(P_theta) < p(Q_theta) < inf."""
    quote = premium_density(derived.base, derived)
    p_p = quote.per_theta_base(theta)
    p_q = quote.per_theta_derived(theta)
    return math.isfinite(p_q) and p_p < p_q


def esscher_change(c: float, base: BaseModel) -> MeasureChange:
    """Exponential claim tilt gamma(x) = c x - ln E[e^{cX}], alpha = 0.

    The normalizer is evaluated once and injected as the numeric
    parameter lnM.  Raises OutsideConvergenceStrip when E[e^{cX}]
    does not exist.
    """
    if not c > 0:
        raise ValueError(f"esscher parameter must be positive, got {c!r}")
    ln_m = math.log(base.claim_law.mgf(c))
    gamma = parse("c*x - lnM", var="x", params={"c": float(c), "lnM": ln_m})
    return MeasureChange(alpha=parse("0", var="theta"), gamma=gamma,
                         xi=parse("1", var="theta"))


def expected_value_change(c: float) -> MeasureChange:
    """Constant intensity multiplier: alpha = c, gamma = 0, loading e^c."""
    if not math.isfinite(c):
        raise ValueError(f"expected-value parameter must be finite, got {c!r}")
    return MeasureChange(alpha=parse("c", var="theta", params={"c": float(c)}),
                         gamma=parse("0", var="x"), xi=parse("1", var="theta"))


def j_integral(c: float) -> float:
    """Closed form of int_0^1 theta (c+theta)/(c+1+theta)^2 dtheta.

    Requires the positivity assumption c + 3 > (c+2)^2 ln((c+2)/(c+1)),
    under which the value (c+3)/(c+2) + (c+2) ln((c+1)/(c+2)) is
    positive.
    """
    if not c > 0:
        raise AssumptionViolated(f"c must be positive, got {c!r}")
    if not c + 3.0 > (c + 2.0) ** 2 * math.log((c + 2.0) / (c + 1.0)):
        raise AssumptionViolated(
            f"positivity assumption fails at c={c!r}: "
            f"{c + 3.0!r} <= {(c + 2.0) ** 2 * math.log((c + 2.0) / (c + 1.0))!r}")
    return (c + 3.0) / (c + 2.0) + (c + 2.0) * math.log((c + 1.0) / (c + 2.0))


def j_integral_by_quadrature(c: float) -> float:
    """Independent quadrature route for the same integral."""
    return integrate_finite(lambda t: t * (c + t) / (c + 1.0 + t) ** 2, 0.0, 1.0)
