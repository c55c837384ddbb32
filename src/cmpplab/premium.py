"""Premium densities and classical loading principles.

The premium density per unit time is E[S_1] = E[Theta] * E[X], the base
laws' means; under the derived measure it is E_Q[g(Theta)] * E_Q[X],
``derived.mean_rate * derived.q_claim.moment(1)``.  A derived measure
prices the risk sensibly when it strictly loads the base premium
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
from typing import Callable, Optional

from .dist import DivergentMoment
from .expr import Bin, Num, RealFn, parse
from .model import BaseModel, DerivedModel, MeasureChange
from .quadrature import DivergentIntegral, integrate_finite


class BadInterval(ValueError):
    pass


class AssumptionViolated(ValueError):
    pass


@dataclass(frozen=True)
class PremiumQuote:
    """p(P) from the base laws' means and p(Q) from the derived model's; the
    premium job's oracle for p(Q) is E_P[xi(Theta) g(Theta)] E_P[X e^{gamma(X)}],
    the base-side integrals of ``validate_change``'s level-1 gates."""

    p_base: float                    # premium density under the base measure
    p_derived: float                 # premium density under the derived measure
    per_theta_base: RealFn           # theta -> p(P_theta)
    per_theta_derived: RealFn        # theta -> p(Q_theta)
    cond13: bool                     # strict loading: p_base < p_derived < inf
    cond13_margin: float             # p_derived - p_base


def _scaled(coef: float, fn: RealFn) -> RealFn:
    return RealFn(Bin("*", Num(coef), fn.tree), fn.var, fn.params)


def _or_inf(mean: Callable[[], float]) -> float:
    """A model mean, or inf where its integral diverges."""
    try:
        return mean()
    except (DivergentIntegral, DivergentMoment):
        return math.inf


def premium_density(base: BaseModel, derived: Optional[DerivedModel] = None) -> PremiumQuote:
    """Premium densities of the base and (optionally) derived model.

    Without a derived model the quote is the identity one: both sides
    coincide and the strict-loading condition is vacuously false.  A
    divergent derived-side mean marks the quote infinite.
    """
    e_x = base.claim_law.moment(1)
    p_base, per_theta_base = base.mixing_law.moment(1) * e_x, _scaled(e_x, base.rate_fn)
    p_derived, per_theta_derived = p_base, per_theta_base
    if derived is not None:
        e_qx = _or_inf(lambda: derived.q_claim.moment(1))
        p_derived = _or_inf(lambda: derived.mean_rate) * e_qx
        per_theta_derived = _scaled(e_qx, derived.g)
    return PremiumQuote(p_base=p_base, p_derived=p_derived,
                        per_theta_base=per_theta_base, per_theta_derived=per_theta_derived,
                        cond13=math.isfinite(p_derived) and p_base < p_derived,
                        cond13_margin=p_derived - p_base)


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
