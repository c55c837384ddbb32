"""Adaptive quadrature with a divergence guard for unbounded domains.

Finite intervals go to QUADPACK (``scipy.integrate.quad``) at rel. tol
1e-9 / abs. tol 1e-12.  Semi-infinite integrals go to
``integrate_semi_infinite``, which truncates at [a, T] and doubles T.
Given a reference tail-mass function (1 - cdf of the base law when the
integrand is weight * density), the guard declares divergence when a
doubling still grows the value by more than 1% although the reference
tail mass beyond T is under 1e-12.  Non-finite partial values are
divergent immediately.

The guard is what turns e.g. an exponential moment that does not exist
into a DivergentIntegral error instead of a plausible-looking number.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from scipy import integrate

REL_TOL = 1e-9
ABS_TOL = 1e-12
TAIL_MASS = 1e-12
GROWTH_LIMIT = 0.01
_MAX_DOUBLINGS = 60


class DivergentIntegral(ArithmeticError):
    """Raised when the divergence guard refuses to report a value."""


def _saturating(f: Callable[[float], float]) -> Callable[[float], float]:
    # IEEE semantics for the guard: an overflowing integrand reads as inf,
    # which the finiteness check downstream turns into DivergentIntegral.
    def g(x: float) -> float:
        try:
            return f(x)
        except OverflowError:
            return math.inf

    return g


def integrate_finite(f: Callable[[float], float], a: float, b: float) -> float:
    if a == b:
        return 0.0
    value, _err = integrate.quad(_saturating(f), a, b,
                                 epsabs=ABS_TOL, epsrel=REL_TOL, limit=400)
    return value


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    tail_mass: Optional[Callable[[float], float]] = None,
    start: float = 1.0,
) -> float:
    """Integrate f over [a, inf) under the truncation-doubling guard.

    ``tail_mass(T)`` returns the reference measure's mass beyond T.  A
    convergent integrand may legitimately carry mass far beyond the
    reference tail (a tilt can shift it), so one large increment is not
    enough: divergence is declared when, with reference tail mass under
    1e-12, successive doublings each grow the value by more than 1% and
    the growth rate is not shrinking.  Slow divergence (e.g. logarithmic)
    is caught by the doubling budget instead.
    """
    T = max(start, a + 1.0)
    prev = integrate_finite(f, a, T)
    calm_streak = 0
    last_growth = math.inf
    for _ in range(_MAX_DOUBLINGS):
        T *= 2.0
        cur = prev + integrate_finite(f, T / 2.0, T)
        if not math.isfinite(cur):
            raise DivergentIntegral(f"integral not finite beyond T={T / 2.0:g}")
        growth = abs(cur - prev) / max(abs(prev), ABS_TOL)
        in_tail = tail_mass is not None and tail_mass(T / 2.0) < TAIL_MASS
        if in_tail:
            if growth > GROWTH_LIMIT and growth >= last_growth:
                raise DivergentIntegral(
                    f"truncation doublings keep growing the value "
                    f"(last {min(growth, 9.99):.2%} at T={T:g}) although the "
                    f"reference tail mass is under {TAIL_MASS:g}"
                )
            last_growth = growth
        calm_streak = calm_streak + 1 if growth < REL_TOL else 0
        if calm_streak >= 2 and (in_tail or tail_mass is None):
            return cur
        prev = cur
    raise DivergentIntegral("no stabilization within the doubling budget")
