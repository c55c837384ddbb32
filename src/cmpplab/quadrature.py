"""Adaptive Gauss-Kronrod quadrature with a divergence guard for unbounded
domains.

Integrands are array callables: a float array of points in, an array of
that shape out (a scalar result is broadcast).  They run with numpy's
floating-point warnings off, so an overflow reads as inf, never as a
warning.  A finite interval goes to a globally adaptive (10, 21) rule at
rel. tol 1e-9 / abs. tol 1e-12: each round splits every interval whose
error estimate exceeds its share of the tolerance and evaluates all new
nodes in one integrand call, and the final intervals are added by
math.fsum, so a value is a pure function of the integrand and the limits.
Intervals are bisected, except that one at an end of [a, b] splits at 1/8
of its width from that end, which resolves a singularity at 0 (a Gamma
density of shape below 1, a log weight) in a few dozen rounds.  There is
no extrapolation: a singularity at a nonzero end is resolved only down to
the spacing of doubles there (dist integrates a beta law next to 1 in the
distance to 1 for that reason).

``integrate_semi_infinite`` truncates at [a, T] and doubles T.  With a
reference tail-mass function (1 - cdf of the base law when the integrand
is weight * density), the guard declares divergence when a doubling still
grows the value by more than 1% although the reference tail mass beyond T
is under 1e-12; a non-finite partial value is divergent at once.  This
turns e.g. an exponential moment that does not exist into a
DivergentIntegral instead of a plausible-looking number.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
TAIL_MASS = 1e-12
GROWTH_LIMIT = 0.01
_MAX_DOUBLINGS = 60
_MAX_INTERVALS = 400  # bisection budget of one finite integral

# Gauss-Kronrod (10, 21) on [-1, 1] (Laurie, Math. Comp. 1997), shortest
# round-trip doubles of the nonnegative half: node, Kronrod weight, and the
# 10-point Gauss weight where the node is a Gauss node (0 otherwise)
_GK21_HALF = np.array([
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0),
])
_GK21 = np.concatenate([_GK21_HALF[:-1] * (-1.0, 1.0, 1.0), _GK21_HALF[::-1]])
_NODES, _W_KRONROD, _W_GAUSS = _GK21.T.copy()


class DivergentIntegral(ArithmeticError):
    """Raised when the divergence guard refuses to report a value."""


def evaluate(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """f at the points x as a float array of x's shape, warnings off."""
    with np.errstate(all="ignore"):
        y = f(x)
    return np.broadcast_to(np.asarray(y, dtype=float), x.shape)


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """Kronrod values and QUADPACK error estimates of f on the intervals
    [a_i, b_i], all nodes in one integrand call."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    x = center[:, None] + half[:, None] * _NODES
    fx = evaluate(f, x.ravel()).reshape(x.shape)
    with np.errstate(all="ignore"):
        kronrod = (fx * _W_KRONROD).sum(axis=1)
        gauss = (fx * _W_GAUSS).sum(axis=1)
        mean = 0.5 * kronrod
        scale = np.abs(half)
        abs_sum = (np.abs(fx) * _W_KRONROD).sum(axis=1) * scale
        dev = (np.abs(fx - mean[:, None]) * _W_KRONROD).sum(axis=1) * scale
        err = np.abs(kronrod - gauss) * scale
        err = np.where((dev != 0.0) & (err != 0.0),
                       dev * np.minimum(1.0, (200.0 * err / dev) ** 1.5), err)
        err = np.maximum(err, 50.0 * np.finfo(float).eps * abs_sum)
    return kronrod * half, err


def integrate_finite(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    if a >= b:
        return 0.0 if a == b else -integrate_finite(f, b, a)
    lo, hi = np.array([float(a)]), np.array([float(b)])
    value, err = gauss_kronrod(f, lo, hi)
    while np.isfinite(value).all() and np.isfinite(err).all():
        tol = max(ABS_TOL, REL_TOL * abs(float(value.sum())))
        # an interval at one end of [a, b] splits at 1/8 of its width from that
        # end, so the mesh grades geometrically into an endpoint singularity
        at_a, at_b = lo == a, hi == b
        mid = lo + np.where(at_a == at_b, 0.5, np.where(at_a, 0.125, 0.875)) * (hi - lo)
        split = (err > tol / lo.size) & (lo < mid) & (mid < hi)
        if err.sum() <= tol or not split.any() or lo.size + split.sum() > _MAX_INTERVALS:
            break
        # the kept intervals, then both parts of each split one
        kept = lo.size - split.sum()
        lo = np.concatenate([lo[~split], lo[split], mid[split]])
        hi = np.concatenate([hi[~split], mid[split], hi[split]])
        new_value, new_err = gauss_kronrod(f, lo[kept:], hi[kept:])
        value = np.concatenate([value[~split], new_value])
        err = np.concatenate([err[~split], new_err])
    if not np.isfinite(value).all():
        return float(value.sum())
    return math.fsum(value.tolist())


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], a: float,
                            tail_mass: Callable[[float], float]) -> float:
    """Integrate f over [a, inf) under the truncation-doubling guard.

    ``tail_mass(T)`` returns the reference measure's mass beyond T.  A
    convergent integrand may legitimately carry mass far beyond the
    reference tail (a tilt can shift it), so one large increment is not
    enough: divergence is declared when, with reference tail mass under
    1e-12, successive doublings each grow the value by more than 1% and
    the growth rate is not shrinking.  Slow divergence (e.g. logarithmic)
    is caught by the doubling budget instead.
    """
    T = max(1.0, a + 1.0)
    prev = integrate_finite(f, a, T)
    calm_streak = 0
    last_growth = math.inf
    for _ in range(_MAX_DOUBLINGS):
        T *= 2.0
        cur = prev + integrate_finite(f, T / 2.0, T)
        if not math.isfinite(cur):
            raise DivergentIntegral(f"integral not finite beyond T={T / 2.0:g}")
        growth = abs(cur - prev) / max(abs(prev), ABS_TOL)
        in_tail = tail_mass(T / 2.0) < TAIL_MASS
        if in_tail:
            if growth > GROWTH_LIMIT and growth >= last_growth:
                raise DivergentIntegral(
                    f"truncation doublings keep growing the value "
                    f"(last {min(growth, 9.99):.2%} at T={T:g}) although the "
                    f"reference tail mass is under {TAIL_MASS:g}"
                )
            last_growth = growth
        calm_streak = calm_streak + 1 if growth < REL_TOL else 0
        if calm_streak >= 2 and in_tail:
            return cur
        prev = cur
    raise DivergentIntegral("no stabilization within the doubling budget")
