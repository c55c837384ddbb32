"""Distribution catalog: closed forms where they exist, guarded quadrature
where they do not.

Conventions
-----------
* Exponential(rate): mean 1/rate.
* Gamma(rate, shape): density rate^shape x^(shape-1) e^(-rate x)/Gamma(shape),
  mean shape/rate.  Rate comes first everywhere.
* Beta(a, b) on (0,1); Uniform(lo, hi); Degenerate(point) is the unit
  mass at a point.
* Tilted(base, weight) reweights a base law by a positive weight whose
  base-expectation must equal 1 (verified by quadrature at construction).

A float (or a 0-d array) in gives a float out, and an array keeps its
shape.  Distribution's density, logpdf and cdf hold that convention once:
each converts its input to a float array and calls the law's array method,
_density, _logpdf or _cdf.  A law writes only that array math (Gamma, Beta
and Tilted densities are exp(_logpdf) on the open support) and its own
quantile, which keeps the convention itself.  Every sampler is a quantile
transform of counter-based uniforms, so a draw is a pure function of
(seed, path index, lane, draw index); every quantile maps each point on its
own, whatever the batch around it.  A Gamma, Beta or Tilted draw
evaluates a lazily built quintic table (_LogitTable) of log x, logit x or
ln(x - lo) (less ln(hi - x) on a finite support) against logit u, with no
cdf call (but next to a zero of a Tilted law's density, which its table
leaves out); Gamma and Beta tables are within 1e-13 relative of 50-digit
quantiles (Gamma shapes 0.05 to 1e6, Beta parameters 0.05 to 1000), and
smaller shapes invert by special.gammaincinv or betaincinv alone.  The
incomplete gamma and beta functions come from special, which uses numpy and
math only.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import special
from .expr import RealFn, format_number
from .quadrature import (DivergentIntegral, evaluate, gauss_kronrod, integrate_finite,
                         integrate_semi_infinite)
from .rng import LANE_MISC, uniforms

ArrayLike = Union[float, np.ndarray]
# an array callable (float array in, same-shape array out) or a RealFn
Integrand = Union[Callable[[np.ndarray], ArrayLike], RealFn]

NORMALIZATION_TOL = 1e-8
_TAIL_EPS = 5e-13  # tabulation covers all but ~1e-12 of base mass
_INVERT_BLOCK = 1 << 14  # quantile points per block (bounds peak memory)
_SEGMENTS = 2048  # quintic segments of a quantile table
_Z_HI = 37.0  # Gamma and Beta tables' top logit; the largest double below 1 has logit 36.74
_Z_TILTED = 28.0  # a Tilted table's span lies within +-28 (u within 7e-13 of 0 and 1)
# quantiles below this invert directly (special.gammaincinv, betaincinv):
# x = exp(log x) carries about |log x| ulps of relative error (69 at 1e-30),
# and no cdf step corrects it
_X_MIN = 1e-30
# laws of smaller shape (Gamma) or smaller a or b (Beta) invert directly: as
# the shape falls, most of the mass lies below _X_MIN (P(0.01, 1e-30) = 0.5),
# and the table's lower tail, where d log x / d logit u -> 1/shape, loses accuracy
_SHAPE_MIN = 0.05


class DistError(ValueError):
    pass


class DivergentMoment(DistError):
    pass


class OutsideConvergenceStrip(DistError):
    pass


def _as_float_or_array(x, out):
    out = np.asarray(out, dtype=float)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


class Distribution:
    """Common surface of all catalog variants."""

    support: tuple[float, float] = (-math.inf, math.inf)
    # log density at support[1] - y as a function of y, for a law whose
    # density can be singular at a finite upper end; None otherwise
    logpdf_below_top: Optional[Callable[[np.ndarray], np.ndarray]] = None

    # -- density, logpdf and cdf are the float-or-array entry points: each
    #    converts once and calls an array method, which maps a float array to
    #    an array of its shape.  Subclasses provide those array methods,
    #    _logpdf (continuous laws), _cdf and, where it has a closed form,
    #    _density (the others take exp(_logpdf) from here); and quantile,
    #    moment, mgf and literal.

    def density(self, x: ArrayLike) -> ArrayLike:
        return _as_float_or_array(x, self._density(np.asarray(x, dtype=float)))

    def logpdf(self, x: ArrayLike) -> ArrayLike:
        return _as_float_or_array(x, self._logpdf(np.asarray(x, dtype=float)))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return _as_float_or_array(x, self._cdf(np.asarray(x, dtype=float)))

    def _density(self, x: np.ndarray) -> np.ndarray:
        """exp(_logpdf) on the open support, 0 outside it; _logpdf is
        evaluated only inside."""
        lo, hi = self.support
        inside = (x > lo) & (x < hi)
        out = np.zeros(x.shape)
        with np.errstate(over="ignore"):
            out[inside] = np.exp(self._logpdf(x[inside]))
        return out

    def quantile(self, p: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def mgf(self, s: float) -> float:
        raise NotImplementedError

    def interior_grid(self, n: int, p_lo: float = 1e-6) -> np.ndarray:
        """n interior points spread by probability mass (quantile grid)."""
        return self.quantile(np.linspace(p_lo, 1.0 - p_lo, n))

    def survival(self, x: float) -> float:
        return 1.0 - float(self.cdf(x))

    def literal(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.literal()


def _blockwise(invert: Callable[[np.ndarray], np.ndarray], p: ArrayLike) -> ArrayLike:
    """invert, a pointwise map of 1-d arrays, applied to p in blocks of
    _INVERT_BLOCK points; a scalar p gives a float."""
    ps = np.asarray(p, dtype=float)
    flat = ps.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _INVERT_BLOCK):
        out[start:start + _INVERT_BLOCK] = invert(flat[start:start + _INVERT_BLOCK])
    return _as_float_or_array(p, out.reshape(ps.shape))


def _distinct(x: np.ndarray) -> np.ndarray:
    """x's values sorted, repeats dropped: np.unique's for finite floats,
    without the numpy.ma import np.unique makes on its first call."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def sample_array(d: Distribution, seed: int, n: int) -> np.ndarray:
    """n draws, one per path index, for seeded vectorized sampling."""
    return d.quantile(uniforms(seed, np.arange(n), LANE_MISC, 0))


# ---------------------------------------------------------------------------
# catalog variants


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise DistError(f"rate must be positive and finite, got {self.rate}")

    @property
    def support(self):
        return (0.0, math.inf)

    def _density(self, x):
        return np.where(x > 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _logpdf(self, x):
        return np.where(x > 0.0, math.log(self.rate) - self.rate * x, -math.inf)

    def _cdf(self, x):
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        x = np.negative(p, out=np.empty_like(p))  # in place: one array of p's size
        np.log1p(x, out=x)
        x /= -self.rate
        return _as_float_or_array(p, x)

    def moment(self, k):
        _check_order(k)
        value = 1.0
        for j in range(k):
            value *= (1.0 + j) / self.rate
        return value

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        if s >= self.rate:
            raise OutsideConvergenceStrip(
                f"mgf of exp(rate={self.rate:g}) requires s < rate, got s={s:g}")
        return self.rate / (self.rate - s)

    def literal(self):
        return f"exp(rate={format_number(self.rate)})"


class _LogitTable(NamedTuple):
    """A law's y = g(x) as a quintic of z = logit u on equal segments over
    [z_lo, z_hi], in the centred t = (z - z_lo) inv_h - j - 1/2.  g is log x
    (Gamma), logit x (Beta), or ln(x - lo), less ln(hi - x) on a finite
    support (Tilted).  A segment the quintic cannot follow has NaN
    coefficients, so the table is NaN there."""

    z_lo: float        # the span's ends; z_lo = inf: no table
    z_hi: float
    inv_h: float       # segments per unit of z
    coef: np.ndarray   # (6, segments): power coefficients in t, constant first; NaN: left out

    @classmethod
    def build(cls, z_lo: float, z_hi: float, invert, log_density) -> "_LogitTable":
        """Table over [z_lo, z_hi]; z_lo = inf gives no table.

        Nodes are z_lo + j h with h = (z_hi - z_lo)/N; invert(u, q) gives
        their y (q = 1 - u), and log_density(y) the log density ln rho of Y
        and its slope.  Their derivatives are exact: y' = u (1 - u) / rho(y)
        and y'' = y' (1 - 2u) - y'^2 d ln rho/dy.
        """
        if math.isinf(z_lo):
            return cls(z_lo=math.inf, z_hi=-math.inf, inv_h=0.0, coef=np.empty((6, 0)))
        h = (z_hi - z_lo) / _SEGMENTS
        z = z_lo + h * np.arange(_SEGMENTS + 1)
        u, q = 1.0 / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z))
        y = invert(u, q)
        log_rho, slope = log_density(y)
        d1 = h * u * q * np.exp(-log_rho)         # dy/dt
        d2 = h * d1 * (q - u) - d1 * d1 * slope  # d2y/dt2
        # a segment's quintic in t from the half sums and half differences of its
        # end values (t = -1/2, +1/2): the even part from ys, dd, es, the odd from yd, ds, ed
        ys, yd = (y[1:] + y[:-1]) / 2, (y[1:] - y[:-1]) / 2
        ds, dd = (d1[1:] + d1[:-1]) / 2, (d1[1:] - d1[:-1]) / 2
        es, ed = (d2[1:] + d2[:-1]) / 2, (d2[1:] - d2[:-1]) / 2
        c2, c4 = 1.5 * dd - es / 4, es / 2 - dd
        c3, c5 = 5 * ds - 10 * yd - ed / 2, ed - 6 * ds + 12 * yd
        coef = np.stack([ys - c2 / 4 - c4 / 16, 2 * yd - c3 / 4 - c5 / 16, c2, c3, c4, c5])
        # the chord's slope is 2 yd.  Next to a zero of the density an end slope is off
        # it by over a factor 2 (smooth laws: 2%) and the quintic can fall: leave out
        # that segment and two either side.  A NaN end value or slope compares false,
        # so its segment is left out too
        smooth = (np.minimum(d1[1:], d1[:-1]) >= yd) & (np.maximum(d1[1:], d1[:-1]) <= 4 * yd)
        coef[:, np.convolve(~smooth, np.ones(5), mode="same") > 0] = np.nan
        return cls(z_lo=z_lo, z_hi=z_hi, inv_h=1.0 / h, coef=coef)

    def __call__(self, z):
        """y at logits z in [z_lo, z_hi]."""
        t = z - self.z_lo
        t *= self.inv_h
        j = np.floor(t)
        np.clip(j, 0, _SEGMENTS - 1, out=j)
        t -= j
        t -= 0.5
        c = self.coef.take(j.astype(np.intp), axis=1)
        y = c[5]
        for k in range(4, -1, -1):
            y *= t
            y += c[k]
        return y


def _logit(u: float) -> float:  # inf at u = 1: a table floor that leaves no table
    return math.inf if u == 1.0 else math.log(u / (1.0 - u))


class _TabledLaw(Distribution):
    """A law whose quantile, _blockwise(self._invert, p), evaluates a
    _LogitTable built on first use.  The table is kept on the instance
    outside the law's fields, so it takes no part in equality, hashing or
    literal().  Besides a law's array methods, a subclass gives quantile as
    that one line in its own class (the benchmark's tracer wraps each law's
    own quantile), _build_table(), _from_y(y) (x from the table's y) and
    _direct(u), x for points of [0, 1] outside the table's span or on a
    segment it leaves out."""

    _table: Optional[_LogitTable] = None
    # the arrival loop's row-block threads may make a law's first draw
    # together; a table build may draw from its base law's table
    _building = threading.RLock()

    def _tabled(self) -> _LogitTable:
        if self._table is None:
            with self._building:
                if self._table is None:
                    object.__setattr__(self, "_table", self._build_table())
        return self._table

    def _invert(self, u):
        """x from the quintic table at z = logit u, per point; no cdf call.
        Points in [0, 1] outside the span or on a segment the table leaves
        out go to _direct; NaN and points outside [0, 1] give NaN."""
        tab = self._tabled()
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.log(u / (1.0 - u))  # -inf at 0, inf at 1, NaN outside [0, 1]
        inside = (z >= tab.z_lo) & (z <= tab.z_hi)
        if inside.all():
            x = self._from_y(tab(z))
        else:
            x = np.full_like(u, np.nan)
            x[inside] = self._from_y(tab(z[inside]))
        if np.isnan(x.sum()):  # some point is NaN (x is finite elsewhere): no mask per block
            rest = np.isnan(x) & (u >= 0.0) & (u <= 1.0)
            x[rest] = self._direct(u[rest])
        return x


@dataclass(frozen=True, repr=False)
class Gamma(_TabledLaw):
    """Gamma law; its table holds log x of the standard (rate 1) law."""

    rate: float
    shape: float

    def __post_init__(self):
        if not (0 < self.rate < math.inf and 0 < self.shape < math.inf):
            raise DistError(
                f"rate and shape must be positive and finite, got {self.rate}, {self.shape}")

    @property
    def support(self):
        return (0.0, math.inf)

    def _logpdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = (self.shape * math.log(self.rate) + (self.shape - 1.0) * np.log(x)
                  - self.rate * x - math.lgamma(self.shape))
        return np.where(x > 0.0, lp, -math.inf)

    def _cdf(self, x):
        return np.where(x > 0.0, special.gammainc(self.shape, self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile(self, p):
        return _blockwise(self._invert, p)

    def _build_table(self):
        a = self.shape
        u_lo = 1.0 if a < _SHAPE_MIN else max(2.0**-54, special.gammainc(a, _X_MIN))
        return _LogitTable.build(_logit(u_lo), _Z_HI,
                                 lambda u, q: special.gamma_log_x(a, u, q),
                                 lambda y: special.gamma_log_density(a, y))

    def _from_y(self, y):
        x = np.exp(y)
        x /= self.rate
        return x

    def _direct(self, u):
        return special.gammaincinv(self.shape, u) / self.rate

    def moment(self, k):
        _check_order(k)
        value = 1.0
        for j in range(k):
            value *= (self.shape + j) / self.rate
        return value

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        if s >= self.rate:
            raise OutsideConvergenceStrip(
                f"mgf of gamma(rate={self.rate:g}) requires s < rate, got s={s:g}")
        return (self.rate / (self.rate - s)) ** self.shape

    def literal(self):
        return f"gamma(rate={format_number(self.rate)}, shape={format_number(self.shape)})"


@dataclass(frozen=True, repr=False)
class Beta(_TabledLaw):
    """Beta law; its table holds logit x."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise DistError(f"a and b must be positive and finite, got {self.a}, {self.b}")

    @property
    def support(self):
        return (0.0, 1.0)

    def _logpdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = ((self.a - 1.0) * np.log(x) + (self.b - 1.0) * np.log1p(-x)
                  - special.lnbeta(self.a, self.b))
        return np.where((x > 0.0) & (x < 1.0), lp, -math.inf)

    def logpdf_below_top(self, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = ((self.a - 1.0) * np.log1p(-y) + (self.b - 1.0) * np.log(y)
                  - special.lnbeta(self.a, self.b))
        return np.where((y > 0.0) & (y < 1.0), lp, -math.inf)

    def _cdf(self, x):
        return special.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def quantile(self, p):
        return _blockwise(self._invert, p)

    def _build_table(self):
        a, b = self.a, self.b
        u_lo = 1.0 if min(a, b) < _SHAPE_MIN else max(2.0**-54, special.betainc(a, b, _X_MIN))
        return _LogitTable.build(_logit(u_lo), _Z_HI,
                                 lambda u, q: special.beta_logit_x(a, b, u, q),
                                 lambda y: special.beta_log_density(a, b, y))

    def _from_y(self, y):
        return 1.0 / (1.0 + np.exp(-y))

    def _direct(self, u):
        return special.betaincinv(self.a, self.b, u)

    def moment(self, k):
        _check_order(k)
        value = 1.0
        for j in range(k):
            value *= (self.a + j) / (self.a + self.b + j)
        return value

    def mgf(self, s):
        """Kummer's M(a, a + b, s) by its series, as e^s M(b, a + b, -s) for s < 0
        so that no terms cancel (within 1e-14 for |s| <= 50)."""
        p, scale, s = (self.b, math.exp(s), -s) if s < 0.0 else (self.a, 1.0, s)
        term = total = 1.0
        n = 0
        while term > total * 1e-17:
            term *= (p + n) / (self.a + self.b + n) * s / (n + 1)
            total += term
            n += 1
        return scale * total

    def literal(self):
        return f"beta(a={format_number(self.a)}, b={format_number(self.b)})"


@dataclass(frozen=True, repr=False)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise DistError(f"need finite lo < hi, got {self.lo}, {self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def _density(self, x):
        return np.where((x > self.lo) & (x < self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def _logpdf(self, x):
        return np.where((x > self.lo) & (x < self.hi), -math.log(self.hi - self.lo), -math.inf)

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return _as_float_or_array(p, self.lo + p * (self.hi - self.lo))

    def moment(self, k):
        _check_order(k)
        n = k + 1
        return (self.hi**n - self.lo**n) / (n * (self.hi - self.lo))

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        w = s * (self.hi - self.lo)  # expm1 keeps small s from cancelling
        return math.exp(s * self.lo) * math.expm1(w) / w

    def literal(self):
        return f"uniform(lo={format_number(self.lo)}, hi={format_number(self.hi)})"


@dataclass(frozen=True, repr=False)
class Degenerate(Distribution):
    point: float

    def __post_init__(self):
        if not 0 < self.point < math.inf:
            raise DistError(f"point must be positive and finite, got {self.point}")

    @property
    def support(self):
        return (self.point, self.point)

    def _density(self, x):
        """Mass function of the unit point mass."""
        return np.where(x == self.point, 1.0, 0.0)

    def _cdf(self, x):
        return np.where(x >= self.point, 1.0, 0.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return _as_float_or_array(p, np.full(np.shape(p), self.point))

    def moment(self, k):
        _check_order(k)
        return self.point**k

    def mgf(self, s):
        return math.exp(s * self.point)

    def literal(self):
        return f"degenerate({format_number(self.point)})"


def _check_order(k):
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise DistError(f"moment order must be a natural number, got {k!r}")


# ---------------------------------------------------------------------------
# expectations under a catalog law (the workhorse for admissibility gates,
# premium densities and quadrature oracles)


def expectation(d: Distribution, f: Integrand) -> float:
    """E[f(X)] under d, with the divergence guard on unbounded supports.

    f is an array callable or a RealFn.  Raises DivergentIntegral when the
    guard refuses.
    """
    return clipped_expectation(d, f, -math.inf, math.inf)


def clipped_expectation(d: Distribution, f: Integrand, lo: float, hi: float) -> float:
    """E[f(X) ind(lo <= X < hi)] under d; a point mass is evaluated directly."""
    fn = f.eval_array if isinstance(f, RealFn) else f
    if isinstance(d, Degenerate):
        return float(evaluate(fn, np.array([d.point]))[0]) if lo <= d.point < hi else 0.0

    def integrand(x, log_pdf=None):
        return fn(x) * (d.density(x) if log_pdf is None else np.exp(log_pdf))

    return _integrate_support(d, integrand, lo, hi)


def log_weighted_expectation(d: Distribution, log_weight: Integrand,
                             f: Optional[Integrand] = None) -> float:
    """E[f(X) e^{log_weight(X)}] computed as exp(log_weight + logpdf) [* f].

    The log-space product keeps exponential tilts from overflowing in
    the intermediate even when the weight alone would.
    """
    lw = log_weight.eval_array if isinstance(log_weight, RealFn) else log_weight
    fn = (f.eval_array if isinstance(f, RealFn) else f) or (lambda x: 1.0)
    if isinstance(d, Degenerate):
        return expectation(d, lambda x: fn(x) * np.exp(lw(x)))

    def integrand(x, log_pdf=None):
        return np.exp(lw(x) + (d.logpdf(x) if log_pdf is None else log_pdf)) * fn(x)

    return _integrate_support(d, integrand)


def _integrate_support(d: Distribution, integrand, lo=-math.inf, hi=math.inf) -> float:
    """integrand(x) over d's support clipped to [lo, hi), guarded if unbounded.

    Doubles next to a finite upper end are too coarse for a density singular
    there (a beta law with b < 1 loses 1e-8 to 6e-4 of its mass), so when
    the law gives its log density as a function of the distance y to that
    end, the upper half is integrated in y, as integrand(end - y, log pdf).
    """
    a, b = max(lo, d.support[0]), min(hi, d.support[1])
    if a >= b:
        return 0.0
    if math.isinf(b):
        return integrate_semi_infinite(integrand, a, tail_mass=d.survival)
    below_top = d.logpdf_below_top
    if below_top is None or b < d.support[1]:
        return integrate_finite(integrand, a, b)
    mid, last = 0.5 * (a + b), np.nextafter(b, a)  # f is not evaluated at b itself
    return integrate_finite(integrand, a, mid) + integrate_finite(
        lambda y: integrand(np.minimum(b - y, last), below_top(y)), 0.0, b - mid)


# ---------------------------------------------------------------------------
# tilted laws


class Tilted(_TabledLaw):
    """Base law reweighted by a positive weight with unit base-expectation.

    The weight is given either directly or in log form (preferred
    numerically), not both.  Construction verifies the normalization
    integral to 1e-8 by quadrature and refuses otherwise (a negative
    weight at a quadrature node raises DistError); equality is identity.
    cdf and quantile run off a lazily built table covering all but ~1e-12
    of the base mass: knots with the mass below each, so the cdf is a
    knot's mass plus one Gauss-Kronrod rule from it (_cdf_from, within
    1e-13 absolute of four closed-form tilts), and the quantile a
    _LogitTable over the cdf's logit range within +-_Z_TILTED.  A draw
    evaluates it at its own uniform alone, within 1e-6 relative of 50-digit
    quantiles for u in [1e-12, 1 - 1e-9] and within 1e-7 for u in
    [1e-3, 1 - 1e-3] (tested on four tilts with closed-form laws).  Next to
    a zero or deep dip of the density the quantile's tangent is near
    vertical: the table leaves those few segments out, and a draw there
    bisects the cdf on its knot segment, within 1e-4 relative of the
    quantile at the zero (1e-6 on Gamma and Beta tilts) and 1e-7 beyond the
    left-out segments (tested on Gamma, Exponential and Beta tilts).  p
    below or above the span gives the table's end; NaN and p outside
    [0, 1] give NaN.
    """

    def __init__(self, base: Distribution,
                 weight: Optional[RealFn] = None,
                 log_weight: Optional[RealFn] = None):
        if (weight is None) == (log_weight is None):
            raise DistError("tilted law needs exactly one of a weight and a log-weight")
        if isinstance(base, Degenerate):
            raise DistError("tilting is only supported for continuous base laws")
        self.base = base
        self._weight = weight
        self._log_weight = log_weight
        self._moments: dict = {}  # k -> moment(k), integrated once
        norm = log_weighted_expectation(base, self._checked_log_weight)
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise DistError(
                f"tilt weight has base-expectation {norm!r}, not 1 within {NORMALIZATION_TOL:g}")

    @property
    def support(self):
        return self.base.support

    def log_weight_at(self, x):
        """log weight at the points x; NaN where the weight is negative."""
        x = np.asarray(x, dtype=float)
        if self._log_weight is not None:
            return self._log_weight.eval_array(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self._weight.eval_array(x))

    def _checked_log_weight(self, x: np.ndarray) -> np.ndarray:
        """log_weight_at, raising where the weight is negative."""
        lw = self.log_weight_at(x)
        negative = np.isnan(lw)
        if negative.any():
            raise DistError(f"tilt weight is negative at {float(x[negative][0])!r}")
        return lw

    def _logpdf(self, x):
        with np.errstate(invalid="ignore"):
            return self.log_weight_at(x) + self.base._logpdf(x)

    @property
    def logpdf_below_top(self):
        below_top, top = self.base.logpdf_below_top, self.support[1]
        if below_top is None:
            return None
        return lambda y: self.log_weight_at(top - y) + below_top(y)

    def moment(self, k):
        _check_order(k)
        if k == 0:
            return 1.0
        if k not in self._moments:
            try:
                self._moments[k] = log_weighted_expectation(
                    self.base, lambda x: self._checked_log_weight(x) + k * np.log(x))
            except DivergentIntegral as e:
                raise DivergentMoment(f"moment {k} of tilted law diverges: {e}") from e
        return self._moments[k]

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        try:
            return log_weighted_expectation(self.base,
                                            lambda x: self._checked_log_weight(x) + s * x)
        except DivergentIntegral as e:
            raise OutsideConvergenceStrip(f"mgf({s:g}) of tilted law diverges: {e}") from e

    # -- CDF and inverse tables ----------------------------------------

    def _build_table(self):
        base = self.base
        lo, hi = self.support
        # equal-probability nodes through the bulk, geometric refinement in
        # both tails (equal spacing alone leaves tail segments many units
        # wide, which ruins the interpolant there)
        left = np.geomspace(_TAIL_EPS, 1e-3, 256, endpoint=False)
        mid = np.linspace(1e-3, 1.0 - 1e-3, 1537)
        right = 1.0 - np.geomspace(1e-3, _TAIL_EPS, 256, endpoint=True)[1:]
        p = _distinct(np.concatenate([left, mid, right, [1.0 - _TAIL_EPS]]))
        xs = _distinct(base.quantile(p))

        # the base-quantile span can miss tilted mass: a weight singular at
        # the lower edge piles mass below xs[0], an outward tilt shifts mass
        # beyond xs[-1]; extend until both tilted tails are negligible
        left_tail = 0.0
        if math.isfinite(lo):
            for _ in range(8):
                left_tail = integrate_finite(self.density, lo, xs[0])
                if left_tail < 1e-12:
                    break
                extra = lo + (xs[0] - lo) * np.geomspace(1e-4, 1.0, 65)[:-1]
                xs = _distinct(np.concatenate([extra, xs]))
        for _ in range(12):
            if math.isinf(hi):
                right_tail = integrate_semi_infinite(self.density, xs[-1],
                                                     tail_mass=base.survival)
                if right_tail < 1e-12:
                    break
                extra = np.linspace(xs[-1], 2.0 * xs[-1] - xs[0], 129)[1:]
            else:
                right_tail = integrate_finite(self.density, xs[-1], hi)
                if right_tail < 1e-12:
                    break
                extra = hi - (hi - xs[-1]) * np.geomspace(1e-4, 1.0, 65)[:-1]
            xs = _distinct(np.concatenate([xs, extra]))

        # cap the x-gap: probability-uniform placement spreads out wherever
        # the density is small, and a cdf value is one Gauss-Kronrod rule over
        # part of a segment, exact only while the segment is short
        cap = (xs[-1] - xs[0]) / 1024.0
        gaps = np.diff(xs)
        if (gaps > cap).any():
            filler = [xs]
            for k in np.nonzero(gaps > cap)[0]:
                m = int(np.ceil(gaps[k] / cap))
                filler.append(np.linspace(xs[k], xs[k + 1], m + 1)[1:-1])
            xs = _distinct(np.concatenate(filler))

        # one Gauss-Kronrod rule per segment, all evaluations batched; a NaN
        # density is a negative weight, inf an infinite one
        masses, _ = gauss_kronrod(self.density, xs[:-1], xs[1:])
        if not (np.isfinite(masses).all() and np.isfinite(self.density(xs)).all()):
            raise DistError("tilt weight is negative or not finite at a CDF table node")
        cdf = left_tail + np.concatenate([[0.0], np.cumsum(masses)])
        self._knots = (xs, cdf)

        # the inverse over the cdf's logit range.  A node's x starts from the
        # knots' y against z, linear between them, and takes one Newton step on
        # the cdf from the knot below; a step that is not finite (0/0 where the
        # start x is a zero of the density) is not taken.  A knot on a finite
        # edge of the support has y = +-inf, and the table leaves its segment out
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.log(cdf / (1.0 - cdf))
        known = np.isfinite(z)

        def node_y(u, q):
            j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, xs.size - 2)
            x = self._from_y(np.interp(np.log(u / q), z[known], self._to_y(xs[known])))
            step = (self._cdf_from(j, x) - u) / self.density(x)
            x -= np.where(np.isfinite(step), step, 0.0)
            return self._to_y(np.clip(x, xs[j], xs[j + 1]))

        def log_rho(y):  # of Y = _to_y(X); its slope by central differences
            x = self._from_y(y)
            dx_dy = x - lo if math.isinf(hi) else (x - lo) * (hi - x) / (hi - lo)
            return self._logpdf(x) + np.log(dx_dy)

        with np.errstate(divide="ignore", invalid="ignore"):
            return _LogitTable.build(
                max(float(np.nanmin(z)), -_Z_TILTED), min(float(np.nanmax(z)), _Z_TILTED), node_y,
                lambda y: (log_rho(y), (log_rho(y + 1e-5) - log_rho(y - 1e-5)) / 2e-5))

    def _to_y(self, x):
        lo, hi = self.support
        return np.log(x - lo) - (0.0 if math.isinf(hi) else np.log(hi - x))

    def _from_y(self, y):
        lo, hi = self.support
        return lo + np.exp(y) if math.isinf(hi) else lo + (hi - lo) / (1.0 + np.exp(-y))

    def _cdf_from(self, j, x):
        """The cdf at points x of knot segments j: the knot's mass plus one
        Gauss-Kronrod rule over [xs[j], x]."""
        xs, cdf = self._knots
        return cdf[j] + gauss_kronrod(self.density, xs[j], x)[0]

    def _direct(self, u):
        """Past the span, the table's end; on a segment the table leaves out
        (next to a zero of the density), the point where the cdf reaches u, by
        bisection to the last bit on u's knot segment."""
        tab = self._table
        with np.errstate(divide="ignore"):
            z = np.clip(np.log(u / (1.0 - u)), tab.z_lo, tab.z_hi)
        x = self._from_y(tab(z))
        gap = np.isnan(x)
        if gap.any():
            xs, cdf = self._knots
            v = 1.0 / (1.0 + np.exp(-z[gap]))
            j = np.clip(np.searchsorted(cdf, v, side="right") - 1, 0, xs.size - 2)
            lo, h = xs[j], xs[j + 1] - xs[j]
            t = np.zeros_like(v)
            for k in range(1, 54):
                s = t + 0.5**k
                t = np.where(self._cdf_from(j, lo + s * h) < v, s, t)
            x[gap] = lo + t * h
        return x

    def _cdf(self, x):
        self._tabled()
        xs = self._knots[0]
        out = np.where(x >= xs[-1], 1.0, 0.0)
        inside = (x > xs[0]) & (x < xs[-1])
        j = np.searchsorted(xs, x[inside], side="right") - 1
        out[inside] = np.clip(self._cdf_from(j, x[inside]), 0.0, 1.0)
        return out

    def quantile(self, p):
        return _blockwise(self._invert, p)

    def literal(self):
        w = self._log_weight if self._weight is None else self._weight
        tag = "log_weight" if self._weight is None else "weight"
        return f"tilted(base={self.base.literal()}, {tag}={str(w)!r})"


# ---------------------------------------------------------------------------
# scenario-file literals


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution literal like ``gamma(rate=2,shape=2)``.

    Supported: exp(rate=), gamma(rate=,shape=), beta(a=,b=),
    uniform(lo=,hi=) and degenerate(point).  Arguments may be positional:
    a law's argument names, in their positional order, are its class's
    dataclass fields.
    """
    text = text.strip()
    m = re.match(r"^([a-z_]+)\s*\((.*)\)$", text)
    if m is None:
        raise DistError(f"malformed distribution literal: {text!r}")
    name, argtext = m.group(1), m.group(2)
    cls = {"exp": Exponential, "exponential": Exponential, "gamma": Gamma, "beta": Beta,
           "uniform": Uniform, "degenerate": Degenerate}.get(name)
    if cls is None:
        raise DistError(f"unknown distribution {name!r} in literal {text!r}")
    names = tuple(f.name for f in fields(cls))
    args: dict[str, float] = {}
    parts = [p.strip() for p in argtext.split(",") if p.strip()]
    for i, part in enumerate(parts):
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in names:
                raise DistError(f"unknown argument {key!r} for {name} in {text!r}")
        else:
            if i >= len(names):
                raise DistError(f"too many arguments in {text!r}")
            key, val = names[i], part
        if key in args:
            raise DistError(f"argument {key!r} given twice in {text!r}")
        try:
            args[key] = float(val.strip())
        except ValueError:
            args[key] = math.nan
        if not math.isfinite(args[key]):  # a law's parameters are finite numbers
            raise DistError(f"bad numeric value {val.strip()!r} in {text!r}")
    if set(args) != set(names):
        raise DistError(f"{name} needs arguments {names}, got {sorted(args)} in {text!r}")
    return cls(**args)
