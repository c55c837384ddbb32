"""Distribution catalog: closed forms where they exist, guarded quadrature
where they do not.

Conventions
-----------
* Exponential(rate): mean 1/rate.
* Gamma(rate, shape): density rate^shape x^(shape-1) e^(-rate x)/Gamma(shape),
  mean shape/rate.  Rate comes first everywhere.
* Beta(a, b) on (0,1); Uniform(lo, hi); Poisson(lam) on {0,1,...};
  Degenerate(point) is the unit mass at a point.
* Tilted(base, weight) reweights a base law by a positive weight whose
  base-expectation must equal 1 (verified by quadrature at construction).

All densities, cdfs and quantiles accept scalars or numpy arrays.  Every
sampler is a quantile transform of counter-based uniforms, so a draw is a
pure function of (seed, path index, lane, draw index); every quantile maps
each point on its own, whatever the batch around it.  Gamma and Tilted laws
invert from lazily built per-instance tables: a Gamma draw starts from a
cubic table of log x against logit u and takes one Halley step on the exact
cdf (within 1e-13 relative of gammaincinv, tested for shapes 0.05 to 1e4;
smaller shapes invert by gammaincinv alone); a Tilted draw solves its CDF
table's cubic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy import special as sp

from . import quadrature
from .expr import RealFn, format_number
from .quadrature import DivergentIntegral, integrate_finite, integrate_semi_infinite
from .rng import LANE_MISC, RngStream, uniforms

ArrayLike = Union[float, np.ndarray]

NORMALIZATION_TOL = 1e-8
_TAIL_EPS = 5e-13  # tabulation covers all but ~1e-12 of base mass
_INVERT_BLOCK = 1 << 14  # quantile points per block (bounds peak memory)
_INVERT_MAX_ITER = 100  # hard cap per point; ulp convergence takes 3-4 Newton steps
_GAMMA_SEGMENTS = 512  # cubic segments of the Gamma quantile table
_GAMMA_Z_HI = 37.0  # table's top logit; the largest double below 1 has logit 36.74
# Gamma quantiles below this go to gammaincinv: there a double's relative
# accuracy is limited to about |log x| ulps (the rounding of log u, times 1/shape)
_GAMMA_X_MIN = 1e-60
# Gamma laws of smaller shape invert by gammaincinv alone: as the shape falls,
# P(a, 1.1) -> 1, so the Halley step's f = P(a, x) - u loses relative accuracy
# (2.7e-13 at shape 0.01), and below about 1e-12 the table's nodes underflow
_GAMMA_SHAPE_MIN = 0.05


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

    is_discrete = False
    support: tuple[float, float] = (-math.inf, math.inf)

    # -- subclasses provide: density, logpdf (continuous), cdf, quantile,
    #    moment, mgf; the base class supplies derived conveniences.

    def density(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def cdf(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def quantile(self, p: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def mgf(self, s: float) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    def sample(self, stream: RngStream, lane: int = LANE_MISC) -> float:
        """One draw via the quantile transform of the stream's next uniform."""
        return float(self.quantile(stream.next_uniform(lane)))

    def interior_grid(self, n: int, p_lo: float = 1e-6, p_hi: float = None) -> np.ndarray:
        """n interior points spread by probability mass (quantile grid)."""
        p_hi = 1.0 - p_lo if p_hi is None else p_hi
        return np.asarray(self.quantile(np.linspace(p_lo, p_hi, n)), dtype=float)

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


def sample_array(d: Distribution, seed: int, n: int,
                 lane: int = LANE_MISC, draw: int = 0) -> np.ndarray:
    """n draws, one per path index, for seeded vectorized sampling."""
    return np.asarray(d.quantile(uniforms(seed, np.arange(n), lane, draw)), dtype=float)


# ---------------------------------------------------------------------------
# catalog variants


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise DistError(f"rate must be positive, got {self.rate}")

    @property
    def support(self):
        return (0.0, math.inf)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)
        return _as_float_or_array(x, out)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0.0, math.log(self.rate) - self.rate * x, -math.inf)
        return _as_float_or_array(x, out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)
        return _as_float_or_array(x, out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return _as_float_or_array(p, -np.log1p(-p) / self.rate)

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


class _GammaTable(NamedTuple):
    """Standard gamma quantile of one shape, as a cubic in each segment.

    On segment j, log x = c0 + t (c1 + t (c2 + t c3)) with t = (z - z_lo)
    inv_h - j, z = logit u."""

    u_lo: float        # smallest tabled u, P(a, _GAMMA_X_MIN) or 2^-54; 1: no table
    z_lo: float        # logit u_lo
    inv_h: float       # segments per unit of z
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    u_split: float     # P(a, max(1.1, a)): above it the step uses gammaincc


def _gamma_table(a: float) -> _GammaTable:
    """Cubic Hermite table of log x against z = logit u over [z_lo, 37].

    Nodes are equally spaced in z; their x come from gammaincinv (u <= 1/2)
    or gammainccinv (u > 1/2), and their slopes are exact:
    d log x / dz = u (1 - u) / (x pdf(x)).
    """
    if a < _GAMMA_SHAPE_MIN:
        empty = np.empty(0)
        return _GammaTable(u_lo=1.0, z_lo=math.inf, inv_h=0.0,
                           c0=empty, c1=empty, c2=empty, c3=empty, u_split=1.0)
    u_lo = max(2.0**-54, float(sp.gammainc(a, _GAMMA_X_MIN)))
    z_lo = math.log(u_lo / (1.0 - u_lo))
    z = np.linspace(z_lo, _GAMMA_Z_HI, _GAMMA_SEGMENTS + 1)
    u, q = sp.expit(z), sp.expit(-z)
    low = z <= 0.0
    x = np.empty_like(z)
    x[low] = sp.gammaincinv(a, u[low])
    x[~low] = sp.gammainccinv(a, q[~low])
    log_x = np.log(x)
    h = z[1] - z[0]
    m = h * u * q * np.exp(math.lgamma(a) + x - a * log_x)  # slope per segment width
    y0, y1, m0, m1 = log_x[:-1], log_x[1:], m[:-1], m[1:]
    d = y1 - y0
    return _GammaTable(u_lo=u_lo, z_lo=z_lo, inv_h=1.0 / h,
                       c0=y0, c1=m0, c2=3.0 * d - 2.0 * m0 - m1, c3=m0 + m1 - 2.0 * d,
                       u_split=float(sp.gammainc(a, max(1.1, a))))


@dataclass(frozen=True, repr=False)
class Gamma(Distribution):
    """Gamma law; quantile starts from a lazily built per-instance table
    (_GammaTable), which takes no part in equality, hashing or literal()."""

    rate: float
    shape: float
    _table: Optional[_GammaTable] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if not (self.rate > 0 and self.shape > 0):
            raise DistError(f"rate and shape must be positive, got {self.rate}, {self.shape}")

    @property
    def support(self):
        return (0.0, math.inf)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = (self.shape * math.log(self.rate) + (self.shape - 1.0) * np.log(x)
                  - self.rate * x - math.lgamma(self.shape))
        return _as_float_or_array(x, np.where(x > 0.0, lp, -math.inf))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.where(x > 0.0, np.exp(self.logpdf(x)), 0.0)
        return _as_float_or_array(x, out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sp.gammainc(self.shape, self.rate * np.maximum(x, 0.0))
        return _as_float_or_array(x, np.where(x > 0.0, out, 0.0))

    def quantile(self, p):
        return _blockwise(self._invert, p)

    def _invert(self, u):
        """Table start, then one Halley step on the exact cdf, per point.

        f(x) = P(a, x) - u is evaluated as gammainc(a, x) - u up to
        u_split and as (1 - u) - gammaincc(a, x) above it, so the upper tail
        keeps its relative accuracy; the step uses f' = pdf and
        f''/f' = (a - 1)/x - 1.  Points in [0, 1] outside the table (below
        u_lo, or 1) go to gammaincinv, so 0 -> 0 and 1 -> inf; NaN and points
        outside [0, 1] give NaN.
        """
        if self._table is None:
            object.__setattr__(self, "_table", _gamma_table(self.shape))
        tab, a = self._table, self.shape
        inside = (u >= tab.u_lo) & (u < 1.0)
        if not inside.all():
            out = np.full_like(u, np.nan)
            out[inside] = self._invert(u[inside])
            rest = ~inside & (u >= 0.0) & (u <= 1.0)
            out[rest] = sp.gammaincinv(a, u[rest]) / self.rate
            return out
        # segment j and local coordinate t in [0, 1] of z = logit u
        t = np.log(u / (1.0 - u))
        t -= tab.z_lo
        t *= tab.inv_h
        j = np.floor(t)
        np.clip(j, 0, _GAMMA_SEGMENTS - 1, out=j)
        t -= j
        j = j.astype(np.intp)
        log_x = tab.c3.take(j)
        for c in (tab.c2, tab.c1, tab.c0):
            log_x *= t
            log_x += c.take(j)
        x = np.exp(log_x)

        f = np.empty_like(u)
        lower = np.flatnonzero(u <= tab.u_split)
        f[lower] = sp.gammainc(a, x[lower]) - u[lower]
        upper = np.flatnonzero(u > tab.u_split)
        f[upper] = (1.0 - u[upper]) - sp.gammaincc(a, x[upper])

        # relative Newton step e = f / (x pdf(x)); Halley divides it by
        # 1 - (e x / 2) f''/f' = 1 + e (1 - a + x) / 2
        e = x + math.lgamma(a)
        e -= a * log_x
        np.exp(e, out=e)
        e *= f
        d = x + (1.0 - a)
        d *= e
        d *= 0.5
        d += 1.0
        e /= d
        e *= x
        x -= e
        x /= self.rate
        return x

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
class Beta(Distribution):
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DistError(f"a and b must be positive, got {self.a}, {self.b}")

    @property
    def support(self):
        return (0.0, 1.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = ((self.a - 1.0) * np.log(x) + (self.b - 1.0) * np.log1p(-x)
                  - sp.betaln(self.a, self.b))
        return _as_float_or_array(x, np.where((x > 0.0) & (x < 1.0), lp, -math.inf))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x > 0.0) & (x < 1.0), np.exp(self.logpdf(x)), 0.0)
        return _as_float_or_array(x, out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sp.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))
        return _as_float_or_array(x, out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return _as_float_or_array(p, sp.betaincinv(self.a, self.b, p))

    def moment(self, k):
        _check_order(k)
        value = 1.0
        for j in range(k):
            value *= (self.a + j) / (self.a + self.b + j)
        return value

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        return float(sp.hyp1f1(self.a, self.a + self.b, s))

    def literal(self):
        return f"beta(a={format_number(self.a)}, b={format_number(self.b)})"


@dataclass(frozen=True, repr=False)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DistError(f"need lo < hi, got {self.lo}, {self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.lo) & (x < self.hi)
        return _as_float_or_array(x, np.where(inside, 1.0 / (self.hi - self.lo), 0.0))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.lo) & (x < self.hi)
        return _as_float_or_array(x, np.where(inside, -math.log(self.hi - self.lo), -math.inf))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _as_float_or_array(x, out)

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
        return (math.exp(s * self.hi) - math.exp(s * self.lo)) / (s * (self.hi - self.lo))

    def literal(self):
        return f"uniform(lo={format_number(self.lo)}, hi={format_number(self.hi)})"


@dataclass(frozen=True, repr=False)
class Poisson(Distribution):
    lam: float
    is_discrete = True

    def __post_init__(self):
        if not self.lam > 0:
            raise DistError(f"lambda must be positive, got {self.lam}")

    @property
    def support(self):
        return (0.0, math.inf)

    def density(self, x):
        """Mass function; zero off the integer lattice."""
        x = np.asarray(x, dtype=float)
        n = np.floor(x)
        on_lattice = (x >= 0.0) & (x == n)
        safe = np.where(on_lattice, n, 0.0)
        logp = -self.lam + safe * math.log(self.lam) - sp.gammaln(safe + 1.0)
        return _as_float_or_array(x, np.where(on_lattice, np.exp(logp), 0.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        n = np.floor(np.maximum(x, -1.0))
        out = np.where(x >= 0.0, sp.gammaincc(n + 1.0, self.lam), 0.0)
        return _as_float_or_array(x, out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        flat = np.atleast_1d(p)
        nan = np.isnan(flat)
        # tabulate the cdf once out to negligible tail mass, then bisect
        n_max = 16
        while sp.gammaincc(n_max + 1.0, self.lam) < flat[~nan].max(initial=0.0):
            n_max *= 2
            if n_max > 10_000_000:
                raise DistError("poisson quantile search exceeded cap")
        table = sp.gammaincc(np.arange(n_max + 1) + 1.0, self.lam)
        out = np.searchsorted(table, flat, side="left").astype(float)
        out[nan] = np.nan
        return _as_float_or_array(p, out.reshape(np.shape(p)))

    def moment(self, k):
        _check_order(k)
        # Touchard: E[N^k] = sum_j S2(k, j) lam^j
        stirling = [[0] * (k + 1) for _ in range(k + 1)]
        stirling[0][0] = 1
        for n in range(1, k + 1):
            for j in range(1, n + 1):
                stirling[n][j] = j * stirling[n - 1][j] + stirling[n - 1][j - 1]
        return float(sum(stirling[k][j] * self.lam**j for j in range(k + 1)))

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        return math.exp(self.lam * math.expm1(s))

    def literal(self):
        return f"poisson(lambda={format_number(self.lam)})"


@dataclass(frozen=True, repr=False)
class Degenerate(Distribution):
    point: float
    is_discrete = True

    def __post_init__(self):
        if not self.point > 0:
            raise DistError(f"point must be positive, got {self.point}")

    @property
    def support(self):
        return (self.point, self.point)

    def density(self, x):
        """Mass function of the unit point mass."""
        x = np.asarray(x, dtype=float)
        return _as_float_or_array(x, np.where(x == self.point, 1.0, 0.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float_or_array(x, np.where(x >= self.point, 1.0, 0.0))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return _as_float_or_array(p, np.full(np.shape(p), self.point))

    def moment(self, k):
        _check_order(k)
        return self.point**k

    def mgf(self, s):
        return math.exp(s * self.point)

    def interior_grid(self, n, p_lo=1e-6, p_hi=None):
        return np.full(n, self.point)

    def literal(self):
        return f"degenerate({format_number(self.point)})"


def _check_order(k):
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise DistError(f"moment order must be a natural number, got {k!r}")


# ---------------------------------------------------------------------------
# expectations under a catalog law (the workhorse for admissibility gates,
# premium densities and quadrature oracles)


def expectation(d: Distribution, f: Callable[[float], float]) -> float:
    """E[f(X)] under d, with the divergence guard on unbounded supports.

    Raises DivergentIntegral when the guard refuses.
    """
    if isinstance(d, Degenerate):
        return f(d.point)
    if isinstance(d, Poisson):
        return _poisson_sum(d, f)
    lo, hi = d.support
    if math.isinf(hi):
        return integrate_semi_infinite(lambda x: f(x) * d.density(x), lo,
                                       tail_mass=d.survival)
    return integrate_finite(lambda x: f(x) * d.density(x), lo, hi)


def log_weighted_expectation(d: Distribution, log_weight: Callable[[float], float],
                             f: Optional[Callable[[float], float]] = None) -> float:
    """E[f(X) e^{log_weight(X)}] computed as exp(log_weight + logpdf) [* f].

    The log-space product keeps exponential tilts from overflowing in
    the intermediate even when the weight alone would.
    """
    if isinstance(d, (Degenerate, Poisson)):
        w = lambda x: math.exp(log_weight(x))
        return expectation(d, (lambda x: f(x) * w(x)) if f else w)
    lo, hi = d.support

    def integrand(x: float) -> float:
        lp = log_weight(x) + d.logpdf(x)
        v = math.exp(lp) if lp < 709.0 else math.inf
        return v * f(x) if f is not None else v

    if math.isinf(hi):
        return integrate_semi_infinite(integrand, lo, tail_mass=d.survival)
    return integrate_finite(integrand, lo, hi)


def _poisson_sum(d: Poisson, f: Callable[[float], float]) -> float:
    cutoff = int(d.quantile(1.0 - 1e-16)) + 60
    total = math.fsum(f(float(n)) * d.density(float(n)) for n in range(cutoff + 1))
    if not math.isfinite(total):
        raise DivergentIntegral("poisson expectation not finite")
    return total


# ---------------------------------------------------------------------------
# tilted laws


class Tilted(Distribution):
    """Base law reweighted by a positive weight with unit base-expectation.

    The weight can be given directly, in log form, or both; log form is
    preferred numerically.  Construction verifies the normalization
    integral to 1e-8 by quadrature and refuses otherwise.  cdf, quantile
    and sampling run off a lazily built CDF table covering all but
    ~1e-12 of the base mass: a cubic Hermite interpolant of the cdf.
    quantile solves that cubic on each point's table segment, to an ulp
    of x, so a draw is a function of its own uniform alone.
    """

    def __init__(self, base: Distribution,
                 weight: Optional[RealFn] = None,
                 log_weight: Optional[RealFn] = None):
        if weight is None and log_weight is None:
            raise DistError("tilted law needs a weight or a log-weight")
        if base.is_discrete:
            raise DistError("tilting is only supported for continuous base laws")
        self.base = base
        self._weight = weight
        self._log_weight = log_weight
        self._table = None
        norm = log_weighted_expectation(base, self.log_weight_at)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise DistError(
                f"tilt weight has base-expectation {norm!r}, not 1 within {NORMALIZATION_TOL:g}")

    @property
    def support(self):
        return self.base.support

    def weight_at(self, x):
        if self._weight is not None:
            w = self._weight
            return w.eval_array(x) if isinstance(x, np.ndarray) else w(x)
        lw = self.log_weight_at(x)
        return np.exp(lw) if isinstance(x, np.ndarray) else math.exp(min(lw, 709.0))

    def log_weight_at(self, x):
        if self._log_weight is not None:
            lw = self._log_weight
            return lw.eval_array(x) if isinstance(x, np.ndarray) else lw(x)
        w = self.weight_at(x)
        if isinstance(x, np.ndarray):
            return np.log(w)
        if w < 0.0:
            raise DistError(f"tilt weight is negative at {x!r}")
        return math.log(w) if w > 0.0 else -math.inf

    def logpdf(self, x):
        if isinstance(x, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore"):
                return self.log_weight_at(x) + self.base.logpdf(x)
        return self.log_weight_at(x) + self.base.logpdf(x)

    def density(self, x):
        xs = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (xs > lo) & (xs < hi)
        out = np.zeros(xs.shape)
        if out.ndim == 0:
            return float(math.exp(self.logpdf(float(xs)))) if inside else 0.0
        if inside.any():
            with np.errstate(over="ignore"):
                out[inside] = np.exp(self.logpdf(xs[inside]))
        return out

    def moment(self, k):
        _check_order(k)
        if k == 0:
            return 1.0

        def log_f(x):
            return self.log_weight_at(x) + k * math.log(x)

        try:
            return log_weighted_expectation(self.base, log_f)
        except DivergentIntegral as e:
            raise DivergentMoment(f"moment {k} of tilted law diverges: {e}") from e

    def mgf(self, s):
        if s == 0.0:
            return 1.0
        try:
            return log_weighted_expectation(self.base, lambda x: self.log_weight_at(x) + s * x)
        except DivergentIntegral as e:
            raise OutsideConvergenceStrip(f"mgf({s:g}) of tilted law diverges: {e}") from e

    # -- CDF table -----------------------------------------------------

    def _build_table(self):
        from scipy.interpolate import CubicHermiteSpline

        base = self.base
        lo, hi = self.support
        # equal-probability nodes through the bulk, geometric refinement in
        # both tails (equal spacing alone leaves tail segments many units
        # wide, which ruins the interpolant there)
        left = np.geomspace(_TAIL_EPS, 1e-3, 256, endpoint=False)
        mid = np.linspace(1e-3, 1.0 - 1e-3, 1537)
        right = 1.0 - np.geomspace(1e-3, _TAIL_EPS, 256, endpoint=True)[1:]
        p = np.unique(np.concatenate([left, mid, right, [1.0 - _TAIL_EPS]]))
        xs = np.unique(np.asarray(base.quantile(p), dtype=float))

        # the base-quantile span can miss tilted mass: a weight singular at
        # the lower edge piles mass below xs[0], an outward tilt shifts mass
        # beyond xs[-1]; extend until both tilted tails are negligible
        def pdf_scalar(x: float) -> float:
            return float(self.density(x))

        left_tail = 0.0
        if math.isfinite(lo):
            for _ in range(8):
                left_tail = integrate_finite(pdf_scalar, lo, xs[0])
                if left_tail < 1e-12:
                    break
                extra = lo + (xs[0] - lo) * np.geomspace(1e-4, 1.0, 65)[:-1]
                xs = np.unique(np.concatenate([extra, xs]))
        for _ in range(12):
            if math.isinf(hi):
                right_tail = integrate_semi_infinite(pdf_scalar, xs[-1],
                                                     tail_mass=base.survival)
                if right_tail < 1e-12:
                    break
                extra = np.linspace(xs[-1], 2.0 * xs[-1] - xs[0], 129)[1:]
            else:
                right_tail = integrate_finite(pdf_scalar, xs[-1], hi)
                if right_tail < 1e-12:
                    break
                extra = hi - (hi - xs[-1]) * np.geomspace(1e-4, 1.0, 65)[:-1]
            xs = np.unique(np.concatenate([xs, extra]))

        # cap the x-gap: probability-uniform placement spreads out wherever
        # the density is small, and interpolation error grows like gap^4
        cap = (xs[-1] - xs[0]) / 1024.0
        gaps = np.diff(xs)
        if (gaps > cap).any():
            filler = [xs]
            for k in np.nonzero(gaps > cap)[0]:
                m = int(np.ceil(gaps[k] / cap))
                filler.append(np.linspace(xs[k], xs[k + 1], m + 1)[1:-1])
            xs = np.unique(np.concatenate(filler))

        # 16-point Gauss-Legendre per segment, all evaluations batched
        nodes, weights = np.polynomial.legendre.leggauss(16)
        a, b = xs[:-1], xs[1:]
        half = 0.5 * (b - a)
        mids = 0.5 * (a + b)
        pts = mids[:, None] + half[:, None] * nodes[None, :]
        log_pts = np.asarray(self.logpdf(pts.ravel()))
        log_xs = np.asarray(self.logpdf(xs))
        # NaN is a negative weight, +inf an infinite one (-inf, a zero weight, is fine)
        if not ((log_pts < np.inf).all() and (log_xs < np.inf).all()):
            raise DistError("tilt weight is negative or not finite at a CDF table node")
        with np.errstate(over="ignore"):
            vals = np.exp(log_pts).reshape(pts.shape)
        masses = (vals * weights[None, :]).sum(axis=1) * half
        cdf = left_tail + np.concatenate([[0.0], np.cumsum(masses)])
        dens = np.exp(log_xs)
        spline = CubicHermiteSpline(xs, cdf, dens)
        self._table = (xs, cdf, spline)

    def _ensure_table(self):
        if self._table is None:
            self._build_table()
        return self._table

    def cdf(self, x):
        xs_in = np.asarray(x, dtype=float)
        xs, cdf, spline = self._ensure_table()
        out = np.clip(spline(np.clip(xs_in, xs[0], xs[-1])), 0.0, 1.0)
        out = np.where(xs_in <= xs[0], 0.0, np.where(xs_in >= xs[-1], 1.0, out))
        return _as_float_or_array(x, out)

    def quantile(self, p):
        return _blockwise(self._invert, p)

    def _invert(self, p):
        """Root of the table's own cubic on each point's segment.

        Safeguarded Newton from linear interpolation, bracket [0, h_j]; a
        step that leaves the bracket is replaced by bisection.  Each point
        stops on its own once its step is below an ulp of x, so a result
        depends on that point's p alone.  NaN maps to NaN.
        """
        xs, cdf, spline = self._ensure_table()
        u = np.clip(p, cdf[0] + 1e-15, cdf[-1] - 1e-15)
        j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(xs) - 2)
        # PPoly layout: on segment j, F(x_j + s) = c0 s^3 + c1 s^2 + c2 s + c3
        c0, c1, c2, c3 = spline.c[:, j]
        x0, x1 = xs[j], xs[j + 1]
        h = x1 - x0
        d = c3 - u
        s = h * (-d / (cdf[j + 1] - c3))
        a, b = np.zeros_like(s), h
        out = np.full(p.shape, np.nan)
        live = np.flatnonzero(~np.isnan(u))
        state = np.stack([c0, c1, c2, d, x0, x1, s, a, b])[:, live]
        for _ in range(_INVERT_MAX_ITER):
            if live.size == 0:
                break
            c0, c1, c2, d, x0, x1, s, a, b = state
            f = ((c0 * s + c1) * s + c2) * s + d
            fp = (3.0 * c0 * s + 2.0 * c1) * s + c2
            state[7] = a = np.where(f < 0.0, s, a)
            state[8] = b = np.where(f > 0.0, s, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = s - f / fp
            inside = (newton >= a) & (newton <= b)
            s_new = np.where(f == 0.0, s, np.where(inside, newton, 0.5 * (a + b)))
            x = np.minimum(x0 + s_new, x1)
            done = np.abs(s_new - s) <= np.spacing(np.abs(x))
            out[live[done]] = x[done]
            state[6] = s_new
            live, state = live[~done], state[:, ~done]
        # points still live at the cap keep their last iterate
        out[live] = np.minimum(state[4] + state[6], state[5])
        return out

    def literal(self):
        w = self._log_weight if self._weight is None else self._weight
        tag = "log_weight" if self._weight is None else "weight"
        return f"tilted(base={self.base.literal()}, {tag}={str(w)!r})"


# ---------------------------------------------------------------------------
# scenario-file literals


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution literal like ``gamma(rate=2,shape=2)``.

    Supported: exp(rate=), gamma(rate=,shape=), beta(a=,b=),
    uniform(lo=,hi=), degenerate(point) and poisson(lambda=).
    Arguments may be positional in the documented order.
    """
    text = text.strip()
    m = re.match(r"^([a-z_]+)\s*\((.*)\)$", text)
    if m is None:
        raise DistError(f"malformed distribution literal: {text!r}")
    name, argtext = m.group(1), m.group(2)
    spec = {
        "exp": (Exponential, ("rate",)),
        "exponential": (Exponential, ("rate",)),
        "gamma": (Gamma, ("rate", "shape")),
        "beta": (Beta, ("a", "b")),
        "uniform": (Uniform, ("lo", "hi")),
        "degenerate": (Degenerate, ("point",)),
        "poisson": (Poisson, ("lam",)),
    }.get(name)
    if spec is None:
        raise DistError(f"unknown distribution {name!r} in literal {text!r}")
    cls, names = spec
    args: dict[str, float] = {}
    parts = [p.strip() for p in argtext.split(",") if p.strip()]
    for i, part in enumerate(parts):
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip()
            if key == "lambda":
                key = "lam"
            if key not in names:
                raise DistError(f"unknown argument {key!r} for {name} in {text!r}")
        else:
            if i >= len(names):
                raise DistError(f"too many arguments in {text!r}")
            key, val = names[i], part
        try:
            args[key] = float(val.strip())
        except ValueError:
            raise DistError(f"bad numeric value {val.strip()!r} in {text!r}") from None
    if set(args) != set(names):
        raise DistError(f"{name} needs arguments {names}, got {sorted(args)} in {text!r}")
    return cls(**args)
