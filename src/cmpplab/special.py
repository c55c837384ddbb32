"""Special functions of the catalog laws, on numpy and math alone.

Bounds are relative errors against 50-digit mpmath (tests/test_special.py,
tests/test_dist.py); a probability v's bound scales with 1 + |ln v|.
* gammainc: P(a, x) by the series below x = a + 1 (Q by its own series when
  a < 1), the modified-Lentz continued fraction of Q above, and Temme's
  uniform expansion (DLMF 8.12) near x = a for a >= 200; 1e-14 (1 + |ln v|)
  for P and Q, a in 0.05..1e5, both tails down to 1e-300.
* gamma_log_x, gammaincinv: Halley steps in ln x on ln P (u <= 1/2) or ln Q
  from a Wilson-Hilferty or lower-tail start (DiDonato and Morris, ACM TOMS
  12, 1986); 1e-13 for shapes 0.05..1e6, and below that too except for
  u <= 1/2, where an ulp of ln P is 1/a ulps of x: max(1e-13, 2e-15/a).
* betainc, beta_logit_x, betaincinv: I_x(a, b) by its continued fraction, on
  I_{1-x}(b, a) where x > (a+1)/(a+b+2) (TOMS 708), 1e-14 (1 + |ln v|); the
  inverse by Halley steps in logit x, 1e-13; a, b in 0.05..1000.
* norm_isf: the upper normal quantile, within 2 ulps for p >= 2e-5.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MAX_TERMS = 100_000  # series and fraction terms; O(sqrt(a)) are used
_MAX_STEPS = 100      # Halley steps per point; 2-7 are used
_TINY = 1e-300
_LN_HALF = -math.log(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)
# Temme's c_k(eta), k = 0..5, as power series in eta (DLMF 8.12.8-8.12.10),
# truncated for a >= 200 and |eta| <= 0.3, lowest power first
_TEMME = np.split(np.array([
    -0.333333333333333, 0.0833333333333333, -0.0148148148148148, 0.00115740740740741,
    0.000352733686067019, -0.000178755144032922, 3.91926317852244e-05, -2.18544851067999e-06,
    -1.85406221071516e-06, 8.29671134095309e-07, -1.76659527368261e-07, 6.7078535434015e-09,
    1.02618097842403e-08, -4.38203601845335e-09, 9.14769958223679e-10, -0.00185185185185185,
    -0.00347222222222222, 0.00264550264550265, -0.00099022633744856, 0.000205761316872428,
    -4.01877572016461e-07, -1.809855033449e-05, 7.64916091608111e-06, -1.61209008945634e-06,
    4.64712780280743e-09, 1.37863344691572e-07, -5.7525456035177e-08, 1.19516285997781e-08,
    0.00413359788359788, -0.00268132716049383, 0.000771604938271605, 2.0093878600823e-06,
    -0.000107366532263652, 5.29234488291201e-05, -1.27606351886187e-05, 3.42357873409614e-08,
    1.37219573090629e-06, -6.29899213838005e-07, 1.42806142060642e-07, 0.000649434156378601,
    0.000229472093621399, -0.000469189494395256, 0.000267720632062839, -7.56180167188398e-05,
    -2.3965051138673e-07, 1.10826541153473e-05, -5.6749528269916e-06, 1.42309007324359e-06,
    -0.000861888290916712, 0.000784039221720067, -0.00029907248030319, -1.46384525788434e-06,
    6.64149821546512e-05, -3.96836504717943e-05, -0.000336798553366358, -6.97281375836586e-05,
    0.000277275324495939, -0.000199325705161888]), np.cumsum([15, 13, 11, 9, 6]))
# zeta(k) - 1, k = 2..17, for ln Gamma(1 + a) at small a
_ZETA_M1 = (0.6449340668482264, 0.2020569031595943, 0.08232323371113819, 0.03692775514336993,
            0.01734306198444914, 0.008349277381922827, 0.00407735619794434, 0.0020083928260822143,
            0.0009945751278180853, 0.0004941886041194645, 0.0002460865533080483,
            0.00012271334757848915, 6.124813505870483e-05, 3.058823630702049e-05,
            1.528225940865187e-05, 7.637197637899763e-06)
# ln Gamma*(z) = sum_k c_k / z^(2k+1), Stirling's series
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _pointwise(hi, at_lo, at_hi):
    """fn(*params, v) for a float or array v: fn sees the 1-d array of points
    in (0, hi); 0 gives at_lo, hi gives at_hi, anything else NaN."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapped(*args):
            *params, v = args
            arr = np.asarray(v, dtype=float)
            flat = arr.ravel()
            inside = (flat > 0.0) & (flat < hi)
            out = np.where(flat == 0.0, at_lo, np.where(flat == hi, at_hi, math.nan))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out[inside] = fn(*params, flat[inside])
            return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
        return wrapped
    return wrap


def _ndtri(p):
    """Standard normal quantile at p in (0, 1) to 4.5e-4 (A&S 26.2.23): a start."""
    t = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return np.where(p < 0.5, -z, z)


def norm_isf(p: float) -> float:
    """The z with P(Z > z) = p for a standard normal Z, 0 < p < 1."""
    z = float(-_ndtri(np.array([p]))[0])
    for _ in range(2):  # Halley on erfc(z/sqrt 2)/2 = p, cubic from A&S's 4.5e-4
        d = (math.erfc(z / math.sqrt(2.0)) / 2 - p) * math.sqrt(2 * math.pi) * math.exp(z * z / 2)
        z += d / (1.0 - 0.5 * z * d)
    return z


def _lgamma1p(a: float) -> float:
    """ln Gamma(1 + a) for a > 0, to a few ulps also for tiny a."""
    if a >= 0.2:
        return math.lgamma(1.0 + a)
    s = 0.0  # sum_{k>=2} (-a)^(k-2) (zeta(k) - 1)/k
    for k in range(len(_ZETA_M1) + 1, 1, -1):
        s = _ZETA_M1[k - 2] / k - a * s
    return a * a * s + a * (1.0 - 0.5772156649015329) - math.log1p(a)


def _log_gamma_star(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, for z >= 20."""
    return sum(c / z**(2 * k + 1) for k, c in enumerate(_STIRLING))


def lnbeta(a: float, b: float) -> float:
    """ln B(a, b); where max(a, b) >= 20, ln Gamma(big) - ln Gamma(small + big)
    comes from Stirling's series, as math.lgamma's two terms would cancel."""
    small, big = min(a, b), max(a, b)
    if big < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(small) - small * math.log(big) + small
            - (small + big - 0.5) * math.log1p(small / big)
            + _log_gamma_star(big) - _log_gamma_star(small + big))


def _log1mexp(lv):
    """ln(1 - e^lv) for lv <= 0."""
    with np.errstate(divide="ignore"):
        return np.where(lv > _LN_HALF, np.log(-np.expm1(lv)), np.log1p(-np.exp(lv)))


def _sum_series(x, ratio, first):
    """first + sum of t_n = t_{n-1} ratio(n, x), per point, until every term is
    below 1e-17 of its sum; |ratio| < 1 for n >= 1, so a point's later terms
    leave its sum unchanged whatever the batch around it."""
    total = np.array(first, dtype=float) + np.zeros_like(x)
    term = total.copy()
    for n in range(1, _MAX_TERMS):
        term *= ratio(n, x)
        total += term
        if n % 4 == 0 and not (np.abs(term) > np.abs(total) * 1e-17).any():
            break
    return total


def _lentz(x, coeffs, guard=True):
    """Continued fraction b0 + a1/(b1 + a2/(b2 + ...)) per point by modified
    Lentz; coeffs(m, x) gives (a_m, b_m), with b_0 at m = 0, and guard keeps
    the partial denominators off 0.  Each point keeps its value at the first
    check (every 4th term) where a term moved it by under an ulp."""
    def nonzero(v):
        return np.where(np.abs(v) < _TINY, _TINY, v) if guard else v
    h = nonzero(coeffs(0, x)[1] + np.zeros_like(x))
    out, c, d, done = h.copy(), h.copy(), np.zeros_like(x), np.zeros(x.shape, dtype=bool)
    for m in range(1, _MAX_TERMS):
        am, bm = coeffs(m, x)
        d = 1.0 / nonzero(bm + am * d)
        c = nonzero(bm + am / c)
        delta = c * d
        h *= delta
        if m % 4 == 0:
            now = ~done & ~(np.abs(delta - 1.0) > 2.3e-16)
            out[now] = h[now]
            done |= now
            if done.all():
                break
    return out


def _halley(tails, y, lu, lq, y_max):
    """Solve ln P(y) = lu where lu <= ln 1/2, else ln Q(y) = lq, by Halley
    steps per point, y <= y_max; tails(y) gives (ln P, ln Q, ln rho, d ln rho/dy).

    ln P and ln Q are concave in y (the laws of ln X and logit X are
    log-concave), so Newton steps converge from anywhere; the Halley factor
    is held in [1/2, 2].  A point stops after a step below 1e-9 max(1, |y|).
    """
    y = np.array(y, dtype=float)
    upper = lu > _LN_HALF
    target = np.where(upper, lq, lu)
    live = np.flatnonzero(np.isfinite(y))
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        yl, up = y[live], upper[live]
        lp, lql, lr, slope = tails(yl)
        g1 = np.where(up, -np.exp(lr - lql), np.exp(lr - lp))  # d ln P/dy or d ln Q/dy
        ratio = (np.where(up, lql, lp) - target[live]) / g1
        step = ratio / np.clip(1.0 - 0.5 * ratio * (slope - g1), 0.5, 2.0)
        y[live] = np.minimum(yl - step, y_max)
        live = live[~(np.abs(step) <= 1e-9 * np.maximum(1.0, np.abs(yl)))]
    return y


# ---------------------------------------------------------------------------
# incomplete gamma, in y = ln x


def _a_phi(a, x):
    """a phi(x/a) = x - a - a ln(x/a) >= 0; for |d| < 1/2, d = x/a - 1, the
    series d - ln(1 + d) = r d - 2 r^3 sum_k r^(2k)/(2k+3), r = d/(2 + d)."""
    d = (x - a) / a
    r = d / (2.0 + d)
    r2, s = r * r, 0.0
    for k in range(19, -1, -1):
        s = s * r2 + 1.0 / (2 * k + 3)
    return a * np.where(np.abs(d) < 0.5, r * d - 2.0 * r * r2 * s, d - np.log(x / a))


def gamma_log_density(a, y, x=None):
    """ln rho and d ln rho/dy for Y = ln X, X ~ Gamma(a): rho = x^a e^-x / Gamma(a),
    at y (and x = e^y, if given)."""
    x = np.exp(y) if x is None else x
    if a < 20.0:
        return a * y - x + (math.log(a) - _lgamma1p(a)), a - x
    return 0.5 * math.log(a / (2 * math.pi)) - _log_gamma_star(a) - _a_phi(a, x), a - x


def _gamma_tails(a, y, x=None):
    """(ln P, ln Q, ln rho, d ln rho/dy) of Gamma(a) at y = ln x."""
    x = np.exp(y) if x is None else x
    lr, slope = gamma_log_density(a, y, x)
    lp, lq = np.empty_like(x), np.empty_like(x)
    a_phi = _a_phi(a, x) if a >= 200.0 else np.full_like(x, np.inf)  # a eta^2 / 2
    temme = (a_phi <= 0.045 * a) & (a_phi < 676.0)
    series = ~temme & (x < a + 1.0)
    cf = ~temme & ~series
    if series.any():
        xs, ys = x[series], y[series]
        # P = x^a e^-x / Gamma(1+a) sum_{n>=0} x^n / ((a+1)...(a+n))
        lw = a * ys - xs - _lgamma1p(a) if a < 20.0 else lr[series] - math.log(a)
        lp[series] = lw + np.log(_sum_series(xs, lambda n, v: v / (a + n), 1.0))
        if a < 1.0:  # Q = 1 - x^a/Gamma(1+a) - x^a/Gamma(a) sum_{n>=1} (-x)^n/(n! (a+n))
            la = a * ys - _lgamma1p(a)
            s = _sum_series(xs, lambda n, v: -v * (a + n) / ((n + 1) * (a + n + 1)),
                            -xs / (a + 1))
            lq[series] = np.log(-np.expm1(la) - np.exp(la) * a * s)
        else:
            lq[series] = _log1mexp(lp[series])
    if cf.any():  # Q = rho / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))), x+1-a >= 2
        lq[cf] = lr[cf] - np.log(_lentz(
            x[cf], lambda m, v: (-m * (m - a), v + 2 * m + 1.0 - a), guard=False))
        lp[cf] = _log1mexp(lq[cf])
    if temme.any():  # the smaller tail, e^(-a eta^2/2) (erfc(...)/2 +- R_a(eta))
        above = np.where(x[temme] > a, 1.0, -1.0)
        eta = above * np.sqrt(2.0 * a_phi[temme] / a)
        s = 0.0
        for row in _TEMME[::-1]:
            s = s / a + np.polyval(row[::-1], eta)
        small = np.log(0.5 * _erfc(np.sqrt(a_phi[temme])).astype(float)
                       + above * s * np.exp(-a_phi[temme]) / math.sqrt(2 * math.pi * a))
        lq[temme] = np.where(above > 0.0, small, _log1mexp(small))
        lp[temme] = np.where(above > 0.0, _log1mexp(small), small)
    return lp, lq, lr, slope


@_pointwise(math.inf, 0.0, 1.0)
def gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x), x >= 0."""
    return np.exp(_gamma_tails(a, np.log(x), x)[0])


def gamma_log_x(a, u, q):
    """ln x with P(a, x) = u and Q(a, x) = q = 1 - u, per point, 0 < u < 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lu, lq = np.log(u), np.log(q)
        y = (lu + _lgamma1p(a)) / a  # P < x^a/Gamma(1+a): below the root
        wh = 1.0 - 1.0 / (9.0 * a) - _ndtri(q) / (3.0 * math.sqrt(a))
        y_wh = math.log(a) + 3.0 * np.log(np.where(wh > 0.0, wh, np.nan))
        y = np.where(np.isnan(y_wh), y, np.where(u <= 0.5, np.fmax(y, y_wh), y_wh))
        return _halley(lambda v: _gamma_tails(a, v), y, lu, lq, 700.0)


@_pointwise(1.0, 0.0, math.inf)
def gammaincinv(a, u):
    """x with P(a, x) = u: 0 at u = 0, inf at u = 1, NaN outside [0, 1]."""
    return np.exp(gamma_log_x(a, u, 1.0 - u))


# ---------------------------------------------------------------------------
# incomplete beta, in y = logit x


def beta_log_density(a, b, y):
    """ln rho and d ln rho/dy for Y = logit X, X ~ Beta(a, b): rho = x^a (1-x)^b / B(a, b)."""
    lx, l1x = -np.logaddexp(0.0, -y), -np.logaddexp(0.0, y)
    return a * lx + b * l1x - lnbeta(a, b), a - (a + b) * np.exp(lx)


def _beta_tails(a, b, y):
    """(ln I, ln(1 - I), ln rho, d ln rho/dy) of Beta(a, b) at y = logit x."""
    lr, slope = beta_log_density(a, b, y)
    x, w = np.exp(-np.logaddexp(0.0, -y)), np.exp(-np.logaddexp(0.0, y))
    low = x < (a + 1.0) / (a + b + 2.0)
    tails = np.empty((2, x.size))
    # I_x(a, b) on the low side, 1 - I_x(a, b) = I_{1-x}(b, a) on the other,
    # as rho/p / (1 + d_1/(1 + d_2/(1 + ...))) with d_2k = k (q-k) v / ((p+2k-1)(p+2k))
    # and d_2k+1 = -(p+k) (p+q+k) v / ((p+2k)(p+2k+1))
    for part, p, q, v, row in ((low, a, b, x, 0), (~low, b, a, w, 1)):
        def coeffs(m, v, p=p, q=q):
            k = m // 2
            num = k * (q - k) if m % 2 == 0 else -(p + k) * (p + q + k)
            return (num * v / ((p + m - 1) * (p + m)) if m else 0.0), 1.0
        small = lr[part] - math.log(p) - np.log(_lentz(v[part], coeffs))
        tails[row, part], tails[1 - row, part] = small, _log1mexp(small)
    return tails[0], tails[1], lr, slope


@_pointwise(1.0, 0.0, 1.0)
def betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b), 0 <= x <= 1."""
    return np.exp(_beta_tails(a, b, np.log(x) - np.log1p(-x))[0])


def beta_logit_x(a, b, u, q):
    """logit x with I_x(a, b) = u and 1 - I_x(a, b) = q = 1 - u, per point."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lu, lq, lb = np.log(u), np.log(q), lnbeta(a, b)
        lx = (lu + math.log(a) + lb) / a    # I ~ x^a/(a B) as x -> 0
        lw = (lq + math.log(b) + lb) / b    # 1 - I ~ (1-x)^b/(b B) as x -> 1
        y_lo = np.where(lx < math.log(a / (a + b)), lx - _log1mexp(lx), -np.inf)
        y_hi = np.where(lw < math.log(b / (a + b)), _log1mexp(lw) - lw, np.inf)
        y_norm = math.log(a / b) - _ndtri(q) * math.sqrt(1.0 / a + 1.0 / b)
        y = np.where(u <= 0.5, np.fmax(y_lo, y_norm), np.fmin(y_hi, y_norm))
        return _halley(lambda v: _beta_tails(a, b, v), y, lu, lq, math.inf)


@_pointwise(1.0, 0.0, 1.0)
def betaincinv(a, b, u):
    """x with I_x(a, b) = u: 0 at u = 0, 1 at u = 1, NaN outside [0, 1]."""
    return np.exp(-np.logaddexp(0.0, -beta_logit_x(a, b, u, 1.0 - u)))
