import math

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from cmpplab.dist import (Beta, Degenerate, DistError, Exponential, Gamma,
                          OutsideConvergenceStrip, Tilted, Uniform,
                          expectation, log_weighted_expectation,
                          parse_distribution, sample_array)
from cmpplab.expr import parse

CATALOG = [Exponential(0.2), Exponential(1.0), Gamma(2.0, 2.0), Gamma(3.0, 4.0),
           Beta(2.0, 1.0), Beta(2.0, 3.0), Uniform(0.0, 1.0), Uniform(0.5, 2.5)]


# ---------------------------------------------------------------------------
# worked values

def test_exponential_moments_exact():
    e = Exponential(0.2)
    assert e.moment(1) == 5.0
    assert e.moment(2) == 50.0
    assert e.moment(3) == 750.0


def test_degenerate_moments():
    d = Degenerate(2.0)
    assert d.moment(3) == 8.0
    assert d.quantile(0.5) == 2.0
    assert sample_array(d, seed=1, n=5).tolist() == [2.0] * 5


def test_beta_and_gamma_means():
    assert Beta(2.0, 1.0).moment(1) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert Gamma(2.0, 2.0).moment(1) == 1.0


def test_gamma_mgf_matches_tilt_normalizers():
    c = 1.0
    claims = Gamma(c + 1.0, 2.0)
    assert claims.mgf(c) == pytest.approx((c + 1.0) ** 2, rel=1e-12)
    for theta in (0.25, 0.7, 1.0, 3.0):
        assert claims.mgf(-theta) == pytest.approx(
            ((c + 1.0) / (c + 1.0 + theta)) ** 2, rel=1e-12)


def test_mgf_at_zero_and_simple_value():
    for d in CATALOG + [Degenerate(1.5)]:
        assert d.mgf(0.0) == 1.0
    # quadrature cross-check of a closed form
    quad, _ = sci.quad(lambda x: math.exp(0.5 * x) * math.exp(-x), 0, 200)
    assert Exponential(1.0).mgf(0.5) == pytest.approx(quad, rel=1e-9)
    assert Exponential(1.0).mgf(0.5) == pytest.approx(2.0, rel=1e-12)


def test_mgf_convergence_strip():
    with pytest.raises(OutsideConvergenceStrip):
        Exponential(0.2).mgf(0.2)
    with pytest.raises(OutsideConvergenceStrip):
        Gamma(2.0, 3.0).mgf(2.5)


def test_density_values():
    assert Gamma(2.0, 2.0).density(1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)
    assert Uniform(0.0, 1.0).density(0.3) == 1.0
    assert Exponential(0.2).density(-1.0) == 0.0
    assert Beta(2.0, 1.0).density(0.5) == pytest.approx(1.0, rel=1e-12)


def test_cdf_values():
    assert Uniform(0.0, 1.0).cdf(0.3) == pytest.approx(0.3, rel=1e-15)
    assert Exponential(0.2).cdf(5.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    quad, _ = sci.quad(lambda x: 0.2 * math.exp(-0.2 * x), 0, 5)
    assert Exponential(0.2).cdf(5.0) == pytest.approx(quad, rel=1e-9)


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.literal())
def test_density_integrates_to_one(d):
    lo, hi = d.support
    if math.isinf(hi):
        val, _ = sci.quad(lambda x: float(d.density(x)), lo, np.inf)
    else:
        val, _ = sci.quad(lambda x: float(d.density(x)), lo, hi)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.literal())
def test_closed_forms_agree_with_quadrature_on_grid(d):
    lo, _ = d.support
    grid = d.interior_grid(20)
    for x in grid:
        quad_cdf, _ = sci.quad(lambda u: float(d.density(u)), lo, x, limit=200)
        assert float(d.cdf(x)) == pytest.approx(quad_cdf, abs=1e-8)
    m1_quad = expectation(d, lambda x: x)
    m2_quad = expectation(d, lambda x: x * x)
    assert d.moment(1) == pytest.approx(m1_quad, rel=1e-8)
    assert d.moment(2) == pytest.approx(m2_quad, rel=1e-8)


@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.literal())
def test_quantile_cdf_roundtrip(d):
    xs = d.interior_grid(33)
    back = d.quantile(d.cdf(xs))
    assert np.max(np.abs(back - xs)) < 1e-8 * max(1.0, np.max(np.abs(xs)))


@pytest.mark.parametrize("d", CATALOG + [Degenerate(1.5)],
                         ids=lambda d: d.literal())
def test_sampling_moments(d):
    n = 100_000
    samples = sample_array(d, seed=1234, n=n)
    mean = d.moment(1)
    var = d.moment(2) - mean * mean
    se_mean = math.sqrt(var / n)
    assert abs(samples.mean() - mean) <= 4.0 * se_mean
    m4 = expectation(d, lambda x: (x - mean) ** 4)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    assert abs(samples.var(ddof=1) - var) <= 4.0 * se_var


def test_exponential_sample_mean_tolerance():
    samples = sample_array(Exponential(0.2), seed=5150, n=1_000_000)
    assert abs(samples.mean() - 5.0) < 3.0 * (5.0 / 1e3)


def test_gamma_sampling_ks():
    d = Gamma(2.0, 2.0)
    samples = sample_array(d, seed=99, n=100_000)
    res = stats.kstest(samples, lambda x: np.asarray(d.cdf(x)))
    assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# Gamma quantile: quintic table of log x against logit u

GAMMA_SHAPES = [0.05, 0.5, 1.0, 2.0, 4.0, 30.0, 300.0, 1e4, 1e5]
GAMMA_GRID = np.concatenate([
    [2.0**-54, 1e-15, 1e-12, 1e-9], np.geomspace(1e-8, 0.5, 200),
    1.0 - np.geomspace(0.5, 1e-11, 200)[1:], [1.0 - 1e-12, 1.0 - 2.0**-53]])


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_quantile_matches_gammaincinv(shape):
    from scipy.special import gammaincinv
    for rate in (1.0, 2.5):
        got = Gamma(rate, shape).quantile(GAMMA_GRID)
        ref = gammaincinv(shape, GAMMA_GRID) / rate
        assert ((got == ref) | (np.abs(got - ref) <= 1e-13 * ref)).all()


def exact_gamma_quantile(shape: float, u: float):
    """The quantile at 50 digits: Newton in log x on log P(a, x), or on
    log Q(a, x) for u > 1/2, started from gammaincinv."""
    mp = pytest.importorskip("mpmath")
    from scipy.special import gammaincinv
    with mp.workdps(50):
        a, u_mp = mp.mpf(shape), mp.mpf(u)
        upper = u_mp > 0.5
        log_target = mp.log(1 - u_mp if upper else u_mp)
        y = mp.log(mp.mpf(float(gammaincinv(shape, u))))
        for _ in range(60):
            x = mp.exp(y)
            tail = (mp.gammainc(a, x, mp.inf, regularized=True) if upper
                    else mp.gammainc(a, 0, x, regularized=True))
            slope = mp.exp(a * y - x - mp.loggamma(a)) / tail  # d log P / d log x
            step = (mp.log(tail) - log_target) / (-slope if upper else slope)
            y -= step
            if abs(step) < mp.mpf(10) ** -45:
                return mp.exp(y)
    raise AssertionError(f"no convergence at shape {shape}, u {u}")


@pytest.mark.parametrize("shape", [0.05, 0.5, 2.0, 3.0, 300.0, 1e4, 1e5, 3e5, 1e6])
def test_gamma_quantile_matches_exact_quantiles(shape):
    # above shape 3e5 scipy's own gammaincinv drifts from these (2.2e-9 at
    # 1e6); the tables' nodes come from special.gamma_log_x, which must not
    # drift at 3e5 and 1e6
    for u in (1e-12, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 2.0**-40):
        exact = exact_gamma_quantile(shape, u)
        got = Gamma(1.0, shape).quantile(u)
        assert abs(got - exact) <= 1e-13 * exact, (shape, u, got, exact)


@pytest.mark.parametrize("shape", [0.05, 0.3, 2.0, 30.0, 1e4, 1e5])
def test_gamma_table_draw_calls_no_scipy(shape, monkeypatch):
    # no scipy anywhere, and no special function at all: a draw inside the
    # table evaluates the quintic alone
    from cmpplab import special
    d = Gamma(2.0, shape)
    p = GAMMA_GRID[GAMMA_GRID >= d.cdf(1e-30)]  # in the table: above its floor, below 1
    want = d.quantile(p)

    def boom(*args):
        raise AssertionError("special function called per draw")
    for name in ("gammainc", "gammaincinv", "gamma_log_x", "gamma_log_density", "_gamma_tails",
                 "betainc", "betaincinv", "beta_logit_x", "_beta_tails"):
        monkeypatch.setattr(special, name, boom)
    assert d.quantile(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [0.05, 0.3, 2.0, 30.0, 300.0, 1e4, 1e5])
def test_gamma_table_last_segments(shape):
    # node j sits at z_lo + j (37 - z_lo)/N; a width rounded from two nodes
    # would drift the local coordinate by ~1e-11 of a segment near z = 37
    from scipy.special import expit, gammainccinv
    d = Gamma(1.0, shape)
    d.quantile(0.5)
    tab = d._table
    n = tab.coef.shape[1]
    j = np.arange(n - 16, n + 1)
    z = tab.z_lo + j * ((37.0 - tab.z_lo) / n)
    assert np.abs((z - tab.z_lo) * tab.inv_h - j).max() < 1e-12
    got, ref = np.exp(tab(z)), gammainccinv(shape, expit(-z))
    assert (np.abs(got - ref) <= 1e-14 * ref).all()


def test_gamma_quantile_edges():
    for d in (Gamma(1.0, 0.05), Gamma(2.0, 2.0), Gamma(0.5, 300.0)):
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == math.inf
        assert math.isnan(d.quantile(math.nan))
        q = d.quantile(np.array([-0.5, -1e-300, 0.25, 1.0 + 1e-15, 2.0, math.nan]))
        assert np.isnan(q[[0, 1, 3, 4, 5]]).all() and q[2] == d.quantile(0.25)
    # the quantile underflows: 0, not NaN
    assert Gamma(1.0, 0.01).quantile(1e-10) == 0.0
    assert Gamma(1.0, 0.05).quantile(2.0**-54) == 0.0


@pytest.mark.parametrize("shape", [1e-20, 1e-18, 1e-15, 1e-12, 1e-6, 0.01, 0.049])
def test_gamma_quantile_below_table_shapes(shape):
    # below the table's smallest shape every point is special.gammaincinv's
    # own.  In the lower tail log x = (log u + ln Gamma(1+a))/a + ..., so an
    # ulp of log P is 1/a ulps of x: there the bound is 1e-13, or 2e-15/a
    # where that is larger; for u > 1/2 it is 1e-13.  Against scipy it is
    # 2.5 times that, as scipy's own error reaches 1.9e-13 (shape 0.01, lower
    # tail) and 1.2e-13 (shape 1e-12, upper tail).  Quantiles below 1e-300
    # are subnormal or 0 (at shape 1e-6 scipy itself is 5e-11 off at 3.5e-308)
    from scipy.special import gammaincinv
    p = np.concatenate([GAMMA_GRID, [0.5, 0.999]])
    got = Gamma(2.0, shape).quantile(p)
    scaled = got * 2.0
    normal = scaled > 1e-300
    bound = np.where(p <= 0.5, max(1e-13, 2e-15 / shape), 1e-13)
    ref = gammaincinv(shape, p)
    assert (np.abs(scaled - ref) <= 2.5 * bound * ref)[normal].all()
    assert (ref[~normal] <= 1e-300).all()
    for u, x, b in zip(p[normal][::5], scaled[normal][::5], bound[normal][::5]):
        exact = exact_gamma_quantile(shape, float(u))
        assert abs(x - exact) <= b * exact, (shape, u, x, exact)
    q = Gamma(1.0, shape).quantile(np.array([0.0, 1.0, math.nan, -1.0]))
    assert q[0] == 0.0 and q[1] == math.inf and np.isnan(q[2:]).all()


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_quantile_is_pointwise(shape):
    d = Gamma(2.0, shape)
    p = np.concatenate([GAMMA_GRID, sample_array(Uniform(0.0, 1.0), seed=11, n=3000)])
    q = d.quantile(p)
    for i in range(0, p.size, 37):
        assert d.quantile(float(p[i])) == q[i]
    perm = np.random.default_rng(5).permutation(p.size)
    assert d.quantile(p[perm]).tobytes() == q[perm].tobytes()
    # across the block boundary of a batch large enough to be split
    big = np.tile(p, 8)
    assert d.quantile(big).tobytes() == np.tile(q, 8).tobytes()


def test_laws_define_their_own_quantile():
    # the benchmark's tracer wraps the quantile in each law's own class dict
    for cls in (Exponential, Gamma, Beta, Uniform, Degenerate, Tilted):
        assert "quantile" in vars(cls), cls


def test_gamma_table_is_outside_identity():
    a, b = Gamma(2.0, 2.0), Gamma(2.0, 2.0)
    a.quantile(np.array([0.1, 0.9]))
    assert a._table is not None and b._table is None
    assert a == b and hash(a) == hash(b)
    assert a.literal() == b.literal() == "gamma(rate=2, shape=2)"
    assert repr(a) == repr(b)


# ---------------------------------------------------------------------------
# tilted laws

def test_tilted_requires_unit_normalization():
    with pytest.raises(DistError):
        Tilted(Gamma(2.0, 2.0), weight=parse("theta^2"))


def test_tilted_takes_exactly_one_weight_form():
    # with both, literal() would print the weight while sampling used the log-weight
    with pytest.raises(DistError, match="exactly one"):
        Tilted(Gamma(2.0, 2.0), weight=parse("(1+theta)/2"),
               log_weight=parse("ln(1+theta) - ln(2)"))
    with pytest.raises(DistError, match="exactly one"):
        Tilted(Gamma(2.0, 2.0))


def test_tilted_matches_catalog_reference():
    t = Tilted(Gamma(2.0, 2.0), weight=parse("(27/8)*theta^2*exp(-theta)"))
    ref = Gamma(3.0, 4.0)
    xs = ref.interior_grid(64)
    assert np.max(np.abs(t.density(xs) - ref.density(xs))) < 1e-9
    assert t.moment(1) == pytest.approx(ref.moment(1), rel=1e-9)
    assert t.moment(2) == pytest.approx(20.0 / 9.0, rel=1e-9)
    assert t.mgf(0.0) == 1.0
    assert t.mgf(1.0) == pytest.approx(ref.mgf(1.0), rel=1e-8)
    assert np.max(np.abs(t.cdf(xs) - ref.cdf(xs))) < 1e-13


def test_tilted_quantile_cdf_roundtrip():
    t = Tilted(Beta(2.0, 1.0), weight=parse("1/(2*theta)"))
    xs = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(t.quantile(t.cdf(xs)) - xs)) < 1e-8
    # this tilt is exactly the uniform law
    assert np.max(np.abs(t.cdf(xs) - xs)) < 1e-8


def test_tilted_sampling_ks():
    t = Tilted(Gamma(2.0, 2.0), weight=parse("(27/8)*theta^2*exp(-theta)"))
    samples = t.quantile(np.asarray(
        sample_array(Uniform(0.0, 1.0), seed=31, n=100_000)))
    ref = Gamma(3.0, 4.0)
    res = stats.kstest(samples, lambda x: np.asarray(ref.cdf(x)))
    assert res.pvalue > 0.001


def tilted_laws():
    """The two Q laws of the tilted-mixture workload, a Gamma tilt and a Beta tilt."""
    return {
        "q_claim": Tilted(Exponential(0.2), log_weight=parse("ln(1+x) - ln(6)", var="x")),
        "q_mixing": Tilted(Gamma(2.0, 2.0), weight=parse("(1+theta)/2")),
        "gamma": Tilted(Gamma(2.0, 2.0), weight=parse("(27/8)*theta^2*exp(-theta)")),
        "beta": Tilted(Beta(2.0, 1.0), weight=parse("1/(2*theta)")),
    }


TILTED = tilted_laws()
P_GRID = np.unique(np.concatenate([
    [0.0, 1e-300, 1e-15, 1e-14, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-14, 1 - 1e-15, 1.0],
    np.linspace(0.0, 1.0, 4001),
    np.geomspace(1e-14, 1e-3, 500), 1.0 - np.geomspace(1e-14, 1e-3, 500)]))


def tilted_closed_forms(mp):
    """Each law of TILTED as its survival function and density in mpmath."""
    def gamma_3_4(t):  # Gamma(rate 3, shape 4)
        return mp.exp(-3 * t) * (1 + 3 * t + (3 * t) ** 2 / 2 + (3 * t) ** 3 / 6)
    return {
        "q_claim": (lambda x: mp.exp(-x / 5) * (1 + x / 6),
                    lambda x: mp.exp(-x / 5) * (1 + x) / 30),
        "q_mixing": (lambda t: mp.exp(-2 * t) * (1 + 2 * t + t * t),
                     lambda t: 2 * t * (1 + t) * mp.exp(-2 * t)),
        "gamma": (gamma_3_4, lambda t: 27 * t ** 3 * mp.exp(-3 * t) / 2),
        "beta": (lambda x: 1 - x, lambda x: mp.mpf(1)),
    }


@pytest.mark.parametrize("name", sorted(TILTED))
def test_tilted_quantile_matches_closed_forms(name):
    # 50-digit quantiles by Newton steps from the table's own value
    mp = pytest.importorskip("mpmath")
    survival, density = tilted_closed_forms(mp)[name]
    law = TILTED[name]
    u = np.unique(np.concatenate([np.geomspace(1e-12, 1e-3, 60), np.linspace(1e-3, 1 - 1e-3, 61),
                                  1.0 - np.geomspace(1e-3, 1e-9, 40)]))
    q = law.quantile(u)
    rel = np.empty(u.size)
    with mp.workdps(50):
        for i, (ui, qi) in enumerate(zip(u, q)):
            x, target = mp.mpf(float(qi)), 1 - mp.mpf(float(ui))
            for _ in range(8):
                x += (survival(x) - target) / density(x)
            assert abs(survival(x) - target) <= mp.mpf(10) ** -40 * target
            rel[i] = float(abs(qi - x) / x)
    assert rel.max() <= 1e-6
    assert rel[(u >= 1e-3) & (u <= 1 - 1e-3)].max() <= 1e-7
    assert (np.diff(law.quantile(P_GRID)) >= 0.0).all()


def test_tilted_cdf_matches_an_exp_tilt_on_a_dense_grid():
    # q_claim's cdf is 1 - e^(-x/5) (1 + x/6): a knot's mass plus one
    # Gauss-Kronrod rule from it is within 1e-13 between the knots as at them
    law = TILTED["q_claim"]
    law.quantile(0.5)
    knots = law._knots[0]
    x = np.linspace(knots[0], knots[-1], 100001)[1:-1]
    exact = -np.expm1(-x / 5) - np.exp(-x / 5) * x / 6
    assert np.max(np.abs(law.cdf(x) - exact)) <= 1e-13


@pytest.mark.parametrize("name", sorted(TILTED))
def test_tilted_quantile_is_pointwise(name):
    # a draw is a function of its own uniform, not of the batch around it
    law = TILTED[name]
    p = np.asarray(sample_array(Uniform(0.0, 1.0), seed=7, n=500))
    q = law.quantile(p)
    for i in range(0, p.size, 7):
        assert law.quantile(float(p[i])) == q[i]
    perm = np.random.default_rng(3).permutation(p.size)
    assert np.array_equal(law.quantile(p[perm]), q[perm])


@pytest.mark.parametrize("name", sorted(TILTED))
def test_tilted_table_draw_calls_no_density(name, monkeypatch):
    # once the table is built, a draw evaluates the quintic alone: no cdf
    # (it integrates the density), no weight and no density, inside the span
    # or past its ends (the table leaves no segment out)
    law = TILTED[name]
    p = np.concatenate([P_GRID, [math.nan, -0.5, 1.5]])
    want = law.quantile(p)
    assert np.isfinite(law._table.coef).all()

    def boom(*args):
        raise AssertionError("cdf, weight or density evaluated per draw")
    for attr in ("log_weight_at", "density"):
        monkeypatch.setattr(Tilted, attr, boom)
    assert law.quantile(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(TILTED))
def test_tilted_table_span_and_ends(name):
    # the span covers the tested u range and stays within about +-28; past
    # it a draw is the table's end, and the quantile never falls
    law = TILTED[name]
    law.quantile(0.5)
    tab = law._table
    assert -29.0 <= tab.z_lo <= math.log(1e-12 / (1 - 1e-12))
    assert math.log((1 - 1e-9) / 1e-9) <= tab.z_hi <= 29.0
    below, above = 1.0 / (1.0 + np.exp(-np.array([tab.z_lo - 0.5, tab.z_hi + 0.5])))
    assert 0.0 < below and above < 1.0
    assert law.quantile(below) == law.quantile(0.0) and law.quantile(above) == law.quantile(1.0)
    z = np.linspace(tab.z_lo - 4.0, tab.z_hi + 4.0, 200001)
    q = law.quantile(1.0 / (1.0 + np.exp(-z)))
    assert np.isfinite(q).all() and (np.diff(q) >= 0.0).all()


@pytest.mark.parametrize("base,weight,zero,pdf,bound", [
    (Gamma(2.0, 2.0), "2*(theta-1)^2", 1.0, lambda t: 8 * t * (t - 1) ** 2 * np.exp(-2 * t), 1e-6),
    (Gamma(2.0, 2.0), "1e-6 + 1.999998*(theta-1)^2", 1.0,
     lambda t: 4 * t * (1e-6 + 1.999998 * (t - 1) ** 2) * np.exp(-2 * t), 1e-6),
    (Exponential(1.0), "(theta-3)^2/5", 3.0, lambda t: (t - 3) ** 2 / 5 * np.exp(-t), 1e-4),
    (Beta(2.0, 2.0), "(theta-0.5)^2/0.05", 0.5,
     lambda t: 120 * t * (1 - t) * (t - 0.5) ** 2, 1e-6),
], ids=["gamma", "gamma-dip", "exp", "beta"])
def test_tilted_quantile_across_an_interior_density_zero(base, weight, zero, pdf, bound):
    # the quantile has a (near) vertical tangent at a zero or deep dip of the
    # density, which no equal segment follows: the table leaves those segments
    # out and a draw there bisects the cdf.  Non-decreasing, within
    # bound in x next to the zero (its cube-root tangent amplifies the cdf's
    # error) and within 1e-7 farther than 0.03 in u
    from scipy import optimize
    law = Tilted(base, weight=parse(weight))
    z = np.linspace(-32.0, 32.0, 200001)
    assert (np.diff(law.quantile(1.0 / (1.0 + np.exp(-z)))) >= 0.0).all()
    assert 0 < np.isnan(law._table.coef[0]).sum() <= 6
    hi = base.support[1] if math.isfinite(base.support[1]) else 40.0

    def exact(u):
        def cdf(x):
            return sci.quad(pdf, 0.0, x, points=[zero] if x > zero else None,
                            epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return optimize.brentq(lambda x: cdf(x) - u, 1e-9, hi - 1e-12, xtol=1e-15, rtol=1e-14)
    u_zero = sci.quad(pdf, 0.0, zero, epsabs=0.0, epsrel=1e-13)[0]
    u = np.concatenate([np.linspace(0.01, 0.99, 50), u_zero + np.linspace(-0.03, 0.03, 61)])
    u = u[u < 0.999]
    ref = np.array([exact(ui) for ui in u])
    rel = np.abs(law.quantile(u) - ref) / ref
    assert rel.max() <= bound
    assert rel[abs(u - u_zero) > 0.03].max() <= 1e-7


def test_tilted_equality_is_identity_and_outside_the_table():
    a = Tilted(Gamma(2.0, 2.0), weight=parse("(1+theta)/2"))
    b = Tilted(Gamma(2.0, 2.0), weight=parse("(27/8)*theta^2*exp(-theta)"))
    twin = Tilted(Gamma(2.0, 2.0), weight=parse("(1+theta)/2"))
    before = hash(a), a.literal()
    assert a != b and a != twin and a == a
    a.quantile(np.array([0.1, 0.9]))
    assert a._table is not None and b._table is None
    assert (hash(a), a.literal()) == before
    assert a != b and a != twin and a == a and len({a, b, twin}) == 3


def test_tilted_quantile_shapes_and_nan():
    law = TILTED["q_mixing"]
    assert isinstance(law.quantile(0.3), float)
    assert isinstance(law.quantile(np.float64(0.3)), float)
    assert isinstance(law.quantile(np.array(0.3)), float)
    p = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    q = law.quantile(p)
    assert q.shape == (2, 3)
    assert np.array_equal(q.ravel(), law.quantile(p.ravel()))
    assert math.isnan(law.quantile(math.nan))
    mixed = law.quantile(np.array([0.25, math.nan, 0.75]))
    assert math.isnan(mixed[1])
    assert mixed[0] == law.quantile(0.25) and mixed[2] == law.quantile(0.75)
    # p outside [0, 1] gives NaN, as for Gamma and Beta; 0 and 1 give the table's ends
    outside = law.quantile(np.array([-0.1, 1.1, -math.inf, math.inf, -1e-300]))
    assert np.isnan(outside).all()
    ends = law.quantile(np.array([0.0, 1.0]))
    assert np.isfinite(ends).all() and 0.0 < ends[0] < ends[1]


def test_tilted_quantile_with_a_node_on_a_density_zero():
    # a table node whose start x is a zero of the density takes no Newton
    # step (it would be 0/0, and the NaN x raised in the weight's evaluator)
    from scipy.special import betaincinv
    cube = Tilted(Uniform(-1.0, 1.0), weight=parse("3*x^2", var="x"))  # cdf (1 + x^3)/2
    u = np.concatenate([np.linspace(0.001, 0.999, 999), 0.5 + np.linspace(-0.03, 0.03, 601)])
    ref = np.cbrt(2.0 * u - 1.0)
    err = np.abs(cube.quantile(u) - ref)
    near = np.abs(u - 0.5) <= 0.03
    assert err[near].max() <= 5e-6
    assert (err[~near] / np.abs(ref[~near])).max() <= 2e-7
    z = np.linspace(-32.0, 32.0, 20001)
    assert (np.diff(cube.quantile(1.0 / (1.0 + np.exp(-z)))) >= 0.0).all()
    # the Beta(1.5, 0.5) law: a density zero at the lower end, a knot on the upper
    arcsine = Tilted(Beta(0.5, 0.5), weight=parse("2*x", var="x"))
    u = np.concatenate([np.geomspace(1e-12, 1e-3, 100), np.linspace(1e-3, 1 - 1e-3, 999),
                        1.0 - np.geomspace(1e-3, 1e-12, 100)])
    assert np.abs(arcsine.quantile(u) - betaincinv(1.5, 0.5, u)).max() <= 1e-13


LAW_METHODS = [(d, m) for d in CATALOG + [Degenerate(1.5), TILTED["q_claim"], TILTED["beta"]]
               for m in ("density", "logpdf", "cdf", "quantile")
               if not (m == "logpdf" and isinstance(d, Degenerate))]


@pytest.mark.parametrize("d,method", LAW_METHODS,
                         ids=[f"{d.literal()}-{m}" for d, m in LAW_METHODS])
def test_float_or_array_surface(d, method):
    # a float gives a float equal, bit for bit, to entry 0 of the one-point
    # array call; a 0-d array gives a float; a 2-D array keeps its shape
    f = getattr(d, method)
    p = np.array([[0.1, 0.37, 0.5], [0.63, 0.9, 0.99]])
    grid = p if method == "quantile" else d.quantile(p)
    for v in grid.ravel().tolist():
        one = f(v)
        assert type(one) is float
        assert np.array(one).tobytes() == f(np.array([v]))[0].tobytes()
        assert type(f(np.array(v))) is float
    out = f(grid)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    assert out.tobytes() == f(grid.ravel()).tobytes()


def test_tilted_divergent_moment():
    # Esscher at half the rate: moments exist only up to the strip
    t = Tilted(Exponential(1.0), log_weight=parse("0.5*x - ln(2)", var="x"))
    assert t.moment(1) == pytest.approx(2.0, rel=1e-8)  # mean of Exp(1/2)
    with pytest.raises(OutsideConvergenceStrip):
        t.mgf(0.6)


def test_log_weighted_expectation_stability():
    # intermediate e^{0.19x} overflows in double precision; the log-space
    # route must not
    v = log_weighted_expectation(Exponential(0.2), lambda x: 0.19 * x)
    assert v == pytest.approx(20.0, rel=1e-7)


# ---------------------------------------------------------------------------
# literals

@pytest.mark.parametrize("text", [
    "exp(rate=0.2)", "gamma(rate=2,shape=2)", "beta(a=2,b=1)",
    "uniform(lo=0,hi=1)", "degenerate(2.0)",
])
def test_literal_roundtrip(text):
    d = parse_distribution(text)
    assert parse_distribution(d.literal()) == d


def test_literal_errors():
    with pytest.raises(DistError):
        parse_distribution("cauchy(0,1)")
    with pytest.raises(DistError):
        parse_distribution("gamma(rate=2)")
    with pytest.raises(DistError):
        parse_distribution("exp(rate=zed)")
    for text in ("exp(rate=1, rate=2)", "gamma(2, 1, rate=3)"):  # never the last value
        with pytest.raises(DistError, match="argument 'rate' given twice"):
            parse_distribution(text)


def test_poisson_literal_is_unknown():
    # the Poisson law is gone: its literal no longer round-trips
    with pytest.raises(DistError, match="unknown distribution 'poisson'"):
        parse_distribution("poisson(lambda=2)")


def test_parameter_validation():
    with pytest.raises(DistError):
        Exponential(-1.0)
    with pytest.raises(DistError):
        Uniform(2.0, 1.0)
    with pytest.raises(DistError):
        Degenerate(0.0)
