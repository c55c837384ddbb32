"""cmpplab.special against 50-digit mpmath, at the bounds its docstring states.

A relative bound on a probability v is scaled by 1 + |ln v|: v = e^l with l
computed to a few ulps carries |l| ulps of relative error, so tails down to
1e-300 keep the same number of correct digits in ln v as the bulk.
"""

import math

import numpy as np
import pytest

from cmpplab import special
from cmpplab.dist import Beta, Gamma
from cmpplab.verify import FAMILY_LEVEL

mp = pytest.importorskip("mpmath")
mp.mp.dps = 50

GAMMA_SHAPES = [0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 7.5, 19.0, 20.0, 30.0, 199.0, 200.0, 300.0,
                1e3, 1e4, 1e5]
BETA_PARAMS = [(0.2, 0.2), (0.5, 0.2), (2.0, 0.2), (0.2, 3.0), (1.0, 1.0), (2.0, 1.0),
               (2.0, 3.0), (3.0, 2.0), (5.0, 30.0), (30.0, 5.0), (0.05, 1.0), (1.0, 0.05),
               (100.0, 0.5), (200.0, 300.0), (0.05, 1000.0)]


def _gamma_points(a):
    # the bulk, both tails down to about 1e-300, and across x = a + 1 and
    # the edges of Temme's region
    sd = math.sqrt(a)
    bulk = a + sd * np.linspace(-6.0, 6.0, 13)
    tails = np.concatenate([np.geomspace(1e-30, 1.0, 7) * a, a + sd * np.geomspace(8, 35, 4),
                            [a + 1.0, a + 1.0 - 1e-9, a * 0.7, a * 1.3, 30.0 * (a + 1.0)]])
    return np.unique(np.concatenate([bulk[bulk > 0.0], tails]))


def _rel(got, exact):
    return float(abs(mp.mpf(got) - exact) / exact)


@pytest.mark.parametrize("a", GAMMA_SHAPES)
def test_gammainc_both_tails(a):
    # P from gammainc, Q from the same evaluation's other tail
    x = _gamma_points(a)
    p = special.gammainc(a, x)
    q = np.exp(special._gamma_tails(a, np.log(x), x)[1])
    for xi, pi, qi in zip(x, p, q):
        # mpmath evaluates the smaller tail; the other is 1 minus it at 50 digits
        if xi < a:
            p_exact = mp.gammainc(a, 0, xi, regularized=True)
            q_exact = 1 - p_exact
        else:
            q_exact = mp.gammainc(a, xi, mp.inf, regularized=True)
            p_exact = 1 - q_exact
        for got, exact in ((pi, p_exact), (qi, q_exact)):
            if exact < mp.mpf("1e-300"):
                continue
            assert _rel(got, exact) <= 1e-14 * (1.0 + abs(float(mp.log(exact)))), (a, xi)


def test_gammainc_edges():
    assert special.gammainc(2.0, 0.0) == 0.0 and special.gammainc(2.0, math.inf) == 1.0
    assert np.isnan(special.gammainc(2.0, np.array([-1.0, math.nan]))).all()
    assert special.gammaincinv(2.0, 0.0) == 0.0 and special.gammaincinv(2.0, 1.0) == math.inf


@pytest.mark.parametrize("a,b", BETA_PARAMS)
def test_betainc_and_beta_quantile(a, b):
    x = np.concatenate([np.geomspace(1e-30, 0.5, 12), 1.0 - np.geomspace(0.5, 1e-15, 12)])
    for xi, got in zip(x, special.betainc(a, b, x)):
        exact = mp.betainc(a, b, 0, xi, regularized=True)
        if exact > mp.mpf("1e-300"):
            assert _rel(got, exact) <= 1e-14 * (1.0 + abs(float(mp.log(exact)))), (a, b, xi)
    # the quantile, from the table and below its floor: x is within 1e-13 of
    # the point where the exact I_x equals u, to first order (I_x(x) - u)/pdf
    u = np.concatenate([[2.0**-54, 1e-15, 1e-9], np.geomspace(1e-6, 0.5, 10),
                        1.0 - np.geomspace(0.5, 1e-12, 10)[1:]])
    d = Beta(a, b)
    for ui, xi in zip(u, d.quantile(u)):
        if not 1e-300 < xi < 1.0:
            continue
        xm = mp.mpf(xi)
        dens = xm**(a - 1) * (1 - xm)**(b - 1) / mp.beta(a, b)
        err = (mp.betainc(a, b, 0, xm, regularized=True) - ui) / dens
        assert abs(float(err)) <= 1e-13 * xi, (a, b, ui, xi)
    assert d.quantile(0.0) == 0.0 and d.quantile(1.0) == 1.0
    assert np.isnan(d.quantile(np.array([-0.5, 1.5, math.nan]))).all()


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.2, 3.0)])
def test_beta_table_draw_calls_no_special_function(a, b, monkeypatch):
    d = Beta(a, b)
    u = np.linspace(0.01, 0.99, 99)
    want = d.quantile(u)

    def boom(*args):
        raise AssertionError("special function called per draw")
    for name in ("betainc", "betaincinv", "beta_logit_x", "_beta_tails"):
        monkeypatch.setattr(special, name, boom)
    assert d.quantile(u).tobytes() == want.tobytes()
    assert (d.quantile(u[::7]) == want[::7]).all()


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 1.0), (2.0, 3.0), (0.2, 0.2), (5.0, 0.5),
                                 (1.0, 30.0), (30.0, 2.0)])
def test_beta_mgf(a, b):
    for s in np.linspace(-50.0, 50.0, 41):
        exact = mp.hyp1f1(a, a + b, s)
        assert _rel(Beta(a, b).mgf(float(s)), exact) <= 1e-14, (a, b, s)


def test_normal_threshold_within_two_ulps():
    # the Bonferroni threshold of a martingale table with k cells
    for k in range(1, 257):
        p = FAMILY_LEVEL / k / 2.0
        exact = -mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)
        z = special.norm_isf(p)
        assert abs(mp.mpf(z) - exact) <= 2 * math.ulp(float(exact)), k


def test_gamma_quantile_continuous_across_table_floor():
    # the largest u whose logit falls below the table's floor goes to the
    # direct inverse and its upper neighbour to the table, and the two agree
    # (about 40 doubles in u share one logit there, so u is found by stepping)
    d = Gamma(1.0, 0.5)
    d.quantile(0.5)
    z_lo = d._table.z_lo

    def logit(u):
        return np.log(u / (1.0 - u))
    u = np.array([1.0 / (1.0 + math.exp(-z_lo))])
    while logit(u)[0] >= z_lo:
        u = np.nextafter(u, 0.0)
    while logit(np.nextafter(u, 1.0))[0] < z_lo:
        u = np.nextafter(u, 1.0)
    pair = np.concatenate([u, np.nextafter(u, 1.0)])
    z = logit(pair)
    assert z[0] < z_lo <= z[1]
    below, at = d.quantile(pair)
    assert below == d._direct(pair[:1])[0] and at == d._from_y(d._table(z[1:]))[0]
    assert abs(at - below) <= 1e-13 * at


def test_gamma_and_beta_tables_leave_no_segment_out():
    # a left-out segment (NaN coefficients) would send its draws to
    # gammaincinv or betaincinv: none is, on either grid
    for d in [Gamma(1.0, a) for a in GAMMA_SHAPES] + [Beta(a, b) for a, b in BETA_PARAMS]:
        d.quantile(0.5)
        assert d._table.coef.shape[1] == 2048 and np.isfinite(d._table.coef).all(), d


def test_one_point_matches_array():
    # each point stops its series or fraction on its own terms, so a value
    # never depends on the batch around it
    for a in (0.3, 2.0, 30.0):
        x = np.array([1e-3, 0.3, 2.0, a + 1.0, 8.0, 64.0, 500.0])
        one = [special.gammainc(a, float(v)) for v in x]
        assert special.gammainc(a, x).tolist() == one
    for a, b in ((2.0, 1.0), (0.2, 3.0)):
        x = np.array([1e-3, 0.3, 0.7, 0.99])
        one = [special.betainc(a, b, float(v)) for v in x]
        assert special.betainc(a, b, x).tolist() == one
