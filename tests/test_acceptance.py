"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything statistical is pinned to SEED = 20190521 and the exact path
budgets below; all tolerances are stated inline.  The full suite is
sized for a laptop (well under five minutes).

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import csv
import math

import numpy as np
import pytest

from cmpplab.dist import (Degenerate, Exponential, Gamma, Tilted, Uniform,
                          expectation)
from cmpplab.expr import parse
from cmpplab.model import (BaseModel, derive_g, derive_q_model,
                           measure_change, validate_change)
from cmpplab.premium import (check_condition_14, j_integral,
                             j_integral_by_quadrature, premium_density)
from cmpplab.scenario import resolve_scenario, run_scenario
from cmpplab.sim import (BASE_P, DERIVED_Q, conditional_p, conditional_q,
                         log_density_batch, simulate_batch)
from cmpplab.verify import (FAM_DIRECT, FAM_WEIGHTED, check_martingale,
                            degeneracy_test, process_density, process_raw,
                            process_v, singularity_probe)

SEED = 20190521
PAIRS = [(0.5, 1.0), (1.0, 2.0)]


def _report(num, desc, fn):
    try:
        fn()
    except AssertionError as e:
        print(f"[FAIL] criterion {num}: {desc} :: {e}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


@pytest.fixture(scope="module")
def worked():
    """Base models, changes and derived models of the builtin scenarios."""
    out = {}
    for name in ("example-6.1a", "example-6.1b", "example-6.2", "example-6.3"):
        scn = resolve_scenario(name)
        rep = validate_change(scn.base, scn.change, scn.level)
        assert rep.verdict, f"{name} failed validation: {rep.failures}"
        out[name] = (scn.base, scn.change, derive_q_model(scn.base, scn.change))
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_worked_closed_forms(worked):
    def body():
        base, change, derived = worked["example-6.2"]
        claims = Exponential(0.2)
        assert abs(claims.moment(1) - 5.0) <= 1e-9
        assert abs(claims.moment(2) - 50.0) <= 1e-9 * 50.0
        assert abs(claims.moment(3) - 750.0) <= 1e-9 * 750.0
        g = derive_g(change)
        for theta in np.linspace(0.05, 6.0, 97):
            assert abs(g(theta) - theta * theta) <= 1e-12 * max(1.0, theta * theta)
        tilted = Tilted(Gamma(2.0, 2.0), weight=change.xi)
        ref = Gamma(3.0, 4.0)
        grid = ref.interior_grid(64)
        assert np.max(np.abs(tilted.density(grid) - ref.density(grid))) <= 1e-9
        assert abs(derived.q_claim.moment(1) - 10.0) <= 1e-9
        assert check_condition_14(0.5 + 1e-6, base, change)
        assert not check_condition_14(0.5 - 1e-6, base, change)

    _report(1, "worked closed forms (moments, g, tilted mixing, "
               "derived claim mean, per-theta loading boundary)", body)


def test_criterion_2_oracle_adjudication(worked, tmp_path):
    def body():
        base, change, derived = worked["example-6.2"]
        m2 = expectation(derived.q_mixing, lambda th: th * th)
        assert abs(m2 - 20.0 / 9.0) <= 1e-9
        quote = premium_density(base, derived)
        assert abs(quote.p_derived - 200.0 / 9.0) <= 1e-8
        out = tmp_path / "adjudication.csv"
        run_scenario("example-6.2", {"paths": 20_000, "seed": SEED,
                                     "output": str(out)})
        rows = {r["quantity"]: r for r in csv.DictReader(open(out))}
        assert float(rows["p(Q)"]["paper_value"]) == 810.0
        assert float(rows["E_Q[N_1]"]["paper_value"]) == 81.0
        assert rows["p(Q)"]["verdict"] != "fail"
        assert rows["E_Q[N_1]"]["verdict"] != "fail"

    _report(2, "second-moment and premium-density recomputation "
               "(20/9 and 200/9), quoted values carried as annotations", body)


def test_criterion_3_second_worked_model(worked):
    def body():
        base, change, derived = worked["example-6.3"]
        c = 1.0
        claims = base.claim_law
        for theta in np.linspace(0.02, 0.98, 49):
            want = ((c + 1.0) / (c + 1.0 + theta)) ** 2
            assert abs(claims.mgf(-theta) - want) <= 1e-9 * want
        assert derived.q_mixing == Uniform(0.0, 1.0)
        assert abs(derived.q_claim.moment(1) - 2.0) <= 1e-9
        for cc in (0.5, 1.0, 2.0, 5.0):
            assert abs(j_integral(cc) - j_integral_by_quadrature(cc)) <= 1e-8
        quote = premium_density(base, derived)
        for theta in np.linspace(0.005, 0.995, 100):
            brute = quote.per_theta_base(theta) < quote.per_theta_derived(theta)
            assert check_condition_14(theta, base, change) == brute

    _report(3, "second worked model (claim mgf grid, uniform mixing, "
               "claim mean 2, j-integral dual route, loading grid)", body)


# ---------------------------------------------------------------------------

def _battery(batch, t):
    counts = batch.counts_at(t)
    aggs = batch.aggregates_at(t)
    return {
        "1": np.ones(len(batch)),
        "N_1": counts.astype(float),
        "S_1": aggs,
        "ind(N_1=0)": (counts == 0).astype(float),
        "ind(S_1>10)": (aggs > 10.0).astype(float),
    }


def _reweighting_rows(base, change, derived, theta, n):
    """One (change, measure) setting: both sides once, all functionals."""
    t = 1.0
    tag_q = DERIVED_Q if theta is None else conditional_q(theta)
    tag_p = BASE_P if theta is None else conditional_p(theta)
    direct = simulate_batch(base, derived, tag_q, t, SEED, n, family=FAM_DIRECT)
    weighted = simulate_batch(base, None, tag_p, t, SEED, n, family=FAM_WEIGHTED)
    w = np.exp(log_density_batch(weighted, t, change, include_xi=theta is None))
    out = {}
    for name, dv in _battery(direct, t).items():
        wv = _battery(weighted, t)[name] * w
        diff = dv.mean() - wv.mean()
        pooled = math.hypot(dv.std(ddof=1) / math.sqrt(n),
                            wv.std(ddof=1) / math.sqrt(n))
        out[name] = (diff, pooled)
    return out


def test_criterion_4_reweighting_identities(worked):
    def body():
        n = 100_000
        for name in ("example-6.2", "example-6.1a"):
            base, change, derived = worked[name]
            for theta in (None, 0.5, 1.0, 2.0):
                rows = _reweighting_rows(base, change, derived, theta, n)
                for fname, (diff, pooled) in rows.items():
                    assert abs(diff) <= 3.0 * pooled, \
                        (name, theta, fname, diff, pooled)

    _report(4, "reweighting identity, unconditional and at theta in "
               "{0.5, 1, 2}, five functionals, 1e5 paths per side", body)


def test_criterion_5_density_normalization(worked):
    def body():
        for name, (base, change, derived) in worked.items():
            b = simulate_batch(base, derived, BASE_P, 1.0, SEED, 100_000)
            m = np.exp(log_density_batch(b, 1.0, change, include_xi=True))
            se = m.std(ddof=1) / math.sqrt(len(m))
            assert abs(m.mean() - 1.0) <= 3.0 * se, (name, m.mean(), se)

    _report(5, "E[M_1] = 1 within 3 stderr for all four builtin changes, "
               "1e5 base-measure paths each", body)


def test_criterion_6_martingale_suite(worked):
    def body():
        for name in ("example-6.2", "example-6.3"):
            base, change, derived = worked[name]
            table = check_martingale(process_v(change), base, derived,
                                     DERIVED_Q, PAIRS, n=100_000, seed=SEED)
            assert table.passed(), (name, [c for c in table.cells if not c.cell_pass])
        base, change, derived = worked["example-6.2"]
        raw = check_martingale(process_raw(), base, derived, DERIVED_Q,
                               [(0.5, 1.0)], n=100_000, seed=SEED)
        assert not raw.passed()
        ws = next(c for c in raw.cells if c.event == "whole_space")
        drift = 0.5 * expectation(derived.q_mixing, derived.g) \
            * derived.q_claim.moment(1)
        assert abs(ws.estimate - drift) <= 4.0 * ws.stderr
        dens = check_martingale(process_density(change), base, derived,
                                conditional_p(1.0), PAIRS, n=100_000, seed=SEED)
        assert dens.passed()

    _report(6, "centered aggregate is a derived-measure martingale "
               "(Bonferroni 0.01); raw aggregate drifts as predicted; "
               "conditional density is a base-side martingale", body)


def test_criterion_7_degeneracy_dichotomy(worked):
    def body():
        base_deg = BaseModel(Exponential(0.2), Degenerate(1.0))
        change_deg = measure_change(alpha="ln(theta)", gamma="ln(x/5)", xi="1")
        validate_change(base_deg, change_deg, level=2)
        res = degeneracy_test(base_deg, change_deg, n=200_000, seed=SEED)
        assert res.is_martingale, res.describe()

        base, change, _ = worked["example-6.2"]
        res = degeneracy_test(base, change, n=1_000_000, seed=SEED)
        assert not res.is_martingale
        assert abs(res.witness_z) >= 5.0, res.witness_z
        assert abs(res.witness_estimate - res.witness_oracle) \
            <= 4.0 * res.witness_stderr

    _report(7, "degeneracy dichotomy: degenerate mixing passes, "
               "gamma mixing violates at >= 5 sigma vs covariance oracle "
               "(1e6 paths)", body)


def test_criterion_8_mixed_count_marginal(worked):
    def body():
        from scipy import stats
        base, _, _ = worked["example-6.2"]
        b = simulate_batch(base, None, BASE_P, 1.0, SEED, 100_000)
        counts = b.counts_at(1.0)
        kmax = int(counts.max())
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        pmf = np.array([
            expectation(base.mixing_law,
                        lambda th, k=k: np.exp(-th) * th**k / math.gamma(k + 1))
            for k in range(kmax + 1)])
        pmf[-1] = 1.0 - pmf[:-1].sum()
        expected = pmf * len(counts)
        while expected[-1] < 5.0 and len(expected) > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        stat = ((observed - expected) ** 2 / expected).sum()
        p_value = stats.chi2.sf(stat, df=len(expected) - 1)
        assert p_value > 0.001, p_value

    _report(8, "mixed-count marginal: chi-square of the empirical count "
               "law vs the quadrature-mixed mass function (1e5 paths)", body)


def test_criterion_9_singularity_trend(worked):
    def body():
        base, change, _ = worked["example-6.1b"]
        rows = singularity_probe(base, change, horizons=[10.0, 50.0], n=4000,
                                 seed=SEED, theta_fixed=1.0)
        by = {(r.horizon, r.side): r for r in rows}
        for T in (10.0, 50.0):
            p_row, q_row = by[(T, "p")], by[(T, "q")]
            assert abs(p_row.drift - (math.log(2.0) - 1.0)) \
                <= 3.0 * p_row.drift_stderr, (T, p_row.drift)
            assert abs(q_row.drift - (2.0 * math.log(2.0) - 1.0)) \
                <= 3.0 * q_row.drift_stderr, (T, q_row.drift)
        assert by[(50.0, "p")].frac_below > by[(10.0, "p")].frac_below

    _report(9, "log-density drifts match ln2-1 (base) and 2ln2-1 (derived) "
               "at T in {10, 50}; divergence trend grows with maturity", body)


def test_criterion_10_determinism_and_plumbing(tmp_path):
    def body():
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = run_scenario("example-6.1a",
                                {"paths": 2000, "seed": SEED, "output": str(out)})
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

        from test_expr import GOLDEN_CORPUS, PARAMS
        for src in GOLDEN_CORPUS:
            fn = parse(src, var="x", params=PARAMS)
            assert parse(str(fn), var="x", params=PARAMS).tree == fn.tree

        bad = tmp_path / "bad.scn"
        bad.write_text("[base]\nclaim = exp(rate=0.2)\nmixing = oops(1)\n")
        assert run_scenario(str(bad), {}) == 2
        assert run_scenario("no-such-scenario", {}) == 2

    _report(10, "byte-identical reports at a fixed seed; parser golden "
                "corpus; exit-code contract on malformed input", body)
