"""Monte Carlo verification engine.

Every identity the measure-change machinery promises is checked the same
way: simulate seeded paths, estimate, and compare either against an
independent quadrature oracle or between two simulation routes, at three
standard errors per cell.  Martingale properties are never tested via
conditional expectations; each test integrates over a finite family of
measurable events (the integral form of the martingale property), with a
Bonferroni correction at family level 0.01 across the cell table.

Statistical honesty notes: a 3-sigma cell has a ~0.27% false-alarm rate
under normality; the Bonferroni table verdict controls the family rate
at 1%.  All verdicts are deterministic given the seed.  The two sides of
a reweighting check use disjoint stream families, so they are
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as sp

from .dist import clipped_expectation, expectation, log_weighted_expectation
from .model import BaseModel, DerivedModel, MeasureChange, derive_q_model
from .sim import (BASE_P, DERIVED_Q, MeasureTag, PathBatch, conditional_p,
                  conditional_q, log_density_batch, simulate_batch,
                  surplus_v_batch, surplus_y_batch)

CHUNK = 1 << 17

# stream families (disjoint path-index blocks per concern)
FAM_DEFAULT = 0
FAM_DIRECT = 1
FAM_WEIGHTED = 2
FAM_PILOT = 3
FAM_DEGENERACY = 4
FAM_SING_P = 5
FAM_SING_Q = 6


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class MCReport:
    quantity: str
    estimate: float
    stderr: float
    n: int
    ci_low: float
    ci_high: float
    verdict: str                     # pass | fail | inconclusive
    oracle: Optional[float] = None

    @staticmethod
    def from_samples(quantity: str, values: np.ndarray,
                     oracle: Optional[float] = None) -> "MCReport":
        n = len(values)
        est = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        if oracle is None:
            verdict = "inconclusive"
        elif abs(est - oracle) <= 3.0 * se:
            verdict = "pass"
        else:
            verdict = "fail"
        return MCReport(quantity=quantity, estimate=est, stderr=se, n=n,
                        ci_low=est - 3.0 * se, ci_high=est + 3.0 * se,
                        verdict=verdict, oracle=oracle)


# ---------------------------------------------------------------------------
# path functionals and conditioning events

class PathFunctional:
    """A time-indexed functional of one path, with a vectorized route."""

    def __init__(self, name: str, batch_fn: Callable[[PathBatch, float], np.ndarray]):
        self.name = name
        self._batch_fn = batch_fn

    def eval_batch(self, batch: PathBatch, t: float) -> np.ndarray:
        return np.asarray(self._batch_fn(batch, t), dtype=float)

    def __repr__(self) -> str:
        return f"PathFunctional({self.name})"


def f_one() -> PathFunctional:
    return PathFunctional("1", lambda b, t: np.ones(len(b)))


def f_count() -> PathFunctional:
    return PathFunctional("N_t", lambda b, t: b.counts_at(t).astype(float))


def f_aggregate() -> PathFunctional:
    return PathFunctional("S_t", lambda b, t: b.aggregates_at(t))


def f_count_eq(k: int) -> PathFunctional:
    return PathFunctional(f"ind(N_t={k})",
                          lambda b, t: (b.counts_at(t) == k).astype(float))


def f_aggregate_gt(q: float) -> PathFunctional:
    return PathFunctional(f"ind(S_t>{q:g})",
                          lambda b, t: (b.aggregates_at(t) > q).astype(float))


def from_callable(name: str, fn: Callable[..., float]) -> PathFunctional:
    """Wrap a scalar f(path, t); slower than the builtin vectorized ones."""

    def batch_fn(batch: PathBatch, t: float) -> np.ndarray:
        return np.array([fn(batch.path(i), t) for i in range(len(batch))])

    return PathFunctional(name, batch_fn)


@dataclass(frozen=True)
class EventSpec:
    """An event measurable from path data up to its anchor time s
    together with theta (conditioning family of the martingale tests)."""

    kind: str                        # count_at_most | aggregate_at_most | theta_in | whole_space
    s: float = 0.0
    bound: float = 0.0
    hi: float = math.inf

    def indicator(self, batch: PathBatch) -> np.ndarray:
        if self.kind == "whole_space":
            return np.ones(len(batch), dtype=bool)
        if self.kind == "count_at_most":
            return batch.counts_at(self.s) <= self.bound
        if self.kind == "aggregate_at_most":
            return batch.aggregates_at(self.s) <= self.bound
        if self.kind == "theta_in":
            return (batch.thetas >= self.bound) & (batch.thetas < self.hi)
        raise ValueError(f"unknown event kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "whole_space":
            return "whole_space"
        if self.kind == "count_at_most":
            return f"N_{self.s:g}<={self.bound:g}"
        if self.kind == "aggregate_at_most":
            return f"S_{self.s:g}<={self.bound:g}"
        return f"theta_in[{self.bound:g},{self.hi:g})"


def whole_space() -> EventSpec:
    return EventSpec("whole_space")


def count_at_most(s: float, k: int) -> EventSpec:
    return EventSpec("count_at_most", s=s, bound=float(k))


def aggregate_at_most(s: float, q: float) -> EventSpec:
    return EventSpec("aggregate_at_most", s=s, bound=float(q))


def theta_in(lo: float, hi: float) -> EventSpec:
    return EventSpec("theta_in", bound=float(lo), hi=float(hi))


def default_event_family(s: float, base: BaseModel, derived: Optional[DerivedModel],
                         under: MeasureTag, seed: int) -> List[EventSpec]:
    """The 8-event default family anchored at time s.

    Aggregate thresholds (median, 90th percentile of S_s) come from a
    pilot run in its own stream family; the theta split uses the exact
    median of the tag's mixing law.
    """
    pilot = simulate_batch(base, derived, under, horizon=s if s > 0 else 1.0,
                           seed=seed, n=2000, family=FAM_PILOT)
    agg = pilot.aggregates_at(s if s > 0 else pilot.horizon)
    q50, q90 = float(np.quantile(agg, 0.5)), float(np.quantile(agg, 0.9))
    if under.is_conditional:
        theta_med = under.theta
    elif under.is_q_side:
        theta_med = float(derived.q_mixing.quantile(0.5))
    else:
        theta_med = float(base.mixing_law.quantile(0.5))
    return [
        count_at_most(s, 0), count_at_most(s, 1), count_at_most(s, 3),
        aggregate_at_most(s, q50), aggregate_at_most(s, q90),
        theta_in(0.0, theta_med), theta_in(theta_med, math.inf),
        whole_space(),
    ]


# ---------------------------------------------------------------------------
# processes for the martingale tests

@dataclass(frozen=True)
class ProcessSpec:
    kind: str                        # v_change | y_base | raw_aggregate | density | constant
    change: Optional[MeasureChange] = None
    value: float = 0.0

    def describe(self) -> str:
        return self.kind


def process_v(change: MeasureChange) -> ProcessSpec:
    return ProcessSpec("v_change", change=change)


def process_y() -> ProcessSpec:
    return ProcessSpec("y_base")


def process_raw() -> ProcessSpec:
    return ProcessSpec("raw_aggregate")


def process_density(change: MeasureChange) -> ProcessSpec:
    return ProcessSpec("density", change=change)


def process_constant(value: float) -> ProcessSpec:
    return ProcessSpec("constant", value=value)


def _process_values(spec: ProcessSpec, batch: PathBatch, t: float,
                    base: BaseModel, under: MeasureTag) -> np.ndarray:
    if spec.kind == "constant":
        return np.full(len(batch), spec.value)
    if spec.kind == "raw_aggregate":
        return batch.aggregates_at(t)
    if spec.kind == "y_base":
        return surplus_y_batch(batch, t, base)
    if spec.kind == "v_change":
        return surplus_v_batch(batch, t, base, spec.change)
    if spec.kind == "density":
        return np.exp(log_density_batch(batch, t, spec.change,
                                        include_xi=not under.is_conditional))
    raise ValueError(f"unknown process kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# estimators

def _simulate_chunked(base, derived, under, horizon, seed, n, family=FAM_DEFAULT):
    done = 0
    while done < n:
        m = min(CHUNK, n - done)
        yield simulate_batch(base, derived, under, horizon, seed,
                             n=m, start_index=done, family=family)
        done += m


def _battery_reports(f, oracle, batches, t, label="", change=None, include_xi=True):
    """(reports, single) for a functional or a battery (list or tuple, ``oracle``
    a sequence or None) in one pass over the batches, which are freed on return;
    samples are weighted by the likelihood ratio, once per batch, if ``change`` is set."""
    single = not isinstance(f, (list, tuple))
    fs, oracles = ([f], [oracle]) if single else (list(f), list(oracle or [None] * len(f)))
    fs = [g if isinstance(g, PathFunctional) else from_callable(getattr(g, "__name__", "f"), g)
          for g in fs]
    cols: List[list] = [[] for _ in fs]
    for b in batches:
        w = 1.0 if change is None else np.exp(log_density_batch(b, t, change, include_xi))
        for col, g in zip(cols, fs):
            col.append(g.eval_batch(b, t) * w)
    return [MCReport.from_samples(g.name + label, np.concatenate(col), o)
            for g, col, o in zip(fs, cols, oracles, strict=True)], single


def mc_estimate(f, base: BaseModel, derived: Optional[DerivedModel], under: MeasureTag,
                t: float, n: int, seed: int, horizon: Optional[float] = None,
                oracle=None, family: int = FAM_DEFAULT) -> Union[MCReport, List[MCReport]]:
    """Sample mean and stderr of a path functional at time t over n paths; a
    battery (list or tuple, ``oracle`` a sequence or None) shares one simulation."""
    if n < 100:
        raise ValueError("n must be at least 100")
    horizon = t if horizon is None else horizon
    reps, single = _battery_reports(
        f, oracle, _simulate_chunked(base, derived, under, horizon, seed, n, family), t)
    return reps[0] if single else reps


@dataclass(frozen=True)
class ReweightingResult:
    direct: MCReport
    weighted: MCReport
    difference: float
    pooled_stderr: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"


def check_reweighting(f, model: Union[BaseModel, DerivedModel],
                      change: Optional[MeasureChange] = None, *, t: float, n: int, seed: int,
                      under_conditional: Optional[float] = None, horizon: Optional[float] = None,
                      oracle=None) -> Union[ReweightingResult, List[ReweightingResult]]:
    """Both routes to E_Q[f]: direct simulation under the derived measure
    versus base-measure simulation weighted by the likelihood ratio.

    ``model`` is a DerivedModel, or a base model and its ``change`` (derived
    here, so NotValidated fires if needed); a battery ``f`` (list or tuple,
    ``oracle`` a sequence or None) simulates each side once.  With
    ``under_conditional`` set, the conditional form is tested at that theta
    (weights then exclude xi).  The sides run in disjoint stream families;
    the verdict is pass iff they agree within 3 pooled standard errors.
    """
    derived = model if isinstance(model, DerivedModel) else derive_q_model(model, change)
    horizon = t if horizon is None else horizon
    theta = under_conditional
    tag_q = DERIVED_Q if theta is None else conditional_q(theta)
    tag_p = BASE_P if theta is None else conditional_p(theta)

    direct, single = _battery_reports(
        f, oracle, _simulate_chunked(derived.base, derived, tag_q, horizon, seed, n, FAM_DIRECT),
        t, f" direct@{tag_q}")
    weighted, _ = _battery_reports(
        f, oracle, _simulate_chunked(derived.base, None, tag_p, horizon, seed, n, FAM_WEIGHTED),
        t, f" weighted@{tag_p}", derived.change, include_xi=theta is None)
    results = []
    for d, w in zip(direct, weighted):
        diff = d.estimate - w.estimate
        pooled = math.hypot(d.stderr, w.stderr)
        verdict = "pass" if abs(diff) <= 3.0 * pooled else "fail"
        results.append(ReweightingResult(direct=d, weighted=w, difference=diff,
                                         pooled_stderr=pooled, verdict=verdict))
    return results[0] if single else results


# ---------------------------------------------------------------------------
# martingale table

@dataclass(frozen=True)
class MartingaleCell:
    s: float
    t: float
    event: str
    estimate: float
    stderr: float
    z: float
    cell_pass: bool
    oracle: Optional[float] = None


@dataclass(frozen=True)
class MartingaleTable:
    process: str
    under: str
    cells: Tuple[MartingaleCell, ...]
    family_level: float
    z_threshold: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"


def check_martingale(process: ProcessSpec, base: BaseModel,
                     derived: Optional[DerivedModel], under: MeasureTag,
                     pairs: Sequence[Tuple[float, float]],
                     events: Optional[Sequence[EventSpec]] = None,
                     n: int = 100_000, seed: int = 0,
                     family_level: float = 0.01,
                     cell_oracle: Optional[Callable[[float, float, EventSpec], float]] = None,
                     ) -> MartingaleTable:
    """Integral-form martingale test: E[ind_A (Z_t - Z_s)] = 0 per cell.

    Each cell passes at 3 stderr; the table verdict applies a Bonferroni
    correction at the family level across all cells.
    """
    for s, t in pairs:
        if not 0.0 <= s < t:
            raise ValueError(f"need 0 <= s < t, got ({s}, {t})")
    horizon = max(t for _, t in pairs)
    s_min = min(s for s, _ in pairs)
    if events is None:
        events = default_event_family(s_min, base, derived, under, seed)
    for s, t in pairs:
        for ev in events:
            if ev.kind in ("count_at_most", "aggregate_at_most") and ev.s > s:
                raise ValueError(
                    f"event {ev.describe()} anchored after the pair start s={s:g}")

    times = {u for pair in pairs for u in pair}
    described = [ev.describe() for ev in events]
    sums = {}
    for b in _simulate_chunked(base, derived, under, horizon, seed, n):
        # each process value once per distinct time, each indicator once
        value = {u: _process_values(process, b, u, base, under) for u in times}
        indicators = [ev.indicator(b) for ev in events]
        for s, t in pairs:
            inc = value[t] - value[s]
            for desc, ind in zip(described, indicators):
                vals = np.where(ind, inc, 0.0)
                key = (s, t, desc)
                acc = sums.setdefault(key, [0.0, 0.0, 0])
                acc[0] += float(vals.sum())
                acc[1] += float((vals * vals).sum())
                acc[2] += len(b)

    cells = []
    for (s, t, desc), (tot, tot2, cnt) in sums.items():
        est = tot / cnt
        var = max(tot2 / cnt - est * est, 0.0)
        se = math.sqrt(var / cnt)
        z = 0.0 if se == 0.0 else est / se
        cell_pass = abs(est) <= 3.0 * se if se > 0.0 else est == 0.0
        oracle = None
        if cell_oracle is not None:
            ev = next(e for e in events if e.describe() == desc)
            oracle = cell_oracle(s, t, ev)
        cells.append(MartingaleCell(s=s, t=t, event=desc, estimate=est,
                                    stderr=se, z=z, cell_pass=cell_pass, oracle=oracle))
    ncells = len(cells)
    z_crit = float(sp.ndtri(1.0 - (family_level / ncells) / 2.0))
    worst = max((abs(c.z) for c in cells), default=0.0)
    verdict = "pass" if worst <= z_crit else "fail"
    return MartingaleTable(process=process.describe(), under=str(under),
                           cells=tuple(cells), family_level=family_level,
                           z_threshold=z_crit, verdict=verdict)


# ---------------------------------------------------------------------------
# degeneracy dichotomy

@dataclass(frozen=True)
class DegeneracyResult:
    is_martingale: bool
    witness_event: str
    witness_estimate: float
    witness_stderr: float
    witness_z: float
    witness_oracle: float
    s: float
    t: float

    def describe(self) -> str:
        if self.is_martingale:
            return "unconditionally centered aggregate is a martingale"
        return (f"violation on {self.witness_event}: estimate "
                f"{self.witness_estimate:.6g} (oracle {self.witness_oracle:.6g}, "
                f"z={self.witness_z:.1f})")


def degeneracy_test(model: Union[BaseModel, DerivedModel],
                    change: Optional[MeasureChange] = None, *, n: int, seed: int,
                    s: float = 0.5, t: float = 1.0) -> DegeneracyResult:
    """Probe whether the unconditionally centered aggregate is a martingale
    under the derived measure.

    It is one exactly when g(Theta) is degenerate; otherwise the two
    theta half-space events expose a drift whose size is predicted by
    the quadrature covariance oracle
    (t-s) E_Q[X] (E_Q[ind_A g(Theta)] - Q(A) E_Q[g(Theta)]).
    """
    derived = model if isinstance(model, DerivedModel) else derive_q_model(model, change)
    g = derived.g
    e_g = expectation(derived.q_mixing, g)
    e_x = derived.q_claim.moment(1)
    med = float(derived.q_mixing.quantile(0.5))
    events = [theta_in(0.0, med), theta_in(med, math.inf), whole_space()]

    sums = {ev.describe(): [0.0, 0.0, 0] for ev in events}
    for b in _simulate_chunked(derived.base, derived, DERIVED_Q, t, seed, n, FAM_DEGENERACY):
        v_s = b.aggregates_at(s) - s * e_g * e_x
        v_t = b.aggregates_at(t) - t * e_g * e_x
        inc = v_t - v_s
        for ev in events:
            vals = np.where(ev.indicator(b), inc, 0.0)
            acc = sums[ev.describe()]
            acc[0] += float(vals.sum())
            acc[1] += float((vals * vals).sum())
            acc[2] += len(b)

    best = None
    for ev in events:
        if ev.kind == "whole_space":
            continue
        tot, tot2, cnt = sums[ev.describe()]
        est = tot / cnt
        se = math.sqrt(max(tot2 / cnt - est * est, 0.0) / cnt)
        z = 0.0 if se == 0.0 else est / se
        q_a = clipped_expectation(derived.q_mixing, lambda x: 1.0, ev.bound, ev.hi)
        e_ga = clipped_expectation(derived.q_mixing, g, ev.bound, ev.hi)
        oracle = (t - s) * e_x * (e_ga - q_a * e_g)
        if best is None or abs(z) > abs(best[0]):
            best = (z, ev, est, se, oracle)
    z, ev, est, se, oracle = best
    return DegeneracyResult(is_martingale=abs(z) <= 3.0,
                            witness_event=ev.describe(), witness_estimate=est,
                            witness_stderr=se, witness_z=z, witness_oracle=oracle,
                            s=s, t=t)


# ---------------------------------------------------------------------------
# singularity probe

@dataclass(frozen=True)
class DriftRow:
    horizon: float
    side: str                        # p | q
    mean_log_density: float
    stderr: float
    drift: float                     # mean / horizon
    drift_stderr: float
    drift_oracle: Optional[float]
    q10: float
    q50: float
    q90: float
    frac_below: float                # log density < -5
    frac_above: float                # log density > +5


def _drift_oracle(base: BaseModel, change: MeasureChange, derived: DerivedModel,
                  side: str, theta: Optional[float], horizon: float) -> Optional[float]:
    """Analytic per-unit-time drift of the log likelihood ratio."""
    alpha, gamma, xi = change.alpha, change.gamma, change.xi
    # mean of gamma(X): plain under P, e^gamma-weighted under Q
    eg_p = expectation(base.claim_law, gamma)
    eg_q = log_weighted_expectation(base.claim_law, gamma, f=gamma)
    g = derived.g

    def per_theta(th: np.ndarray) -> np.ndarray:
        a = alpha.eval_array(th)
        if side == "p":
            return th * a + th * eg_p - th * np.expm1(a)
        g_th = g.eval_array(th)
        return g_th * a + g_th * eg_q - th * np.expm1(a)

    if theta is not None:
        return float(per_theta(np.array([theta]))[0])
    mix = base.mixing_law if side == "p" else derived.q_mixing
    drift = expectation(mix, per_theta)
    log_xi_mean = expectation(mix, lambda th: np.log(xi.eval_array(th)))
    return drift + log_xi_mean / horizon


def singularity_probe(model: Union[BaseModel, DerivedModel],
                      change: Optional[MeasureChange] = None, *,
                      horizons: Sequence[float], n: int, seed: int,
                      theta_fixed: Optional[float] = None) -> List[DriftRow]:
    """Log likelihood-ratio drift table under both measures.

    Progressive equivalence holds at every finite horizon while the
    measures separate in the limit: under the base measure the drift is
    nonpositive, under the derived one nonnegative, and the mass of
    paths with |log density| beyond +-5 grows with the horizon.  A
    finite-horizon table can only exhibit the trend, never certify the
    limit statement.
    """
    derived = model if isinstance(model, DerivedModel) else derive_q_model(model, change)
    base, change = derived.base, derived.change
    include_xi = theta_fixed is None
    rows = []
    for T in horizons:
        for side in ("p", "q"):
            if theta_fixed is None:
                tag = BASE_P if side == "p" else DERIVED_Q
            else:
                tag = conditional_p(theta_fixed) if side == "p" else conditional_q(theta_fixed)
            fam = FAM_SING_P if side == "p" else FAM_SING_Q
            vals = np.concatenate([
                log_density_batch(b, T, change, include_xi=include_xi)
                for b in _simulate_chunked(base, derived, tag, T, seed, n, fam)
            ])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
            oracle = _drift_oracle(base, change, derived, side, theta_fixed, T)
            rows.append(DriftRow(
                horizon=T, side=side, mean_log_density=mean, stderr=se,
                drift=mean / T, drift_stderr=se / T, drift_oracle=oracle,
                q10=float(np.quantile(vals, 0.1)), q50=float(np.quantile(vals, 0.5)),
                q90=float(np.quantile(vals, 0.9)),
                frac_below=float(np.mean(vals < -5.0)),
                frac_above=float(np.mean(vals > 5.0)),
            ))
    return rows
