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

Every estimator streams its samples through one ``Moments`` accumulator per
cell; standard errors come from the sample variance (n - 1 denominator).

Each estimator returns its ``Plan``: the ``Consumer`` of every stream it
reads (a request ``(measure, horizon, seed, n, family)``, an ``add`` per
chunk and a ``result``) and a ``finish`` that builds the estimate.
``run_streams`` simulates each distinct request once and feeds every
consumer of it, so estimators that read one stream share one pass.
``plan.run()`` runs one plan alone; a scenario run plans all of its jobs
first.  A consumer is fed once, so a plan runs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dist import clipped_expectation, expectation, log_weighted_expectation
from .model import BaseModel, DerivedModel, MeasureChange
from .sim import (BASE_P, DERIVED_Q, MeasureTag, PathBatch, conditional_p,
                  conditional_q, log_density_batch, simulate_batch)
from .special import norm_isf

CHUNK = 1 << 17

# Bonferroni family level of a martingale table
FAMILY_LEVEL = 0.01

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

class Moments:
    """Count, mean and sum of squared deviations (M2) of a stream of samples.

    Each chunk's mean and M2 are taken from the chunk itself, and chunks
    merge by the pairwise update of Chan, Golub & LeVeque (1983), which does
    not cancel the way raw sums of x and x^2 do.  On one chunk the mean and
    ``stderr`` are bit for bit ``np.mean`` and ``np.std(ddof=1) / sqrt(n)``.
    """

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: np.ndarray) -> None:
        m = x.size
        if m == 0:
            return
        mean = float(x.sum() / m)
        dev = x - mean
        dev *= dev  # in place: a second temporary costs more than the sums
        m2 = float(dev.sum())
        if self.n == 0:
            self.n, self.mean, self.m2 = m, mean, m2
            return
        n = self.n + m
        delta = mean - self.mean
        self.mean += delta * m / n
        self.m2 += m2 + delta * delta * self.n * m / n
        self.n = n

    @property
    def stderr(self) -> float:
        """Standard error of the mean, from the sample variance."""
        return math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n) if self.n > 1 else 0.0


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
    def from_moments(quantity: str, acc: Moments,
                     oracle: Optional[float] = None) -> "MCReport":
        return MCReport._judged(quantity, acc.mean, acc.stderr, acc.n, oracle)

    def against(self, oracle: float) -> "MCReport":
        """The same estimate, judged against ``oracle``."""
        return MCReport._judged(self.quantity, self.estimate, self.stderr, self.n, oracle)

    @staticmethod
    def _judged(quantity: str, est: float, se: float, n: int,
                oracle: Optional[float]) -> "MCReport":
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
    """A time-indexed path functional: ``batch_fn(batch, t)`` returns its
    value on every path of the batch, e.g.
    ``PathFunctional("S_t^2", lambda b, t: b.aggregates_at(t) ** 2)``."""

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


@dataclass(frozen=True)
class EventSpec:
    """An event measurable from path data up to its anchor time s together
    with theta (conditioning family of the martingale tests);
    ``indicator(batch)`` is its indicator on every path."""

    name: str
    s: float
    indicator: Callable[[PathBatch], np.ndarray]


def whole_space() -> EventSpec:
    return EventSpec("whole_space", 0.0, lambda b: np.ones(len(b), dtype=bool))


def count_at_most(s: float, k: int) -> EventSpec:
    k = float(k)
    return EventSpec(f"N_{s:g}<={k:g}", s, lambda b: b.counts_at(s) <= k)


def aggregate_at_most(s: float, q: float) -> EventSpec:
    q = float(q)
    return EventSpec(f"S_{s:g}<={q:g}", s, lambda b: b.aggregates_at(s) <= q)


def theta_in(lo: float, hi: float) -> EventSpec:
    lo, hi = float(lo), float(hi)
    return EventSpec(f"theta_in[{lo:g},{hi:g})", 0.0,
                     lambda b: (b.thetas >= lo) & (b.thetas < hi))


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

def process_v(derived: DerivedModel) -> PathFunctional:
    """Centered aggregate under the derived measure:
    V_t = S_t - t g(theta) E[X e^{gamma(X)}]."""
    def values(b: PathBatch, t: float) -> np.ndarray:
        rates = derived.g.eval_array(b.thetas)
        return b.aggregates_at(t) - t * rates * derived.claim_tilt_mean

    return PathFunctional("V_t", values)


def process_y(base: BaseModel) -> PathFunctional:
    """Claim surplus under the base measure: Y_t = S_t - t theta E[X]."""
    return PathFunctional(
        "Y_t", lambda b, t: b.aggregates_at(t) - t * b.thetas * base.claim_law.moment(1))


def process_density(change: MeasureChange, under: MeasureTag) -> PathFunctional:
    """The likelihood-ratio density: conditional (no xi) when ``under`` fixes
    theta, unconditional otherwise."""
    include_xi = not under.is_conditional
    return PathFunctional("M_t" if include_xi else "M~_t",
                          lambda b, t: np.exp(log_density_batch(b, t, change, include_xi)))


# ---------------------------------------------------------------------------
# streams and their consumers

# (measure, horizon, seed, n, family): one stream of paths, simulated in chunks
Request = Tuple[MeasureTag, float, int, int, int]


class Consumer:
    """One estimator's reader of one stream.

    ``request`` names the stream, ``add(batch)`` takes its chunks in order,
    and ``result()`` returns ``state``, the accumulators ``add`` fills, or
    raises the error that stopped the consumer (its own or its stream's)
    or a ``ValueError`` if it was never fed.
    Every estimator reads at least 100 paths.
    """

    def __init__(self, request: Request, add: Callable[[PathBatch], None], state):
        if request[3] < 100:
            raise ValueError("n must be at least 100")
        self.request = request
        self.add = add
        self.state = state
        self.error: Optional[Exception] = None
        self.fed = False

    def result(self):
        if not self.fed:
            raise ValueError("the consumer was never fed: run its plan first")
        if self.error is not None:
            raise self.error
        return self.state


@dataclass(frozen=True)
class Plan:
    """A planned estimator: the consumers to feed, and ``finish``, which
    builds the estimate from their results once ``run_streams`` fed them.
    ``run()`` feeds them from the plan's models and finishes, once."""

    consumers: List[Consumer]
    finish: Callable[[], Any]
    base: Optional[BaseModel] = None
    derived: Optional[DerivedModel] = None

    def run(self):
        run_streams(self.base, self.derived, self.consumers)
        return self.finish()


def _simulate_chunked(base, derived, under, horizon, seed, n, family=FAM_DEFAULT):
    done = 0
    while done < n:
        m = min(CHUNK, n - done)
        yield simulate_batch(base, derived, under, horizon, seed,
                             n=m, start_index=done, family=family)
        done += m


def run_streams(base: BaseModel, derived: Optional[DerivedModel],
                consumers: Sequence[Consumer]) -> None:
    """Simulate each distinct request of the consumers once, in first-request
    order, and give every chunk to each consumer of its stream.

    No chunk outlives its turn.  A consumer whose ``add`` raises keeps the
    error and is fed no more; an error of the simulation goes to every
    consumer of that stream still being fed.  Either way ``result`` raises it.
    A consumer is fed once: one fed before, or listed twice, is refused
    before any path is simulated.
    """
    if any(c.fed for c in consumers) or len({id(c) for c in consumers}) < len(consumers):
        raise ValueError("a consumer is fed once; a plan runs once")
    for c in consumers:
        c.fed = True
    streams: Dict[Request, List[Consumer]] = {}
    for c in consumers:
        streams.setdefault(c.request, []).append(c)
    for (under, horizon, seed, n, family), live in streams.items():
        try:
            for b in _simulate_chunked(base, derived, under, horizon, seed, n, family):
                for c in live:
                    try:
                        c.add(b)
                    except Exception as e:  # raised again by c.result()
                        c.error = _kept(e)
                live = [c for c in live if c.error is None]
                del b
                if not live:
                    break
        except Exception as e:
            for c in live:
                c.error = _kept(e)


def _kept(e: Exception) -> Exception:
    """e with the locals of its traceback's finished frames dropped, so that
    a kept error holds no chunk."""
    import traceback
    traceback.clear_frames(e.__traceback__)
    return e


# ---------------------------------------------------------------------------
# estimators

def _battery(f, oracle):
    """(functionals, oracles, single) of a functional or a battery (list or
    tuple, ``oracle`` a sequence or None)."""
    single = not isinstance(f, (list, tuple))
    fs, oracles = ([f], [oracle]) if single else (list(f), list(oracle or [None] * len(f)))
    if len(oracles) != len(fs):
        raise ValueError(f"{len(fs)} functionals but {len(oracles)} oracles")
    for g in fs:
        if not isinstance(g, PathFunctional):
            raise TypeError(f"expected a PathFunctional, got {type(g).__name__}")
    return fs, oracles, single


def _battery_consumer(request: Request, fs, t, change=None, include_xi=True) -> Consumer:
    """One Moments per functional; samples are weighted by the likelihood
    ratio, once per batch, if ``change`` is set."""
    accs = [Moments() for _ in fs]

    def add(b):
        w = 1.0 if change is None else np.exp(log_density_batch(b, t, change, include_xi))
        for acc, g in zip(accs, fs):
            acc.add(g.eval_batch(b, t) * w)

    return Consumer(request, add, accs)


def mc_estimate(f, base: BaseModel, derived: Optional[DerivedModel], under: MeasureTag,
                t: float, n: int, seed: int, oracle=None) -> Plan:
    """Sample mean and stderr of a path functional at time t over n paths:
    ``run()`` returns an ``MCReport``.  A battery (list or tuple, ``oracle``
    a sequence or None) shares one simulation and returns a list of them."""
    fs, oracles, single = _battery(f, oracle)
    c = _battery_consumer((under, t, seed, n, FAM_DEFAULT), fs, t)

    def finish():
        reps = [MCReport.from_moments(g.name, acc, o)
                for g, acc, o in zip(fs, c.result(), oracles)]
        return reps[0] if single else reps

    return Plan([c], finish, base, derived)


@dataclass(frozen=True)
class ReweightingResult:
    direct: MCReport
    weighted: MCReport
    difference: float
    pooled_stderr: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"


def check_reweighting(f, derived: DerivedModel, *, t: float, n: int, seed: int,
                      under_conditional: Optional[float] = None, oracle=None) -> Plan:
    """Both routes to E_Q[f] at time t: direct simulation under the derived
    measure versus base-measure simulation weighted by the likelihood ratio.
    ``run()`` returns a ``ReweightingResult``.

    A battery ``f`` (list or tuple, ``oracle`` a sequence or None)
    simulates each side once and returns a list of results.  With
    ``under_conditional`` set, the conditional form is tested at that theta
    (weights then exclude xi).  The sides run in disjoint stream families;
    the verdict is pass iff they agree within 3 pooled standard errors.
    """
    theta = under_conditional
    tag_q = DERIVED_Q if theta is None else conditional_q(theta)
    tag_p = BASE_P if theta is None else conditional_p(theta)
    fs, oracles, single = _battery(f, oracle)
    direct = _battery_consumer((tag_q, t, seed, n, FAM_DIRECT), fs, t)
    weighted = _battery_consumer((tag_p, t, seed, n, FAM_WEIGHTED), fs, t,
                                 derived.change, include_xi=theta is None)

    def finish():
        results = []
        for g, o, d_acc, w_acc in zip(fs, oracles, direct.result(), weighted.result()):
            d = MCReport.from_moments(f"{g.name} direct@{tag_q}", d_acc, o)
            w = MCReport.from_moments(f"{g.name} weighted@{tag_p}", w_acc, o)
            diff = d.estimate - w.estimate
            pooled = math.hypot(d.stderr, w.stderr)
            verdict = "pass" if abs(diff) <= 3.0 * pooled else "fail"
            results.append(ReweightingResult(direct=d, weighted=w, difference=diff,
                                             pooled_stderr=pooled, verdict=verdict))
        return results[0] if single else results

    return Plan([direct, weighted], finish, derived.base, derived)


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


@dataclass(frozen=True)
class MartingaleTable:
    process: str
    under: str
    cells: Tuple[MartingaleCell, ...]
    z_threshold: float
    verdict: str
    family_level = FAMILY_LEVEL  # not a field: every table's Bonferroni level

    def passed(self) -> bool:
        return self.verdict == "pass"


def check_martingale(process: PathFunctional, base: BaseModel,
                     derived: Optional[DerivedModel], under: MeasureTag,
                     pairs: Sequence[Tuple[float, float]],
                     events: Optional[Sequence[EventSpec]] = None,
                     n: int = 100_000, seed: int = 0, family: int = FAM_DEFAULT) -> Plan:
    """Integral-form martingale test: E[ind_A (Z_t - Z_s)] = 0 per cell, on
    the paths of the stream ``family``; ``run()`` returns a ``MartingaleTable``.

    Each cell passes at 3 stderr; the table verdict applies a Bonferroni
    correction at ``FAMILY_LEVEL`` across all cells.  The default events'
    pilot runs here, when the plan is built.
    """
    if not isinstance(process, PathFunctional):
        raise TypeError(f"expected a PathFunctional, got {type(process).__name__}")
    if not pairs:
        raise ValueError("pairs is empty: a martingale table needs an (s, t) pair")
    for s, t in pairs:
        if not 0.0 <= s < t:
            raise ValueError(f"need 0 <= s < t, got ({s}, {t})")
    horizon = max(t for _, t in pairs)
    s_min = min(s for s, _ in pairs)
    if events is None:
        events = default_event_family(s_min, base, derived, under, seed)
    if not events:
        raise ValueError("events is empty: a martingale table needs an event")
    for s, t in pairs:
        for ev in events:
            if ev.s > s:
                raise ValueError(f"event {ev.name} anchored after the pair start s={s:g}")

    times = {u for pair in pairs for u in pair}
    # one accumulator per (pair, event) position, so repeated events or
    # pairs are separate cells
    accs = [[Moments() for _ in events] for _ in pairs]

    def add(b):
        # each process value once per distinct time, each indicator once
        value = {u: process.eval_batch(b, u) for u in times}
        indicators = [ev.indicator(b) for ev in events]
        for (s, t), row in zip(pairs, accs):
            inc = value[t] - value[s]
            for acc, ind in zip(row, indicators):
                acc.add(np.where(ind, inc, 0.0))

    c = Consumer((under, horizon, seed, n, family), add, accs)

    def finish() -> MartingaleTable:
        cells = []
        for (s, t), row in zip(pairs, c.result()):
            for ev, acc in zip(events, row):
                est, se = acc.mean, acc.stderr
                z = 0.0 if se == 0.0 else est / se
                cell_pass = abs(est) <= 3.0 * se if se > 0.0 else est == 0.0
                cells.append(MartingaleCell(s=s, t=t, event=ev.name, estimate=est,
                                            stderr=se, z=z, cell_pass=cell_pass))
        z_crit = norm_isf(FAMILY_LEVEL / len(cells) / 2.0)
        worst = max(abs(cell.z) for cell in cells)
        return MartingaleTable(process=process.name, under=str(under),
                               cells=tuple(cells), z_threshold=z_crit,
                               verdict="pass" if worst <= z_crit else "fail")

    return Plan([c], finish, base, derived)


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


def degeneracy_test(derived: DerivedModel, *, n: int, seed: int) -> Plan:
    """Probe whether the unconditionally centered aggregate is a martingale
    under the derived measure from s = 0.5 to t = 1; ``run()`` returns a
    ``DegeneracyResult``.

    It is one exactly when g(Theta) is degenerate; otherwise the two
    theta half-space events expose a drift whose size is predicted by
    the quadrature covariance oracle
    (t-s) E_Q[X] (E_Q[ind_A g(Theta)] - Q(A) E_Q[g(Theta)]).  The probe is a
    two-cell martingale table; its cell of largest |z| is the witness.
    """
    s, t = 0.5, 1.0
    g = derived.g
    e_g = expectation(derived.q_mixing, g)
    e_x = derived.q_claim.moment(1)
    med = float(derived.q_mixing.quantile(0.5))
    bounds = [(0.0, med), (med, math.inf)]
    centered = PathFunctional("S_t - t E_Q[g] E_Q[X]",
                              lambda b, u: b.aggregates_at(u) - u * e_g * e_x)
    table = check_martingale(centered, derived.base, derived, DERIVED_Q, [(s, t)],
                             [theta_in(lo, hi) for lo, hi in bounds], n=n, seed=seed,
                             family=FAM_DEGENERACY)

    def finish() -> DegeneracyResult:
        cell, (lo, hi) = max(zip(table.finish().cells, bounds), key=lambda cb: abs(cb[0].z))
        q_a = clipped_expectation(derived.q_mixing, lambda x: 1.0, lo, hi)
        e_ga = clipped_expectation(derived.q_mixing, g, lo, hi)
        return DegeneracyResult(is_martingale=abs(cell.z) <= 3.0,
                                witness_event=cell.event, witness_estimate=cell.estimate,
                                witness_stderr=cell.stderr, witness_z=cell.z,
                                witness_oracle=(t - s) * e_x * (e_ga - q_a * e_g),
                                s=s, t=t)

    return Plan(table.consumers, finish, derived.base, derived)


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


def singularity_probe(derived: DerivedModel, *, horizons: Sequence[float], n: int,
                      seed: int, theta_fixed: Optional[float] = None) -> Plan:
    """Log likelihood-ratio drift table under both measures, one stream per
    (horizon, side); ``run()`` returns a list of ``DriftRow``.

    Progressive equivalence holds at every finite horizon while the
    measures separate in the limit: under the base measure the drift is
    nonpositive, under the derived one nonnegative, and the mass of
    paths with |log density| beyond +-5 grows with the horizon.  A
    finite-horizon table can only exhibit the trend, never certify the
    limit statement.
    """
    base, change = derived.base, derived.change
    include_xi = theta_fixed is None
    sides = (("p", BASE_P if include_xi else conditional_p(theta_fixed), FAM_SING_P),
             ("q", DERIVED_Q if include_xi else conditional_q(theta_fixed), FAM_SING_Q))
    cells = []
    for T in horizons:
        for side, tag, fam in sides:
            acc, parts = Moments(), []  # the parts for the quantiles

            def add(b, T=T, acc=acc, parts=parts):
                parts.append(log_density_batch(b, T, change, include_xi=include_xi))
                acc.add(parts[-1])

            cells.append((T, side, Consumer((tag, T, seed, n, fam), add, (acc, parts))))

    def finish() -> List[DriftRow]:
        rows = []
        for T, side, c in cells:
            acc, parts = c.result()
            vals = np.concatenate(parts)
            mean, se = acc.mean, acc.stderr
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

    return Plan([c for _, _, c in cells], finish, base, derived)
