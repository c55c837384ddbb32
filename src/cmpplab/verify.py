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
reads (a request ``(measure, seed, n, family)``, an ``add`` per chunk,
the times and claim sums it reads and a ``result``) and a ``finish`` that
builds the estimate.  ``run_streams`` simulates each distinct request once,
to the latest time its consumers read, and feeds every consumer of it, so
estimators that read one stream share one pass, and nothing else
simulates.  A chunk holds arrays of its path count: its arrival loop fills
the N_t and claim sums its consumers declare, and no claim array is drawn.
``plan.run()`` runs one plan alone; a scenario run plans all of its jobs
first.  A consumer is fed once, so a plan runs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dist import Distribution, clipped_expectation, expectation, log_weighted_expectation
from .expr import RealFn
from .model import BaseModel, DerivedModel, MeasureChange
from .sim import (BASE_P, DERIVED_Q, MeasureTag, PathBatch, conditional_p,
                  conditional_q, log_density_batch, simulate_batch, stream_law)
from .special import norm_isf

CHUNK = 1 << 17

# Bonferroni family level of a martingale table
FAMILY_LEVEL = 0.01

# stream families (disjoint path-index blocks per concern)
FAM_DEFAULT = 0
FAM_DIRECT = 1
FAM_WEIGHTED = 2
FAM_DEGENERACY = 4  # 3 is free: a family keeps its number, so its paths
FAM_SING_P = 5
FAM_SING_Q = 6


# ---------------------------------------------------------------------------
# reports

class Moments:
    """Count, mean and sum of squared deviations (M2) of a stream of samples.

    Each chunk's mean and M2 are taken from the chunk itself, and chunks
    merge by the pairwise update of Chan, Golub & LeVeque (1983), which does
    not cancel the way raw sums of x and x^2 do.  On one chunk ``mean``,
    ``sd`` and ``stderr`` equal numpy's bit for bit (``ddof=1``, / sqrt(n)).
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
    def sd(self) -> float:
        """Sample standard deviation (n - 1 denominator)."""
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0

    @property
    def stderr(self) -> float:
        """Standard error of the mean, from the sample variance."""
        return self.sd / math.sqrt(self.n) if self.n > 1 else 0.0


@dataclass(frozen=True)
class MCReport:
    """A Monte Carlo estimate, its standard error over n samples, and the
    oracle it is judged against.  ``verdict`` is the one 3-sigma rule of
    every Monte Carlo comparison; ``z`` is its standardized distance."""

    quantity: str
    estimate: float
    stderr: float
    n: int
    oracle: Optional[float] = None

    @staticmethod
    def from_moments(quantity: str, acc: Moments,
                     oracle: Optional[float] = None) -> "MCReport":
        return MCReport(quantity, acc.mean, acc.stderr, acc.n, oracle)

    def against(self, oracle: float) -> "MCReport":
        """The same estimate, judged against ``oracle``."""
        return replace(self, oracle=oracle)

    @property
    def z(self) -> float:
        """(estimate - oracle) / stderr; 0 without a stderr or an oracle."""
        if self.oracle is None or self.stderr == 0.0:
            return 0.0
        return (self.estimate - self.oracle) / self.stderr

    @property
    def verdict(self) -> str:
        """pass | fail within three standard errors of the oracle, and
        inconclusive without one."""
        if self.oracle is None:
            return "inconclusive"
        return "pass" if abs(self.estimate - self.oracle) <= 3.0 * self.stderr else "fail"


# ---------------------------------------------------------------------------
# path functionals and conditioning events

class PathFunctional:
    """A time-indexed path functional: ``batch_fn(batch, t)`` returns its
    value on every path of the batch, e.g.
    ``PathFunctional("S_t^2", lambda b, t: b.aggregates_at(t) ** 2, sums=[None])``.

    ``sums`` declares the claim functions whose sums up to t it reads (see
    ``PathBatch``): None for S_t, or the fn of ``claim_prefix_apply``.  A
    sum it reads undeclared reruns the batch's arrival loop."""

    def __init__(self, name: str, batch_fn: Callable[[PathBatch, float], np.ndarray],
                 sums: Iterable[Optional[RealFn]] = ()):
        self.name = name
        self._batch_fn = batch_fn
        self.sums = tuple(sums)

    def eval_batch(self, batch: PathBatch, t: float) -> np.ndarray:
        return np.asarray(self._batch_fn(batch, t), dtype=float)

    def __repr__(self) -> str:
        return f"PathFunctional({self.name})"


def f_one() -> PathFunctional:
    return PathFunctional("1", lambda b, t: np.ones(len(b)))


def f_count() -> PathFunctional:
    return PathFunctional("N_t", lambda b, t: b.counts_at(t).astype(float))


def f_aggregate() -> PathFunctional:
    return PathFunctional("S_t", lambda b, t: b.aggregates_at(t), sums=[None])


def f_count_eq(k: int) -> PathFunctional:
    return PathFunctional(f"ind(N_t={k})",
                          lambda b, t: (b.counts_at(t) == k).astype(float))


@dataclass(frozen=True)
class EventSpec:
    """An event measurable from path data up to its anchor time s together
    with theta (conditioning family of the martingale tests);
    ``indicator(batch)`` is its indicator on every path, and ``sums`` the
    claim functions whose sums up to s it reads (as a ``PathFunctional``'s)."""

    name: str
    s: float
    indicator: Callable[[PathBatch], np.ndarray]
    sums: Tuple[Optional[RealFn], ...] = ()


def whole_space() -> EventSpec:
    return EventSpec("whole_space", 0.0, lambda b: np.ones(len(b), dtype=bool))


def count_at_most(s: float, k: int) -> EventSpec:
    k = float(k)
    return EventSpec(f"N_{s:g}<={k:g}", s, lambda b: b.counts_at(s) <= k)


def aggregate_at_most(s: float, q: float) -> EventSpec:
    q = float(q)
    return EventSpec(f"S_{s:g}<={q:g}", s, lambda b: b.aggregates_at(s) <= q, (None,))


def theta_in(lo: float, hi: float) -> EventSpec:
    lo, hi = float(lo), float(hi)
    return EventSpec(f"theta_in[{lo:g},{hi:g})", 0.0,
                     lambda b: (b.thetas >= lo) & (b.thetas < hi))


def default_event_family(s: float, base: BaseModel, derived: Optional[DerivedModel],
                         under: MeasureTag) -> List[EventSpec]:
    """The default family anchored at time s: N_s at most 0, 1 and 3, S_s at
    most E[S_s] = s E[rate(Theta)] E[X] and 2 E[S_s], theta below or above
    its median, and the whole space; at s = 0, where N_0 = S_0 = 0, only the
    last three.  All of it comes from the tag's (mixing law, rate, claim
    law), ``sim.stream_law`` (the mixing law is theta's point mass for a
    conditional tag), so building it simulates nothing."""
    mixing, rate, claim = stream_law(under, base, derived)
    theta_med = float(mixing.quantile(0.5))
    events = [theta_in(0.0, theta_med), theta_in(theta_med, math.inf), whole_space()]
    if s > 0.0:
        mean_s = s * expectation(mixing, rate) * claim.moment(1)
        events[:0] = [count_at_most(s, 0), count_at_most(s, 1), count_at_most(s, 3),
                      aggregate_at_most(s, mean_s), aggregate_at_most(s, 2.0 * mean_s)]
    return events


# ---------------------------------------------------------------------------
# processes for the martingale tests

def process_v(derived: DerivedModel) -> PathFunctional:
    """Centered aggregate under the derived measure:
    V_t = S_t - t g(theta) E[X e^{gamma(X)}]."""
    def values(b: PathBatch, t: float) -> np.ndarray:
        rates = derived.g.eval_array(b.thetas)
        return b.aggregates_at(t) - t * rates * derived.claim_tilt_mean

    return PathFunctional("V_t", values, sums=[None])


def process_y(base: BaseModel) -> PathFunctional:
    """Claim surplus under the base measure: Y_t = S_t - t theta E[X]."""
    return PathFunctional(
        "Y_t", lambda b, t: b.aggregates_at(t) - t * b.thetas * base.claim_law.moment(1),
        sums=[None])


def process_density(change: MeasureChange, under: MeasureTag) -> PathFunctional:
    """The likelihood-ratio density: conditional (no xi) when ``under`` fixes
    theta, unconditional otherwise."""
    include_xi = not under.is_conditional
    return PathFunctional("M_t" if include_xi else "M~_t",
                          lambda b, t: np.exp(log_density_batch(b, t, change, include_xi)),
                          sums=[change.gamma])


# ---------------------------------------------------------------------------
# streams and their consumers

# (measure, seed, n, family): one stream of paths, simulated in chunks
Request = Tuple[MeasureTag, int, int, int]
# (t, fn): a claim sum a consumer reads, S_t for fn None (see sim.PathBatch)
ClaimSum = Tuple[float, Optional[RealFn]]


class Consumer:
    """One estimator's reader of one stream.

    ``request`` names the stream, ``add(batch)`` takes its chunks in order
    and reads N or S at the times ``reads`` only (or draws event times), and
    ``result()`` returns ``state``, the accumulators ``add`` fills, or raises
    the error that stopped it (its own, its stream's or a plan-mate's) or a
    ``ValueError`` if it was never fed.
    Every estimator reads at least 100 paths, at one time or more.
    ``sums`` declares the claim sums ``add`` reads, each at a time of
    ``reads``; a chunk's arrival loop fills them without a claim array, and
    a claim sum ``add`` reads undeclared reruns the loop.
    """

    def __init__(self, request: Request, add: Callable[[PathBatch], None], state,
                 reads: Iterable[float], sums: Iterable[ClaimSum] = ()):
        if request[2] < 100:
            raise ValueError("n must be at least 100")
        self.reads = frozenset(reads)
        if not self.reads or not all(math.isfinite(t) and t >= 0.0 for t in self.reads):
            raise ValueError(f"reads must be finite times >= 0, one at least: {sorted(self.reads)}")
        self.sums = list(sums)
        if any(t not in self.reads for t, _ in self.sums):
            raise ValueError(f"claim sums must be read at times of reads: {self.sums}")
        self.request = request
        self.add = add
        self.state = state
        self.error: Optional[Exception] = None
        self.fed = False
        self.mates = [self]  # its plan's consumers, once a Plan links them

    def result(self):
        if not self.fed:
            raise ValueError("the consumer was never fed: run its plan first")
        for c in [self, *self.mates]:  # its own error first
            if c.error is not None:
                raise c.error
        return self.state


@dataclass(frozen=True)
class Plan:
    """A planned estimator: the consumers to feed, and ``finish``, which
    builds the estimate from their results once ``run_streams`` fed them.
    ``run()`` feeds them from the plan's models and finishes, once.  Its
    consumers, with their mates from earlier plans, become mates."""

    consumers: List[Consumer]
    finish: Callable[[], Any]
    base: Optional[BaseModel] = None
    derived: Optional[DerivedModel] = None

    def __post_init__(self):
        mates = list({id(m): m for c in self.consumers for m in c.mates}.values())
        for m in mates:
            m.mates = mates

    def run(self):
        run_streams(self.base, self.derived, self.consumers)
        return self.finish()


def run_streams(base: BaseModel, derived: Optional[DerivedModel],
                consumers: Sequence[Consumer]) -> None:
    """Simulate each distinct request of the consumers once, to the latest
    time any of its consumers reads (failed ones too), counting N at those
    times, and give every chunk to each consumer of its stream.  Streams
    with more consumers (an error there stops the most plans) run first,
    ties in first-request order.  A claim sum at t is the sequential sum of
    a path's first N_t values, so the stream's horizon and the other
    consumers' reads change none of its bits.

    No chunk outlives its turn.  A consumer whose ``add`` raises keeps the
    error and is fed no more; an error of the simulation, in a declared
    claim sum too, goes to every consumer of that stream still being fed,
    and one whose plan-mate holds an error is fed no more.  Either way
    ``result`` raises the error.  A consumer is fed once: one fed before, or
    listed twice, is refused before any path is simulated.
    """
    if any(c.fed for c in consumers) or len({id(c) for c in consumers}) < len(consumers):
        raise ValueError("a consumer is fed once; a plan runs once")
    streams: Dict[Request, List[Consumer]] = {}
    for c in consumers:
        c.fed = True
        streams.setdefault(c.request, []).append(c)
    for (under, seed, n, family), live in sorted(streams.items(), key=lambda kv: -len(kv[1])):
        reads = sorted(set().union(*(c.reads for c in live)))
        sums = [s for c in live for s in c.sums]
        done = 0
        try:
            # a consumer whose plan-mate (or itself) failed is fed no more
            while (live := [c for c in live if all(m.error is None for m in c.mates)]) and done < n:
                m = min(CHUNK, n - done)
                b = simulate_batch(base, derived, under, reads[-1], seed, n=m,
                                   start_index=done, family=family, reads=reads, sums=sums)
                done += m
                for c in live:
                    try:
                        c.add(b)
                    except Exception as e:  # raised again by c.result()
                        c.error = _kept(e)
                del b
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

    sums = [fn for g in fs for fn in g.sums] + ([] if change is None else [change.gamma])
    return Consumer(request, add, accs, reads={t}, sums=[(t, fn) for fn in sums])


def mc_estimate(f, base: BaseModel, derived: Optional[DerivedModel], under: MeasureTag,
                t: float, n: int, seed: int, oracle=None) -> Plan:
    """Sample mean and stderr of a path functional at time t over n paths:
    ``run()`` returns an ``MCReport``.  A battery (list or tuple, ``oracle``
    a sequence or None) shares one simulation and returns a list of them."""
    fs, oracles, single = _battery(f, oracle)
    c = _battery_consumer((under, seed, n, FAM_DEFAULT), fs, t)

    def finish():
        reps = [MCReport.from_moments(g.name, acc, o)
                for g, acc, o in zip(fs, c.result(), oracles)]
        return reps[0] if single else reps

    return Plan([c], finish, base, derived)


@dataclass(frozen=True)
class ReweightingResult:
    """Both routes to E_Q[f], and their difference with the pooled stderr
    over both sides' samples, judged against 0."""

    direct: MCReport
    weighted: MCReport
    gap: MCReport


def check_reweighting(f, derived: DerivedModel, *, t: float, n: int, seed: int,
                      under_conditional: Optional[float] = None, oracle=None) -> Plan:
    """Both routes to E_Q[f] at time t: direct simulation under the derived
    measure versus base-measure simulation weighted by the likelihood ratio.
    ``run()`` returns a ``ReweightingResult``.

    A battery ``f`` (list or tuple, ``oracle`` a sequence or None)
    simulates each side once and returns a list of results.  With
    ``under_conditional`` set, the conditional form is tested at that theta
    (weights then exclude xi).  The sides run in disjoint stream families,
    so the gap's stderr pools theirs.
    """
    theta = under_conditional
    tag_q = DERIVED_Q if theta is None else conditional_q(theta)
    tag_p = BASE_P if theta is None else conditional_p(theta)
    fs, oracles, single = _battery(f, oracle)
    direct = _battery_consumer((tag_q, seed, n, FAM_DIRECT), fs, t)
    weighted = _battery_consumer((tag_p, seed, n, FAM_WEIGHTED), fs, t,
                                 derived.change, include_xi=theta is None)

    def finish():
        results = []
        for g, o, d_acc, w_acc in zip(fs, oracles, direct.result(), weighted.result()):
            d = MCReport.from_moments(f"{g.name} direct@{tag_q}", d_acc, o)
            w = MCReport.from_moments(f"{g.name} weighted@{tag_p}", w_acc, o)
            gap = MCReport(f"{g.name} gap", d.estimate - w.estimate,
                           math.hypot(d.stderr, w.stderr), d.n + w.n, 0.0)
            results.append(ReweightingResult(direct=d, weighted=w, gap=gap))
        return results[0] if single else results

    return Plan([direct, weighted], finish, derived.base, derived)


# ---------------------------------------------------------------------------
# martingale table

@dataclass(frozen=True)
class MartingaleCell:
    """E[ind_A (Z_t - Z_s)] on one event A (the report's quantity), judged
    against 0."""

    s: float
    t: float
    report: MCReport


@dataclass(frozen=True)
class MartingaleTable:
    process: str
    under: str
    cells: Tuple[MartingaleCell, ...]
    z_threshold: float
    verdict: str
    family_level = FAMILY_LEVEL  # not a field: every table's Bonferroni level


def check_martingale(process: PathFunctional, base: BaseModel,
                     derived: Optional[DerivedModel], under: MeasureTag,
                     pairs: Sequence[Tuple[float, float]],
                     events: Optional[Sequence[EventSpec]] = None,
                     n: int = 100_000, seed: int = 0, family: int = FAM_DEFAULT) -> Plan:
    """Integral-form martingale test: E[ind_A (Z_t - Z_s)] = 0 per cell, on
    the paths of the stream ``family``; ``run()`` returns a ``MartingaleTable``.

    Each cell passes at 3 stderr; the table verdict applies a Bonferroni
    correction at ``FAMILY_LEVEL`` across all cells.  The default events
    come from the law, so building the plan simulates nothing.
    """
    if not isinstance(process, PathFunctional):
        raise TypeError(f"expected a PathFunctional, got {type(process).__name__}")
    if not pairs:
        raise ValueError("pairs is empty: a martingale table needs an (s, t) pair")
    for s, t in pairs:
        if not 0.0 <= s < t:
            raise ValueError(f"need 0 <= s < t, got ({s}, {t})")
    s_min = min(s for s, _ in pairs)
    if events is None:
        events = default_event_family(s_min, base, derived, under)
    if not events:
        raise ValueError("events is empty: a martingale table needs an event")
    for ev in events:
        if ev.s > s_min:
            raise ValueError(f"event {ev.name} anchored after the pair start s={s_min:g}")

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

    sums = [(u, fn) for u in times for fn in process.sums] + \
        [(ev.s, fn) for ev in events for fn in ev.sums]
    c = Consumer((under, seed, n, family), add, accs, times | {ev.s for ev in events}, sums)

    def finish() -> MartingaleTable:
        cells = []
        for (s, t), row in zip(pairs, c.result()):
            for ev, acc in zip(events, row):
                cells.append(MartingaleCell(s, t, MCReport.from_moments(ev.name, acc, 0.0)))
        z_crit = norm_isf(FAMILY_LEVEL / len(cells) / 2.0)
        worst = max(abs(cell.report.z) for cell in cells)
        return MartingaleTable(process=process.name, under=str(under),
                               cells=tuple(cells), z_threshold=z_crit,
                               verdict="pass" if worst <= z_crit else "fail")

    return Plan([c], finish, base, derived)


# ---------------------------------------------------------------------------
# degeneracy dichotomy

@dataclass(frozen=True)
class DegeneracyResult:
    """The witness cell's report (judged against 0, its quantity the event)
    and the drift the covariance oracle predicts for it."""

    witness: MCReport
    witness_oracle: float
    s: float
    t: float

    @property
    def is_martingale(self) -> bool:
        return self.witness.verdict == "pass"

    def describe(self) -> str:
        if self.is_martingale:
            return "unconditionally centered aggregate is a martingale"
        return (f"violation on {self.witness.quantity}: estimate "
                f"{self.witness.estimate:.6g} (oracle {self.witness_oracle:.6g}, "
                f"z={self.witness.z:.1f})")


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
                              lambda b, u: b.aggregates_at(u) - u * e_g * e_x, sums=[None])
    table = check_martingale(centered, derived.base, derived, DERIVED_Q, [(s, t)],
                             [theta_in(lo, hi) for lo, hi in bounds], n=n, seed=seed,
                             family=FAM_DEGENERACY)

    def finish() -> DegeneracyResult:
        cell, (lo, hi) = max(zip(table.finish().cells, bounds),
                             key=lambda cb: abs(cb[0].report.z))
        q_a = clipped_expectation(derived.q_mixing, lambda x: 1.0, lo, hi)
        e_ga = clipped_expectation(derived.q_mixing, g, lo, hi)
        return DegeneracyResult(witness=cell.report,
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
    drift: MCReport                  # mean / horizon, against the analytic drift
    sd: float                        # sample standard deviation of the log density
    frac_below: float                # log density < -5
    frac_above: float                # log density > +5


def _drift_oracle(change: MeasureChange, mixing: Distribution, rate: RealFn, eg: float,
                  include_xi: bool, horizon: float) -> float:
    """Analytic per-unit-time drift of the log likelihood ratio on a stream
    of law (mixing, rate) whose mean of gamma(X) is eg: E[r alpha + r eg -
    Theta (e^alpha - 1)], r = rate(Theta), plus E[ln xi(Theta)] / horizon."""

    def per_theta(th: np.ndarray) -> np.ndarray:
        a, r = change.alpha.eval_array(th), rate.eval_array(th)
        return r * a + r * eg - th * np.expm1(a)

    drift = expectation(mixing, per_theta)
    if not include_xi:
        return drift
    return drift + expectation(mixing, lambda th: np.log(change.xi.eval_array(th))) / horizon


def singularity_probe(derived: DerivedModel, *, horizons: Sequence[float], n: int,
                      seed: int, theta_fixed: Optional[float] = None) -> Plan:
    """Log likelihood-ratio drift table under both measures, one stream per
    side read at every horizon; ``run()`` returns a list of ``DriftRow``.

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
    consumers = []
    for _, tag, fam in sides:
        accs = [(Moments(), Moments(), Moments()) for _ in horizons]

        def add(b, accs=accs):
            for T, triple in zip(horizons, accs):
                log_m = log_density_batch(b, T, change, include_xi=include_xi)
                for acc, x in zip(triple, (log_m, log_m < -5.0, log_m > 5.0)):
                    acc.add(x.astype(float, copy=False))

        consumers.append(Consumer((tag, seed, n, fam), add, accs, horizons,
                                  [(T, change.gamma) for T in horizons]))

    def finish() -> List[DriftRow]:
        results = [c.result() for c in consumers]
        # each side's mean of gamma(X) by the base claim law, e^gamma-weighted under Q
        egs = (expectation(base.claim_law, change.gamma),
               log_weighted_expectation(base.claim_law, change.gamma, f=change.gamma))
        laws = [stream_law(tag, base, derived)[:2] for _, tag, _ in sides]
        rows = []
        for i, T in enumerate(horizons):
            for (side, _, _), result, (mixing, rate), eg in zip(sides, results, laws, egs):
                acc, below, above = result[i]
                oracle = _drift_oracle(change, mixing, rate, eg, include_xi, T)
                drift = MCReport(f"log-density drift T={T:g} under {side}", acc.mean / T,
                                 acc.stderr / T, acc.n, oracle)
                rows.append(DriftRow(
                    horizon=T, side=side, mean_log_density=acc.mean, drift=drift,
                    sd=acc.sd, frac_below=below.mean, frac_above=above.mean))
        return rows

    return Plan(consumers, finish, base, derived)
