"""Path simulation for compound mixed Poisson processes.

The construction is two-stage: draw the mixing parameter theta, then run
a compound Poisson process at rate theta on the base side or g(theta) on
the derived side, accumulating exponential interarrivals until the next
arrival would exceed the horizon; ``stream_law`` gives a measure tag's
mixing law, rate function and claim law.  Events landing exactly on a
query time t count (the counting path is right-continuous); the partial
interarrival past the horizon is never stored.

Draw layout per path (see rng): lane 0 draw 0 is theta under every tag
(a conditional tag's mixing law is theta's point mass), lane 1 holds
interarrival uniforms, lane 2 claim uniforms.  A batch computes each
path's key (``rng.PathKeys``) once and draws every lane from it; the
draws are those of the rng contract, unchanged.  Theta and the arrival
lane are drawn by ``simulate_batch``, which stores no arrival time but
counts N_t at each t the caller will read; its arrival loop runs over
blocks of ``_ROW_BLOCK`` paths, so its temporaries span one block.  The
caller also declares the claim sums it will read (S_t, and the sums of
gamma(X) in a density): the first read of one fills them all in one pass
over runs of about ``_CLAIM_BLOCK`` events, which draws a run's claims to
the horizon, adds them into every declared sum and drops them; a sum not
declared takes such a pass of its own.  Row blocks run on W threads
(``_spread``), the calling thread among them: one per CPU the process may
run on and no more than there are blocks; each writes its own paths'
values only, so the thread count changes no bit.  Claim runs run on the
calling thread.  So a batch holds arrays of its path count, plus at most W
row blocks of arrival temporaries while it is simulated and one run of
claims while a sum is taken.  A read of ``claims`` or ``times``
(``dump_paths``, the demos) draws the batch's full array: ``claims`` on its
first read, and ``times`` by running the arrival loop again.  A consumer
reading no claim (a density with gamma = 0) draws none.

Interarrivals accumulate in blocks of 16 draws, event k of a block at
(time of the last full block) + (the block's k-th partial sum); the first
block is filled in two sub-blocks, 4 draws and then 12 for paths that
accepted all 4, with the partial sum carried across, so a short path
draws few uniforms and every rounding still depends on (seed, path index)
alone.  A step's draws are laid out draw-major, one row per draw index
across the running paths, so its partial sums are whole-row adds, in the
order ``np.cumsum`` adds along a path.  The batch engine performs the
construction vectorized, and every quantile transform (the Gamma, Beta
and Tilted laws' table evaluations included) maps each uniform on its
own, so path i of a batch equals the one-path batch
``simulate_batch(..., n=1, start_index=i)`` under the same seed bit for
bit, whatever the batch's size or start index.

A hard cap of 10^7 events per path turns a runaway intensity into a
diagnostic instead of an endless loop.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Tuple

import numpy as np

from .dist import Degenerate, Distribution
from .expr import DomainError, RealFn, const_value
from .model import BaseModel, DerivedModel, MeasureChange
from .rng import LANE_ARRIVAL, LANE_CLAIM, LANE_MISC, PathKeys, uniforms

EVENT_CAP = 10_000_000
_FAMILY_STRIDE = 1 << 40  # disjoint path-index families for independent batches
# interarrival accumulation blocks, and the first sub-block of a path's first
# block (see the module docstring)
_BLOCK = 16
_HEAD = 4
_CLAIM_BLOCK = 1 << 16  # events a run of paths draws or sums at a time (see _runs)
_ROW_BLOCK = 1 << 14  # paths the arrival loop runs at a time (see _arrivals)


class SimulationError(RuntimeError):
    pass


class OutOfHorizon(ValueError):
    pass


# ---------------------------------------------------------------------------
# measure tags

@dataclass(frozen=True)
class MeasureTag:
    """Which of the four measures paths are simulated under."""

    kind: str                      # base_p | derived_q | conditional_p | conditional_q
    theta: Optional[float] = None

    def __post_init__(self):
        if self.kind in ("conditional_p", "conditional_q"):
            if self.theta is None or not 0 < self.theta < np.inf:
                raise ValueError("conditional tags need a positive finite theta")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} does not carry a theta")

    @property
    def is_conditional(self) -> bool:
        return self.theta is not None

    @property
    def is_q_side(self) -> bool:
        return self.kind in ("derived_q", "conditional_q")

    def __str__(self) -> str:
        if self.is_conditional:
            return f"{self.kind}(theta={self.theta:g})"
        return self.kind


BASE_P = MeasureTag("base_p")
DERIVED_Q = MeasureTag("derived_q")


def conditional_p(theta: float) -> MeasureTag:
    return MeasureTag("conditional_p", float(theta))


def conditional_q(theta: float) -> MeasureTag:
    return MeasureTag("conditional_q", float(theta))


# ---------------------------------------------------------------------------
# paths

class PathBatch:
    """Column-oriented batch of paths (flat ragged arrays); a one-path
    batch is a single path.

    Fields are read-only by convention.  ``times`` is given as an array or
    as a deferred draw (a function of no argument), and ``claims`` as an
    array or as the run draw ``claims(a, z, m)``, which gives the first
    m[i] claims of each path a..z-1.  A deferred field is drawn on its first
    read and its array kept (``claims`` by ``_draw_claims``), while a draw
    that raises is kept as it was and raises again on the next read.
    ``counts_at`` and ``aggregates_at`` compute each t once per batch and
    return read-only arrays; N_t at a t not in ``counted`` reads ``times``.

    A claim sum (t, fn) is every path's sum of fn(X_k) over its claims at
    times <= t: ``claim_prefix_apply(t, fn)``, and S_t for fn None.  Sums
    are taken in one pass over runs of paths, which draws each run's claims
    to the horizon (or reads them from ``claims`` once drawn), adds them
    into every sum of the pass and drops them.  The declared ``sums``, each
    once by equality, share the pass of the first read of one; they are
    kept read-only, and a pass that raises keeps nothing.  A sum not
    declared takes a pass of its own.
    """

    def __init__(self, thetas, counts, offsets, times, claims, horizon, counted=None, sums=()):
        self.thetas = thetas      # (n,)
        self.counts = counts      # (n,) event counts
        self.offsets = offsets    # (n+1,) prefix offsets into times/claims
        self.horizon = horizon
        self._times, self._claims = times, claims
        self._memo: dict = {("N", t): n_t for t, n_t in (counted or {}).items()}
        # the declared sums that read a claim, and their values once a pass
        # filled them
        self._sums: list = []
        for t, fn in sums:
            if 0.0 <= t <= horizon and not _reads_no_claim(fn) and (t, fn) not in self._sums:
                self._sums.append((t, fn))
        self._filled: Optional[list] = None

    @property
    def times(self) -> np.ndarray:
        """Flat event times."""
        if callable(self._times):
            self._times = self._times()
        return self._times

    @property
    def claims(self) -> np.ndarray:
        """Flat claim sizes."""
        if callable(self._claims):
            self._claims = _draw_claims(self._claims, self.counts, self.offsets)
        return self._claims

    def __len__(self) -> int:
        return int(self.thetas.size)

    def counts_at(self, t: float) -> np.ndarray:
        """N_t of every path."""
        return self._at("N", t)

    def aggregates_at(self, t: float) -> np.ndarray:
        """S_t of every path."""
        return self._at("S", t)

    def claim_prefix_apply(self, t: float, fn: RealFn) -> np.ndarray:
        """Per-path sums of fn over claims with event time <= t.  The
        constant +0 reads no claim: its per-claim sums are +0 bit for bit."""
        self._check(t)
        if _reads_no_claim(fn):
            return np.zeros(len(self))
        return self._claim_sum(t, fn)

    def _check(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:  # NaN included
            raise OutOfHorizon(f"t={t!r} outside [0, {self.horizon!r}]")

    def _at(self, kind: str, t: float) -> np.ndarray:
        self._check(t)
        key = (kind, t)
        if key not in self._memo:
            self._memo[key] = self._functional(kind, t)
        self._memo[key].flags.writeable = False
        return self._memo[key]

    def _functional(self, kind: str, t: float) -> np.ndarray:
        """N_t ("N") or S_t ("S") of every path, computed afresh."""
        if kind == "S":
            return self._claim_sum(t, None)
        if t == self.horizon:  # every event counts
            return self.counts.view()
        return self._path_sums(lambda b, a, z: [b.times[b.offsets[a]:b.offsets[z]] <= t],
                               [np.int64])[0]

    def _claim_sum(self, t: float, fn: Optional[RealFn]) -> np.ndarray:
        """The claim sum (t, fn): declared, from the pass that fills them
        all; otherwise from a pass of its own."""
        if (t, fn) not in self._sums:
            return self._sum_runs([(t, fn)])[0]
        if self._filled is None:
            filled = self._sum_runs(self._sums)
            for out in filled:
                out.flags.writeable = False
            self._filled = filled
        return self._filled[self._sums.index((t, fn))]

    def _sum_runs(self, sums) -> list:
        """The claim sums ``sums``, in one pass over runs of paths (see
        ``_path_sums``): a run's claims are added into every sum, those
        after a path's N_t as zeros, and dropped."""
        upto = [self.counts if t == self.horizon else self.counts_at(t) for t, _ in sums]
        return self._path_sums(partial(_run_claim_values, sums, upto), [float] * len(sums))

    def _path_sums(self, vals, dtypes) -> list:
        """Per-path sums, one array of each dtype, of the arrays of values
        ``vals(batch, a, z)`` gives (one a dtype) for the events of paths a
        to z, taken for runs of paths (no temporary spans the batch).  Each
        sum is over its own path's segment only, so a path's sum is the one
        it has alone (0 for no events), whatever the runs.  ``vals`` is
        given the batch rather than closing over it: a kept error's
        traceback keeps its frames' functions, and so their closures."""
        outs = [np.zeros(len(self), dtype=dtype) for dtype in dtypes]
        for a, z in _runs(self.offsets):
            nonempty = self.counts[a:z] > 0
            if nonempty.any():
                starts = self.offsets[a:z][nonempty] - self.offsets[a]
                for out, v in zip(outs, vals(self, a, z)):
                    out[a:z][nonempty] = np.add.reduceat(v, starts, dtype=out.dtype)
        return outs


def _run_claim_values(sums, upto, b: PathBatch, a: int, z: int):
    """For each claim sum (t, fn) of ``sums``, fn of every claim of paths
    a..z-1 of ``b``, those after N_t (``upto``) as zeros."""
    counts = b.counts[a:z]
    src = b._claims
    claims = src(a, z, counts) if callable(src) else src[b.offsets[a]:b.offsets[z]]
    for (t, fn), n_t in zip(sums, upto):
        vals = claims if fn is None else fn.eval_array(claims)
        yield vals if t == b.horizon else np.where(_leading(n_t[a:z], counts), vals, 0.0)


def _reads_no_claim(fn: Optional[RealFn]) -> bool:
    """Whether fn is the constant +0, whose claim sums are +0 bit for bit."""
    zero = None if fn is None else const_value(fn.tree, fn.params)
    return zero == 0.0 and not np.signbit(zero)


def _leading(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For the events of paths with ``counts`` events, flat: whether an
    event is among the first ``first`` of its path."""
    return np.repeat(np.tile((True, False), first.size),
                     np.column_stack((first, counts - first)).ravel())


# ---------------------------------------------------------------------------
# simulation

def stream_law(under: MeasureTag, base: BaseModel, derived: Optional[DerivedModel]
               ) -> Tuple[Distribution, RealFn, Distribution]:
    """(mixing law, rate function, claim law) of the paths under ``under``:
    (P_Theta, theta, P_X) on the base side, (Q_Theta, g, Q_X) on the
    derived side, with the mixing law theta's point mass for a conditional
    tag."""
    if under.is_q_side and derived is None:
        raise ValueError(f"measure {under} requires a derived model")
    mixing, rate, claim = (derived.q_mixing, derived.g, derived.q_claim) if under.is_q_side \
        else (base.mixing_law, base.rate_fn, base.claim_law)
    return (Degenerate(under.theta) if under.is_conditional else mixing), rate, claim


def simulate_batch(base: BaseModel, derived: Optional[DerivedModel],
                   under: MeasureTag, horizon: float, seed: int,
                   n: int, start_index: int = 0, family: int = 0,
                   reads: Iterable[float] = (),
                   sums: Iterable[Tuple[float, Optional[RealFn]]] = ()) -> PathBatch:
    """Simulate n paths with per-path counter streams.

    ``family`` selects a disjoint block of path indices so that two
    batches under the same seed (e.g. the two sides of a reweighting
    check) are independent.  N_t at each t of ``reads`` and of ``sums`` is
    counted with the paths, so N_t and S_t there read no event time.  Each
    (t, fn) of ``sums`` declares a claim sum (see ``PathBatch``), so the
    batch reads it with no claim array.
    """
    mixing, rate_fn, claim_law = stream_law(under, base, derived)
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    indices = np.arange(start_index, start_index + n, dtype=np.uint64) \
        + np.uint64(family * _FAMILY_STRIDE)
    keys = PathKeys.of(seed, indices)  # every lane below reuses them
    thetas = np.asarray(mixing.quantile(uniforms(seed, keys, LANE_MISC, 0)), dtype=float)
    rates = rate_fn.eval_array(thetas)
    sums = list(sums)
    counts, counted = _arrivals(seed, keys, rates, horizon, [*reads, *(t for t, _ in sums)])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return PathBatch(thetas=thetas, counts=counts, offsets=offsets,
                     times=partial(_draw_times, seed, keys, rates, horizon, offsets),
                     claims=partial(_claim_run, seed, keys, claim_law),
                     horizon=float(horizon), counted=counted, sums=sums)


def _arrivals(seed, keys, rates, horizon, reads=(), times=None, offsets=None):
    """Every path's event count and its N_t at each t of ``reads`` in
    [0, horizon); given ``times``, each accepted time goes to its flat slot.
    The loop runs over blocks of _ROW_BLOCK paths, spread over threads
    (``_spread``), so its temporaries span one block a thread: a
    path's draws and roundings depend on its own draws only, and a block
    writes its own rows only, so the blocks change no bit."""
    n = rates.size
    counts = np.zeros(n, dtype=np.int64)
    counted = {float(t): np.zeros(n, dtype=np.int64) for t in reads if 0.0 <= t < horizon}
    if horizon > 0.0:
        _spread(_arrive, [(seed, keys, rates, horizon, np.arange(lo, min(lo + _ROW_BLOCK, n)),
                           counts, counted, times, offsets) for lo in range(0, n, _ROW_BLOCK)])
    return counts, counted


def _arrive(seed, keys, rates, horizon, rows, counts, counted, times, offsets):
    """The arrival loop of the paths ``rows`` (see ``_arrivals``): their
    counts and N_t go to ``counts`` and ``counted``, their times to ``times``.
    A step's draws are laid out draw-major, (width, running paths), so its
    running sums are whole-row adds (see the module docstring)."""
    # the still-running paths, compacted: row, path key, negated rate, time of
    # the last completed block, and the in-block partial sum carried into the
    # second sub-block (None at a block's start)
    key = keys[rows]
    neg_rate = -rates[rows]
    last = np.zeros(rows.size)
    carry = None
    # one buffer holds each step's uniforms and partial sums: a fresh array a
    # step is often fresh pages, which the kernel must map and zero again
    buf = np.empty(rows.size * _BLOCK)
    pending = sorted(counted)  # the t that some running path has not passed
    drawn = 0  # every running path has drawn the same number of uniforms
    while rows.size:
        width = _HEAD if drawn == 0 else _BLOCK - drawn % _BLOCK
        start = last if carry is None else carry  # the time before the block
        pending = [t for t in pending if t >= start.min()]
        # interarrivals -ln(u) / rate, in place (negation is exact), then
        # their running sums from the last block's time
        csum = uniforms(seed, key[None, :], LANE_ARRIVAL, (drawn + np.arange(width))[:, None],
                        out=buf[:rows.size * width].reshape(width, rows.size))
        np.log(csum, out=csum)
        csum /= neg_rate
        if carry is not None:
            csum[0] += carry
        for k in range(1, width):
            csum[k] += csum[k - 1]
        csum += last
        ok = csum <= horizon
        # times never decrease: ok is a leading run of True down each column
        n_ok = ok.sum(axis=0)
        counts[rows] += n_ok
        # N_t is settled in the block that passes t (a path's last block
        # passes the horizon): `drawn`, plus its leading run of times <= t
        for t in pending:
            passing = (start <= t) & (csum[-1] > t)
            counted[t][rows[passing]] = drawn + (csum[:, passing] <= t).sum(axis=0)
        if times is not None:  # after the `drawn` events of every running path
            times[(offsets[rows] + np.arange(drawn, drawn + width)[:, None])[ok]] = csum[ok]
        if drawn + n_ok.max() > EVENT_CAP:
            raise SimulationError(
                f"a path exceeded the {EVENT_CAP} event cap before the horizon")
        drawn += width
        full = n_ok == width
        rows, key, neg_rate = rows[full], key[full], neg_rate[full]
        if drawn % _BLOCK:  # inside the first block, where last is 0: carry csum
            carry, last = csum[-1, full], last[full]
        else:
            carry, last = None, csum[-1, full]


def _draw_times(seed, keys, rates, horizon, offsets):
    """The accepted arrival times, path by path: the batch's loop run again."""
    times = np.empty(int(offsets[-1]))
    _arrivals(seed, keys, rates, horizon, times=times, offsets=offsets)
    return times


def _runs(offsets):
    """(first, end) path ranges of about _CLAIM_BLOCK events each, in order,
    covering every path of the flat layout ``offsets``."""
    n = offsets.size - 1
    step = max(1, _CLAIM_BLOCK * n // max(1, int(offsets[-1])))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def _cpus() -> int:
    """The CPUs this process may run on: the most threads a call uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spread(fn, items) -> None:
    """fn(*item) for each item, on up to ``_cpus()`` threads, the calling
    thread one of them (numpy releases the GIL in its kernels); with one
    worker the calling thread runs them all, in order, and starts no thread.
    Each item must write its own rows only, so the threads change no bit.
    The first failing item's error, in order, is raised, as the serial loop
    would raise it; no item starts after one failed, and no thread outlives
    the call.  ``fn`` and ``items`` must not close over the batch (see
    ``PathBatch._path_sums``)."""
    failed: dict = {}  # item index -> its error
    work = (fn, items, iter(range(len(items))), failed, threading.Lock())
    threads = [threading.Thread(target=_take, args=work)
               for _ in range(min(len(items), _cpus()) - 1)]
    for thread in threads:
        thread.start()
    try:
        _take(*work)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]


def _take(fn, items, order, failed, lock) -> None:
    """A ``_spread`` worker: run the next item of ``order`` until none is
    left or one has failed.  It is no closure, so a kept error's traceback,
    which keeps its frames' functions, holds no item."""
    while True:
        with lock:
            i = None if failed else next(order, None)
        if i is None:
            return
        try:
            fn(*items[i])
        except BaseException as e:  # raised by _spread, the first in item order
            with lock:
                failed[i] = e
            return


def _claim_run(seed, keys, law, a, z, m):
    """The first m[i] claims of each path a..z-1, flat: claim k of a path is
    law.quantile of its claim-lane draw k.  Each uniform maps on its own, so
    no run or count changes a bit."""
    draws = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m)
    return law.quantile(uniforms(seed, keys[a:z].repeat(m), LANE_CLAIM, draws))


def _draw_claims(draw, counts, offsets):
    """Every claim of the batch, drawn by ``draw`` for runs of paths (no
    temporary but the result spans the batch)."""
    claims = np.empty(int(offsets[-1]))
    for a, b in _runs(offsets):
        claims[offsets[a]:offsets[b]] = draw(a, b, counts[a:b])
    return claims


# ---------------------------------------------------------------------------
# likelihood-ratio density along a path

def log_density_batch(batch: PathBatch, t: float, change: MeasureChange,
                      include_xi: bool = True) -> np.ndarray:
    """log of the likelihood-ratio martingale at time t on every path.

    With include_xi the unconditional density ln M_t = ln xi(theta)
    + N_t alpha(theta) + sum_{k<=N_t} gamma(X_k)
    - t theta (e^{alpha(theta)} - 1); without it, the conditional
    density ln M~_t (no xi term).  DomainError where xi <= 0.
    """
    alphas = change.alpha.eval_array(batch.thetas)
    counts = batch.counts_at(t)
    out = counts * alphas - t * batch.thetas * np.expm1(alphas)
    out += batch.claim_prefix_apply(t, change.gamma)
    if include_xi:
        xi = change.xi.eval_array(batch.thetas)
        if (xi <= 0.0).any():
            raise DomainError("xi is not positive at a simulated theta")
        out += np.log(xi)
    return out


# ---------------------------------------------------------------------------
# path dump format: one line per path, full double precision

def dump_paths(batch: PathBatch, fh) -> None:
    """Write one record per path: theta, horizon, times, claims."""
    for i in range(len(batch)):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        times = " ".join(f"{v:.17g}" for v in batch.times[lo:hi])
        claims = " ".join(f"{v:.17g}" for v in batch.claims[lo:hi])
        fh.write(f"theta={batch.thetas[i]:.17g} horizon={batch.horizon:.17g} "
                 f"times=[{times}] claims=[{claims}]\n")
