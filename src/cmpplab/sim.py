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
lane are drawn by ``simulate_batch``, which stores no arrival time and
no claim: the caller declares the reads it will make, N_t at each t and
the claim sums (S_t, and the sums of gamma(X) in a density), and the
arrival loop fills them as it runs.  Each step draws one claim an accepted
event, at (seed, path, claim lane, draw index): with the step's paths
ordered by accepted count, most first, draw k's accepted events lead that
order, so the claims are drawn, mapped (by the claim law, then each sum's
fn) and added packed, with no mask.  A sum adds its path's claims in event
order from +0 and is read after the path's N_t adds: the sequential sum of
its first N_t values, whatever the horizon and the other reads.  Any other
read (N_t or a claim sum not declared, ``times`` or ``claims``, as
``dump_paths`` and the demos read) runs the loop again with that read
declared.  A consumer reading no claim (a density with gamma = 0) draws
none.  The loop runs over row blocks of at
most ``_ROW_BLOCK`` paths, on W threads (``_spread``), the calling thread
among them: one per CPU the process may run on and no more than there are
blocks, and a batch of fewer than W * ``_ROW_BLOCK`` paths is split into W
blocks.  Each writes its own paths' values only, so the thread count
changes no bit, and a batch holds arrays of its path count plus at most W
row blocks of temporaries while the loop runs.

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

    Fields are read-only by convention.  A batch is simulated
    (``simulate_batch``) or given by its flat ``times`` and ``claims``.
    Its reads are N_t (``counts_at``), the claim sum (t, fn), every path's
    sum of fn(X_k) over its claims at times <= t (``claim_prefix_apply``;
    S_t for fn None, ``aggregates_at``), and the flat ``times`` and
    ``claims``.  Each is computed once per batch and kept read-only.  A
    simulated batch holds the reads its ``simulate_batch`` call declared,
    filled by its arrival loop, and ``rerun`` runs that loop again for any
    other read, with that read declared; a given batch takes its reads from
    its arrays.  A read that raises keeps nothing and raises again on the
    next read.  A sum is sequential: +0, then each of a path's first N_t
    values in event order, whatever the horizon or the other reads.
    """

    def __init__(self, thetas, counts, offsets, times, claims, horizon, rerun=None, kept=()):
        self.thetas = thetas      # (n,)
        self.counts = counts      # (n,) event counts
        self.offsets = offsets    # (n+1,) prefix offsets into times/claims
        self.horizon = horizon
        # _rerun(reads) gives the values of a list of reads (see _arrivals),
        # and _kept holds (read, value) pairs
        self._rerun = rerun or partial(_replay, times, claims, counts, offsets)
        self._kept = [(("N", horizon), counts.view()), *kept]
        for _, value in self._kept:
            value.flags.writeable = False

    @property
    def times(self) -> np.ndarray:
        """Flat event times."""
        return self._read(("times",))

    @property
    def claims(self) -> np.ndarray:
        """Flat claim sizes."""
        return self._read(("claims",))

    def __len__(self) -> int:
        return int(self.thetas.size)

    def counts_at(self, t: float) -> np.ndarray:
        """N_t of every path."""
        self._check(t)
        return self._read(("N", t))

    def aggregates_at(self, t: float) -> np.ndarray:
        """S_t of every path."""
        self._check(t)
        return self._read(("S", t, None))

    def claim_prefix_apply(self, t: float, fn: RealFn) -> np.ndarray:
        """Per-path sums of fn over claims with event time <= t.  A constant
        zero reads no claim: its per-claim sums, from +0, are +0."""
        self._check(t)
        if _reads_no_claim(fn):
            return np.zeros(len(self))
        return self._read(("S", t, fn))

    def _check(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:  # NaN included
            raise OutOfHorizon(f"t={t!r} outside [0, {self.horizon!r}]")

    def _read(self, read) -> np.ndarray:
        """The value of ``read``: kept, or from a rerun and then kept."""
        value = next((v for r, v in self._kept if r == read), None)
        if value is None:
            value, = self._rerun([read])
            value.flags.writeable = False
            self._kept.append((read, value))
        return value


def _reads_no_claim(fn: Optional[RealFn]) -> bool:
    """Whether fn is a constant zero, whose claim sums read no claim."""
    return fn is not None and const_value(fn.tree, fn.params) == 0.0


def _replay(times, claims, counts, offsets, reads) -> list:
    """The values of ``reads`` (see ``_arrivals``) of paths given by their
    flat arrays, taken as the arrival loop takes them: event k of every
    path that has one, for k = 0, 1, ..., each sum from +0 and an event
    after its t adding +0, chosen by selection."""
    flat = {"times": times, "claims": claims}
    out = [flat[r[0]].view() if len(r) == 1
           else np.zeros(counts.size, dtype=np.int64 if r[0] == "N" else float) for r in reads]
    rows = np.arange(counts.size)
    for k in range(counts.max(initial=0)):
        rows = rows[counts[rows] > k]
        at, x = times[offsets[rows] + k], claims[offsets[rows] + k]
        for r, v in zip(reads, out):
            if r[0] == "N":
                v[rows] += at <= r[1]
            elif r[0] == "S":
                v[rows] += np.where(at <= r[1], x if r[2] is None else r[2].eval_array(x), 0.0)
    return out


def _down(mask) -> np.ndarray:
    """The count of True down each column of a (draws, paths) mask of at
    most 255 draws, in uint8 adds (numpy's bool sum along a column is
    many times slower)."""
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.uint8).astype(np.int64)


def _running(fns, acc, order, x, m) -> list:
    """For each fn of ``fns``, its sums ``acc`` of the step's paths taken in
    ``order`` and then those after each draw of the step, (len(m) + 1,
    paths): draw k's accepted claims are the first m[k] of ``order``, packed
    row after row in ``x``, and add to those paths' sums only.  A path's
    sums after its k <= n accepted draws are read; the others are left
    unset."""
    out = []
    for fn, a in zip(fns, acc):
        values = x if fn is None else fn.eval_array(x)
        sums = np.empty((len(m) + 1,) + a.shape)
        np.take(a, order, out=sums[0])
        lo = 0
        for k, mk in enumerate(m):
            np.add(sums[k, :mk], values[lo:lo + mk], out=sums[k + 1, :mk])
            lo += mk
        out.append(sums)
    return out


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
    check) are independent.  N_t at each t of ``reads`` and of ``sums``, and
    each claim sum (t, fn) of ``sums`` (see ``PathBatch``), are declared:
    the arrival loop fills them, so the batch reads them with no rerun.
    """
    mixing, rate_fn, claim_law = stream_law(under, base, derived)
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    horizon = float(horizon)
    indices = np.arange(start_index, start_index + n, dtype=np.uint64) \
        + np.uint64(family * _FAMILY_STRIDE)
    keys = PathKeys.of(seed, indices)  # every lane below reuses them
    thetas = np.asarray(mixing.quantile(uniforms(seed, keys, LANE_MISC, 0)), dtype=float)
    rates = rate_fn.eval_array(thetas)
    sums = list(sums)
    declared = [("N", horizon)]  # the event counts
    for read in [*(("N", float(t)) for t in [*reads, *(t for t, _ in sums)]),
                 *(("S", float(t), fn) for t, fn in sums if not _reads_no_claim(fn))]:
        if 0.0 <= read[1] <= horizon and read not in declared:
            declared.append(read)
    counts, *values = _arrivals(seed, keys, rates, horizon, claim_law, declared)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return PathBatch(thetas=thetas, counts=counts, offsets=offsets, times=None, claims=None,
                     horizon=horizon, kept=zip(declared[1:], values),
                     rerun=partial(_arrivals, seed, keys, rates, horizon, claim_law,
                                   offsets=offsets))


def _arrivals(seed, keys, rates, horizon, law, reads, offsets=None) -> list:
    """The value of each read of ``reads`` on every path: N_t for ("N", t),
    the claim sum (t, fn) for ("S", t, fn), and the flat arrays of the
    layout ``offsets`` for ("times",) and ("claims",).  The loop runs over
    row blocks of at most _ROW_BLOCK paths, at least one a CPU, spread over
    threads (``_spread``), so its temporaries span one block a thread:
    a path's draws and roundings depend on its own draws only, and a block
    writes its own paths' values only, so the blocks change no bit."""
    n = rates.size
    values = [np.empty(int(offsets[-1])) if len(r) == 1
              else np.zeros(n, dtype=np.int64 if r[0] == "N" else float) for r in reads]
    fns: list = []  # the distinct fns of the claim sums, by ==
    for r in reads:
        if r[0] == "S" and r[2] not in fns:
            fns.append(r[2])
    at_t: dict = {}  # t -> (N_t's values or None, [(index of fn, sum's values)])
    for r, v in zip(reads, values):
        if len(r) > 1:
            counted, sums = at_t.get(r[1], (None, []))
            at_t[r[1]] = (v, sums) if r[0] == "N" else (counted, [*sums, (fns.index(r[2]), v)])
    flat = [(r[0], v) for r, v in zip(reads, values) if len(r) == 1]
    if horizon > 0.0 and n:
        block = min(_ROW_BLOCK, -(-n // _cpus()))
        law = law if fns or ("claims",) in reads else None  # None: no claim is drawn
        _spread(_arrive, [(seed, keys, rates, horizon, law, fns, list(at_t.items()), flat,
                           offsets, np.arange(lo, min(lo + block, n)))
                          for lo in range(0, n, block)])
    return values


def _arrive(seed, keys, rates, horizon, law, fns, pending, flat, offsets, rows):
    """The arrival loop of the paths ``rows`` (see ``_arrivals``).  It
    writes their entries of the values in ``pending``, (t, (N_t's values
    or None, [(index into fns, the values of a sum at t)])) each, and of
    the flat arrays in ``flat``, (name, array) each.  A step's draws are
    laid out draw-major, (width, running paths), so its running sums are
    whole-row adds (see the module docstring); unless ``law`` is None it
    draws one claim an accepted event, draw k's for the first m[k] paths
    of the step's order, packed, and the law maps them."""
    # the still-running paths, compacted: row, path key, negated rate, time of
    # the last completed block, the in-block partial sum carried into the
    # second sub-block (None at a block's start), and each fn's sum so far
    key = keys[rows]
    neg_rate = -rates[rows]
    last = np.zeros(rows.size)
    carry = None
    acc = [np.zeros(rows.size) for _ in fns]
    # one buffer a lane holds each step's uniforms: a fresh array a step is
    # often fresh pages, which the kernel must map and zero again
    buf = np.empty((1 if law is None else 2, rows.size * _BLOCK))
    drawn = 0  # every running path has drawn the same number of uniforms
    while rows.size:
        width = _HEAD if drawn == 0 else _BLOCK - drawn % _BLOCK
        start = last if carry is None else carry  # the time before the block
        pending = [(t, due) for t, due in pending if t >= start.min()]
        draws = (drawn + np.arange(width))[:, None]
        # interarrivals -ln(u) / rate, in place (negation is exact), then
        # their running sums from the last block's time
        csum = uniforms(seed, key[None, :], LANE_ARRIVAL, draws,
                        out=buf[0, :rows.size * width].reshape(width, rows.size))
        np.log(csum, out=csum)
        csum /= neg_rate
        if carry is not None:
            csum[0] += carry
        for k in range(1, width):
            csum[k] += csum[k - 1]
        csum += last
        ok = csum <= horizon
        # times never decrease: ok is a leading run of True down each column
        n_ok = _down(ok)
        if drawn + n_ok.max() > EVENT_CAP:
            raise SimulationError(
                f"a path exceeded the {EVENT_CAP} event cap before the horizon")
        running, order = [], slice(None)  # each fn's sums through the step, from acc
        if law is not None:  # claims at accepted events only
            # the paths by accepted count, most first: draw k's accepted
            # slots are the first m[k] = #(n_ok > k) of that order
            behind = (width - n_ok).astype(np.uint8)
            order = np.argsort(behind, kind="stable")
            m = np.cumsum(np.bincount(behind, minlength=width))[width - 1::-1]
            m = m[m > 0].tolist()
            key_order = key[order]
            x = buf[1, :sum(m)]  # the claims replace their uniforms
            x[...] = law.quantile(uniforms(seed, [key_order[:mk] for mk in m], LANE_CLAIM,
                                           drawn + np.arange(len(m)), out=x))
            running = _running(fns, acc, order, x, m)
            at = np.empty_like(order)  # the inverse of order
            at[order] = np.arange(order.size)
        # N_t and the sums at t are settled in the block that passes t (a
        # path's last block passes the horizon): with k the block's leading
        # run of times <= t, N_t is `drawn` + k and a sum its fn's sum after k
        for t, (counted, sums) in pending:
            cols = np.flatnonzero((start <= t) & (csum[-1] > t))
            if not cols.size:
                continue
            k = (n_ok if t == horizon else _down(csum <= t))[cols]
            if counted is not None:
                counted[rows[cols]] = drawn + k
            for i, v in sums:
                v[rows[cols]] = running[i][k, at[cols]]
        if flat:  # after the `drawn` events of every running path, in x's order
            packed = ok[:, order]
            slots = (offsets[rows[order]] + draws)[packed]
            for name, v in flat:
                v[slots] = csum[:, order][packed] if name == "times" else x
        drawn += width
        full = np.flatnonzero(n_ok == width)
        rows, key, neg_rate = rows[full], key[full], neg_rate[full]
        acc = [r[-1, :full.size].copy() for r in running]  # full leads order
        if drawn % _BLOCK:  # inside the first block, where last is 0: carry csum
            carry, last = csum[-1, full], last[full]
        else:
            carry, last = None, csum[-1, full]


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
    the call.  ``fn`` and ``items`` must not close over the batch: a kept
    error's traceback keeps its frames' functions, and so their closures."""
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
