"""Path simulation for compound mixed Poisson processes.

The construction is two-stage: draw the mixing parameter theta (or fix
it, for the conditional measures), then run a compound Poisson process
at rate theta on the base side or g(theta) on the derived side,
accumulating exponential interarrivals until the next arrival would
exceed the horizon.  Events landing exactly on a query time t count
(the counting path is right-continuous); the partial interarrival past
the horizon is never stored.

Draw layout per path (see rng): lane 0 draw 0 is theta, lane 1 holds
interarrival uniforms, lane 2 claim uniforms.  A batch computes each
path's key (``rng.PathKeys``) once and draws every lane from it; the
draws are those of the rng contract, unchanged.  Theta and the arrival
lane are drawn by ``simulate_batch``; the claim lane is drawn, and the
accepted arrivals are scattered into ``times``, on a batch's first read
of ``claims`` or ``times``, so a consumer that reads neither (a density
with gamma = 0 at the horizon) pays for neither.  Interarrivals accumulate
in blocks of 16 draws, event k of a block at (time of the last full block) +
(the block's k-th partial sum); the first block is filled in two
sub-blocks, 4 draws and then 12 for paths that accepted all 4, with the
partial sum carried across, so a short path draws few uniforms and every
rounding still depends on (seed, path index) alone.  The batch engine
performs the construction vectorized, and every quantile transform (the
Gamma, Beta and Tilted laws' table evaluations included) maps each
uniform on its own, so path i of a batch equals the one-path batch
``simulate_batch(..., n=1, start_index=i)`` under the same seed bit for
bit, whatever the batch's size or start index.

A hard cap of 10^7 events per path turns a runaway intensity into a
diagnostic instead of an endless loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

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
            if self.theta is None or not self.theta > 0:
                raise ValueError("conditional tags need a positive theta")
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

    Fields are read-only by convention.  ``times`` and ``claims`` are
    given as arrays or as deferred draws (functions of no argument): a
    draw runs on the field's first read and its array is kept, while a
    draw that raises is kept as it was and raises again on the next read.
    ``counts_at`` and ``aggregates_at`` compute each t once per batch and
    return read-only arrays.
    """

    def __init__(self, thetas, counts, offsets, times, claims, horizon):
        self.thetas = thetas      # (n,)
        self.counts = counts      # (n,) event counts
        self.offsets = offsets    # (n+1,) prefix offsets into times/claims
        self.horizon = horizon
        self._flat = {"times": times, "claims": claims}
        self._memo: dict = {}

    times = property(lambda self: self._read("times"), doc="flat event times")
    claims = property(lambda self: self._read("claims"), doc="flat claim sizes")

    def _read(self, name: str) -> np.ndarray:
        if callable(self._flat[name]):
            self._flat[name] = self._flat[name]()
        return self._flat[name]

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
        zero = const_value(fn.tree, fn.params)
        if zero == 0.0 and not np.signbit(zero):
            return np.zeros(len(self))
        return self._claim_sums(t, fn.eval_array)

    def _check(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:  # NaN included
            raise OutOfHorizon(f"t={t!r} outside [0, {self.horizon!r}]")

    def _at(self, kind: str, t: float) -> np.ndarray:
        self._check(t)
        key = (kind, t)
        if key not in self._memo:
            out = self._functional(kind, t)
            out.flags.writeable = False
            self._memo[key] = out
        return self._memo[key]

    def _functional(self, kind: str, t: float) -> np.ndarray:
        """N_t ("N") or S_t ("S") of every path, computed afresh."""
        if kind == "S":
            return self._claim_sums(t, lambda x: x)
        if t == self.horizon:  # every event counts
            return self.counts.view()
        return self._path_sums(lambda b, lo, hi: b.times[lo:hi] <= t, np.int64)

    def _claim_sums(self, t: float, fn) -> np.ndarray:
        """Per-path sums of fn(claims) over the events at times <= t."""
        def vals(b, lo, hi):
            if t == b.horizon:  # every event counts
                return fn(b.claims[lo:hi])
            # times before claims: the scatter frees the arrival chunks
            # before the claim lane is drawn, which sets the peak memory
            upto = b.times[lo:hi] <= t
            return np.where(upto, fn(b.claims[lo:hi]), 0.0)

        return self._path_sums(vals, float)

    def _path_sums(self, vals, dtype) -> np.ndarray:
        """Per-path sums of ``vals(batch, lo, hi)``, the values of flat events
        lo to hi, taken for runs of paths (no temporary spans the batch).
        Each sum is over its own path's segment only, so a path's sum is the
        one it has alone (0 for no events), whatever the runs.  ``vals`` is
        given the batch rather than closing over it: a kept error's
        traceback keeps its frames' functions, and so their closures."""
        out = np.zeros(len(self), dtype=dtype)
        for a, b in _runs(self.offsets):
            nonempty = self.counts[a:b] > 0
            if nonempty.any():
                lo = self.offsets[a]
                out[a:b][nonempty] = np.add.reduceat(
                    vals(self, lo, self.offsets[b]), self.offsets[a:b][nonempty] - lo,
                    dtype=dtype)
        return out


# ---------------------------------------------------------------------------
# simulation

def _resolve_theta_and_rate(base, derived, under, seed, keys):
    if under.is_conditional:
        thetas = np.full(keys.state.size, under.theta)
    else:
        u = uniforms(seed, keys, LANE_MISC, 0)
        law = derived.q_mixing if under.is_q_side else base.mixing_law
        thetas = np.asarray(law.quantile(u), dtype=float)
    rate_fn = derived.g if under.is_q_side else base.rate_fn
    return thetas, rate_fn.eval_array(thetas)


def simulate_batch(base: BaseModel, derived: Optional[DerivedModel],
                   under: MeasureTag, horizon: float, seed: int,
                   n: int, start_index: int = 0, family: int = 0) -> PathBatch:
    """Simulate n paths with per-path counter streams.

    ``family`` selects a disjoint block of path indices so that two
    batches under the same seed (e.g. the two sides of a reweighting
    check) are independent.
    """
    if under.is_q_side and derived is None:
        raise ValueError(f"measure {under} requires a derived model")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    indices = np.arange(start_index, start_index + n, dtype=np.uint64) \
        + np.uint64(family * _FAMILY_STRIDE)
    keys = PathKeys.of(seed, indices)  # every lane below reuses them
    thetas, rates = _resolve_theta_and_rate(base, derived, under, seed, keys)

    counts = np.zeros(n, dtype=np.int64)
    chunks: list[tuple[np.ndarray, int, np.ndarray, np.ndarray]] = []
    # the still-running paths, compacted: row, path key, negated rate, time of
    # the last completed block, and the in-block partial sum carried into the
    # second sub-block (None at a block's start)
    rows = np.arange(n)
    key = keys[:, None]
    neg_rate = -rates[:, None]
    last = np.zeros((n, 1))
    carry = None
    drawn = 0  # every running path has drawn the same number of uniforms
    while horizon > 0.0 and rows.size:
        width = _HEAD if drawn == 0 else _BLOCK - drawn % _BLOCK
        # interarrivals -ln(u) / rate, in place (negation is exact), then
        # their running sums from the last block's time
        csum = uniforms(seed, key, LANE_ARRIVAL, drawn + np.arange(width))
        np.log(csum, out=csum)
        csum /= neg_rate
        if carry is not None:
            csum[:, 0] += carry
        np.cumsum(csum, axis=1, out=csum)
        csum += last
        ok = csum <= horizon
        n_ok = ok.sum(axis=1)
        # accepted times row-major (by path, in time order), after the
        # `drawn` events every running path has had so far
        chunks.append((rows, drawn, ok, csum[ok]))
        counts[rows] += n_ok
        if drawn + n_ok.max() > EVENT_CAP:
            raise SimulationError(
                f"a path exceeded the {EVENT_CAP} event cap before the horizon")
        drawn += width
        full = n_ok == width
        rows, key, neg_rate = rows[full], key[full], neg_rate[full]
        if drawn % _BLOCK:  # inside the first block, where last is 0: carry csum
            carry, last = csum[full, -1], last[full]
        else:
            carry, last = None, csum[full, -1:]

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    claim_law = derived.q_claim if under.is_q_side else base.claim_law
    return PathBatch(thetas=thetas, counts=counts, offsets=offsets,
                     times=partial(_scatter, chunks, offsets),
                     claims=partial(_draw_claims, seed, keys, counts, offsets, claim_law),
                     horizon=float(horizon))


def _scatter(chunks, offsets):
    """The accepted arrival times of every chunk, placed path by path."""
    times = np.empty(int(offsets[-1]))
    for rows, before, ok, accepted in chunks:
        dest = offsets[rows, None] + np.arange(before, before + ok.shape[1])
        times[dest[ok]] = accepted
    return times


def _runs(offsets):
    """(first, end) path ranges of about _CLAIM_BLOCK events each, in order,
    covering every path of the flat layout ``offsets``."""
    n = offsets.size - 1
    step = max(1, _CLAIM_BLOCK * n // max(1, int(offsets[-1])))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def _draw_claims(seed, keys, counts, offsets, law):
    """Claim k of a path is law.quantile of its claim-lane draw k, drawn for
    runs of paths (no temporary spans the batch; each uniform maps on its
    own, so the runs change no bit)."""
    claims = np.empty(int(offsets[-1]))
    for a, b in _runs(offsets):
        lo, hi = offsets[a], offsets[b]
        draws = np.arange(hi - lo) - np.repeat(offsets[a:b] - lo, counts[a:b])
        u = uniforms(seed, keys[a:b].repeat(counts[a:b]), LANE_CLAIM, draws)
        claims[lo:hi] = law.quantile(u)
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
