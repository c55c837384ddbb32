"""Path simulation for compound mixed Poisson processes.

The construction is two-stage: draw the mixing parameter theta (or fix
it, for the conditional measures), then run a compound Poisson process
at rate h(theta) on the base side or g(theta) on the derived side,
accumulating exponential interarrivals until the next arrival would
exceed the horizon.  Events landing exactly on a query time t count
(the counting path is right-continuous); the partial interarrival past
the horizon is never stored.

Draw layout per path (see rng): lane 0 draw 0 is theta, lane 1 holds
interarrival uniforms, lane 2 claim uniforms.  A batch computes each
path's key (``rng.PathKeys``) once and draws all three lanes from it; the
draws are those of the rng contract, unchanged.  Interarrivals accumulate
in blocks of 16 draws, event k of a block at (time of the last full block) +
(the block's k-th partial sum); the first block is filled in two
sub-blocks, 4 draws and then 12 for paths that accepted all 4, with the
partial sum carried across, so a short path draws few uniforms and every
rounding still depends on (seed, path index) alone.  The batch engine
performs the construction vectorized, and every quantile transform (the
Gamma and Tilted laws' table-started inversions included) maps each
uniform on its own, so ``simulate_path`` with stream (seed, i) and path i
of a batch under the same seed are bit-identical, whatever the batch's
size or start index.

A hard cap of 10^7 events per path turns a runaway intensity into a
diagnostic instead of an endless loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dist import log_weighted_expectation
from .expr import DomainError, RealFn
from .model import BaseModel, DerivedModel, MeasureChange, _pair_key, derive_g
from .rng import LANE_ARRIVAL, LANE_CLAIM, LANE_MISC, PathKeys, RngStream, uniforms

EVENT_CAP = 10_000_000
_FAMILY_STRIDE = 1 << 40  # disjoint path-index families for independent batches
# interarrival accumulation blocks, and the first sub-block of a path's first
# block (see the module docstring)
_BLOCK = 16
_HEAD = 4


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

@dataclass(frozen=True)
class Path:
    """One trajectory: realized theta, event times, claim sizes, horizon."""

    theta: float
    event_times: np.ndarray
    claims: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.event_times, dtype=float)
        claims = np.asarray(self.claims, dtype=float)
        object.__setattr__(self, "event_times", times)
        object.__setattr__(self, "claims", claims)
        if times.shape != claims.shape:
            raise ValueError("event_times and claims must have equal length")
        if times.size and not (np.diff(times) > 0.0).all():
            raise ValueError("event times must be strictly increasing")
        if times.size and not (times > 0.0).all():
            raise ValueError("event times must be positive")
        if times.size and times[-1] > self.horizon:
            raise ValueError("event times must not exceed the horizon")
        if claims.size and not (claims > 0.0).all():
            raise ValueError("claims must be positive")

    def __len__(self) -> int:
        return int(self.event_times.size)

    def as_batch(self) -> "PathBatch":
        """This path as a one-path PathBatch; the scalar path functions are
        entry [0] of the matching batch functions."""
        n = len(self)
        return PathBatch(thetas=np.array([float(self.theta)]),
                         counts=np.array([n], dtype=np.int64),
                         offsets=np.array([0, n], dtype=np.int64),
                         times=self.event_times, claims=self.claims,
                         horizon=self.horizon)

    def count_at(self, t: float) -> int:
        """N_t: number of events up to and including t."""
        return int(self.as_batch().counts_at(t)[0])

    def aggregate_at(self, t: float) -> float:
        """S_t: sum of the first N_t claims."""
        return float(self.as_batch().aggregates_at(t)[0])


def count_at(path: Path, t: float) -> int:
    return path.count_at(t)


def aggregate_at(path: Path, t: float) -> float:
    return path.aggregate_at(t)


@dataclass
class PathBatch:
    """Column-oriented batch of paths (flat ragged arrays).

    Fields are read-only by convention; verify-side estimators consume
    batches directly instead of materializing per-path objects.
    ``counts_at`` and ``aggregates_at`` compute each t once per batch and
    return read-only arrays.
    """

    thetas: np.ndarray     # (n,)
    counts: np.ndarray     # (n,) event counts
    offsets: np.ndarray    # (n+1,) prefix offsets into times/claims
    times: np.ndarray      # flat event times
    claims: np.ndarray     # flat claim sizes
    horizon: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.thetas.size)

    def path(self, i: int) -> Path:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Path(float(self.thetas[i]), self.times[lo:hi].copy(),
                    self.claims[lo:hi].copy(), self.horizon)

    def counts_at(self, t: float) -> np.ndarray:
        """N_t of every path."""
        return self._at("N", t)

    def aggregates_at(self, t: float) -> np.ndarray:
        """S_t of every path."""
        return self._at("S", t)

    def claim_prefix_apply(self, t: float, fn: RealFn) -> np.ndarray:
        """Per-path sums of fn over claims with event time <= t."""
        vals = np.where(self.times <= t, fn.eval_array(self.claims), 0.0) \
            if self.claims.size else np.zeros(0)
        return self._path_sums(vals, float)

    def _at(self, kind: str, t: float) -> np.ndarray:
        if t < 0.0 or t > self.horizon:
            raise OutOfHorizon(f"t={t!r} outside [0, {self.horizon!r}]")
        key = (kind, t)
        if key not in self._memo:
            out = self._functional(kind, t)
            out.flags.writeable = False
            self._memo[key] = out
        return self._memo[key]

    def _functional(self, kind: str, t: float) -> np.ndarray:
        """N_t ("N") or S_t ("S") of every path, computed afresh."""
        if t == self.horizon:  # every event counts
            return self.counts.view() if kind == "N" else self._path_sums(self.claims, float)
        upto = self.times <= t
        if kind == "N":
            return self._path_sums(upto, np.int64)
        return self._path_sums(np.where(upto, self.claims, 0.0), float)

    def _path_sums(self, vals: np.ndarray, dtype) -> np.ndarray:
        """Per-path sums of the flat vals, as differences of one running sum."""
        inc = np.zeros(vals.size + 1, dtype=dtype)
        np.cumsum(vals, out=inc[1:])
        return inc[self.offsets[1:]] - inc[self.offsets[:-1]]


# ---------------------------------------------------------------------------
# simulation

def _resolve_theta_and_rate(base, derived, under, seed, keys):
    if under.is_conditional:
        thetas = np.full(keys.state.size, under.theta)
    else:
        u = uniforms(seed, keys, LANE_MISC, 0)
        law = derived.q_mixing if under.is_q_side else base.mixing_law
        thetas = np.asarray(law.quantile(u), dtype=float)
    if under.is_q_side:
        rates = np.asarray(derived.g_at(thetas), dtype=float)
    else:
        rates = np.asarray(base.rate_at(thetas), dtype=float)
    return thetas, rates


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
    times = np.empty(int(offsets[-1]))
    for rows, before, ok, accepted in chunks:
        dest = offsets[rows, None] + np.arange(before, before + ok.shape[1])
        times[dest[ok]] = accepted

    total = int(offsets[-1])
    if total:
        u = uniforms(seed, keys.repeat(counts), LANE_CLAIM, _groupwise_arange(counts))
        claim_law = derived.q_claim if under.is_q_side else base.claim_law
        claims = np.asarray(claim_law.quantile(u), dtype=float)
    else:
        claims = np.zeros(0)
    return PathBatch(thetas=thetas, counts=counts, offsets=offsets,
                     times=times, claims=claims, horizon=float(horizon))


def _groupwise_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... flattened."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def simulate_path(base: BaseModel, derived: Optional[DerivedModel],
                  under: MeasureTag, horizon: float, stream: RngStream) -> Path:
    """One path; identical to the batch engine's path at the same index."""
    batch = simulate_batch(base, derived, under, horizon,
                           seed=stream.seed, n=1, start_index=stream.path_index)
    return batch.path(0)


# ---------------------------------------------------------------------------
# likelihood-ratio density along a path

def log_density_M(path: Path, t: float, change: MeasureChange,
                  include_xi: bool = True) -> float:
    """log of the likelihood-ratio martingale at time t on this path.

    With include_xi the unconditional density ln M_t = ln xi(theta)
    + N_t alpha(theta) + sum_{k<=N_t} gamma(X_k)
    - t theta (e^{alpha(theta)} - 1); without it, the conditional
    density ln M~_t (no xi term).
    """
    return float(log_density_batch(path.as_batch(), t, change, include_xi)[0])


def log_density_batch(batch: PathBatch, t: float, change: MeasureChange,
                      include_xi: bool = True) -> np.ndarray:
    """log_density_M for every path of the batch; DomainError where xi <= 0."""
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
# surplus processes

_VCOEF_CACHE: dict = {}


def claim_tilt_mean(base: BaseModel, change: MeasureChange) -> float:
    """E[X e^{gamma(X)}] under the base claim law, cached per pair."""
    key = _pair_key(base, change)
    if key not in _VCOEF_CACHE:
        _VCOEF_CACHE[key] = log_weighted_expectation(
            base.claim_law, lambda x: change.gamma.eval_array(x) + np.log(x))
    return _VCOEF_CACHE[key]


def surplus_v(path: Path, t: float, base: BaseModel, change: MeasureChange) -> float:
    """Centered aggregate under the derived measure:
    V_t = S_t - t g(theta) E[X e^{gamma(X)}]."""
    return float(surplus_v_batch(path.as_batch(), t, base, change)[0])


def surplus_y(path: Path, t: float, base: BaseModel) -> float:
    """Claim surplus under the base measure: Y_t = S_t - t theta E[X]."""
    return float(surplus_y_batch(path.as_batch(), t, base)[0])


def surplus_v_batch(batch: PathBatch, t: float, base: BaseModel,
                    change: MeasureChange) -> np.ndarray:
    g = derive_g(change)
    coef = claim_tilt_mean(base, change)
    return batch.aggregates_at(t) - t * g.eval_array(batch.thetas) * coef


def surplus_y_batch(batch: PathBatch, t: float, base: BaseModel) -> np.ndarray:
    return batch.aggregates_at(t) - t * batch.thetas * base.claim_law.moment(1)


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
