"""Base models, measure changes, and derivation of the tilted model.

A base model is (claim law, mixing law); given theta, events arrive at
rate theta.  A measure change is the triple (alpha, gamma, xi):

* alpha(theta) retunes the conditional event intensity, g(theta) =
  theta * e^{alpha(theta)};
* gamma(x) log-tilts the claim law, requiring E[e^{gamma(X)}] = 1;
* xi(theta) reweights the mixing law, requiring xi > 0 a.s. and
  E[xi(Theta)] = 1.

``validate_change`` checks those normalizations by quadrature together
with the level-l integrability gates E[X^l e^{gamma(X)}] < inf and
E[xi(Theta) g(Theta)^l] < inf.  Its ``AdmissibilityReport`` carries the
(base, change) pair it judged and is the token ``derive_q_model`` takes:
a report whose verdict failed raises NotValidated, so admissibility
belongs to the pair, not to the process.  ``derive_q_model`` produces the
tilted claim and mixing laws.  One closure rule gives the catalog form:
when the log-weight (gamma, or ln xi) is c + k ln v + s v, an Exponential
or Gamma base becomes Gamma(rate - s, shape + k), a Beta(a, b) becomes
Beta(a + k, b) when s = 0, a Uniform stays itself when k = s = 0, and a
Degenerate law is left unchanged.  Any other weight gives a Tilted law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .dist import (NORMALIZATION_TOL, Beta, Degenerate, Distribution, Exponential, Gamma,
                   Tilted, Uniform, expectation, log_weighted_expectation)
from .expr import (Bin, Call, DomainError, Neg, Num, RealFn, Var, const_value,
                   identity, parse)
from .quadrature import DivergentIntegral


class ModelError(ValueError):
    pass


class NotValidated(ModelError):
    """derive_q_model was given a report whose verdict failed."""


@dataclass(frozen=True)
class BaseModel:
    """Claim law and mixing law of the original model."""

    claim_law: Distribution
    mixing_law: Distribution
    rate_fn = identity("theta")  # not a field: the event rate given theta is theta

    def __post_init__(self):
        _check_positive_support("claim law", self.claim_law)
        _check_positive_support("mixing law", self.mixing_law)
        try:
            self.claim_law.moment(1)
        except Exception as e:
            raise ModelError(f"claim law must have a finite mean: {e}") from e


def _check_positive_support(label: str, d: Distribution) -> None:
    lo, hi = d.support
    if lo < 0.0 or (lo == 0.0 and isinstance(d, Degenerate)):
        raise ModelError(f"{label} support must lie in (0, inf), got {d.literal()}")


@dataclass(frozen=True)
class MeasureChange:
    """The (alpha, gamma, xi) coordinates of a progressive change of measure."""

    alpha: RealFn
    gamma: RealFn
    xi: RealFn

    def __post_init__(self):
        if self.alpha.var not in (None, "theta"):
            raise ModelError("alpha must be a function of theta")
        if self.gamma.var not in (None, "x"):
            raise ModelError("gamma must be a function of x")
        if self.xi.var not in (None, "theta"):
            raise ModelError("xi must be a function of theta")


def measure_change(alpha: str = "0", gamma: str = "0", xi: str = "1",
                   params: Optional[dict] = None) -> MeasureChange:
    """Build a MeasureChange from expression strings."""
    params = params or {}
    return MeasureChange(
        alpha=parse(alpha, var="theta", params=params),
        gamma=parse(gamma, var="x", params=params),
        xi=parse(xi, var="theta", params=params),
    )


def identity_change() -> MeasureChange:
    return measure_change()


@dataclass(frozen=True)
class AdmissibilityReport:
    """What ``validate_change`` found for one (base, change) pair."""

    base: BaseModel
    change: MeasureChange
    gamma_norm: float
    xi_norm: float
    xi_positive: bool
    level_requested: int
    level_achieved: int
    claim_gate: float        # E[X^l e^{gamma(X)}] at the requested level
    mixing_gate: float       # E[xi(Theta) g(Theta)^l] at the requested level
    verdict: bool
    failures: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DerivedModel:
    """The model under the new measure: intensity g and tilted laws."""

    g: RealFn
    q_claim: Distribution
    q_mixing: Distribution
    base: BaseModel
    change: MeasureChange

    @cached_property
    def mean_rate(self) -> float:
        """E_Q[g(Theta)] once per model: one quadrature, or q_mixing's own mean
        when g is theta, so that an identity change quotes p(Q) = p(P) exactly."""
        if isinstance(self.g.tree, Var):
            return self.q_mixing.moment(1)
        return expectation(self.q_mixing, self.g)


# ---------------------------------------------------------------------------
# validation

def validate_change(base: BaseModel, change: MeasureChange, level: int = 1) -> AdmissibilityReport:
    """Check normalizations, positivity and the level-l moment gates.

    Divergent integrals and domain errors (a formula undefined somewhere
    on the support) are reported as named failures in the returned report
    rather than raised.
    """
    if level not in (1, 2):
        raise ModelError(f"level must be 1 or 2, got {level}")
    failures = []

    def attempt(fn):
        try:
            return fn(), ""
        except DivergentIntegral as e:
            return math.inf, f"divergent ({e})"
        except DomainError as e:
            return math.inf, f"domain error ({e})"

    gamma_norm, why = attempt(lambda: log_weighted_expectation(base.claim_law, change.gamma))
    if why:
        failures.append(f"gamma_norm: {why}")
    elif not abs(gamma_norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        failures.append(f"gamma_norm: {gamma_norm!r} differs from 1 beyond {NORMALIZATION_TOL:g}")

    xi_norm, why = attempt(lambda: expectation(base.mixing_law, change.xi))
    if why:
        failures.append(f"xi_norm: {why}")
    elif not abs(xi_norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        failures.append(f"xi_norm: {xi_norm!r} differs from 1 beyond {NORMALIZATION_TOL:g}")

    # positivity proxy: a 511-point quantile grid (nodes, then midpoints);
    # the almost-sure statement cannot be checked exhaustively
    grid = base.mixing_law.interior_grid(256, p_lo=1e-9)
    grid = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    positive, why = attempt(lambda: bool((change.xi.eval_array(grid) > 0.0).all()))
    xi_positive = not why and positive
    if not xi_positive:
        failures.append(f"xi_positive: {why or 'xi is not positive on the support grid'}")

    gates = {ell: (attempt(lambda: weighted_claim_moment(base, change, ell)),
                   attempt(lambda: weighted_rate_moment(base, change, ell)))
             for ell in (1, 2)}

    level_achieved = max((ell for ell in (1, 2)
                          if all(math.isfinite(v) for v, _ in gates[ell])), default=0)
    (claim_gate, claim_why), (mixing_gate, mixing_why) = gates[level]
    if not math.isfinite(claim_gate):
        failures.append(f"claim_gate: E[X^{level} e^gamma(X)]: {claim_why or 'not finite'}")
    if not math.isfinite(mixing_gate):
        failures.append(f"mixing_gate: E[xi(Theta) g(Theta)^{level}]: "
                        f"{mixing_why or 'not finite'}")

    return AdmissibilityReport(
        base=base, change=change,
        gamma_norm=gamma_norm, xi_norm=xi_norm, xi_positive=xi_positive,
        level_requested=level, level_achieved=level_achieved,
        claim_gate=claim_gate, mixing_gate=mixing_gate,
        verdict=not failures, failures=tuple(failures),
    )


def weighted_claim_moment(base: BaseModel, change: MeasureChange, ell: int) -> float:
    """E[X^l e^{gamma(X)}] under the base claim law, which is E_Q[X^l]."""
    return log_weighted_expectation(
        base.claim_law, lambda x: change.gamma.eval_array(x) + ell * np.log(x))


def weighted_rate_moment(base: BaseModel, change: MeasureChange, ell: int) -> float:
    """E[xi(Theta) g(Theta)^l] under the base mixing law, which is E_Q[g(Theta)^l]."""
    g = derive_g(change)  # a constant alpha undefined as a number raises DomainError
    return expectation(base.mixing_law, lambda t: change.xi.eval_array(t) * g.eval_array(t) ** ell)


# ---------------------------------------------------------------------------
# g = theta * e^{alpha(theta)}

def derive_g(change: MeasureChange) -> RealFn:
    """Intensity map of the derived model.

    A three-case structural rewrite keeps the catalog forms printable
    (alpha = 0 -> theta; alpha = ln theta -> theta^2; constant alpha c ->
    e^c * theta); anything else is the literal composition
    theta * exp(alpha(theta)).
    """
    tree = change.alpha.tree
    params = change.alpha.params
    c = const_value(tree, params)
    if c is not None:
        if c == 0.0:
            return identity("theta")
        scale = math.exp(c)
        return RealFn(Bin("*", Num(scale), Var("theta")), "theta")
    if isinstance(tree, Call) and tree.fn == "ln" and isinstance(tree.arg, Var):
        return RealFn(Bin("^", Var("theta"), Num(2.0)), "theta")
    return RealFn(Bin("*", Var("theta"), Call("exp", tree)), "theta", params)


# ---------------------------------------------------------------------------
# closure rules: one matcher for log-weights c + k ln v + s v

def _log_linear(node, params, of_log: bool) -> Optional[Tuple[float, float, float]]:
    """Match ``node`` (``ln(node)`` when ``of_log``) as c + k*ln(v) + s*v in
    the free variable v; return (c, k, s) or None."""
    v = const_value(node, params)
    if v is not None:
        if not of_log:
            return (v, 0.0, 0.0)
        return (math.log(v), 0.0, 0.0) if v > 0.0 else None
    if isinstance(node, Var):
        return (0.0, 1.0, 0.0) if of_log else (0.0, 0.0, 1.0)
    if isinstance(node, Call):
        # ln(u) is u matched under the log, and under the log exp(u) is u itself
        if node.fn == ("exp" if of_log else "ln"):
            return _log_linear(node.arg, params, not of_log)
        return None
    if isinstance(node, Neg):
        t = None if of_log else _log_linear(node.arg, params, False)
        return None if t is None else (-t[0], -t[1], -t[2])
    if not isinstance(node, Bin):  # an unbound parameter
        return None
    if node.op in ("*/" if of_log else "+-"):
        a = _log_linear(node.lhs, params, of_log)
        b = _log_linear(node.rhs, params, of_log)
        if a is None or b is None:
            return None
        if node.op in "+*":
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    # scaling by a constant: u*c or c*u and u/c, or u^c under the log
    if node.op not in ("^" if of_log else "*/"):
        return None
    arg, c = node.lhs, const_value(node.rhs, params)
    if c is None and node.op == "*":
        arg, c = node.rhs, const_value(node.lhs, params)
    t = None if c is None else _log_linear(arg, params, of_log)
    if t is None:
        return None
    if node.op == "/":
        return None if c == 0.0 else (t[0] / c, t[1] / c, t[2] / c)
    return (c * t[0], c * t[1], c * t[2])


def _tilt_to_catalog(base: Distribution,
                     triple: Optional[Tuple[float, float, float]]) -> Optional[Distribution]:
    """The catalog law of ``base`` reweighted by e^{c + k ln v + s v}, or None;
    a point mass is its own reweighting by any validated weight."""
    if isinstance(base, Degenerate):
        return base
    if triple is None:
        return None
    _, k, s = triple
    if isinstance(base, Exponential):
        rate, shape = base.rate - s, 1.0 + k
    elif isinstance(base, Gamma):
        rate, shape = base.rate - s, base.shape + k
    elif isinstance(base, Beta):
        if s != 0.0:
            return None
        a, b = base.a + k, base.b
        if a <= 0.0:
            return None
        if a == 1.0 and b == 1.0:
            return Uniform(0.0, 1.0)
        return Beta(a, b)
    elif isinstance(base, Uniform):
        return base if (k == 0.0 and s == 0.0) else None
    else:
        return None
    if rate <= 0.0 or shape <= 0.0:
        return None
    if shape == 1.0:
        return Exponential(rate)
    return Gamma(rate, shape)


# ---------------------------------------------------------------------------
# the derived model

def derive_q_model(report: AdmissibilityReport) -> DerivedModel:
    """Tilted claim/mixing laws and the intensity map g under the new measure.

    ``report`` is the ``validate_change`` report of the (base, change) pair
    to derive; raises NotValidated unless its verdict passed.
    """
    if not report.verdict:
        raise NotValidated("derive_q_model requires a passing validate_change report: "
                           + "; ".join(report.failures))
    base, change = report.base, report.change
    g = derive_g(change)

    q_claim = _tilt_to_catalog(base.claim_law,
                               _log_linear(change.gamma.tree, change.gamma.params, False))
    if q_claim is None:
        q_claim = Tilted(base.claim_law, log_weight=change.gamma)

    q_mixing = _tilt_to_catalog(base.mixing_law,
                                _log_linear(change.xi.tree, change.xi.params, True))
    if q_mixing is None:
        q_mixing = Tilted(base.mixing_law, weight=change.xi)

    return DerivedModel(g=g, q_claim=q_claim, q_mixing=q_mixing, base=base, change=change)
