"""Base models, measure changes, and derivation of the tilted model.

A base model is (claim law, mixing law, intensity map h).  A measure
change is the triple (alpha, gamma, xi):

* alpha(theta) retunes the conditional event intensity, g(theta) =
  theta * e^{alpha(theta)};
* gamma(x) log-tilts the claim law, requiring E[e^{gamma(X)}] = 1;
* xi(theta) reweights the mixing law, requiring xi > 0 a.s. and
  E[xi(Theta)] = 1.

``validate_change`` checks those normalizations by quadrature together
with the level-l integrability gates E[X^l e^{gamma(X)}] < inf and
E[xi(Theta) g(Theta)^l] < inf.  ``derive_q_model`` then produces the
tilted claim and mixing laws, in catalog form when a closure rule
recognizes the weight (exponential tilt of a gamma stays gamma, power
weights shift gamma/beta parameters), as a generic Tilted law otherwise.

The change-of-measure identities assume the identity intensity map
(h(theta) = theta), which is the default; a custom h only affects the
base-side simulation rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .dist import (Beta, Degenerate, Distribution, Exponential, Gamma, Tilted,
                   Uniform, expectation, log_weighted_expectation)
from .expr import (Bin, Call, DomainError, Neg, Num, RealFn, Var, const_value,
                   identity, parse)
from .quadrature import DivergentIntegral

NORM_TOL = 1e-8


class ModelError(ValueError):
    pass


class NotValidated(ModelError):
    """derive_q_model was called before a passing validate_change."""


@dataclass(frozen=True)
class BaseModel:
    """Claim law, mixing law and intensity map of the original model."""

    claim_law: Distribution
    mixing_law: Distribution
    rate_fn: RealFn = field(default_factory=lambda: identity("theta"))

    def __post_init__(self):
        _check_positive_support("claim law", self.claim_law)
        _check_positive_support("mixing law", self.mixing_law)
        if self.rate_fn.var not in (None, "theta"):
            raise ModelError("intensity map must be a function of theta")
        grid = self.mixing_law.interior_grid(64)
        rates = self.rate_fn.eval_array(grid)
        if not (rates > 0.0).all():
            raise ModelError("intensity map must be positive on the mixing support")
        try:
            self.claim_law.moment(1)
        except Exception as e:
            raise ModelError(f"claim law must have a finite mean: {e}") from e

    def rate_at(self, theta):
        if isinstance(theta, np.ndarray):
            return self.rate_fn.eval_array(theta)
        return self.rate_fn(theta)

    def has_identity_rate(self) -> bool:
        t = self.rate_fn.tree
        return isinstance(t, Var)


def _check_positive_support(label: str, d: Distribution) -> None:
    lo, hi = d.support
    if lo < 0.0 or (lo == 0.0 and isinstance(d, Degenerate)):
        raise ModelError(f"{label} support must lie in (0, inf), got {d.literal()}")
    if d.is_discrete and not isinstance(d, Degenerate):
        raise ModelError(f"{label} must be continuous or degenerate, got {d.literal()}")


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

    def g_at(self, theta):
        if isinstance(theta, np.ndarray):
            return self.g.eval_array(theta)
        return self.g(theta)


# ---------------------------------------------------------------------------
# validation

_VALIDATED: dict = {}


def _fn_key(fn: RealFn):
    return (str(fn), tuple(sorted(fn.params.items())))


def _pair_key(base: BaseModel, change: MeasureChange):
    return (
        base.claim_law.literal(), base.mixing_law.literal(), _fn_key(base.rate_fn),
        _fn_key(change.alpha), _fn_key(change.gamma), _fn_key(change.xi),
    )


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
    elif not abs(gamma_norm - 1.0) <= NORM_TOL:  # NaN fails too
        failures.append(f"gamma_norm: {gamma_norm!r} differs from 1 beyond {NORM_TOL:g}")

    xi_norm, why = attempt(lambda: expectation(base.mixing_law, change.xi))
    if why:
        failures.append(f"xi_norm: {why}")
    elif not abs(xi_norm - 1.0) <= NORM_TOL:  # NaN fails too
        failures.append(f"xi_norm: {xi_norm!r} differs from 1 beyond {NORM_TOL:g}")

    # positivity proxy: a 511-point quantile grid (nodes plus midpoints);
    # the almost-sure statement cannot be checked exhaustively
    grid = base.mixing_law.interior_grid(256, p_lo=1e-9)
    grid = np.unique(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
    positive, why = attempt(lambda: bool((change.xi.eval_array(grid) > 0.0).all()))
    xi_positive = not why and positive
    if not xi_positive:
        failures.append(f"xi_positive: {why or 'xi is not positive on the support grid'}")

    g = derive_g(change)
    gates = {ell: (attempt(lambda: log_weighted_expectation(
                       base.claim_law, lambda x: change.gamma.eval_array(x) + ell * np.log(x))),
                   attempt(lambda: expectation(
                       base.mixing_law,
                       lambda t: change.xi.eval_array(t) * g.eval_array(t) ** ell)))
             for ell in (1, 2)}

    level_achieved = max((ell for ell in (1, 2)
                          if all(math.isfinite(v) for v, _ in gates[ell])), default=0)
    (claim_gate, claim_why), (mixing_gate, mixing_why) = gates[level]
    if not math.isfinite(claim_gate):
        failures.append(f"claim_gate: E[X^{level} e^gamma(X)]: {claim_why or 'not finite'}")
    if not math.isfinite(mixing_gate):
        failures.append(f"mixing_gate: E[xi(Theta) g(Theta)^{level}]: "
                        f"{mixing_why or 'not finite'}")

    verdict = not failures
    report = AdmissibilityReport(
        gamma_norm=gamma_norm, xi_norm=xi_norm, xi_positive=xi_positive,
        level_requested=level, level_achieved=level_achieved,
        claim_gate=claim_gate, mixing_gate=mixing_gate,
        verdict=verdict, failures=tuple(failures),
    )
    if verdict:
        key = _pair_key(base, change)
        _VALIDATED[key] = max(level, _VALIDATED.get(key, 0))
    return report


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
# closure rules: recognize weights of the form C * v^k * e^{s v}

def _combine(op, a, b):
    if a is None or b is None:
        return None
    Ca, ka, sa = a
    Cb, kb, sb = b
    if op == "*":
        return (Ca * Cb, ka + kb, sa + sb)
    if Cb == 0.0:
        return None
    return (Ca / Cb, ka - kb, sa - sb)


def _analyze_weight(node, params) -> Optional[Tuple[float, float, float]]:
    """Match node = C * v^k * e^{s v}; return (C, k, s) or None."""
    v = const_value(node, params)
    if v is not None:
        return (v, 0.0, 0.0)
    if isinstance(node, Var):
        return (1.0, 1.0, 0.0)
    if isinstance(node, Neg):
        inner = _analyze_weight(node.arg, params)
        return None if inner is None else (-inner[0], inner[1], inner[2])
    if isinstance(node, Bin) and node.op in "*/":
        return _combine(node.op, _analyze_weight(node.lhs, params),
                        _analyze_weight(node.rhs, params))
    if isinstance(node, Bin) and node.op == "^":
        e = const_value(node.rhs, params)
        inner = _analyze_weight(node.lhs, params)
        if e is None or inner is None:
            return None
        C, k, s = inner
        if C <= 0.0:
            return None
        return (C**e, k * e, s * e)
    if isinstance(node, Call) and node.fn == "exp":
        lin = _analyze_affine(node.arg, params)
        if lin is None:
            return None
        slope, interc = lin
        return (math.exp(interc), 0.0, slope)
    return None


def _analyze_affine(node, params) -> Optional[Tuple[float, float]]:
    """Match node = s*v + c; return (s, c) or None."""
    v = const_value(node, params)
    if v is not None:
        return (0.0, v)
    if isinstance(node, Var):
        return (1.0, 0.0)
    if isinstance(node, Neg):
        inner = _analyze_affine(node.arg, params)
        return None if inner is None else (-inner[0], -inner[1])
    if isinstance(node, Bin) and node.op in "+-":
        a = _analyze_affine(node.lhs, params)
        b = _analyze_affine(node.rhs, params)
        if a is None or b is None:
            return None
        sign = 1.0 if node.op == "+" else -1.0
        return (a[0] + sign * b[0], a[1] + sign * b[1])
    if isinstance(node, Bin) and node.op == "*":
        for lhs, rhs in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
            c = const_value(lhs, params)
            if c is not None:
                inner = _analyze_affine(rhs, params)
                if inner is not None:
                    return (c * inner[0], c * inner[1])
        return None
    if isinstance(node, Bin) and node.op == "/":
        c = const_value(node.rhs, params)
        if c in (None, 0.0):
            return None
        inner = _analyze_affine(node.lhs, params)
        return None if inner is None else (inner[0] / c, inner[1] / c)
    return None


def _analyze_log_weight(node, params) -> Optional[Tuple[float, float, float]]:
    """Match node = s*v + k*ln(v) + c (as a log-weight); return (e^c, k, s)."""
    terms = []
    _flatten_sum(node, 1.0, terms)
    s = k = c = 0.0
    for sign, t in terms:
        v = const_value(t, params)
        if v is not None:
            c += sign * v
            continue
        if isinstance(t, Call) and t.fn == "ln":
            inner = _analyze_weight(t.arg, params)
            if inner is None or inner[2] != 0.0 or inner[0] <= 0.0:
                return None
            C_in, k_in, _ = inner
            c += sign * math.log(C_in)
            k += sign * k_in
            continue
        if isinstance(t, Bin) and t.op == "*":
            matched = False
            for lhs, rhs in ((t.lhs, t.rhs), (t.rhs, t.lhs)):
                cc = const_value(lhs, params)
                if cc is not None and isinstance(rhs, Call) and rhs.fn == "ln":
                    inner = _analyze_weight(rhs.arg, params)
                    if inner is None or inner[2] != 0.0 or inner[0] <= 0.0:
                        return None
                    c += sign * cc * math.log(inner[0])
                    k += sign * cc * inner[1]
                    matched = True
                    break
            if matched:
                continue
        lin = _analyze_affine(t, params)
        if lin is None:
            return None
        s += sign * lin[0]
        c += sign * lin[1]
    return (math.exp(c), k, s)


def _flatten_sum(node, sign, out):
    if isinstance(node, Bin) and node.op in "+-":
        _flatten_sum(node.lhs, sign, out)
        _flatten_sum(node.rhs, sign if node.op == "+" else -sign, out)
    elif isinstance(node, Neg):
        _flatten_sum(node.arg, -sign, out)
    else:
        out.append((sign, node))


def _tilt_to_catalog(base: Distribution,
                     triple: Optional[Tuple[float, float, float]]) -> Optional[Distribution]:
    if triple is None:
        return None
    C, k, s = triple
    if C <= 0.0:
        return None
    if isinstance(base, Degenerate):
        return base
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

def derive_q_model(base: BaseModel, change: MeasureChange) -> DerivedModel:
    """Tilted claim/mixing laws and the intensity map g under the new measure.

    Requires a prior passing ``validate_change`` for this (base, change)
    pair; raises NotValidated otherwise.
    """
    if _pair_key(base, change) not in _VALIDATED:
        raise NotValidated(
            "derive_q_model requires a passing validate_change for this pair")
    g = derive_g(change)

    claim_triple = _analyze_log_weight(change.gamma.tree, change.gamma.params)
    q_claim = _tilt_to_catalog(base.claim_law, claim_triple)
    if q_claim is None:
        q_claim = Tilted(base.claim_law, log_weight=change.gamma)

    xi_triple = _analyze_weight(change.xi.tree, change.xi.params)
    q_mixing = _tilt_to_catalog(base.mixing_law, xi_triple)
    if q_mixing is None:
        q_mixing = Tilted(base.mixing_law, weight=change.xi)

    return DerivedModel(g=g, q_claim=q_claim, q_mixing=q_mixing, base=base, change=change)
