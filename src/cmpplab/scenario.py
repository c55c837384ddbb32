"""Scenario files, builtin scenarios, and the job runners behind the CLI.

A scenario file is line-oriented text: ``[section]`` headers and
``key = value`` pairs, with ``#`` comments.  Expression values are
quoted strings; distribution values use the catalog literal syntax.
The sections and keys below are the only ones; any other is an error, as
is a key, law argument or parameter given twice.

    [scenario]
    name = my-model

    [base]
    claim = exp(rate=0.2)
    mixing = gamma(rate=2, shape=2)

    [change]
    alpha = "ln(theta)"
    gamma = "ln(x/5)"
    xi = "(27/8)*theta^2*exp(-theta)"
    params = c = 1, k = 2             # optional named constants
    level = 2                         # integrability level, default 1

    [run]
    jobs = validate, derive-q, premium

    [mc]
    paths = 100000
    seed = 20190521
    horizon = 2.0

    [output]
    format = csv                      # csv | json-lines
    path = reports/out.csv

The ``[mc]`` and ``[output]`` keys, and the CLI flags and ``run_scenario``
overrides that set the same run settings, share one reader, ``_setting``:
a bad value is refused, naming its file:line or flag, before any path is
simulated, and a setting no file sets keeps its ``Scenario`` default.

Four builtin scenarios ship with the package (example-6.1a, example-6.1b,
example-6.2, example-6.3): classical premium-principle constructions on a
common test model.  Their ``paper_value`` annotations record the values
quoted in the source material for comparison; annotations are data, never
pass thresholds.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dist import NORMALIZATION_TOL, DistError, parse_distribution
from .expr import DomainError, RealFn, parse
from .model import (AdmissibilityReport, BaseModel, DerivedModel, MeasureChange, derive_q_model,
                    measure_change, validate_change, weighted_claim_moment, weighted_rate_moment)
from .premium import (PremiumQuote, esscher_change, expected_value_change,
                      premium_density)
from .quadrature import DivergentIntegral
from .sim import BASE_P, DERIVED_Q, SimulationError
from .verify import (MCReport, Plan, check_martingale, check_reweighting, degeneracy_test,
                     f_aggregate, f_count, f_count_eq, f_one, mc_estimate, process_v,
                     run_streams, singularity_probe)

JOB_NAMES = ("simulate", "validate", "derive-q", "verify-reweighting",
             "verify-martingale", "degeneracy", "singularity", "premium")

# every section and key the parser reads; anything else is a typo
_SCENARIO_KEYS = {"scenario": ("name",), "base": ("claim", "mixing"),
                  "change": ("alpha", "gamma", "xi", "level", "params"), "run": ("jobs",),
                  "mc": ("paths", "seed", "horizon"), "output": ("format", "path")}

OUTPUT_DIR_ENV = "CMPPLAB_OUTPUT_DIR"
OUTPUT_FORMATS = ("csv", "json-lines")

# what the library raises on an input it cannot handle; inside a job these
# become one ``fail`` row instead of a traceback
JOB_ERRORS = (DomainError, DistError, DivergentIntegral, SimulationError)


class ScenarioError(ValueError):
    """Scenario parse or validation problem, with a line-level location."""

    def __init__(self, message: str, source: str = "<scenario>", line: int = 0):
        super().__init__(f"{source}:{line}: {message}" if line else f"{source}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class Row:
    """One report record."""

    scenario: str
    job: str
    quantity: str
    estimate: Optional[float] = None
    stderr: Optional[float] = None
    oracle: Optional[float] = None
    paper_value: Optional[float] = None
    verdict: str = "info"            # pass | fail | info | inconclusive
    seed: Optional[int] = None
    detail: str = ""


REPORT_COLUMNS = tuple(f.name for f in fields(Row))


@dataclass(frozen=True)
class Scenario:
    name: str
    base: BaseModel
    change: MeasureChange
    level: int = 1
    jobs: Tuple[str, ...] = ("validate", "derive-q", "premium")
    paths: int = 100_000
    seed: int = 20190521
    horizon: float = 2.0
    out_format: str = "csv"
    out_path: Optional[str] = None
    paper_values: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scenario file parsing

def _parse_kv(line: str, source: str, lineno: int) -> Tuple[str, str]:
    if "=" not in line:
        raise ScenarioError(f"expected 'key = value', got {line!r}", source, lineno)
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def _unquote(value: str, source: str, lineno: int) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    raise ScenarioError(f"expression values must be quoted, got {value!r}",
                        source, lineno)


def _parse_params(value: str, source: str, lineno: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for piece in value.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, num = piece.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise ScenarioError(f"bad parameter name {name!r}", source, lineno)
        if name in out:
            raise ScenarioError(f"parameter {name!r} given twice", source, lineno)
        try:
            value = float(num.strip())
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ScenarioError(f"bad parameter value {num.strip()!r}", source, lineno)
        out[name] = value
    return out


# the run settings: Scenario field -> (section, key, the CLI flag and
# run_scenario override that also set it)
_RUN_SETTINGS = {"paths": ("mc", "paths", "paths"), "seed": ("mc", "seed", "seed"),
                 "horizon": ("mc", "horizon", "horizon"),
                 "out_format": ("output", "format", "format"),
                 "out_path": ("output", "path", "output")}


def _setting(field: str, value, source: str, line: int = 0):
    """The run setting ``field`` as set by a file key's text, a flag's text
    or an API override, converted and checked; an int keeps a number's
    value (seed 1.5 is not seed 1).  Refusals name source:line or the flag."""
    section, key, _ = _RUN_SETTINGS[field]
    name = f"{section}.{key}"
    if field == "out_path":
        return str(value)
    if field == "out_format":
        if value not in OUTPUT_FORMATS:
            raise ScenarioError(f"{name} must be one of {', '.join(OUTPUT_FORMATS)}, "
                                f"got {value!r}", source, line)
        return value
    conv = float if field == "horizon" else int
    try:
        number = conv(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (conv is int and not isinstance(value, str) and number != value):
        kind = "an integer" if conv is int else "a number"
        raise ScenarioError(f"{name} must be {kind}, got {value!r}", source, line)
    if field == "horizon" and not (math.isfinite(number) and number > 0.0):
        raise ScenarioError(f"{name} must be finite and > 0, got {number!r}", source, line)
    if field == "paths" and number < 100:
        raise ScenarioError(f"{name} must be at least 100, got {number!r}", source, line)
    return number


def parse_scenario_text(text: str, source: str = "<scenario>") -> Scenario:
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"malformed section header {line!r}", source, lineno)
            current = line[1:-1].strip().lower()
            if current not in _SCENARIO_KEYS:
                raise ScenarioError(f"unknown section [{current}] (known: "
                                    f"{', '.join(_SCENARIO_KEYS)})", source, lineno)
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ScenarioError("key outside any [section]", source, lineno)
        key, value = _parse_kv(line, source, lineno)
        key = key.lower()
        if key not in _SCENARIO_KEYS[current]:
            raise ScenarioError(f"unknown key {key!r} in [{current}] (known: "
                                f"{', '.join(_SCENARIO_KEYS[current])})", source, lineno)
        if key in sections[current]:
            raise ScenarioError(f"key {key!r} in [{current}] is already set on line "
                                f"{sections[current][key][1]}", source, lineno)
        sections[current][key] = (value, lineno)

    def get(section: str, key: str, default=None):
        return sections.get(section, {}).get(key, (default, 0))

    name, _ = get("scenario", "name", "unnamed")
    if "base" not in sections:
        raise ScenarioError("missing [base] section", source)
    for required in ("claim", "mixing"):
        if required not in sections["base"]:
            raise ScenarioError(f"[base] is missing {required!r}", source)

    claim_text, ln = sections["base"]["claim"]
    try:
        claim = parse_distribution(claim_text)
    except Exception as e:
        raise ScenarioError(f"bad claim law: {e}", source, ln) from e
    mixing_text, ln = sections["base"]["mixing"]
    try:
        mixing = parse_distribution(mixing_text)
    except Exception as e:
        raise ScenarioError(f"bad mixing law: {e}", source, ln) from e

    params: Dict[str, float] = {}
    if "change" in sections and "params" in sections["change"]:
        ptext, ln = sections["change"]["params"]
        params = _parse_params(ptext, source, ln)

    def parse_fn(section: str, key: str, var: str, default: str) -> RealFn:
        value, ln = get(section, key)
        if value is None:
            return parse(default, var=var, params=params)
        try:
            return parse(_unquote(value, source, ln), var=var, params=params)
        except ScenarioError:
            raise
        except Exception as e:
            raise ScenarioError(f"bad {key!r} expression: {e}", source, ln) from e

    try:
        base = BaseModel(claim_law=claim, mixing_law=mixing)
    except Exception as e:
        raise ScenarioError(f"invalid base model: {e}", source) from e
    change = MeasureChange(
        alpha=parse_fn("change", "alpha", "theta", "0"),
        gamma=parse_fn("change", "gamma", "x", "0"),
        xi=parse_fn("change", "xi", "theta", "1"),
    )

    # only the keys the file sets; Scenario's defaults fill the rest
    settings = {}
    level_text, ln = get("change", "level")
    if level_text is not None:
        try:
            settings["level"] = int(level_text)
        except ValueError:
            raise ScenarioError(f"bad level {level_text!r}", source, ln) from None
        if settings["level"] not in (1, 2):
            raise ScenarioError(f"level must be 1 or 2, got {settings['level']}", source, ln)

    jobs_text, ln = get("run", "jobs")
    if jobs_text is not None:
        settings["jobs"] = tuple(j.strip() for j in jobs_text.split(",") if j.strip())
        for j in settings["jobs"]:
            if j not in JOB_NAMES:
                raise ScenarioError(f"unknown job {j!r} (known: {', '.join(JOB_NAMES)})",
                                    source, ln)

    for fld, (section, key, _) in _RUN_SETTINGS.items():
        value, ln = get(section, key)
        if value is not None:
            settings[fld] = _setting(fld, value, source, ln)

    return Scenario(name=name, base=base, change=change, **settings)


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}", path) from e
    return parse_scenario_text(text, source=path)


# ---------------------------------------------------------------------------
# builtin scenarios

_TEST_BASE_JOBS = ("validate", "derive-q", "premium", "simulate",
                   "verify-reweighting", "verify-martingale")


def _base_62() -> BaseModel:
    return BaseModel(parse_distribution("exp(rate=0.2)"),
                     parse_distribution("gamma(rate=2,shape=2)"))


def _builtin_61a(c: float = 0.05) -> Scenario:
    base = _base_62()
    return Scenario(name="example-6.1a", base=base,
                    change=esscher_change(c, base), level=1,
                    jobs=_TEST_BASE_JOBS)


def _builtin_61b(c: float = math.log(2.0)) -> Scenario:
    return Scenario(name="example-6.1b", base=_base_62(),
                    change=expected_value_change(c), level=1,
                    jobs=_TEST_BASE_JOBS + ("singularity",))


def _builtin_62() -> Scenario:
    return Scenario(
        name="example-6.2", base=_base_62(),
        change=measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                              xi="(27/8)*theta^2*exp(-theta)"),
        level=2, jobs=_TEST_BASE_JOBS + ("degeneracy",),
        paper_values={"E_Q[N_1]": 81.0, "p(Q)": 810.0},
    )


def _builtin_63(c: float = 1.0) -> Scenario:
    base = BaseModel(parse_distribution(f"gamma(rate={c + 1.0},shape=2)"),
                     parse_distribution("beta(a=2,b=1)"))
    change = measure_change(
        alpha="ln(c+theta) + 2*ln((c+1)/(c+1+theta))",
        gamma="c*x - 2*ln(c+1)", xi="1/(2*theta)", params={"c": c})
    return Scenario(name="example-6.3", base=base, change=change, level=2,
                    jobs=_TEST_BASE_JOBS)


# each builder takes its parameters as keywords with defaults
BUILTIN_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "example-6.1a": _builtin_61a,
    "example-6.1b": _builtin_61b,
    "example-6.2": _builtin_62,
    "example-6.3": _builtin_63,
}


def resolve_scenario(name_or_path: str, params: Optional[Dict[str, float]] = None) -> Scenario:
    params = params or {}
    if name_or_path in BUILTIN_SCENARIOS:
        builder = BUILTIN_SCENARIOS[name_or_path]
        takes = inspect.signature(builder).parameters
        unknown = sorted(set(params) - set(takes))
        if unknown:
            raise ScenarioError(f"unknown parameter {', '.join(map(repr, unknown))} (the "
                                f"builtin takes {', '.join(takes) or 'none'})", name_or_path)
        try:
            return builder(**params)
        except (ValueError, ArithmeticError) as e:
            # a parameter value the builtin's construction cannot take
            shown = ", ".join(f"{k}={v!r}" for k, v in sorted(params.items()))
            raise ScenarioError(f"cannot build the builtin with {shown or 'its defaults'}: "
                                f"{type(e).__name__}: {e}", name_or_path) from e
    if os.path.exists(name_or_path):
        if params:
            raise ScenarioError("--param sets a builtin's parameters; a scenario file binds "
                                "its own on its params line", name_or_path)
        return load_scenario_file(name_or_path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}: not a builtin "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}) and no such file")


# ---------------------------------------------------------------------------
# job runners; those in _JOB_RUNNERS take the run's derived model and its
# premium quote, computed on first use, and return the job's plan: the
# consumers of the streams it reads, and its rows once they are fed

QuoteFn = Callable[[], PremiumQuote]


def _row(scn: Scenario, job: str, **kw) -> Row:
    """A row of the job, with the scenario's paper value of its quantity."""
    row = Row(scenario=scn.name, job=job, seed=scn.seed, **kw)
    pv = scn.paper_values.get(row.quantity)
    return replace(row, paper_value=pv) if pv is not None else row


def _job_validate(scn: Scenario, rep: AdmissibilityReport) -> List[Row]:
    mk = functools.partial(_row, scn, "validate")
    return [
        mk(quantity="gamma_norm", estimate=rep.gamma_norm, oracle=1.0,
           verdict="pass" if abs(rep.gamma_norm - 1.0) <= NORMALIZATION_TOL else "fail"),
        mk(quantity="xi_norm", estimate=rep.xi_norm, oracle=1.0,
           verdict="pass" if abs(rep.xi_norm - 1.0) <= NORMALIZATION_TOL else "fail"),
        mk(quantity="xi_positive", estimate=float(rep.xi_positive),
           verdict="pass" if rep.xi_positive else "fail"),
        mk(quantity=f"claim_gate_l{scn.level}", estimate=rep.claim_gate,
           verdict="pass" if math.isfinite(rep.claim_gate) else "fail"),
        mk(quantity=f"mixing_gate_l{scn.level}", estimate=rep.mixing_gate,
           verdict="pass" if math.isfinite(rep.mixing_gate) else "fail"),
        mk(quantity="admissible", estimate=float(rep.verdict),
           verdict="pass" if rep.verdict else "fail",
           detail="; ".join(rep.failures)),
    ]


def _mc_row(mk: Callable[..., Row], quantity: str, rep: MCReport, detail: str = "") -> Row:
    """The row of one Monte Carlo comparison, with the report's verdict."""
    return mk(quantity=quantity, estimate=rep.estimate, stderr=rep.stderr,
              oracle=rep.oracle, verdict=rep.verdict, detail=detail)


def _rows_now(rows: List[Row]) -> Plan:
    """The plan of a job that reads no stream."""
    return Plan([], lambda: rows)


def _job_derive_q(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    mk = functools.partial(_row, scn, "derive-q")
    return _rows_now([
        mk(quantity="g", detail=str(derived.g)),
        mk(quantity="q_claim", detail=derived.q_claim.literal()),
        mk(quantity="q_mixing", detail=derived.q_mixing.literal()),
        mk(quantity="E_Q[X_1]", estimate=derived.q_claim.moment(1)),
    ])


def _job_premium(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    quote = quote()
    # by the change of measure p(Q) is a product of base-side integrals
    pq_oracle = (weighted_rate_moment(scn.base, scn.change, 1)
                 * weighted_claim_moment(scn.base, scn.change, 1))
    pq_ok = math.isfinite(quote.p_derived) and \
        abs(quote.p_derived - pq_oracle) <= 1e-8 * max(1.0, abs(pq_oracle))
    med = float(scn.base.mixing_law.quantile(0.5))
    p_p = quote.per_theta_base(med)
    p_q = quote.per_theta_derived(med)
    mk = functools.partial(_row, scn, "premium")
    return _rows_now([
        mk(quantity="p(P)", estimate=quote.p_base),
        mk(quantity="p(Q)", estimate=quote.p_derived, oracle=pq_oracle,
           verdict="pass" if pq_ok else "fail",
           detail="oracle=E_P[xi(Theta) g(Theta)]*E_P[X e^gamma(X)]"),
        mk(quantity="E_Q[N_1]", estimate=derived.mean_rate),
        mk(quantity="p(P_theta)", detail=str(quote.per_theta_base)),
        mk(quantity="p(Q_theta)", detail=str(quote.per_theta_derived)),
        mk(quantity="cond13", estimate=quote.cond13_margin,
           verdict="pass" if quote.cond13 else "fail",
           detail=f"p(P)={quote.p_base:.6g} < p(Q)={quote.p_derived:.6g}"
                  if quote.cond13 else "no strict loading"),
        mk(quantity=f"cond14@theta={med:.6g}", estimate=p_q - p_p,
           verdict="pass" if (math.isfinite(p_q) and p_p < p_q) else "fail",
           detail=f"p(P_theta)={p_p:.6g}, p(Q_theta)={p_q:.6g}"),
    ])


def _job_simulate(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    t = scn.horizon
    e_x, e_rate = scn.base.claim_law.moment(1), scn.base.mixing_law.moment(1)
    mk = functools.partial(_row, scn, "simulate")
    p = mc_estimate([f_aggregate(), f_count()], scn.base, derived, BASE_P, t, scn.paths,
                    scn.seed, oracle=[t * e_rate * e_x, t * e_rate])
    # reads the verify-martingale job's stream when both run
    q = mc_estimate(f_aggregate(), scn.base, derived, DERIVED_Q, t, scn.paths, scn.seed)

    def rows() -> List[Row]:
        reps = p.finish()
        oracle = t * quote().p_derived
        reps.append(q.finish().against(oracle))
        return [_mc_row(mk, name, rep)
                for name, rep in zip((f"E_P[S_{t:g}]", f"E_P[N_{t:g}]", f"E_Q[S_{t:g}]"),
                                     reps)]

    return Plan(p.consumers + q.consumers, rows)


def _job_reweighting(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    t = scn.horizon / 2.0
    battery = [f_one(), f_count(), f_aggregate(), f_count_eq(0)]
    mk = functools.partial(_row, scn, "verify-reweighting")
    plan = check_reweighting(battery, derived, t=t, n=scn.paths, seed=scn.seed)

    def rows() -> List[Row]:
        return [_mc_row(mk, f"gap[{f.name}]@t={t:g}", res.gap,
                        f"direct={res.direct.estimate:.6g}+-{res.direct.stderr:.3g}, "
                        f"weighted={res.weighted.estimate:.6g}+-{res.weighted.stderr:.3g}")
                for f, res in zip(battery, plan.finish())]

    return Plan(plan.consumers, rows)


def _job_martingale(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    h = scn.horizon
    pairs = [(h / 4.0, h / 2.0), (h / 2.0, h)]
    plan = check_martingale(process_v(derived), scn.base, derived, DERIVED_Q,
                            pairs, n=scn.paths, seed=scn.seed)
    mk = functools.partial(_row, scn, "verify-martingale")

    def rows() -> List[Row]:
        table = plan.finish()
        out = [_mc_row(mk, f"V[{c.s:g}->{c.t:g}]@{c.report.quantity}", c.report,
                       f"z={c.report.z:.2f}")
               for c in table.cells]
        out.append(mk(quantity="V martingale (family verdict)",
                      estimate=max(abs(c.report.z) for c in table.cells),
                      oracle=table.z_threshold, verdict=table.verdict,
                      detail=f"{len(table.cells)} cells, Bonferroni level "
                             f"{table.family_level:g}"))
        return out

    return Plan(plan.consumers, rows)


def _job_degeneracy(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    plan = degeneracy_test(derived, n=scn.paths, seed=scn.seed)

    def rows() -> List[Row]:
        res = plan.finish()
        grid = scn.base.mixing_law.interior_grid(16)
        gvals = derived.g.eval_array(grid)
        predicted_degenerate = bool(np.allclose(gvals, gvals[0], rtol=1e-12, atol=0.0))
        agrees = res.is_martingale == predicted_degenerate
        return [_row(scn, "degeneracy", quantity="centered-aggregate martingale dichotomy",
                     estimate=res.witness.estimate, stderr=res.witness.stderr,
                     oracle=res.witness_oracle, verdict="pass" if agrees else "fail",
                     detail=f"g(Theta) degenerate={predicted_degenerate}; {res.describe()}")]

    return Plan(plan.consumers, rows)


def _job_singularity(scn: Scenario, derived: DerivedModel, quote: QuoteFn) -> Plan:
    horizons = [scn.horizon * 5, scn.horizon * 25]
    theta = float(scn.base.mixing_law.quantile(0.5))
    n = max(1000, scn.paths // 25)
    plan = singularity_probe(derived, horizons=horizons, n=n, seed=scn.seed,
                             theta_fixed=theta)
    mk = functools.partial(_row, scn, "singularity")

    def rows() -> List[Row]:
        return [_mc_row(mk, r.drift.quantity, r.drift,
                        f"theta={theta:.6g}, sd={r.sd:.4g}, frac<-5={r.frac_below:.4f}, "
                        f"frac>+5={r.frac_above:.4f}")
                for r in plan.finish()]

    return Plan(plan.consumers, rows)


_JOB_RUNNERS = {
    "validate": _job_validate,
    "derive-q": _job_derive_q,
    "premium": _job_premium,
    "simulate": _job_simulate,
    "verify-reweighting": _job_reweighting,
    "verify-martingale": _job_martingale,
    "degeneracy": _job_degeneracy,
    "singularity": _job_singularity,
}


# ---------------------------------------------------------------------------
# report writing

def _format_cell(v) -> str:
    """A CSV cell: floats at 17 significant digits, None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _json_value(v):
    """A JSON-lines value: a float that is not finite as its CSV cell's
    text ("inf", "-inf", "nan"), which JSON has no number for."""
    return _format_cell(v) if isinstance(v, float) and not math.isfinite(v) else v


def report_write(rows: List[Row], out_format: str, destination: str) -> None:
    """Write rows as CSV (fixed header) or JSON lines, floats at 17
    significant digits so a reader recovers them bit-exactly."""
    if out_format not in OUTPUT_FORMATS:  # before the destination is touched
        raise ScenarioError(f"unknown output format {out_format!r}")
    parent = os.path.dirname(os.path.abspath(destination))
    try:
        os.makedirs(parent, exist_ok=True)
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            if out_format == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(REPORT_COLUMNS)
                for r in rows:
                    writer.writerow([_format_cell(getattr(r, c)) for c in REPORT_COLUMNS])
            else:
                for r in rows:
                    record = {c: _json_value(getattr(r, c)) for c in REPORT_COLUMNS}
                    fh.write(json.dumps(record, allow_nan=False) + "\n")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise ScenarioError(f"cannot write report to {destination!r}: {e}") from e


# ---------------------------------------------------------------------------
# the scenario runner

def run_scenario(name_or_path: str, overrides: Optional[dict] = None,
                 stderr=None) -> int:
    """Execute a scenario's jobs and write its report.

    Returns the exit code: 0 when every tested row passes, 1 when any
    verdict fails, 2 on scenario parse/validation errors (diagnostics go
    to ``stderr``).
    """
    import sys
    stderr = stderr if stderr is not None else sys.stderr
    overrides = dict(overrides or {})
    params = dict(overrides.pop("params", {}) or {})
    try:
        scn = resolve_scenario(name_or_path, params)
        for fld, (_, _, flag) in _RUN_SETTINGS.items():
            if overrides.get(flag) is not None:
                scn = replace(scn, **{fld: _setting(fld, overrides[flag], f"--{flag}")})

        # report rows are a pure function of (scenario, params, seed, paths,
        # horizon); where the report is written or how it is encoded is not
        # part of its content, so only result-affecting overrides are recorded,
        # each as the value applied (paths 2000.0 runs and reads as 2000)
        rows: List[Row] = [
            _row(scn, "meta", quantity=f"override:{k}", detail=str(getattr(scn, k)))
            for k, v in sorted(overrides.items())
            if v is not None and k in ("seed", "paths", "horizon")
        ]
        rows += [_row(scn, "meta", quantity=f"param:{k}", detail=repr(v))
                 for k, v in sorted(params.items())]

        report = validate_change(scn.base, scn.change, scn.level)
        rows += _job_validate(scn, report)
        derived, skipped = None, "change failed validation"
        if report.verdict:
            try:
                derived = derive_q_model(report)
            except JOB_ERRORS as e:
                skipped = f"derived model failed: {type(e).__name__}: {e}"

        @functools.lru_cache(maxsize=None)
        def quote() -> PremiumQuote:
            # the premium and simulate jobs share one quote; an error is not
            # cached, so each job that needs the quote reports it
            return premium_density(scn.base, derived)

        def fail_row(job: str, quantity: str, detail: str) -> Row:
            return _row(scn, job, quantity=quantity, verdict="fail", detail=detail)

        def error_row(job: str, e: Exception) -> Row:
            return fail_row(job, "error", f"{type(e).__name__}: {e}")

        # plan every job, then simulate each distinct stream once for all of
        # them, then build the rows in job order; an error turns only its own
        # job into an error row
        plans: List[Tuple[str, Plan]] = []
        for job in scn.jobs:
            if job == "validate":
                continue  # always ran first
            try:
                plan = (_JOB_RUNNERS[job](scn, derived, quote) if derived is not None
                        else _rows_now([fail_row(job, "skipped", skipped)]))
            except JOB_ERRORS as e:
                plan = _rows_now([error_row(job, e)])
            plans.append((job, plan))
        run_streams(scn.base, derived, [c for _, plan in plans for c in plan.consumers])
        for job, plan in plans:
            try:
                rows += plan.finish()
            except JOB_ERRORS as e:
                rows.append(error_row(job, e))
    except ScenarioError as e:
        print(f"error: {e}", file=stderr)
        return 2

    out_path = scn.out_path
    if out_path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        ext = "csv" if scn.out_format == "csv" else "jsonl"
        out_path = os.path.join(out_dir, f"{scn.name}.{ext}")
    try:
        report_write(rows, scn.out_format, out_path)
    except ScenarioError as e:
        print(f"error: {e}", file=stderr)
        return 2

    return 1 if any(r.verdict == "fail" for r in rows) else 0
