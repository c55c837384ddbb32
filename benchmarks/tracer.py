"""Outside-in tracing of cmpplab's layers.

``Tracer.install`` wraps each layer's public functions from outside the
program.  Every wrapped call records a span ``[name, start, end, parent,
attrs]`` in memory; ``Tracer.dump`` writes them as JSON lines, one per
span, each tagged with the run id.  Counts (uniforms drawn, events,
integrand evaluations, ...) are taken at the same boundaries and stored
on the span.

A function is patched where its callers look it up: ``sim`` and
``verify`` bind ``simulate_batch``, ``uniforms``, ``log_density_batch``
and the ``integrate_*`` functions at import, so every ``cmpplab`` module
global that refers to the original function object is replaced, not
just the defining module's.  ``quantile`` and the ``PathBatch``
functionals are patched on their class; job runners are replaced in
``scenario._JOB_RUNNERS``, where ``run_scenario`` looks them up.

``layer_metrics`` turns the spans of one run into the per-layer metrics.
This module imports nothing from cmpplab at import time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from typing import Dict, List, Optional

LAWS = ("Gamma", "Exponential", "Beta", "Tilted")
JOBS = ("simulate", "validate", "derive-q", "verify-reweighting",
        "verify-martingale", "degeneracy", "singularity", "premium")
VERIFY_FNS = ("mc_estimate", "check_reweighting", "check_martingale",
              "degeneracy_test", "singularity_probe")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("rng.uniforms", "count"), ("rng.s", "s"), ("rng.ns_per_uniform", "ns"),
     ("rng.arrival_per_event", "ratio"),
     ("sim.batches", "count"), ("sim.batches_distinct", "count"),
     ("sim.repeat_share", "ratio"), ("sim.paths", "count"),
     ("sim.events", "count"), ("sim.self_s", "s"), ("sim.ns_per_event", "ns"),
     ("sim.functionals_s", "s"), ("sim.log_density_s", "s")]
    + [(f"dist.{m}.{law}", u) for law in LAWS
       for m, u in (("draws", "count"), ("s", "s"), ("ns_per_draw", "ns"))]
    + [("dist.tilted_built", "count"), ("dist.tilted_tables", "count"),
       ("dist.tilted_table_s", "s"), ("dist.expectation_calls", "count"),
       ("dist.expectation_s", "s"),
       ("quadrature.integrals", "count"), ("quadrature.integrand_evals", "count"),
       ("quadrature.guard_doublings", "count"), ("quadrature.s", "s"),
       ("expr.array_evals", "count"), ("expr.array_s", "s"),
       ("expr.scalar_evals", "count"),
       ("model.validate_calls", "count"), ("model.validate_s", "s"),
       ("model.derive_calls", "count"), ("model.derive_s", "s")]
    + [(f"verify.{fn}.{m}", "s") for fn in VERIFY_FNS for m in ("s", "self_s")]
    + [("premium.density_calls", "count"), ("premium.density_s", "s")]
    + [(f"scenario.job.{job}.s", "s") for job in JOBS]
    + [("scenario.report_s", "s"), ("scenario.report_rows", "count"),
       ("trace.overhead_s", "s")]
)

QUADRATURE = ("quadrature.integrate_finite", "quadrature.integrate_semi_infinite",
              "quadrature.integrate_transformed")
EXPECTATIONS = ("dist.expectation", "dist.log_weighted_expectation")
FUNCTIONALS = ("sim.counts_at", "sim.aggregates_at", "sim.claim_prefix_apply")


class Tracer:
    """Spans of one traced run, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.attr_errors = 0
        self.arrival_lane = None
        self._stack = [-1]
        self._scalar_evals = [0]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, attrs=None, prepare=None):
        """fn with a span named ``name`` around each call.

        ``prepare(args, kwargs) -> (args, kwargs, state)`` may swap the
        arguments before the call; ``attrs(args, kwargs, result, state)``
        returns the span's counts after it.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(args, kwargs, result, state)
                except Exception as e:  # keep the run going; report the gap
                    self.attr_errors += 1
                    span[4] = {"attr_error": f"{type(e).__name__}: {e}"}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Replace every cmpplab module global bound to module.attr."""
        orig = getattr(sys.modules.get(f"cmpplab.{module}"), attr, None)
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = self.wrap(name, orig, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cmpplab" or mod_name.startswith("cmpplab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            self.missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, orig, **hooks))

    # -- the layer table --------------------------------------------------

    def install(self) -> None:
        import cmpplab  # noqa: F401  (imports every layer module)
        import cmpplab.cli  # noqa: F401
        from cmpplab import dist, expr, rng, scenario, sim

        self.arrival_lane = getattr(rng, "LANE_ARRIVAL", None)

        def uniforms_attrs(args, kwargs, result, state):
            lane = args[2] if len(args) > 2 else kwargs["lane"]
            return {"n": int(result.size), "lane": int(lane)}

        self.patch_function("rng", "uniforms", "rng.uniforms", attrs=uniforms_attrs)

        batch_fn = getattr(sim, "simulate_batch", None)
        batch_sig = inspect.signature(batch_fn) if batch_fn else None

        def batch_attrs(args, kwargs, result, state):
            p = batch_sig.bind(*args, **kwargs)
            p.apply_defaults()
            a = p.arguments
            base, derived, under = a["base"], a["derived"], a["under"]
            model = [base.claim_law.literal(), base.mixing_law.literal(),
                     str(base.rate_fn)]
            if under.is_q_side:
                model += [derived.q_claim.literal(), derived.q_mixing.literal(),
                          str(derived.g)]
            key = [str(under), float(a["horizon"]), int(a["seed"]), int(a["n"]),
                   int(a["start_index"]), int(a["family"])] + model
            return {"n": len(result), "events": int(result.offsets[-1]),
                    "key": json.dumps(key)}

        self.patch_function("sim", "simulate_batch", "sim.simulate_batch",
                            attrs=batch_attrs)
        self.patch_function("sim", "log_density_batch", "sim.log_density_batch")
        for attr in ("counts_at", "aggregates_at", "claim_prefix_apply"):
            self.patch_method(getattr(sim, "PathBatch", None), attr, f"sim.{attr}")

        def draws_attrs(args, kwargs, result, state):
            p = args[1] if len(args) > 1 else kwargs["p"]
            return {"n": int(getattr(p, "size", 1))}

        for law in LAWS:
            self.patch_method(getattr(dist, law, None), "quantile",
                              f"dist.quantile.{law}", attrs=draws_attrs)
        self.patch_method(getattr(dist, "Tilted", None), "__init__", "dist.Tilted")
        self.patch_method(getattr(dist, "Tilted", None), "_build_table",
                          "dist.tilted_table")
        for attr in ("expectation", "log_weighted_expectation"):
            self.patch_function("dist", attr, f"dist.{attr}")

        def count_integrand(args, kwargs):
            calls = [0]
            f = args[0]

            def counted(x):
                calls[0] += 1
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs, calls

        def integrand_attrs(args, kwargs, result, calls):
            return {"evals": calls[0]}

        for attr in ("integrate_finite", "integrate_transformed"):
            self.patch_function("quadrature", attr, f"quadrature.{attr}",
                                prepare=count_integrand, attrs=integrand_attrs)
        self.patch_function("quadrature", "integrate_semi_infinite",
                            "quadrature.integrate_semi_infinite")

        self.patch_method(getattr(expr, "RealFn", None), "eval_array", "expr.eval_array")
        real_fn = getattr(expr, "RealFn", None)
        scalar_call = real_fn.__dict__.get("__call__") if real_fn else None
        if scalar_call is None:
            self.missing.append("RealFn.__call__")
        else:
            counter = self._scalar_evals

            def counted_call(fn_self, *args, **kwargs):
                counter[0] += 1
                return scalar_call(fn_self, *args, **kwargs)

            real_fn.__call__ = counted_call

        for attr in ("validate_change", "derive_q_model"):
            self.patch_function("model", attr, f"model.{attr}")
        for attr in VERIFY_FNS:
            self.patch_function("verify", attr, f"verify.{attr}")
        self.patch_function("premium", "premium_density", "premium.premium_density")

        def report_attrs(args, kwargs, result, state):
            rows = args[0] if args else kwargs["rows"]
            return {"rows": len(rows)}

        self.patch_function("scenario", "report_write", "scenario.report_write",
                            attrs=report_attrs)
        runners = getattr(scenario, "_JOB_RUNNERS", None)
        if runners is None:
            self.missing.append("scenario._JOB_RUNNERS")
            return
        for job, runner in list(runners.items()):
            wrapped = self.wrap(f"scenario.job.{job}", runner)
            runners[job] = wrapped
            # run_scenario also calls _job_validate by its global name
            for key, value in list(vars(scenario).items()):
                if value is runner:
                    setattr(scenario, key, wrapped)

    # -- output -----------------------------------------------------------

    def dump(self, path: str, origin: float) -> None:
        """Write a header line, then one JSON line per span (times from origin)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "spans": len(self.spans),
                                 "scalar_evals": self._scalar_evals[0],
                                 "arrival_lane": self.arrival_lane,
                                 "missing": self.missing,
                                 "attr_errors": self.attr_errors}) + "\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"run": self.run_id, "id": i, "name": name,
                          "start": start - origin, "end": end - origin,
                          "parent": parent}
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")


def load_spans(path: str):
    """(header, spans) from a file written by ``Tracer.dump``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0], lines[1:]


def layer_metrics(header: dict, spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (every name in PER_LAYER but
    the tracing overhead, which needs an untraced run)."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            child[s["parent"]] += d
    name_of = [s["name"] for s in spans]

    def parent_name(s) -> Optional[str]:
        return name_of[s["parent"]] if s["parent"] >= 0 else None

    def select(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(idx, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0.0) for i in idx)

    def attr_sum(idx, key):
        return sum(spans[i].get(key, 0) for i in idx)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: Dict[str, float] = {}
    uni = select("rng.uniforms")
    batches = select("sim.simulate_batch")
    events = attr_sum(batches, "events")
    m["rng.uniforms"] = attr_sum(uni, "n")
    m["rng.s"] = total(uni)
    m["rng.ns_per_uniform"] = per(m["rng.s"], m["rng.uniforms"], 1e9)
    arrival = sum(spans[i].get("n", 0) for i in uni
                  if spans[i].get("lane") == header.get("arrival_lane"))
    m["rng.arrival_per_event"] = per(arrival, events)

    keys = [spans[i].get("key") for i in batches]
    m["sim.batches"] = len(batches)
    m["sim.batches_distinct"] = len(set(keys))
    m["sim.repeat_share"] = per(len(batches) - len(set(keys)), len(batches))
    m["sim.paths"] = attr_sum(batches, "n")
    m["sim.events"] = events
    m["sim.self_s"] = total(batches, self_time=True)
    m["sim.ns_per_event"] = per(m["sim.self_s"], events, 1e9)
    m["sim.functionals_s"] = total(
        [i for i in select(*FUNCTIONALS) if parent_name(spans[i]) not in FUNCTIONALS])
    m["sim.log_density_s"] = total(select("sim.log_density_batch"))

    for law in LAWS:
        idx = select(f"dist.quantile.{law}")
        m[f"dist.draws.{law}"] = attr_sum(idx, "n")
        m[f"dist.s.{law}"] = total(idx, self_time=True)
        m[f"dist.ns_per_draw.{law}"] = per(m[f"dist.s.{law}"],
                                           m[f"dist.draws.{law}"], 1e9)
    tables = select("dist.tilted_table")
    m["dist.tilted_built"] = len(select("dist.Tilted"))
    m["dist.tilted_tables"] = len(tables)
    m["dist.tilted_table_s"] = total(tables)
    outer = [i for i in select(*EXPECTATIONS) if parent_name(spans[i]) not in EXPECTATIONS]
    m["dist.expectation_calls"] = len(outer)
    m["dist.expectation_s"] = total(outer)

    # an integral is one QUADPACK call; a guarded semi-infinite integral
    # makes one for its first segment and one per doubling
    quad = select(*QUADRATURE)
    calls = select("quadrature.integrate_finite", "quadrature.integrate_transformed")
    semi = select("quadrature.integrate_semi_infinite")
    inner = [i for i in calls
             if parent_name(spans[i]) == "quadrature.integrate_semi_infinite"]
    m["quadrature.integrals"] = len(calls)
    m["quadrature.integrand_evals"] = attr_sum(calls, "evals")
    m["quadrature.guard_doublings"] = len(inner) - len(semi)
    m["quadrature.s"] = total([i for i in quad if parent_name(spans[i]) not in QUADRATURE])

    arrays = select("expr.eval_array")
    m["expr.array_evals"] = len(arrays)
    m["expr.array_s"] = total(arrays)
    m["expr.scalar_evals"] = header.get("scalar_evals", 0)

    for short, fn in (("validate", "validate_change"), ("derive", "derive_q_model")):
        idx = select(f"model.{fn}")
        m[f"model.{short}_calls"] = len(idx)
        m[f"model.{short}_s"] = total(idx)
    for fn in VERIFY_FNS:
        idx = select(f"verify.{fn}")
        m[f"verify.{fn}.s"] = total(idx)
        m[f"verify.{fn}.self_s"] = total(idx, self_time=True)
    idx = select("premium.premium_density")
    m["premium.density_calls"] = len(idx)
    m["premium.density_s"] = total(idx)
    for job in JOBS:
        m[f"scenario.job.{job}.s"] = total(select(f"scenario.job.{job}"))
    reports = select("scenario.report_write")
    m["scenario.report_s"] = total(reports)
    m["scenario.report_rows"] = attr_sum(reports, "rows")
    return m


COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count")
