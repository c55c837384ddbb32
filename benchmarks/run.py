"""cmpplab benchmark: time `cmpplab run` on fixed scenario workloads.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [--paths N]

Run from the root of a source checkout; the program is imported from
``src/``.  Each timed run is a fresh interpreter (``child.py``) running
``cmpplab.cli.main(["run", SCENARIO, "--seed", N, "--paths", P,
"--output", TMP])``.  Children run one at a time, in pairs at the same
program seed whose reports must be byte-identical, until ``--seconds``
is spent.  Every report is checked (``check.py``).

``--trace 0`` reports the end-to-end metrics.  Pair j runs at program
seed ``--seed + j * SEED_STRIDE``, so the verdict shares average over
several seeds.  ``--trace 1`` runs every pair at ``--seed``, one child
untraced and one traced, and reports the per-layer metrics
(``tracer.py``), including the tracing overhead.  End-to-end times are
scaled to a reference host speed (``_reference_s``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric with its unit, the machine, and the failing rows by name.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_run, check_same_bytes  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER, layer_metrics, load_spans  # noqa: E402

PINNED_SEED = 20190521
SEED_STRIDE = 1_000_003   # keeps the seeds of runs at nearby --seed values apart
MIN_PAIRS = 2             # whatever --seconds says: counts must repeat across pairs
CHILD_TIMEOUT_S = 150.0
# Median time of _reference_s() on the host the benchmark was defined on (a
# 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).  Timings are reported at this
# host speed: see _reference_s.
REFERENCE_S = 0.170
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"), ("verdict_pass_share", "ratio"))


def _references(path: str) -> Dict[str, float]:
    """``#@ref quantity = fraction`` comment lines of a scenario file."""
    refs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = re.match(r"#@ref\s+(.+?)\s*=\s*(\S+)\s*$", line)
            if m:
                refs[m.group(1)] = float(Fraction(m.group(2)))
    return refs


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                 # builtin name or file under workloads/
    paths: int
    jobs: Tuple[str, ...]         # as the scenario lists them; validate always runs
    references: Dict[str, float]


def _file_workload(name: str, paths: int, jobs: Tuple[str, ...]) -> Workload:
    path = os.path.join(HERE, "workloads", f"{name}.scn")
    return Workload(name, path, paths, jobs, _references(path))


WORKLOADS = {w.name: w for w in (
    # example-6.2: X ~ exp(rate=0.2) so E[X] = 5 and p(P) = E[Theta] E[X] = 5.
    # gamma = ln(x/5) gives Q claims gamma(rate=0.2, shape=2), E_Q[X_1] = 10;
    # xi = (27/8) theta^2 e^-theta turns gamma(2,2) mixing into gamma(3,4), and
    # g = theta^2 gives E_Q[N_1] = E[Theta^2] = 4*5/3^2 = 20/9, p(Q) = 200/9.
    Workload("gamma-claims", "example-6.2", 100_000,
             ("validate", "derive-q", "premium", "simulate",
              "verify-reweighting", "verify-martingale", "degeneracy"),
             {"p(P)": 5.0, "E_Q[X_1]": 10.0, "E_Q[N_1]": 20 / 9, "p(Q)": 200 / 9}),
    _file_workload("long-horizon", 100_000,
                   ("validate", "derive-q", "premium", "verify-martingale",
                    "singularity")),
    _file_workload("tilted-mixture", 25_000,
                   ("validate", "derive-q", "premium", "simulate",
                    "verify-reweighting", "verify-martingale", "degeneracy")),
)}


@dataclass
class Child:
    """One finished child process."""

    traced: bool
    seed: int
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    report: Optional[bytes]
    result: Optional[dict]        # child.py's RESULT.json
    layers: Optional[dict]        # per-layer metrics of a traced child
    trace_gaps: List[str]         # functions the tracer could not wrap or count
    stderr: str
    scale: float = 1.0            # REFERENCE_S / reference time around this child


def _spawn(cmd: List[str], env: Dict[str, str], cwd: str, log: str) -> Tuple[int, float, float]:
    """Run cmd to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0  # KiB -> MB


class Bench:
    def __init__(self, root: str, workload: Workload, paths: int, work: str):
        self.workload, self.paths, self.work = workload, paths, work
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src, TMPDIR=work)
        self.env.pop("CMPPLAB_OUTPUT_DIR", None)
        self.count = 0

    def warm_up(self) -> None:
        """Import once untimed: compiles bytecode and fills the page cache."""
        log = os.path.join(self.work, "warmup.log")
        code, _, _ = _spawn([sys.executable, "-c", "import cmpplab.cli"],
                            self.env, self.work, log)
        if code != 0:
            with open(log, "r", encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"cannot import cmpplab from {self.src}:\n{fh.read()}")

    def child(self, traced: bool, seed: int) -> Child:
        self.count += 1
        tag = f"{self.count:03d}"
        report = os.path.join(self.work, f"report-{tag}.csv")
        result = os.path.join(self.work, f"result-{tag}.json")
        spans = os.path.join(self.work, f"spans-{tag}.jsonl")
        log = os.path.join(self.work, f"child-{tag}.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result, self.src]
        if traced:
            cmd += ["--trace", spans, f"{self.workload.name}:{seed}:{tag}"]
        cmd += ["--", self.workload.scenario, "--seed", str(seed),
                "--paths", str(self.paths), "--output", report]
        code, wall, rss = _spawn(cmd, self.env, self.work, log)
        text = _read(result, "r")
        layers, gaps = None, []
        if traced and os.path.exists(spans):
            header, span_list = load_spans(spans)
            layers = layer_metrics(header, span_list)
            gaps = list(header["missing"])
            if header["attr_errors"]:
                gaps.append(f"{header['attr_errors']} spans without counts")
        return Child(traced=traced, seed=seed, exit_code=code, wall_s=wall,
                     peak_rss_mb=rss, report=_read(report, "rb"),
                     result=json.loads(text) if text else None, layers=layers,
                     trace_gaps=gaps, stderr=_read(log, "r") or "")


def _reference_s() -> float:
    """Seconds taken by a fixed task that shares no code with cmpplab.

    The host's speed drifts by 20% and more over minutes when neighbours
    load it.  The task (uint64 mixing, log and cumsum over 8 MB arrays, and
    a Python loop, like the program's own mix) is timed before and after
    each child; the child's timings are scaled by REFERENCE_S over the
    mean of the two, which removes most of that drift.
    """
    import numpy as np

    t0 = time.perf_counter()
    z = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(8):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 1e-300
        np.cumsum(-np.log(x))
    total = 0.0
    for i in range(300_000):
        total += i * 0.5
    return time.perf_counter() - t0


def _read(path: str, mode: str):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError:
        return None


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _problems(children: List[Child], workload: Workload) -> List[Tuple[List[str], object]]:
    """Per child, (problems, RunCheck)."""
    out = []
    same = check_same_bytes([c.seed for c in children], [c.report for c in children])
    for c, differ in zip(children, same):
        chk = check_run(c.exit_code, c.report, workload.jobs, workload.references)
        problems = list(chk.problems)
        if differ:
            problems.append(differ)
        if c.result is None:
            problems.append("child wrote no result (crashed before the run ended)")
        elif c.result["exit_code"] != c.exit_code:
            problems.append(f"process exit {c.exit_code} != run exit "
                            f"{c.result['exit_code']}")
        if c.traced and c.layers is None:
            problems.append("traced child wrote no spans")
        out.append((problems, chk))
    return out


def _end_to_end(plain: List[Child]) -> Dict[str, dict]:
    """Timing and memory medians over the untraced children, printed.

    Times are scaled to the reference host speed; the unscaled median is
    printed beside each.
    """
    raw = {
        "setup_s": [c.result["setup_s"] for c in plain],
        "run_s": [c.result["run_s"] for c in plain],
        "wall_s": [c.wall_s for c in plain],
        "peak_rss_mb": [c.peak_rss_mb for c in plain],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if not raw.get(name):
            continue
        values = raw[name] if name == "peak_rss_mb" else \
            [v * c.scale for v, c in zip(raw[name], plain)]
        q1, med, q3 = _quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:<20} {med:12.6g} {unit:<6} median of {len(values)} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}; unscaled median "
              f"{statistics.median(raw[name]):.6g})")
    return metrics


def _per_layer(children: List[Child], plain: List[Child]) -> Dict[str, dict]:
    """Per-layer medians over the traced children, printed."""
    traced = [c for c in children if c.traced and c.layers and c.result]
    if not (traced and plain):
        return {}
    overhead = statistics.median(c.result["run_s"] * c.scale for c in traced) \
        - statistics.median(c.result["run_s"] * c.scale for c in plain)
    metrics = {}
    for name, unit in PER_LAYER:
        value = overhead if name == "trace.overhead_s" else \
            statistics.median(c.layers[name] for c in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:14.6g} {unit}")
    return metrics


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmpplab", "__init__.py")):
        print(f"error: no cmpplab source under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    paths = args.paths or workload.paths
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, ".bench_work"))
    try:
        bench = Bench(root, workload, paths, work)
        load_before = os.getloadavg()
        bench.warm_up()
        children: List[Child] = []
        start = time.perf_counter()
        refs = [_reference_s()]
        while True:
            pair, second = divmod(len(children), 2)
            seed = args.seed if args.trace else args.seed + pair * SEED_STRIDE
            children.append(bench.child(bool(args.trace) and second == 1, seed))
            refs.append(_reference_s())
            if second == 0:
                continue
            next_pair_s = 2 * (statistics.median(c.wall_s for c in children)
                               + statistics.median(refs))
            if pair + 1 >= MIN_PAIRS and \
                    time.perf_counter() - start + next_pair_s > args.seconds:
                break
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for c, before, after in zip(children, refs, refs[1:]):
        c.scale = REFERENCE_S / ((before + after) / 2.0)

    checks = _problems(children, workload)
    # counts are a pure function of the inputs, so traced children must agree
    layers = [c.layers for c in children if c.layers is not None]
    for name in COUNT_METRICS:
        if len({lay[name] for lay in layers}) > 1:
            for c, (problems, _) in zip(children, checks):
                if c.traced:
                    problems.append(f"count {name} differs between traced runs")

    failed = sum(1 for problems, _ in checks if problems)
    attempted = len(children)
    plain = [c for c in children if not c.traced and c.result is not None]
    env = next((c.result for c in children if c.result), {})

    seeds = sorted({c.seed for c in children})
    print(f"# cmpplab benchmark: workload={workload.name} scenario="
          f"{os.path.basename(workload.scenario)} seed={args.seed} paths={paths} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={env.get('python')} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')} "
          f"loadavg={load_before[0]:.2f}->{load_after[0]:.2f}")
    print(f"# {attempted} children, fresh interpreter each, one at a time "
          f"({sum(c.traced for c in children)} traced); program seeds "
          f"{', '.join(map(str, seeds))}")
    print(f"# reference task: median {statistics.median(refs):.4g} s of {len(refs)} "
          f"(min {min(refs):.4g}, max {max(refs):.4g}); times below are scaled "
          f"to {REFERENCE_S:g} s")

    passed = sum(chk.passed for _, chk in checks)
    fails = sum(chk.failed for _, chk in checks)
    tested = passed + fails
    if args.trace:
        metrics = _per_layer(children, plain)
    else:
        metrics = _end_to_end(plain)
        metrics["verdict_pass_share"] = {"value": passed / tested if tested else 0.0,
                                         "unit": "ratio"}
        print(f"{'verdict_pass_share':<20} {metrics['verdict_pass_share']['value']:12.6g} "
              f"ratio  {passed} pass of {tested} tested rows")
    print(f"{'verdict_fail_share':<20} {fails / tested if tested else 0.0:12.6g} "
          f"ratio  {fails} fail of {tested} tested rows")
    print(f"{'run_error_share':<20} {failed / attempted:12.6g} "
          f"ratio  {failed} of {attempted} runs fail the check")
    for gap in sorted({g for c in children for g in c.trace_gaps}):
        print(f"# trace gap (reads 0): {gap}")
    fail_seeds: Dict[str, set] = {}
    for c, (_, chk) in zip(children, checks):
        for row in chk.fail_rows:
            fail_seeds.setdefault(row, set()).add(c.seed)
    for row, row_seeds in sorted(fail_seeds.items()):
        print(f"# fail row: {row} at seed {', '.join(map(str, sorted(row_seeds)))}")
    for i, (problems, _) in enumerate(checks, start=1):
        for p in problems:
            print(f"# run error: child {i}: {p}")
        if problems and children[i - 1].stderr:
            print("# child output: " + children[i - 1].stderr[-400:].replace("\n", " | "))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the workload's path count")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
