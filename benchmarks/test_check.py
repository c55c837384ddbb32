"""Tests of the benchmark's correctness check, span reduction and metadata.

    python3 -m pytest benchmarks -q
"""

import csv
import io
import json
import os

import pytest

from check import REPORT_COLUMNS, ROWS_PER_JOB, check_run, check_same_bytes, parse_report
from run import END_TO_END, WORKLOADS
from tracer import PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
JOBS = ("validate", "premium")
REFS = {"p(P)": 5.0, "p(Q)": 10.0}


def make_report(p_q="10", fail_cond13=False) -> bytes:
    rows = [("meta", "override:paths", "", "info"), ("meta", "override:seed", "", "info")]
    rows += [("validate", f"v{i}", "1", "pass") for i in range(ROWS_PER_JOB["validate"])]
    rows += [("premium", "p(P)", "5", "info"), ("premium", "p(Q)", p_q, "pass"),
             ("premium", "cond13", "5", "fail" if fail_cond13 else "pass")]
    rows += [("premium", f"x{i}", "", "info") for i in range(ROWS_PER_JOB["premium"] - 3)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for job, quantity, estimate, verdict in rows:
        writer.writerow(["w", job, quantity, estimate, "", "", "", verdict, "7", ""])
    return buf.getvalue().encode()


def test_clean_run_passes_and_counts_verdicts():
    res = check_run(0, make_report(), JOBS, REFS)
    assert res.ok, res.problems
    assert (res.passed, res.failed) == (8, 0)


def test_fail_rows_are_named_not_run_errors():
    res = check_run(1, make_report(fail_cond13=True), JOBS, REFS)
    assert res.ok, res.problems
    assert res.failed == 1 and res.fail_rows == ["premium/cond13"]


def test_truncated_report_is_a_run_error():
    data = make_report()
    for cut in (len(data) - 1, len(data) // 2, 10, 0):
        res = check_run(0, data[:cut], JOBS, REFS)
        assert not res.ok, cut


def test_missing_report_is_a_run_error():
    assert not check_run(0, None, JOBS, REFS).ok


def test_wrong_reference_value_is_a_run_error():
    res = check_run(0, make_report(p_q="10.0000001"), JOBS, REFS)
    assert any("reference p(Q)" in p for p in res.problems)
    # within 1e-9 relative is accepted
    assert check_run(0, make_report(p_q="10.000000001"), JOBS, REFS).ok


def test_exit_2_run_is_a_run_error():
    res = check_run(2, make_report(), JOBS, REFS)
    assert any("exit code 2" in p for p in res.problems)


def test_exit_code_must_agree_with_verdicts():
    assert not check_run(1, make_report(), JOBS, REFS).ok
    assert not check_run(0, make_report(fail_cond13=True), JOBS, REFS).ok


def test_wrong_row_count_is_a_run_error():
    res = check_run(0, make_report(), ("validate", "premium", "degeneracy"), REFS)
    assert any("job degeneracy" in p for p in res.problems)


def test_reports_that_differ_at_the_same_seed_are_run_errors():
    a, b = make_report(), make_report(p_q="10.000000000000002")
    assert check_same_bytes([7, 7, 7], [a, a, None]) == [None, None, None]
    problems = check_same_bytes([7, 7, 7], [a, b, a])
    assert problems[0] is None and problems[2] is None and problems[1]
    # reports are compared only within a seed
    assert check_same_bytes([7, 8, 8], [a, b, b]) == [None, None, None]
    assert check_same_bytes([7, 8, 8], [a, b, a])[2]


def test_parse_report_rejects_bad_fields():
    good = make_report()
    with pytest.raises(ValueError):
        parse_report(good.replace(b",pass,", b",maybe,", 1))
    with pytest.raises(ValueError):
        parse_report(good.replace(b",10,", b",ten,", 1))


def test_layer_metrics_self_time_and_counts():
    spans = [
        {"name": "sim.simulate_batch", "start": 0.0, "end": 1.0, "parent": -1,
         "n": 10, "events": 40, "key": "a"},
        {"name": "rng.uniforms", "start": 0.1, "end": 0.3, "parent": 0, "n": 60, "lane": 1},
        {"name": "dist.quantile.Gamma", "start": 0.4, "end": 0.6, "parent": 0, "n": 40},
        {"name": "sim.simulate_batch", "start": 1.0, "end": 1.5, "parent": -1,
         "n": 10, "events": 40, "key": "a"},
        {"name": "quadrature.integrate_semi_infinite", "start": 2.0, "end": 3.0, "parent": -1},
        {"name": "quadrature.integrate_finite", "start": 2.0, "end": 2.5, "parent": 4, "evals": 21},
        {"name": "quadrature.integrate_finite", "start": 2.5, "end": 3.0, "parent": 4, "evals": 21},
    ]
    m = layer_metrics({"scalar_evals": 5, "arrival_lane": 1}, spans)
    assert m["sim.batches"] == 2 and m["sim.batches_distinct"] == 1
    assert m["sim.repeat_share"] == 0.5 and m["sim.events"] == 80
    assert m["sim.self_s"] == pytest.approx(0.6 + 0.5)
    assert m["rng.arrival_per_event"] == pytest.approx(60 / 80)
    assert m["dist.draws.Gamma"] == 40 and m["dist.s.Gamma"] == pytest.approx(0.2)
    assert m["quadrature.integrals"] == 2 and m["quadrature.guard_doublings"] == 1
    assert m["quadrature.integrand_evals"] == 42 and m["quadrature.s"] == pytest.approx(1.0)
    assert m["expr.scalar_evals"] == 5
    assert set(m) | {"trace.overhead_s"} == {name for name, _ in PER_LAYER}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_scenario_files_carry_their_references():
    assert WORKLOADS["long-horizon"].references == {"p(P)": 5.0, "E_Q[N_1]": 2.0, "p(Q)": 10.0}
    assert WORKLOADS["tilted-mixture"].references == {
        "E_Q[X_1]": 55 / 6, "E_Q[N_1]": 3.5, "p(Q)": 385 / 12}
