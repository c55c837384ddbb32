"""Correctness check for the reports that benchmark runs write.

A run fails the check when any of these holds:

* it exits with a code outside {0, 1};
* its exit code disagrees with its verdicts (1 exactly when a row fails);
* it writes no report, or the report is malformed;
* a job has the wrong number of rows;
* a reference value is off by more than 1e-9 relative;
* its report bytes differ from another run at the same seed and path count.

``fail`` verdicts are not run errors: every tested row states a true
identity, so a ``fail`` is a wrong answer of the program, and it is
counted and named (by job and quantity) rather than rejected.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

REPORT_COLUMNS = ("scenario", "job", "quantity", "estimate", "stderr",
                  "oracle", "paper_value", "verdict", "seed", "detail")
VERDICTS = ("pass", "fail", "info", "inconclusive")
NUMERIC_COLUMNS = ("estimate", "stderr", "oracle", "paper_value")
REFERENCE_RTOL = 1e-9

# rows each job writes; "meta" holds the --seed and --paths override rows
ROWS_PER_JOB = {
    "meta": 2,
    "validate": 6,
    "derive-q": 4,
    "premium": 7,
    "simulate": 3,
    "verify-reweighting": 4,
    "verify-martingale": 17,     # 2 time pairs x 8 events, plus the family row
    "degeneracy": 1,
    "singularity": 4,            # 2 horizons x 2 measures
}


class ReportError(ValueError):
    pass


@dataclass
class RunCheck:
    """What the check found in one run."""

    problems: List[str] = field(default_factory=list)
    passed: int = 0
    failed: int = 0
    fail_rows: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_report(data: bytes) -> List[Dict[str, str]]:
    """Rows of a CSV report as dicts; raises ReportError when malformed."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ReportError(f"report is not UTF-8: {e}") from None
    if not text.endswith("\n"):
        raise ReportError("report does not end with a newline (truncated?)")
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records or tuple(records[0]) != REPORT_COLUMNS:
        raise ReportError(f"bad header {records[0] if records else None!r}")
    rows = []
    for lineno, rec in enumerate(records[1:], start=2):
        if len(rec) != len(REPORT_COLUMNS):
            raise ReportError(f"line {lineno}: {len(rec)} fields, "
                              f"expected {len(REPORT_COLUMNS)}")
        row = dict(zip(REPORT_COLUMNS, rec))
        if row["verdict"] not in VERDICTS:
            raise ReportError(f"line {lineno}: unknown verdict {row['verdict']!r}")
        for col in NUMERIC_COLUMNS:
            if row[col]:
                try:
                    float(row[col])
                except ValueError:
                    raise ReportError(f"line {lineno}: {col} is not a number: "
                                      f"{row[col]!r}") from None
        rows.append(row)
    return rows


def check_run(exit_code: int, report: Optional[bytes], jobs: Sequence[str],
              references: Dict[str, float]) -> RunCheck:
    """Check one run's exit code and report against its workload.

    ``jobs`` are the jobs the scenario runs (validate always runs);
    ``references`` maps a quantity name to its closed-form value.
    """
    result = RunCheck()
    if exit_code not in (0, 1):
        result.problems.append(f"exit code {exit_code}")
    if report is None:
        result.problems.append("no report written")
        return result
    try:
        rows = parse_report(report)
    except ReportError as e:
        result.problems.append(f"malformed report: {e}")
        return result

    for row in rows:
        if row["verdict"] == "pass":
            result.passed += 1
        elif row["verdict"] == "fail":
            result.failed += 1
            result.fail_rows.append(f"{row['job']}/{row['quantity']}")
    if exit_code in (0, 1) and (exit_code == 1) != (result.failed > 0):
        result.problems.append(
            f"exit code {exit_code} disagrees with {result.failed} fail rows")

    expected = {job: ROWS_PER_JOB[job]
                for job in ("meta", "validate", *jobs)}
    seen: Dict[str, int] = {}
    for row in rows:
        seen[row["job"]] = seen.get(row["job"], 0) + 1
    for job in sorted(set(expected) | set(seen)):
        if seen.get(job, 0) != expected.get(job, 0):
            result.problems.append(f"job {job}: {seen.get(job, 0)} rows, "
                                   f"expected {expected.get(job, 0)}")

    for quantity, value in sorted(references.items()):
        matches = [r for r in rows if r["quantity"] == quantity]
        if len(matches) != 1:
            result.problems.append(f"reference {quantity}: {len(matches)} rows")
            continue
        text = matches[0]["estimate"]
        est = float(text) if text else math.nan
        if not abs(est - value) <= REFERENCE_RTOL * abs(value):
            result.problems.append(f"reference {quantity}: {text or 'empty'} "
                                   f"!= {value!r}")
    return result


def check_same_bytes(seeds: Sequence[int],
                     reports: Sequence[Optional[bytes]]) -> List[Optional[str]]:
    """Per run, a problem when its report differs from the first report
    written at the same seed (all runs share one path count)."""
    first: Dict[int, bytes] = {}
    out: List[Optional[str]] = []
    for seed, report in zip(seeds, reports):
        if report is not None and first.setdefault(seed, report) != report:
            out.append("report bytes differ from another run at the same seed")
        else:
            out.append(None)
    return out
