"""Byte-identity guard for the builtin reports and the benchmark workloads.

Each file under ``tests/golden`` was written by

    cmpplab run <builtin> --paths 2000 --output tests/golden/<builtin>.csv
    cmpplab run benchmarks/workloads/<name>.scn --paths 2000 \
        --output tests/golden/<name>.csv

at the scenario's pinned seed.  The two workloads build generic Tilted laws
(tilted-mixture) and run the longest horizon (long-horizon), which no
builtin does.  A change meant to keep the numbers must keep these bytes; a
change meant to move them regenerates the files with the commands above and
says why in CHANGES.md.
"""

import csv
from pathlib import Path

import pytest

from cmpplab.cli import main
from cmpplab.scenario import BUILTIN_SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parent.parent / "benchmarks" / "workloads"


def run_and_compare(name, scenario, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["run", scenario, "--paths", "2000", "--output", str(out)]) in (0, 1)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.stem)
def test_golden_rows_pass_within_three_stderr(golden):
    # a row with a stderr and an oracle is a Monte Carlo comparison: it
    # passes exactly when its estimate is within 3 stderr of the oracle
    with golden.open(newline="") as fh:
        judged = [r for r in csv.DictReader(fh) if r["stderr"] and r["oracle"]]
    assert judged
    for r in judged:
        est, se, oracle = (float(r[k]) for k in ("estimate", "stderr", "oracle"))
        assert (r["verdict"] == "pass") == (abs(est - oracle) <= 3.0 * se), r["quantity"]


@pytest.mark.parametrize("builtin", sorted(BUILTIN_SCENARIOS))
def test_builtin_report_matches_golden(builtin, tmp_path):
    run_and_compare(builtin, builtin, tmp_path)


@pytest.mark.parametrize("workload", ["long-horizon", "tilted-mixture"])
def test_workload_report_matches_golden(workload, tmp_path):
    run_and_compare(workload, str(WORKLOADS / f"{workload}.scn"), tmp_path)
