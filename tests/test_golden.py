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


@pytest.mark.parametrize("builtin", sorted(BUILTIN_SCENARIOS))
def test_builtin_report_matches_golden(builtin, tmp_path):
    run_and_compare(builtin, builtin, tmp_path)


@pytest.mark.parametrize("workload", ["long-horizon", "tilted-mixture"])
def test_workload_report_matches_golden(workload, tmp_path):
    run_and_compare(workload, str(WORKLOADS / f"{workload}.scn"), tmp_path)
