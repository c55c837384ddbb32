"""Byte-identity guard for the builtin reports.

Each file under ``tests/golden`` was written by

    cmpplab run <builtin> --paths 2000 --output tests/golden/<builtin>.csv

at the builtin's pinned seed.  A change meant to keep the numbers must keep
these bytes; a change meant to move them regenerates the files with the
command above and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from cmpplab.cli import main
from cmpplab.scenario import BUILTIN_SCENARIOS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("builtin", sorted(BUILTIN_SCENARIOS))
def test_builtin_report_matches_golden(builtin, tmp_path):
    out = tmp_path / f"{builtin}.csv"
    assert main(["run", builtin, "--paths", "2000", "--output", str(out)]) in (0, 1)
    assert out.read_bytes() == (GOLDEN / f"{builtin}.csv").read_bytes()
