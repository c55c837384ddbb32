"""Every demo script runs to completion in a fresh interpreter, with
warnings as errors and nothing on stderr, so the narrative scripts keep up
with the library API they call."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
