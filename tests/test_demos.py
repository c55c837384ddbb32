"""Every demo script, and the README's quick tour, runs to completion in a
fresh interpreter, with warnings as errors and nothing on stderr, so the
narrative code keeps up with the library API it calls."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def readme_quick_tour() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "the README should hold one python block"
    return blocks[0]


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs_clean(demo):
    source = ["-c", readme_quick_tour()] if demo == README else [str(demo)]
    proc = subprocess.run([sys.executable, "-W", "error", *source],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
