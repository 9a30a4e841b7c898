"""The narrative demos run to completion.

04_property_harness.py is left out: it takes about ten seconds and only
repeats what the run_suite tests already cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "name", ["01_exact_polytopes.py", "02_complex_structure.py", "03_valuation_zoo.py"]
)
def test_demo_runs(name):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
