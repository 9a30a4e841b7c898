"""The work-count script prints the same counts in two processes, on the
suite, one K8 reconstruction and one op of the recon round."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "work_counts.py"
SRC = SCRIPT.parent.parent / "src"


def test_work_counts_repeat_across_processes():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run():
        return subprocess.run(
            [sys.executable, str(SCRIPT), "suite", "K8:d_m", "recon:S1:proj"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.splitlines()

    first = run()
    assert [line.split(",")[0] for line in first] == [
        '{"input": "suite"', '{"input": "K8:d_m"', '{"input": "recon:S1:proj"']
    assert '"_direction": 0' not in first[0] and '"_hull_engine": 0' not in first[1]
    assert '"_hull_engine": 0' not in first[2]
    assert run() == first
