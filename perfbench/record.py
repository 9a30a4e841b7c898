"""Record what the benchmark compares against, at the current commit.

    python3 perfbench/record.py

Writes ``perfbench/recorded.json``:

- ``suite``: the sha256 of the stdout of ``minkval verify --seed S
  --trials T`` for each shipped (S, T), run as a separate process.  The
  suite workload checks its outputs against these digests, which is the
  rule that ``verify`` output stays byte-identical.
- ``context``: Python version, ``os.cpu_count()`` and load average when
  recorded, the seeds the recording covers, why each workload exists, and
  each workload's measured input properties, which are the same for every
  seed (checked on the recorded seeds).

Re-run it only when a change is meant to alter ``verify`` output or the
benchmark's inputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SUITE_SEEDS = (40, 41, 42, 43)
SUITE_TRIALS = 1
PROPERTY_SEEDS = tuple(range(1, 11))
REASONS = {
    "suite": "minkval verify, the ROADMAP end-to-end path; evaluator loops dominate, so "
             "evaluator work shows here and a hull rewrite should not",
    "recon": "minkval op --out for every kind; hulls under iterated Minkowski sums dominate, so "
             "hull work shows here and an evaluator change should not",
    "kernel": "hull, volume, area measure, sums and both mixed-volume routes on single clouds "
              "of varied size, extremeness, rank and denominators; never enters valuations",
}


def suite_digests() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = {}
    for s in SUITE_SEEDS:
        proc = subprocess.run(
            [sys.executable, "-m", "minkval.cli", "verify", "--seed", str(s),
             "--trials", str(SUITE_TRIALS)],
            env=env, cwd=ROOT, capture_output=True, check=True,
        )
        out[str(s)] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def input_properties() -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import Kernel, Recon

    props = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for cls in (Recon, Kernel):
            w = cls()
            per_seed = []
            for seed in PROPERTY_SEEDS:
                w.prepare(seed, Path(tmp))
                per_seed.append(w.properties())
            # each seed maps the same base inputs by a congruence
            if any(p != per_seed[0] for p in per_seed):
                raise SystemExit(f"{w.name}: input properties differ between seeds")
            props[w.name] = per_seed[0]
    return props


def main() -> int:
    load = os.getloadavg()[0]
    recorded = {
        "suite": {"trials": SUITE_TRIALS, "digests": suite_digests()},
        "context": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg_at_start": round(load, 2),
            "property_seeds": list(PROPERTY_SEEDS),
            "suite_seeds": list(SUITE_SEEDS),
            "why": REASONS,
            "inputs": input_properties(),
        },
    }
    (HERE / "recorded.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
