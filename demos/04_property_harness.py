"""Running the property harness programmatically.

A small seeded run of every check, then one deliberately broken configuration
showing how a failure is reported with a replayable witness.
"""

from minkval import run_suite
from minkval.harness import CHECKS

print("running all checks at 5 trials, seed 42:")
for report in run_suite(seed=42, trials=5):
    print(f"  {report.check:24s} {report.status}")

print("\nfault injection: dtilde consistency under the wrong conjugation convention")
bad = CHECKS["dtilde_consistency"](42, 5, conjugate_atoms=False)
print("  status:", bad.status)
assert not bad.passed
print("  witness keys:", sorted(bad.witness))
print("  replay from seed", bad.seed, "trial", bad.witness["trial"])
