"""minkval benchmark, run from the repository root.

    python3 perfbench/run.py --workload {suite,recon,kernel,all} --seed N \\
        --seconds S --trace {0,1}

``all`` runs the three workloads one after the other in one process and
prefixes each metric with its workload.

The workload's ops run in rounds, single-threaded, in one process: a round
is the workload's whole fixed batch, and rounds repeat until the next one
would end after S seconds (at least MIN_ROUNDS rounds).  End-to-end metrics come
from the untraced rounds, with every time rescaled by calibrate() (see
CAL_REF_S): ``wall_s`` is the batch time, summed from each op's median over
the rounds; ``op_p50_ms``/``op_p90_ms`` are nearest-rank percentiles over
every op of every round; ``setup_s`` is the median of SETUP_REPS set-ups (a
fresh interpreter importing minkval, then input generation and input
files); ``peak_rss_mb`` is the process's peak resident memory.  Outputs are
checked exactly after the clock stops.  With ``--trace 1`` one more round
runs with ``spans.Tracer`` installed; its outputs must equal the untraced
ones, and the per-layer metrics replace the end-to-end ones on the last
line.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Human-readable lines before it
carry the same metrics plus ``fail_frac``, sample counts, the run context
and the measured input properties.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 11
MIN_ROUNDS = 3
# Untraced rounds stop once ROUND_BUDGET_S has gone, whatever MIN_ROUNDS
# says, and no op may run past HARD_END_S after start: one that would is cut
# there and counts as timed out.  This keeps a run of a badly slowed program
# under the 180 s a run may take.
ROUND_BUDGET_S = 90.0
HARD_END_S = 165.0
TRACE_CAP_FACTOR = 4  # tracing slows ops; the traced round's caps widen by this
# The speed of a shared host drifts by 20-40 % over minutes, and every timing
# of a run drifts with it.  So each op is bracketed by calibrate() and its
# time is rescaled to a host on which calibrate() takes CAL_REF_S, the
# median on the 2-core host the benchmark was defined on.  Raw seconds are
# printed beside the rescaled ones.
CAL_REF_S = 0.004
WORKLOAD_NAMES = ("suite", "recon", "kernel")


class OpTimeout(BaseException):
    """Raised into an op that exceeded its cap.  A BaseException, so the
    program's own ``except Exception`` handlers let it through."""


class Alarm:
    """Per-op time cap on SIGALRM."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def start(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def calibrate() -> float:
    """Time a fixed piece of pure-Python work of the program's kind:
    Fraction arithmetic and small integer dot products."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
    pts = [(i * 7919 % 1009 - 500, i * 104729 % 1013 - 500, i * 13 % 1019 - 500,
            i * 31 % 1021 - 500) for i in range(50)]
    seen = {}
    for j, n in enumerate(pts):
        seen[j] = tuple(k for k, p in enumerate(pts) if sum(a * b for a, b in zip(n, p)) > j)
    return perf_counter() - start


class Round:
    def __init__(self):
        self.times: list[float | None] = []
        self.cal: list[float] = []  # calibrate() before each op, and once after the last
        self.status: list[str] = []
        self.digests: list[str | None] = []
        self.kept: list[object] = []

    @property
    def wall(self) -> float:
        """Raw seconds spent in this round's ops."""
        return sum(t for t in self.times if t is not None)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled(i) for i, t in enumerate(self.times) if t is not None)

    def scaled(self, i: int) -> float | None:
        """Op i's time in reference seconds (see CAL_REF_S)."""
        t = self.times[i]
        return None if t is None else t * 2 * CAL_REF_S / (self.cal[i] + self.cal[i + 1])


def run_round(workload, alarm: Alarm, hard_end: float, cap_factor: float = 1,
              tracer=None) -> Round:
    cap = workload.cap_s * cap_factor if workload.cap_s else math.inf
    rnd = Round()
    workload.start_round()
    for i, op in enumerate(workload.ops):
        gc.collect()
        rnd.cal.append(calibrate())
        remaining = hard_end - perf_counter()
        if remaining <= 0:
            rnd.times.append(None)
            rnd.status.append("timeout")
            rnd.digests.append(None)
            rnd.kept.append(None)
            continue
        if tracer is not None:
            tracer.op_id = i
        status, result = "ok", None
        alarm.start(min(cap, remaining))
        start = perf_counter()
        try:
            result = op.run()
            end = perf_counter()
            alarm.armed = False
        except OpTimeout:
            end = perf_counter()
            status = "timeout"
        except Exception as e:
            end = perf_counter()
            status = "error"
            print(f"op {op.name} failed: {type(e).__name__}: {e}", file=sys.stderr)
        finally:
            alarm.stop()
        if tracer is not None:
            tracer.reset_stack()
        digest = kept = None
        if status == "ok":
            if workload.exit_ok(result):
                digest, kept = workload.collect(i, result)
            else:
                status = "exit"
        rnd.times.append(end - start)
        rnd.status.append(status)
        rnd.digests.append(digest)
        rnd.kept.append(kept)
    rnd.cal.append(calibrate())
    return rnd


def batch_wall(rounds: list[Round], nops: int) -> float:
    """Time of one batch: the sum over ops of each op's median time across
    rounds.  A burst of host noise slows a few ops of one round; the
    per-op median drops it where a median of round totals would not."""
    total = 0.0
    for i in range(nops):
        times = [r.scaled(i) for r in rounds if r.times[i] is not None]
        total += statistics.median(times) if times else 0.0
    return total


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """(value at quantile q, number of samples above its rank)."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def setup_once(workload, seed: int, workdir: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    before = calibrate()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import minkval.cli"], env=env, cwd=ROOT, check=True,
                   timeout=60)
    workload.prepare(seed, workdir)
    elapsed = perf_counter() - start
    return elapsed * 2 * CAL_REF_S / (before + calibrate())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, args, recorded: dict, alarm: Alarm) -> dict:
    """Set up, measure, check and (with --trace 1) trace one workload; print
    its human-readable lines and return its result object."""
    import spans
    from workloads import WORKLOADS

    started = perf_counter()
    load_at_start = os.getloadavg()[0]
    cls = WORKLOADS[name]
    workload = cls(recorded) if name == "suite" else cls()

    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [setup_once(workload, args.seed, workdir) for _ in range(SETUP_REPS)]

        hard_end = started + HARD_END_S
        t0 = perf_counter()
        rounds: list[Round] = []
        while True:
            rounds.append(run_round(workload, alarm, hard_end))
            elapsed = perf_counter() - t0
            next_end = elapsed + statistics.median(r.wall for r in rounds)
            if next_end > ROUND_BUDGET_S:
                break
            if len(rounds) >= MIN_ROUNDS and next_end > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        nops = len(workload.ops)
        wall_s = batch_wall(rounds, nops)

        # reference output of each op: its first successful one
        ref_digest: list[str | None] = [None] * nops
        kept: dict[int, object] = {}
        for rnd in rounds:
            for i in range(nops):
                if ref_digest[i] is None and rnd.digests[i] is not None:
                    ref_digest[i] = rnd.digests[i]
                    kept[i] = rnd.kept[i]
        # the checks and the input properties run program code too
        alarm.start(max(1.0, hard_end - perf_counter()))
        try:
            bad = workload.check(kept)
            properties = workload.properties()
        except OpTimeout:
            bad, properties = set(range(nops)), "not measured: the run hit its time limit"
        finally:
            alarm.stop()
        mismatched = 0
        failed = 0
        for rnd in rounds:
            for i in range(nops):
                if rnd.status[i] != "ok" or i in bad:
                    failed += 1
                elif rnd.digests[i] != ref_digest[i]:
                    failed += 1
                    mismatched += 1
        attempted = nops * len(rounds)
        correct = not bad and mismatched == 0

        samples = sorted(r.scaled(i) for r in rounds for i in range(nops) if r.times[i] is not None)
        p50, _ = nearest_rank(samples, 0.5)
        p90, beyond90 = nearest_rank(samples, 0.9)
        results = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall_s, "s"),
            "op_p50_ms": metric(1000 * p50, "ms"),
            "op_p90_ms": metric(1000 * p90, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

        print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"context: python={platform.python_version()} cpu_count={os.cpu_count()} "
              f"loadavg_at_start={load_at_start:.2f}")
        print("inputs: " + json.dumps(properties, separators=(",", ":")))
        statuses = {}
        for rnd in rounds:
            for s in rnd.status:
                statuses[s] = statuses.get(s, 0) + 1
        print(f"rounds={len(rounds)} ops_per_round={nops} op_samples={len(samples)} "
              f"samples_beyond_p90={beyond90} "
              f"statuses={statuses}")
        print(f"raw seconds: round walls {[round(r.wall, 4) for r in rounds]}, "
              f"median calibrate() {1000 * statistics.median(c for r in rounds for c in r.cal):.4f} ms "
              f"against {1000 * CAL_REF_S:g} ms")
        if beyond90 < 10:
            print(f"warning: only {beyond90} samples beyond op_p90_ms")
        for metric_name, m in results.items():
            print(f"{name}.{metric_name} = {m['value']:.6g} {m['unit']}")
        print(f"{name}.fail_frac = {failed / attempted:.6g} ({failed}/{attempted}); "
              f"output check failures {len(bad)}, round-to-round mismatches {mismatched}")

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_round(workload, alarm, hard_end, TRACE_CAP_FACTOR, tracer)
            finally:
                tracer.uninstall()
            same = traced.digests == ref_digest
            correct = correct and same
            overhead = traced.scaled_wall - wall_s
            print(f"trace: outputs identical to untraced run: {same}; traced wall "
                  f"{traced.scaled_wall:.4f} s, untraced {wall_s:.4f} s, overhead {overhead:.4f} s")
            # per-layer times are the traced round's raw seconds
            layer = tracer.metrics(overhead)
            units = {n: unit for n, unit, _ in spans.layer_metrics()}
            top = sorted(((v, k) for k, v in layer.items() if k.endswith(".self_s")), reverse=True)
            for v, k in top[:8]:
                print(f"trace: self {k} = {v:.4f} s ({v / traced.wall:.1%} of traced wall)")
            results = {n: metric(value, units[n]) for n, value in layer.items()}
            trace_file = outdir / f"trace-{name}-seed{args.seed}.jsonl"
            with open(trace_file, "w") as fh:
                for i, op in enumerate(workload.ops):
                    rec = {"op": i, "name": op.name, "spans": tracer.per_op.get(i, {})}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            print(f"trace: per-op spans written to {trace_file.relative_to(ROOT)}")

        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": results}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let a terminated run still remove its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "minkval" / "__init__.py").is_file():
        print(f"perfbench: no minkval package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import minkval.cli  # noqa: F401
        import minkval.harness  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import minkval: {e}", file=sys.stderr)
        return 2

    recorded = json.loads((HERE / "recorded.json").read_text())
    alarm = Alarm()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, recorded, alarm)))
        return 0
    # all three in one process, one after the other; metrics carry the
    # workload as a prefix, and peak_rss_mb is the peak so far
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = run_workload(name, args, recorded, alarm)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
