"""Deterministic work counts of fixed inputs, taken from outside the package.

    PYTHONPATH=src python3 tests/work_counts.py [INPUT ...]

Wall time drifts with the host; the number of calls a run makes does not.
The script wraps these functions and counts their calls:

- polytope._direction, the one clearing of a direction;
- polytope._hull_engine, one hull engine run;
- polytope._plane, one cross product or cofactor each, in either integer
  form: every piece that the engine's piece constructor builds, every
  cofactor that mixed_volume's volume polynomial reads (mixed binds _plane
  too), and, where the revision computes a piece's weight g at the merge,
  one known-plane cofactor per live piece of every engine run; pieces that
  a revision builds without a call (in place, or from the pencil through
  their ridge) it does not count;
- polytope._Piece, one facet piece each: the engine looks the class up in
  the module for every piece it builds, on whichever path, so its count
  is the pieces built on every revision that has it;
- polytope._hull_ids, one dedupe-rank-hull of integer points,
  polytope._sum_points, one path from rational points to a Polytope, and
  polytope._sum_chain, the same path with the hull's boundary chain, which
  mixed_volume takes for its one hull, where the revision has it; for all
  three, the points passed in (.points_in) and the vertices kept
  (.verts_out) as well;
- the SupportEvaluator methods at, at_many and integer_form, whichever the
  revision has; for the two batched ones, the directions passed as well.
  at calls at_many, and at_many calls integer_form, so their counts nest.

A module-level function is wrapped wherever a minkval module binds it, so
calls through "from .polytope import _direction" count too.  The script
only wraps and counts, and changes nothing in src, so it runs on any
revision: point PYTHONPATH at two checkouts' src and compare the lines.

It prints one JSON line of counts per input, in the order given; a
counted function that was not called counts 0.  The inputs (all of them by
default) are

- suite: run_suite(42, 3);
- K8:<kind> for kind in proj, diff, d_m, dtilde_m, pi_n: apply_valuation
  on the recorded reconstruction body K8.  That is rng = random.Random(7),
  K = rand_polytope(rng, min_verts=8, max_verts=8), then
  M = rand_planar_polygon(rng) and N = rand_planar_polygon(rng), the
  parameter bodies of d_m, dtilde_m and pi_n.  K8:pi_n, a 14,276-vertex
  output, is the largest input: about 5 s on a 2-core host, and about a
  minute on revisions before the oracle driver.  Building K8 is not counted;
- kernel: one round of the benchmark's kernel workload at seed 1, the six
  calls on each of its 16 clouds in op order (perfbench/workloads.py,
  read only).  Building the clouds and the round's small simplex is not
  counted;
- recon: one round of the benchmark's recon workload at seed 1, its 43
  minkval op calls with --out in op order, the body files and outputs in a
  temporary directory; recon:<op> runs the one op of that round named
  <op>, such as recon:S1:proj.  Writing the body files is not counted.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from minkval import harness, polytope, valuations

K8_KINDS = ("proj", "diff", "d_m", "dtilde_m", "pi_n")
INPUTS = ("suite", *(f"K8:{k}" for k in K8_KINDS), "kernel", "recon")
COUNTED = ("_direction", "_hull_engine", "_plane", "_Piece", "_hull_ids", "_sum_points",
           "_sum_chain")
# (points in, vertices out) of a call, for the functions counted with sizes
SIZES = {
    "_hull_ids": lambda args, out: (len(args[0]), len(out[3])),
    "_sum_points": lambda args, out: (sum(map(len, args[0])), len(out.vertices)),
    "_sum_chain": lambda args, out: (sum(map(len, args[0])), len(out[0].vertices)),
}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EVALUATOR = ("at", "at_many", "integer_form")


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "minkval" or name.startswith("minkval."))]


def install(counts: Counter) -> list:
    """Wrap the counted functions; returns what uninstall needs."""
    restore = []
    for name in COUNTED:
        original = getattr(polytope, name, None)
        if original is None:
            continue
        counts[name] += 0
        sizes = SIZES.get(name)
        if sizes:
            counts[f"{name}.points_in"] += 0
            counts[f"{name}.verts_out"] += 0

        def counted(*args, _original=original, _name=name, _sizes=sizes, **kwargs):
            counts[_name] += 1
            out = _original(*args, **kwargs)
            if _sizes:
                n_in, n_out = _sizes(args, out)
                counts[f"{_name}.points_in"] += n_in
                counts[f"{_name}.verts_out"] += n_out
            return out

        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, counted)
                    restore.append((mod, key, original))
    ev = valuations.SupportEvaluator
    for name in EVALUATOR:
        original = ev.__dict__.get(name)
        if original is None:
            continue
        counts[f"SupportEvaluator.{name}"] += 0
        if name != "at":
            counts[f"SupportEvaluator.{name}.dirs"] += 0

        def counted(self, arg, _original=original, _name=name):
            counts[f"SupportEvaluator.{_name}"] += 1
            if _name != "at":
                counts[f"SupportEvaluator.{_name}.dirs"] += len(arg)
            return _original(self, arg)

        setattr(ev, name, counted)
        restore.append((ev, name, original))
    return restore


def uninstall(restore: list):
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)


def k8():
    rng = random.Random(7)
    K = harness.rand_polytope(rng, min_verts=8, max_verts=8)
    return K, harness.rand_planar_polygon(rng), harness.rand_planar_polygon(rng)


def workload(name: str):
    """The class of one benchmark workload, read from perfbench."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return getattr(workloads, name)


def kernel_round():
    """The kernel workload, prepared at seed 1; returns the round to count."""
    w = workload("Kernel")()
    w.prepare(1, None)
    w.start_round()

    def round_():
        # collect keeps each hull for the calls after it on the same cloud
        for i, op in enumerate(w.ops):
            w.collect(i, op.run())

    return round_


def recon_round(only: str | None):
    """The recon workload, prepared at seed 1 in a temporary directory;
    returns the round, or its one op named only, to count."""
    w = workload("Recon")()
    tmp = tempfile.TemporaryDirectory()
    w.prepare(1, Path(tmp.name))
    ops = [op for op in w.ops if only in (None, op.name)]
    if not ops:
        tmp.cleanup()
        raise SystemExit(f"unknown recon op {only!r}; known: {', '.join(op.name for op in w.ops)}")

    def round_():
        try:
            for op in ops:
                rc, _ = op.run()
                if rc != 0:
                    raise SystemExit(f"recon op {op.name} exited {rc}")
        finally:
            tmp.cleanup()

    return round_


def run(name: str):
    if name == "suite":
        return lambda: harness.run_suite(42, 3)
    if name == "kernel":
        return kernel_round()
    if name == "recon" or name.startswith("recon:"):
        return recon_round(name.partition(":")[2] or None)
    kind = name.removeprefix("K8:")
    if name == kind or kind not in K8_KINDS:
        raise SystemExit(f"unknown input {name!r}; known: {', '.join(INPUTS)}")
    K, M, N = k8()
    params = {p: {"M": M, "N": N}[p] for p in valuations.OPERATORS[kind].params}
    op = valuations.ValuationOp(kind, **params)
    return lambda: valuations.apply_valuation(op, K)


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(INPUTS)
    for name in names:
        fn = run(name)
        counts = Counter()
        restore = install(counts)
        try:
            fn()
        finally:
            uninstall(restore)
        print(json.dumps({"input": name, "counts": dict(sorted(counts.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
