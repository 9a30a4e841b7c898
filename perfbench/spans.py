"""Per-layer tracing installed from outside the program.

``Tracer.install`` wraps the public functions of the ``minkval`` modules:
every module-level name bound to a wrapped function is rebound, so calls
through ``from .linalg import mat_apply`` style imports are caught too.
Each wrapper records a span; a span's self time is its duration minus the
time of the spans it encloses.  Spans are aggregated per name, and per op:
all spans opened while an op runs carry that op's id.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

KINDS = ("proj", "diff", "d_m", "dtilde_m", "pi_n", "z_combined", "cov_of_proj")
EVAL_KINDS = KINDS + ("cov_of_pi_n",)
CHECKS = (
    "kernel_invariants",
    "known_values",
    "mixed_volume_oracles",
    "valuation_additivity",
    "equivariance",
    "homogeneity_spectrum",
    "degenerate_vanishing",
    "shear_simplex_atoms",
    "phi_equivariance",
    "dtilde_consistency",
    "det32_pattern",
    "uniqueness_translates",
)

# (module, attribute) of each callable wrapped under the span name
# "<module>.<attribute>"; the per-kind spans are added in Tracer.install.
PLAIN = (
    ("polytope", "convex_hull"),
    ("polytope", "minkowski_sum"),
    ("polytope", "affine_transform"),
    ("polytope", "split_by_hyperplane"),
    ("polytope", "Polytope.support"),
    ("polytope", "Polytope.volume"),
    ("polytope", "Polytope.area_measure"),
    ("linalg", "mat_apply"),
    ("mixed", "mixed_volume"),
    ("mixed", "mixed_volume_31"),
    ("cplx", "complex_scale"),
    ("cplx", "det_duality"),
    ("cplx", "group_action"),
    ("valuations", "dual_diff_support_via_det"),
    ("bodyio", "load_polytope"),
    ("bodyio", "polytope_to_json"),
    ("bodyio", "save_json"),
    ("cli", "main"),
)


def kind_token(kind: str) -> str:
    return kind.replace(":", "_")


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def timed(name, *extra):
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        out.extend(extra)

    for mod, attr in PLAIN:
        name = f"{mod}.{attr}"
        extra = {
            "polytope.convex_hull": (
                (f"{name}.points_in", "count", "lower"),
                (f"{name}.verts_out", "count", "lower"),
                (f"{name}.extreme_frac", "ratio", "higher"),
            ),
            "polytope.minkowski_sum": ((f"{name}.pairs_in", "count", "lower"),),
            "polytope.Polytope.area_measure": ((f"{name}.atoms_out", "count", "lower"),),
        }.get(name, ())
        timed(name, *extra)
    for kind in KINDS:
        name = f"valuations.apply_valuation.{kind}"
        timed(name, (f"{name}.verts_out", "count", "lower"))
    for kind in EVAL_KINDS:
        name = f"valuations.SupportEvaluator.at.{kind}"
        timed(name, (f"{name}.us_per_call", "us", "lower"))
    for kind in EVAL_KINDS:
        timed(f"valuations.SupportEvaluator.init.{kind}")
    for check in CHECKS:
        out.append((f"harness.{check}.s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Span stack plus per-name and per-op aggregates."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.per_op: dict[int, dict[str, list]] = defaultdict(dict)
        self.op_id = -1
        self._stack: list[list[float]] = []
        self._restore: list = []

    # -- spans -------------------------------------------------------------------

    def reset_stack(self):
        """Drop spans left open by an op that was interrupted."""
        self._stack.clear()

    def _close(self, name, start, end, children):
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        rec = self.per_op[self.op_id].setdefault(name, [0, 0.0])
        rec[0] += 1
        rec[1] += duration - children

    def wrap(self, fn, name, count=None, listify=False):
        """A traced stand-in for fn.  name is the span name, or a function
        of the call's arguments that returns it; count(args, result, name)
        records counters after the clock stops.  listify turns a
        first-argument iterator into a list, so the counter still sees the
        points the call used up."""
        stack = self._stack
        close = self._close
        name_of = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            if listify and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            span = name_of(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                close(span, start, end, frame[0])
            if count is not None:
                count(args, result, span)
            if stack:
                stack[-1][0] += perf_counter() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installation ----------------------------------------------------------------

    def _rebind(self, original, replacement):
        """Rebind every minkval module global that refers to original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "minkval" or modname.startswith("minkval.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._restore.append((mod, key, original))

    def _patch_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import minkval.harness as harness
        import minkval.valuations as valuations

        mods = {name: sys.modules[f"minkval.{name}"] for name in
                ("polytope", "linalg", "mixed", "cplx", "valuations", "bodyio", "cli")}
        counters = {
            "polytope.convex_hull": self._count_hull,
            "polytope.minkowski_sum": self._count_sum,
            "polytope.Polytope.area_measure": self._count_atoms,
        }
        for mod, attr in PLAIN:
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                self._patch_attr(cls, meth, self.wrap(cls.__dict__[meth], name, counters.get(name)))
            else:
                fn = getattr(mods[mod], attr)
                listify = name == "polytope.convex_hull"
                self._rebind(fn, self.wrap(fn, name, counters.get(name), listify))

        apply_name = lambda args: f"valuations.apply_valuation.{kind_token(args[0].kind)}"
        fn = valuations.apply_valuation
        self._rebind(fn, self.wrap(fn, apply_name, self._count_verts))

        ev = valuations.SupportEvaluator
        at_name = lambda args: f"valuations.SupportEvaluator.at.{kind_token(args[0].op.kind)}"
        init_name = lambda args: f"valuations.SupportEvaluator.init.{kind_token(args[1].kind)}"
        self._patch_attr(ev, "at", self.wrap(ev.__dict__["at"], at_name))
        self._patch_attr(ev, "__init__", self.wrap(ev.__dict__["__init__"], init_name))

        for check, check_fn in list(harness.CHECKS.items()):
            harness.CHECKS[check] = self.wrap(check_fn, f"harness.{check}")
            self._restore.append((harness.CHECKS, check, check_fn))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- counters ----------------------------------------------------------------------

    def _count_hull(self, args, result, name):
        pts = args[0]
        self.counts[f"{name}.points_in"] += len(pts)
        self.counts[f"{name}.distinct_in"] += len({tuple(p) for p in pts})
        self.counts[f"{name}.verts_out"] += len(result.vertices)

    def _count_sum(self, args, result, name):
        self.counts[f"{name}.pairs_in"] += len(args[0].vertices) * len(args[1].vertices)

    def _count_atoms(self, args, result, name):
        self.counts[f"{name}.atoms_out"] += len(result)

    def _count_verts(self, args, result, name):
        self.counts[f"{name}.verts_out"] += len(result.vertices)

    # -- report ----------------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out = {}
        for name, _, _ in layer_metrics():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls[base]
            elif field == "self_s":
                value = self.self_s[base]
            elif field == "extreme_frac":
                distinct = self.counts[f"{base}.distinct_in"]
                value = self.counts[f"{base}.verts_out"] / distinct if distinct else 0.0
            elif field == "us_per_call":
                calls = self.calls[base]
                value = 1e6 * self.total_s[base] / calls if calls else 0.0
            elif field == "s" and base.startswith("harness."):
                value = self.total_s[base]
            elif name == "trace.overhead_s":
                value = overhead_s
            else:
                value = self.counts[name]
            out[name] = value
        return out
