"""The three workloads: what one op is, how inputs are made, how outputs are
checked.

Each workload builds a fixed batch of ops from the seed.  An op is one call
a user makes: one ``minkval`` CLI invocation (``suite``, ``recon``) or one
public kernel function call (``kernel``).  ``run`` performs the call and is
the only part that is timed; ``collect`` turns its result into a digest and
the data to check outside the clock, and ``check`` verifies the first
round's outputs exactly after the measurement.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import partial
from pathlib import Path

import inputs

F = Fraction


def sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``minkval <argv>`` in-process; returns (exit code, stdout)."""
    import minkval.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = minkval.cli.main(argv)
    return rc, out.getvalue()


def write_body(path: Path, points, dim: int):
    payload = {"ambient_dim": dim, "vertices": [[str(F(x)) for x in p] for p in points]}
    path.write_text(json.dumps(payload))


def max_den(points) -> int:
    return max(F(x).denominator for p in points for x in p)


def max_dot(points, w):
    return max(sum(a * b for a, b in zip(p, w)) for p in points)


class Op:
    __slots__ = ("name", "run")

    def __init__(self, name: str, run):
        self.name = name
        self.run = run


class Workload:
    """Interface shared by the workloads."""

    name = ""
    cap_s: float | None = None  # per-op time cap; None means uncapped

    def prepare(self, seed: int, workdir: Path):
        """Generate inputs and input files and build self.ops."""
        raise NotImplementedError

    def start_round(self):
        """Reset per-round state before a round; not timed."""

    def exit_ok(self, result) -> bool:
        """False when the call reported failure through its exit code."""
        return True

    def collect(self, index: int, result) -> tuple[str, object]:
        """(digest, data for check) of one op's output."""
        raise NotImplementedError

    def check(self, results: dict[int, object]) -> set[int]:
        """Indices of ops whose round-0 output fails its exact check."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Measured input properties, for the report."""
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose ops are CLI calls returning (exit code, stdout)."""

    def exit_ok(self, result):
        return result[0] == 0


# -- suite ----------------------------------------------------------------------------


class Suite(CliWorkload):
    """``minkval verify --seed S --trials T --only <check>`` for each shipped
    (S, T) and each check; concatenated per S, the outputs are exactly what
    ``minkval verify --seed S --trials T`` prints, which must match the
    digest recorded for (S, T)."""

    name = "suite"

    def __init__(self, recorded: dict):
        from spans import CHECKS

        self.checks = CHECKS
        self.trials = recorded["suite"]["trials"]
        self.digests = recorded["suite"]["digests"]

    def prepare(self, seed, workdir):
        seeds = sorted(int(s) for s in self.digests)
        k = random.Random(f"{seed}:suite").randrange(len(seeds))
        self.order = seeds[k:] + seeds[:k]
        self.ops = []
        self.owner = []
        for s in self.order:
            for check in self.checks:
                argv = ["verify", "--seed", str(s), "--trials", str(self.trials), "--only", check]
                self.ops.append(Op(f"verify:{s}:{check}", partial(cli_call, argv)))
                self.owner.append(s)

    def collect(self, index, result):
        rc, text = result
        return sha(f"{rc}\n{text}"), result

    def check(self, results):
        bad = set()
        by_seed: dict[int, list[str]] = {}
        for i, s in enumerate(self.owner):
            res = results.get(i)
            if res is None:
                bad.add(i)
                by_seed.setdefault(s, []).append("")
                continue
            rc, text = res
            try:
                status = json.loads(text)["status"]
            except (ValueError, KeyError, TypeError):
                status = None
            if rc != 0 or status != "pass":
                bad.add(i)
            by_seed.setdefault(s, []).append(text)
        for i, s in enumerate(self.owner):
            if sha("".join(by_seed[s])) != self.digests[str(s)]:
                bad.add(i)
        return bad

    def properties(self):
        return {"verify_seeds": self.order, "trials": self.trials, "checks": len(self.checks)}


# -- recon ---------------------------------------------------------------------------------

# Base bodies by facet-atom count.  A k-fold truncated simplex has 5 + k
# atoms.  The expensive kinds run on the small end only: pi_n with a
# triangle N costs 0.2 s at 5 atoms and 5.5 s at 8, and z_combined 2-6 s
# at 5 atoms and minutes at 8.  The two 6-atom bodies give the ops just
# below z_combined in cost a twin each, so op_p90_ms lands among ops of
# like cost and not in the gap between two cost levels.
RECON_BODIES = (("S1", 0), ("S2", 0), ("S3", 0), ("T1a", 1), ("T1b", 1), ("T2", 2), ("T3", 3))
# "<kind>/<N>" runs the kind with the named parameter body as N.
ALL = ("diff", "d_m", "dtilde_m", "proj", "cov_of:proj", "pi_n/seg", "pi_n/tri")
RECON_PLAN = {
    "S1": ALL + ("z_combined/seg",),
    "S2": ALL,
    "S3": ALL,
    "T1a": ALL,
    "T1b": ALL,
    "T2": ("diff", "proj", "cov_of:proj", "pi_n/seg"),
    "T3": ("diff", "proj", "pi_n/seg"),
}
CONTRAVARIANT = ("proj", "pi_n", "dtilde_m", "z_combined")


class Recon(CliWorkload):
    """``minkval op <kind> --body K [--M M] [--N N] --out F`` per planned
    (body, kind)."""

    name = "recon"
    cap_s = 20.0

    def prepare(self, seed, workdir):
        base = random.Random("minkval-perfbench:recon-base")
        bodies = {label: inputs.truncated_simplex(base, cuts) for label, cuts in RECON_BODIES}
        M = [(2, 0), (-1, 1), (0, -2)]
        n_seg = [(0, 0), (1, 1)]
        n_tri = [(1, 0), (0, 2), (-1, -1)]

        rng = random.Random(f"{seed}:recon")
        self.bodies = {label: inputs.unitary_image(rng, pts) for label, pts in bodies.items()}
        self.planar = {"M": M, "seg": n_seg, "tri": n_tri}
        self.files = {}
        for label, pts in self.bodies.items():
            self.files[label] = workdir / f"K_{label}.json"
            write_body(self.files[label], pts, 4)
        for label, pts in self.planar.items():
            self.files[label] = workdir / f"{label}.json"
            write_body(self.files[label], pts, 2)

        self.ops = []
        self.specs = []
        for label, _ in RECON_BODIES:
            for entry in RECON_PLAN[label]:
                kind, _, n = entry.partition("/")
                out = workdir / f"out_{len(self.ops)}.json"
                argv = ["op", kind, "--body", str(self.files[label])]
                if kind in ("d_m", "dtilde_m", "z_combined"):
                    argv += ["--M", str(self.files["M"])]
                if n:
                    argv += ["--N", str(self.files[n])]
                argv += ["--out", str(out)]
                self.specs.append((label, kind, n or None, out))
                self.ops.append(Op(f"{label}:{entry}", partial(cli_call, argv)))

    def collect(self, index, result):
        rc, _ = result
        out = self.specs[index][3]
        data = out.read_bytes() if rc == 0 and out.exists() else b""
        return sha(f"{rc}\n".encode() + data), (rc, data)

    def check(self, results):
        from minkval.bodyio import build_op, load_polytope, parse_point
        from minkval.valuations import SupportEvaluator

        rng = random.Random("minkval-perfbench:recon-dirs")
        dirs = [tuple(F(rng.randint(-5, 5)) for _ in range(4)) for _ in range(12)]
        loaded = {label: load_polytope(str(path)) for label, path in self.files.items()}
        bad = set()
        for i, (label, kind, n, _) in enumerate(self.specs):
            res = results.get(i)
            if res is None or res[0] != 0:
                bad.add(i)
                continue
            space = "W_dual" if kind in CONTRAVARIANT else "W"
            M = loaded["M"] if kind in ("d_m", "dtilde_m", "z_combined") else None
            N = loaded[n] if n else None
            try:
                payload = json.loads(res[1])
                verts = [parse_point(v, 4) for v in payload["vertices"]]
                ev = SupportEvaluator(build_op(kind, M, N), loaded[label])
                ok = (
                    verts == sorted(set(verts))
                    and payload.get("space") == space
                    and all(max_dot(verts, w) == ev.at(w) for w in dirs)
                )
            except Exception:
                print(f"check of op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
                ok = False
            if not ok:
                bad.add(i)
        return bad

    def properties(self):
        from minkval.polytope import convex_hull

        out = {}
        for label, pts in self.bodies.items():
            K = convex_hull(pts)
            out[label] = {
                "verts": len(K.vertices),
                "atoms": len(K.area_measure()),
                "max_den": max_den(pts),
                "kinds": list(RECON_PLAN[label]),
            }
        out["planar"] = {k: len(v) for k, v in self.planar.items()}
        return out


# -- kernel --------------------------------------------------------------------------------

# (family, points, max denominator or flat rank).  Sizes keep each cloud's
# six calls under a second or two: a cyclic polytope has O(n^2) facets, and
# polarization hulls three sums of |P| * |Q| points.
KERNEL_CLOUDS = (
    ("box", 20, 16),
    ("box", 50, 16),
    ("box", 100, 16),
    ("box", 200, 16),
    ("box", 400, 16),
    ("box", 20, 10**6),
    ("box", 100, 10**6),
    ("moment", 12, None),
    ("moment", 24, None),
    ("sphere", 20, 8),
    ("sphere", 40, 8),
    ("flat2", 50, 16),
    ("flat2", 200, 16),
    ("flat3", 50, 16),
    ("flat3", 200, 16),
    ("flat3", 100, 10**6),
)
KERNEL_CALLS = ("convex_hull", "volume", "area_measure", "minkowski_sum", "mixed_volume_31",
                "mixed_volume")


def _cloud(rng, family, n, param):
    if family == "box":
        return inputs.box_cloud(rng, n, param)
    if family == "moment":
        return inputs.moment_cloud(rng, n)
    if family == "sphere":
        return inputs.sphere_cloud(rng, n, param)
    rank = int(family[-1])
    return inputs.flat_cloud(rng, n, param, rank)


class Kernel(Workload):
    """Per cloud: P = convex_hull(cloud), then P.volume(), P.area_measure(),
    minkowski_sum(P, Q), mixed_volume_31(P, Q) and mixed_volume(P, P, P, Q)
    for a small simplex Q.  Each call is one op."""

    name = "kernel"
    cap_s = 10.0

    def prepare(self, seed, workdir):
        base = random.Random("minkval-perfbench:kernel-base")
        clouds = [_cloud(base, *spec) for spec in KERNEL_CLOUDS]
        Q = inputs.simplex(base, span=2, max_den=2)

        # The extreme count of a random cloud, and with it the cost of every
        # call on it, swings widely between draws; congruent images of fixed
        # clouds keep the cost while the seed still changes the input.
        rng = random.Random(f"{seed}:kernel")
        g = inputs.signed_permutation(rng)
        self.clouds = [inputs.lattice_shift(rng, [g(p) for p in pts]) for pts in clouds]
        self.Q = inputs.lattice_shift(rng, [g(p) for p in Q])
        self.state: dict = {}
        self.ops = []
        for c in range(len(self.clouds)):
            for call in KERNEL_CALLS:
                self.ops.append(Op(f"{KERNEL_CLOUDS[c][0]}{c}:{call}", self._op(c, call)))

    def _op(self, c, call):
        import minkval.mixed as mixed
        import minkval.polytope as polytope

        def run():
            if call == "convex_hull":
                return polytope.convex_hull(self.clouds[c])
            P, Q = self.state[c], self.state["Q"]
            if call == "volume":
                return P.volume()
            if call == "area_measure":
                return P.area_measure()
            if call == "minkowski_sum":
                return polytope.minkowski_sum(P, Q)
            if call == "mixed_volume_31":
                return mixed.mixed_volume_31(P, Q)
            return mixed.mixed_volume(P, P, P, Q)

        return run

    def start_round(self):
        from minkval.polytope import convex_hull

        self.state = {"Q": convex_hull(self.Q)}

    def collect(self, index, result):
        c, call = divmod(index, len(KERNEL_CALLS))
        if KERNEL_CALLS[call] == "convex_hull":
            self.state[c] = result
            text = repr((result.affine_dim, result.vertices))
        elif KERNEL_CALLS[call] == "area_measure":
            text = repr(result.atoms)
        elif KERNEL_CALLS[call] == "minkowski_sum":
            text = repr(result.vertices)
        else:
            text = str(result)
        return sha(text), result

    def check(self, results):
        rng = random.Random("minkval-perfbench:kernel-dirs")
        dirs = [tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)) for _ in range(16)]
        bad = set()
        ncalls = len(KERNEL_CALLS)
        for c, pts in enumerate(self.clouds):
            got = [results.get(c * ncalls + k) for k in range(ncalls)]
            try:
                ok = self._check_cloud(pts, got, dirs)
            except Exception:
                print(f"check of cloud {c} raised:\n{traceback.format_exc()}", file=sys.stderr)
                ok = [False] * ncalls
            bad.update(c * ncalls + k for k in range(ncalls) if not ok[k])
        return bad

    def _check_cloud(self, pts, got, dirs) -> list[bool]:
        P, vol, area, S, mv31, mv = got
        ok = [x is not None for x in got]
        if ok[0]:
            ok[0] = set(P.vertices) <= set(pts) and all(
                P.support(w) == max_dot(pts, w) for w in dirs
            )
        if ok[1] and ok[2]:
            divergence = sum((max_dot(P.vertices, a) for a in area.atoms), F(0)) / 4
            ok[1] = vol == divergence and (vol > 0) == (P.affine_dim == 4)
            ok[2] = all(x == 0 for x in area.closure_sum())
        if ok[3]:
            ok[3] = all(
                max_dot(S.vertices, w) == max_dot(P.vertices, w) + max_dot(self.Q, w)
                for w in dirs
            )
        if ok[4] and ok[5]:
            ok[4] = ok[5] = mv31 == mv
        return ok

    def properties(self):
        from minkval.polytope import convex_hull

        out = []
        for (family, n, param), pts in zip(KERNEL_CLOUDS, self.clouds):
            P = convex_hull(pts)
            distinct = len(set(pts))
            out.append({
                "family": family,
                "points_in": n,
                "verts_out": len(P.vertices),
                "extreme_frac": round(len(P.vertices) / distinct, 4),
                "affine_rank": P.affine_dim,
                "max_den": max_den(pts),
            })
        return out


WORKLOADS = {"suite": Suite, "recon": Recon, "kernel": Kernel}
