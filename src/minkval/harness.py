"""Property-based verification suites, exact end to end.

Every check compares rational numbers for equality; no tolerances appear
anywhere.  Randomized trials draw bounded-denominator rational bodies
(vertex counts 5-12, denominators <= 16) from a seeded generator, so any
failure is replayable from (check, seed, trial).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .cplx import (
    C_ONE,
    ComplexMatrix2,
    Cplx,
    det_duality_point,
    det_pair,
    group_action,
    scale_point,
)
from .linalg import det, mat_inverse
from .mixed import mixed_volume, mixed_volume_31
from .polytope import Polytope, affine_transform, convex_hull, minkowski_sum, split_by_hyperplane
from .valuations import (
    OPERATORS,
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
    cleared_directions,
    covariant_of,
    dual_diff_support_via_det,
    zero_body,
)

F = Fraction

LAMBDA_NODES = (1, 2, 3, 4, 5)
_VANDERMONDE_INV = mat_inverse(
    [[F(lam) ** j for j in range(5)] for lam in LAMBDA_NODES]
)
# the inverse as integers A over one common denominator E, and the node
# powers lam^j, for _decomposition's integer solve
_VANDERMONDE_DEN = lcm(*(x.denominator for row in _VANDERMONDE_INV for x in row))
_VANDERMONDE_NUM = [[int(x * _VANDERMONDE_DEN) for x in row] for row in _VANDERMONDE_INV]
_NODE_POWERS = [[lam**j for j in range(5)] for lam in LAMBDA_NODES]


@dataclass
class PropertyReport:
    """Outcome of one check: replayable from (check, seed); witness holds the
    first counterexample when failing."""

    check: str
    seed: int
    trials: int
    status: str
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        rec = {
            "check": self.check,
            "seed": self.seed,
            "trials": self.trials,
            "status": self.status,
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        return json.dumps(rec, default=str, sort_keys=True)


@dataclass
class DecompositionTable:
    """Per-direction homogeneity coefficients c_k with h(Z(lam K), w) = sum c_k lam^k.

    Solved exactly on the integer nodes lam = 1..5, so the table reproduces
    the sampled values identically.
    """

    coefficients: list = field(default_factory=list)

    def nonzero_degrees(self) -> set[int]:
        out = set()
        for row in self.coefficients:
            out.update(k for k, c in enumerate(row) if c != 0)
        return out


# -- randomized generators -----------------------------------------------------


def rand_rational(rng: random.Random, span: int = 4, max_den: int = 16) -> Fraction:
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_cplx(rng: random.Random) -> Cplx:
    return Cplx(rand_rational(rng), rand_rational(rng))


def rand_direction(rng: random.Random) -> tuple:
    while True:
        w = tuple(rand_rational(rng) for _ in range(4))
        if any(x != 0 for x in w):
            return w


def rand_polytope(rng: random.Random, dim: int = 4, min_verts: int = 5,
                  max_verts: int = 12, full_dim: bool = True) -> Polytope:
    while True:
        count = rng.randint(min_verts, max_verts)
        P = convex_hull([tuple(rand_rational(rng) for _ in range(dim)) for _ in range(count)])
        if not full_dim or P.affine_dim == dim:
            return P


def rand_planar_polygon(rng: random.Random) -> Polytope:
    return rand_polytope(rng, dim=2, min_verts=3, max_verts=6)


def rand_planar_body(rng: random.Random) -> Polytope:
    kind = rng.randrange(4)
    if kind == 0:
        a = (rand_rational(rng), rand_rational(rng))
        while True:
            b = (rand_rational(rng), rand_rational(rng))
            if b != a:
                return Polytope.segment(a, b)
    return rand_planar_polygon(rng)


def rand_sl2(rng: random.Random) -> ComplexMatrix2:
    g = ComplexMatrix2.identity()
    for _ in range(3):
        kind = rng.randrange(3)
        gamma = Cplx(rand_rational(rng, span=1, max_den=4), rand_rational(rng, span=1, max_den=4))
        if kind == 0:
            g = g @ ComplexMatrix2.shear_upper(gamma)
        elif kind == 1:
            g = g @ ComplexMatrix2.shear_lower(gamma)
        else:
            lam = Cplx.of(F(rng.randint(1, 4), rng.randint(1, 4)))
            g = g @ ComplexMatrix2.diagonal(lam, C_ONE / lam)
    return g


def rand_complex_plane_body(rng: random.Random) -> Polytope:
    """A 2-dimensional body spanned by two C-independent rational vectors."""
    while True:
        u = rand_direction(rng)
        v = rand_direction(rng)
        if det_pair(u, v).is_zero():
            continue
        base = tuple(rand_rational(rng) for _ in range(4))
        pts = []
        for _ in range(rng.randint(4, 7)):
            a, b = rand_rational(rng, span=2, max_den=4), rand_rational(rng, span=2, max_den=4)
            pts.append(tuple(p + a * x + b * y for p, x, y in zip(base, u, v)))
        K = convex_hull(pts)
        if K.affine_dim == 2:
            return K


def rand_e_plane_body(rng: random.Random) -> Polytope:
    """A 3-dimensional body inside span{e1, i e1, e2}."""
    while True:
        pts = [
            (rand_rational(rng), rand_rational(rng), rand_rational(rng), F(0))
            for _ in range(rng.randint(5, 8))
        ]
        K = convex_hull(pts)
        if K.affine_dim == 3:
            return K


def _suite_ops(rng: random.Random) -> list[ValuationOp]:
    """One operator of every kind, sharing one random M and one random N."""
    bodies = {"M": rand_planar_body(rng), "N": rand_planar_body(rng)}
    return [
        ValuationOp(kind, **{p: bodies[p] for p in spec.params})
        for kind, spec in OPERATORS.items()
    ]


def _strs(v) -> list[str]:
    return [str(x) for x in v]


def _body_witness(P: Polytope) -> list:
    return [_strs(v) for v in P.vertices]


def _run_trials(check: str, seed: int, trials: int, rng: random.Random,
                trial_fn) -> PropertyReport:
    """Run trial_fn(rng, trial) for each trial; the first witness it returns
    fails the check, tagged with its trial index."""
    for trial in range(trials):
        witness = trial_fn(rng, trial)
        if witness is not None:
            return PropertyReport(check, seed, trial + 1, "fail", {"trial": trial, **witness})
    return PropertyReport(check, seed, trials, "pass")


def _instance_report(check: str, seed: int, witness: dict | None) -> PropertyReport:
    """The one-trial report of an instance check: its witness fails it."""
    return PropertyReport(check, seed, 1, "pass" if witness is None else "fail", witness)


def _first_difference(*sides) -> tuple[int, list[Fraction]] | None:
    """The first index i at which the sides take different values, with each
    side's value there, or None if they agree at every index.

    A side is a list of terms (c, ev, dirs), and its value at i is the sum
    of c * h(Z K, W_i / t_i) over its terms, for the evaluator ev of Z K and
    the i-th of the cleared directions dirs.  Each value is kept as an
    integer pair (a, b) for a / b and compared by cross-multiplying: only
    the values at the first difference become Fractions.
    """
    values = []
    for side in sides:
        total = None
        for c, ev, dirs in side:
            c = F(c)
            D, ns = ev.integer_form(dirs)
            p, q = c.numerator, c.denominator * D
            term = [(p * n, q * t) for n, (t, _) in zip(ns, dirs)]
            total = term if total is None else [
                (a * y + x * b, b * y) for (a, b), (x, y) in zip(total, term)]
        values.append(total)
    for i, ((a, b), *rest) in enumerate(zip(*values)):
        if any(x * b != a * y for x, y in rest):
            return i, [F(x, y) for x, y in ((a, b), *rest)]
    return None


# -- instance-level checks ----------------------------------------------------------


def homogeneous_decomposition(op: ValuationOp, K: Polytope, dirs) -> DecompositionTable:
    """Exact degree coefficients of lam -> h(Z(lam K), w) per direction."""
    return _decomposition(op, _dilates(K), dirs)


def _dilates(K: Polytope) -> list[Polytope]:
    """The hulls lam K at the nodes lam in LAMBDA_NODES."""
    return [K.scale(lam) for lam in LAMBDA_NODES]


def _decomposition(op: ValuationOp, dilates, dirs) -> DecompositionTable:
    """homogeneous_decomposition read off the prebuilt _dilates(K), solved
    in integers.

    At node lam_k and direction W_i / t_i the value is n_ik / (D_k t_i)
    (integer_form), which is a_ik / (L t_i) with L the lcm of the D_k and
    a_ik = n_ik * L / D_k.  With the inverse Vandermonde matrix A / E, the
    coefficients are N_ij / (E L t_i), N_ij = sum_k A_jk a_ik, and they
    reproduce the samples iff sum_j N_ij lam_k^j = E a_ik at every node.
    """
    table = DecompositionTable()
    evaluators = [SupportEvaluator(op, D) for D in dilates]
    cleared = cleared_directions(dirs)
    forms = [ev.integer_form(cleared) for ev in evaluators]
    L = lcm(*(D for D, _ in forms))
    samples = zip(*([n * (L // D) for n in ns] for D, ns in forms))
    for (t, _), a in zip(cleared, samples):
        N = [sum(map(mul, row, a)) for row in _VANDERMONDE_NUM]
        if any(sum(map(mul, N, powers)) != _VANDERMONDE_DEN * x
               for powers, x in zip(_NODE_POWERS, a)):
            raise AssertionError("Vandermonde solve failed to reproduce samples")
        den = _VANDERMONDE_DEN * L * t
        table.coefficients.append(tuple(F(x, den) for x in N))
    return table


def check_valuation_additivity(op: ValuationOp, P: Polytope, xi, c, dirs,
                               seed: int = 0) -> PropertyReport:
    """h(Z P, w) + h(Z(K cap L), w) = h(Z K, w) + h(Z L, w) for the split of P."""
    witness = _additivity_witness([op], P, split_by_hyperplane(P, xi, c), xi, c, dirs)
    return _instance_report("valuation_additivity", seed, witness)


def _additivity_witness(ops, P: Polytope, pieces, xi, c, dirs) -> dict | None:
    """The first counterexample of check_valuation_additivity over the ops,
    in order, on the prebuilt pieces (K, L, mid) of the split of P by
    <xi, x> = c, or None.  The directions are cleared once for all ops."""
    cleared = cleared_directions(dirs)
    for op in ops:
        P_, K, L, mid = ((1, SupportEvaluator(op, B), cleared) for B in (P, *pieces))
        diff = _first_difference([P_, mid], [K, L])
        if diff is not None:
            i, (lhs, rhs) = diff
            return {"op": op.kind, "P": _body_witness(P), "xi": _strs(xi), "c": str(c),
                    "w": _strs(dirs[i]), "lhs": str(lhs), "rhs": str(rhs)}
    return None


def check_equivariance(op: ValuationOp, K: Polytope, g: ComplexMatrix2, dirs,
                       seed: int = 0) -> PropertyReport:
    """Contravariant: h(Z(gK), w) = h(ZK, g^{-1} w); covariant: h(Z'(gK), xi) =
    h(Z'K, g^* xi).  Requires det g = 1."""
    witness = _equivariance_witness([op], K, _sl_action(g, K), g, dirs)
    return _instance_report("equivariance", seed, witness)


def _sl_action(g: ComplexMatrix2, K: Polytope) -> Polytope:
    """The hull gK, for g in SL(2, C) only."""
    if not g.is_sl():
        raise ValueError("equivariance check requires det = 1")
    return group_action(g, K)


def _equivariance_witness(ops, K: Polytope, gK: Polytope, g: ComplexMatrix2,
                          dirs) -> dict | None:
    """The first counterexample of check_equivariance over the ops, in
    order, on the prebuilt gK = _sl_action(g, K), or None.  The directions
    w, g^{-1} w and g^* w are cleared once for all ops."""
    cleared = cleared_directions(dirs)
    pulled = {contra: cleared_directions([pull.apply(w) for w in dirs])
              for contra, pull in ((True, g.inverse()), (False, g.adjoint()))}
    for op in ops:
        diff = _first_difference([(1, SupportEvaluator(op, gK), cleared)],
                                 [(1, SupportEvaluator(op, K), pulled[op.is_contravariant])])
        if diff is not None:
            i, (lhs, rhs) = diff
            return {"op": op.kind, "K": _body_witness(K),
                    "g": [_strs((z.re, z.im)) for z in (g.a, g.b, g.c, g.d)],
                    "w": _strs(dirs[i]), "lhs": str(lhs), "rhs": str(rhs)}
    return None


def shear_simplex_expected_atoms(a: Fraction, b: Fraction, gamma: Cplx) -> set:
    """The four weighted-normal atoms of the sheared simplex
    [0, a e1, b ie1, gamma e1 + e2] in (e1, ie1, e2)-coordinates.

    Each atom is facet-area times unit normal; the square-root normalizations
    cancel exactly against the area weights, leaving rational vectors.
    """
    a, b = F(a), F(b)
    g1, g2 = gamma.re, gamma.im
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    x = b * g1 + a * g2 - a * b
    atoms = {
        (F(0), F(0), -abs(a * b) / 2),
        (F(0), -abs(a) * sb * F(1, 2), abs(a) * sb * g2 / 2),
        (-abs(b) * sa * F(1, 2), F(0), abs(b) * sa * g1 / 2),
        (sa * sb * b / 2, sa * sb * a / 2, -sa * sb * x / 2),
    }
    return atoms


def verify_shear_simplex_area_measure(a, b, gamma: Cplx, seed: int = 0) -> PropertyReport:
    """Build the sheared simplex and compare its area measure atom-by-atom
    against the closed-form weighted normals."""
    return _instance_report("shear_simplex_atoms", seed, _shear_simplex_witness(a, b, gamma))


def _shear_simplex_witness(a, b, gamma: Cplx) -> dict | None:
    """The mismatch of verify_shear_simplex_area_measure, or None."""
    a, b = F(a), F(b)
    if a == 0 or b == 0:
        raise ValueError("simplex parameters a, b must be nonzero")
    P = convex_hull([
        (0, 0, 0),
        (a, F(0), F(0)),
        (F(0), b, F(0)),
        (gamma.re, gamma.im, F(1)),
    ])
    area = P.area_measure()
    got = set(area.atoms)
    want = shear_simplex_expected_atoms(a, b, gamma)
    if got == want and all(x == 0 for x in area.closure_sum()):
        return None
    return {
        "a": str(a),
        "b": str(b),
        "gamma": _strs((gamma.re, gamma.im)),
        "computed": sorted(_strs(atom) for atom in got),
        "expected": sorted(_strs(atom) for atom in want),
    }


def check_degenerate_vanishing(op: ValuationOp, stratum: str, seed: int,
                               trials: int) -> PropertyReport:
    """Degree-3 operators vanish on bodies in C-independent 2-planes; on
    3-dimensional bodies in span{e1, ie1, e2} the support in direction
    alpha e1 + beta e2 only sees beta e2."""
    if not op.is_contravariant or op.spec.degrees != {3}:
        raise ValueError("degenerate vanishing applies to the degree-3 operators")
    if stratum not in ("plane2", "e_plane"):
        raise ValueError(f"unknown stratum {stratum!r}")

    def trial_fn(rng, trial):
        if stratum == "plane2":
            K = rand_complex_plane_body(rng)
            ev = SupportEvaluator(op, K)
            body = apply_valuation(op, K).body
            dirs = cleared_directions([rand_direction(rng) for _ in range(10)])
            if body != zero_body() or any(ev.integer_form(dirs)[1]):
                return {"stratum": stratum, "K": _body_witness(K)}
            return None
        K = rand_e_plane_body(rng)
        ev = SupportEvaluator(op, K)
        pairs = [(rand_cplx(rng), rand_cplx(rng)) for _ in range(10)]
        diff = _first_difference(
            [(1, ev, cleared_directions([(a.re, a.im, b.re, b.im) for a, b in pairs]))],
            [(1, ev, cleared_directions([(F(0), F(0), b.re, b.im) for _, b in pairs]))])
        if diff is None:
            return None
        i, (lhs, rhs) = diff
        alpha, beta = pairs[i]
        return {"stratum": stratum, "K": _body_witness(K), "alpha": _strs((alpha.re, alpha.im)),
                "beta": _strs((beta.re, beta.im)), "lhs": str(lhs), "rhs": str(rhs)}

    rng = random.Random(f"{seed}:degenerate:{stratum}:{op.kind}")
    return _run_trials("degenerate_vanishing", seed, trials, rng, trial_fn)


def check_uniqueness_translates(kind: str, M: Polytope, M2: Polytope, seed: int,
                                trials: int = 20) -> PropertyReport:
    """Translate direction of parameter uniqueness, plus a separation probe.

    op(M + t) = op(M) is exact; for a non-translate pair (M, M2) the probe
    searches for a witness (K, w) separating the two operators.  The probe is
    a falsifiable heuristic, not a proof of uniqueness.
    """
    spec = OPERATORS.get(kind)
    if spec is None or len(spec.params) != 1:
        raise ValueError("uniqueness check applies to the single-parameter operators")

    def evaluators(K, *params):
        return [SupportEvaluator(ValuationOp(kind, **{spec.params[0]: p}), K) for p in params]

    def first_difference(evs, dirs):
        cleared = cleared_directions(dirs)
        return _first_difference(*([(1, ev, cleared)] for ev in evs))

    def trial_fn(rng, trial):
        t = (rand_rational(rng), rand_rational(rng))
        shifted = M.translate(t)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        dirs = [rand_direction(rng) for _ in range(5)]
        diff = first_difference(evaluators(K, M, shifted), dirs)
        if diff is not None:
            return {"kind": kind, "t": _strs(t), "w": _strs(dirs[diff[0]])}
        return None

    rng = random.Random(f"{seed}:uniqueness:{kind}")
    rep = _run_trials("uniqueness_translates", seed, trials, rng, trial_fn)
    if not rep.passed:
        return rep

    if set(M.area_measure().atoms) == set(M2.area_measure().atoms):
        raise ValueError("separation probe needs parameters with distinct area measures")
    probes = [
        convex_hull(product((0, 1), repeat=4)),
        convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        rand_polytope(rng, min_verts=6, max_verts=8),
    ]
    # the probe usually separates at its first direction, so it draws and
    # evaluates one direction at a time
    for K in probes:
        evs = evaluators(K, M, M2)
        for _ in range(25):
            w = rand_direction(rng)
            diff = first_difference(evs, [w])
            if diff is not None:
                return PropertyReport(
                    "uniqueness_translates", seed, trials, "pass",
                    {
                        "separated_by": {
                            "K": _body_witness(K),
                            "w": _strs(w),
                            "values": [str(v) for v in diff[1]],
                        }
                    },
                )
    return PropertyReport(
        "uniqueness_translates", seed, trials, "fail",
        {"note": "no separating witness found for non-translate parameters"},
    )


# -- suite drivers ------------------------------------------------------------------


def _drive_mixed_volume_oracles(seed: int, trials: int) -> PropertyReport:
    def trial_fn(rng, trial):
        K = rand_polytope(rng, min_verts=5, max_verts=7, full_dim=False)
        L = rand_polytope(rng, min_verts=5, max_verts=7, full_dim=False)
        fast = mixed_volume_31(K, L)
        slow = mixed_volume(K, K, K, L)
        diag = mixed_volume(K, K, K, K)
        if fast != slow or diag != K.volume():
            return {
                "K": _body_witness(K),
                "L": _body_witness(L),
                "facet_form": str(fast),
                "polarization": str(slow),
            }
        return None

    rng = random.Random(f"{seed}:mixed_oracles")
    return _run_trials("mixed_volume_oracles", seed, trials, rng, trial_fn)


def _drive_known_values(seed: int, trials: int) -> PropertyReport:
    del trials
    simplex = convex_hull(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    cube = convex_hull(product((0, 1), repeat=4))
    segs = []
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        segs.append(Polytope.segment((0, 0, 0, 0), tuple(e)))
    checks = [
        ("volume(simplex)", simplex.volume(), F(1, 24)),
        ("V(seg1..seg4)", mixed_volume(*segs), F(1, 24)),
        ("V(cube^3, seg_e4)", mixed_volume_31(cube, segs[3]), F(1, 4)),
        ("V(cube^3, seg_e4) polarized", mixed_volume(cube, cube, cube, segs[3]), F(1, 4)),
    ]
    for label, got, want in checks:
        if got != want:
            return PropertyReport(
                "known_values", seed, 1, "fail",
                {"which": label, "got": str(got), "expected": str(want)},
            )
    return PropertyReport("known_values", seed, 1, "pass")


def _drive_additivity(seed: int, trials: int) -> PropertyReport:
    """Split P once per trial; every op reads the same three pieces, which
    are deterministic, through its own evaluators."""
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        P = rand_polytope(rng, min_verts=5, max_verts=9)
        xi = rand_direction(rng)
        lo = -P.support(tuple(-x for x in xi))
        hi = P.support(xi)
        c = lo + (hi - lo) * F(rng.randint(1, 7), 8)
        dirs = [rand_direction(rng) for _ in range(50)]
        return _additivity_witness(ops, P, split_by_hyperplane(P, xi, c), xi, c, dirs)

    rng = random.Random(f"{seed}:additivity")
    return _run_trials("valuation_additivity", seed, trials, rng, trial_fn)


def _drive_equivariance(seed: int, trials: int) -> PropertyReport:
    """Hull gK once per trial; every op reads the same gK, which is
    deterministic, through its own evaluators."""
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        ops.append(covariant_of(ValuationOp("pi_n", N=rand_planar_body(rng))))
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        g = rand_sl2(rng)
        dirs = [rand_direction(rng) for _ in range(8)]
        return _equivariance_witness(ops, K, _sl_action(g, K), g, dirs)

    rng = random.Random(f"{seed}:equivariance")
    return _run_trials("equivariance", seed, trials, rng, trial_fn)


def _drive_homogeneity(seed: int, trials: int) -> PropertyReport:
    """Hull the five dilates of K once per trial; every op reads the same
    dilates, which are deterministic, through its own evaluators."""
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        dirs = [rand_direction(rng) for _ in range(3)]
        dilates = _dilates(K)
        for op in ops:
            degrees = _decomposition(op, dilates, dirs).nonzero_degrees()
            if not degrees <= op.spec.degrees:
                return {
                    "op": op.kind,
                    "K": _body_witness(K),
                    "nonzero_degrees": sorted(degrees),
                    "allowed": sorted(op.spec.degrees),
                }
        return None

    rng = random.Random(f"{seed}:homogeneity")
    return _run_trials("homogeneity_spectrum", seed, trials, rng, trial_fn)


def _drive_degenerate(seed: int, trials: int) -> PropertyReport:
    rng = random.Random(f"{seed}:degenerate_param")
    n_op = ValuationOp("pi_n", N=rand_planar_body(rng))
    for op, stratum in ((ValuationOp("proj"), "plane2"), (n_op, "plane2"), (n_op, "e_plane")):
        rep = check_degenerate_vanishing(op, stratum, seed, trials)
        if not rep.passed:
            return rep
    return rep


def _drive_shear_simplex(seed: int, trials: int) -> PropertyReport:
    for a, b, gamma in ((F(1), F(1), Cplx.of(0)), (F(1), F(1), Cplx.of(1, 1))):
        rep = verify_shear_simplex_area_measure(a, b, gamma, seed)
        if not rep.passed:
            return rep

    def trial_fn(rng, trial):
        a = F(0)
        b = F(0)
        while a == 0:
            a = rand_rational(rng, span=3, max_den=5)
        while b == 0:
            b = rand_rational(rng, span=3, max_den=5)
        return _shear_simplex_witness(a, b, rand_cplx(rng))

    rng = random.Random(f"{seed}:shear_simplex")
    return _run_trials("shear_simplex_atoms", seed, trials, rng, trial_fn)


def _drive_phi_equivariance(seed: int, trials: int) -> PropertyReport:
    alt_rejected = False

    def trial_fn(rng, trial):
        nonlocal alt_rejected
        while True:
            g = ComplexMatrix2(rand_cplx(rng), rand_cplx(rng), rand_cplx(rng), rand_cplx(rng))
            if not g.det().is_zero():
                break
        u = rand_direction(rng)
        # Phi(g u) = det(g) . g^{-*} Phi(u), with (c . xi)(w) = xi(c w) on W*
        lhs = det_duality_point(g.apply(u))
        dual_img = g.inverse().adjoint().apply(det_duality_point(u))
        rhs = scale_point(g.det().conjugate(), dual_img)
        if lhs != rhs:
            return {"u": _strs(u), "lhs": _strs(lhs), "rhs": _strs(rhs)}
        # the rejected convention (c . xi)(w) = xi(conj(c) w)
        alt = scale_point(g.det(), dual_img)
        if alt != lhs:
            alt_rejected = True
        return None

    rng = random.Random(f"{seed}:phi_equivariance")
    rep = _run_trials("phi_equivariance", seed, trials, rng, trial_fn)
    if rep.passed:
        rep.witness = {
            "convention": "(c.xi)(w) = xi(c w)",
            "alternative_xi_conj_cw_rejected": alt_rejected,
        }
    return rep


def _drive_dtilde_consistency(seed: int, trials: int,
                              conjugate_atoms: bool = True) -> PropertyReport:
    """Pin the conjugation convention: the duality route must match the
    planar-integral route with conjugated atoms of M.  The pinning is itself
    the deterministic test: trial 0 evaluates both conventions and records
    which one holds."""
    pinned = None

    def trial_fn(rng, trial):
        nonlocal pinned
        M = rand_planar_body(rng)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        w = rand_direction(rng)
        op = ValuationOp("dtilde_m", M=M)
        if trial % 10 == 0:
            # every tenth trial constructs the explicit output body
            phi_route = apply_valuation(op, K).support(w)
        else:
            phi_route = SupportEvaluator(op, K).at(w)
        det_route = dual_diff_support_via_det(M, K, w, conjugate_atoms=conjugate_atoms)
        if trial == 0:
            with_conj = dual_diff_support_via_det(M, K, w, conjugate_atoms=True)
            without = dual_diff_support_via_det(M, K, w, conjugate_atoms=False)
            pinned = {
                "conjugated_atoms_match": with_conj == phi_route,
                "raw_atoms_match": without == phi_route,
            }
        if det_route != phi_route:
            return {
                "M": _body_witness(M),
                "K": _body_witness(K),
                "w": _strs(w),
                "phi_route": str(phi_route),
                "det_route": str(det_route),
                "conjugate_atoms": conjugate_atoms,
            }
        return None

    rng = random.Random(f"{seed}:dtilde_consistency")
    rep = _run_trials("dtilde_consistency", seed, trials, rng, trial_fn)
    if rep.passed:
        rep.witness = pinned
    return rep


def _drive_det32(seed: int, trials: int) -> PropertyReport:
    """Scaling of the degree-3 part under g = t g0, det g = t^2:

    h(Pi_N(gK), u) = t^3 h(Pi_N K, g0^{-1} u) = t^4 h(Pi_N K, g^{-1} u).

    The exponent follows the homogeneity ladder: degree-k parts scale as
    t^k under dilation plus one factor of t from pulling 1/t out of the
    direction slot.
    """
    def trial_fn(rng, trial):
        N = rand_planar_body(rng)
        op = ValuationOp("pi_n", N=N)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        g0 = rand_sl2(rng)
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        g = g0.scaled(t)
        gK = group_action(g, K)
        ev = SupportEvaluator(op, K)
        us = [rand_direction(rng) for _ in range(5)]
        g0_inv, g_inv = g0.inverse(), g.inverse()
        diff = _first_difference(
            [(1, SupportEvaluator(op, gK), cleared_directions(us))],
            [(t**3, ev, cleared_directions([g0_inv.apply(u) for u in us]))],
            [(t**4, ev, cleared_directions([g_inv.apply(u) for u in us]))])
        if diff is None:
            return None
        i, (lhs, via_g0, via_g) = diff
        return {"t": str(t), "u": _strs(us[i]), "lhs": str(lhs),
                "t3_g0_inverse": str(via_g0), "t4_g_inverse": str(via_g)}

    rng = random.Random(f"{seed}:det32")
    return _run_trials("det32_pattern", seed, trials, rng, trial_fn)


def _drive_uniqueness(seed: int, trials: int) -> PropertyReport:
    rng = random.Random(f"{seed}:uniqueness_params")
    per_kind = max(1, trials // 10)
    for kind in ("d_m", "dtilde_m", "pi_n"):
        M = rand_planar_polygon(rng)
        while True:
            M2 = rand_planar_body(rng)
            if set(M2.area_measure().atoms) != set(M.area_measure().atoms):
                break
        rep = check_uniqueness_translates(kind, M, M2, seed, per_kind)
        if not rep.passed:
            return rep
    return PropertyReport("uniqueness_translates", seed, trials, "pass", rep.witness)


def _drive_kernel_invariants(seed: int, trials: int) -> PropertyReport:
    def trial_fn(rng, trial):
        P = rand_polytope(rng, min_verts=5, max_verts=9)
        failures = {}
        if convex_hull(P.vertices) != P:
            failures["hull_idempotence"] = True
        if any(x != 0 for x in P.area_measure().closure_sum()):
            failures["area_closure"] = True
        div = sum(P.support(a) for a in P.area_measure()) / P.ambient_dim
        if div != P.volume():
            failures["divergence"] = {"sum": str(div), "volume": str(P.volume())}
        xi = rand_direction(rng)
        c = rand_rational(rng)
        low, high, mid = split_by_hyperplane(P, xi, c)
        if low.volume() + high.volume() != P.volume() + mid.volume():
            failures["split_volume_valuation"] = True
        Q = rand_polytope(rng, min_verts=4, max_verts=6, full_dim=False)
        S = minkowski_sum(P, Q)
        for _ in range(5):
            w = rand_direction(rng)
            if S.support(w) != P.support(w) + Q.support(w):
                failures["support_additivity"] = True
        A = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        d = det(A)
        if d != 0 and affine_transform(P, A).volume() != abs(d) * P.volume():
            failures["gl_volume_covariance"] = True
        if failures:
            return {**failures, "P": _body_witness(P)}
        return None

    rng = random.Random(f"{seed}:kernel")
    return _run_trials("kernel_invariants", seed, trials, rng, trial_fn)


CHECKS = {
    "kernel_invariants": _drive_kernel_invariants,
    "known_values": _drive_known_values,
    "mixed_volume_oracles": _drive_mixed_volume_oracles,
    "valuation_additivity": _drive_additivity,
    "equivariance": _drive_equivariance,
    "homogeneity_spectrum": _drive_homogeneity,
    "degenerate_vanishing": _drive_degenerate,
    "shear_simplex_atoms": _drive_shear_simplex,
    "phi_equivariance": _drive_phi_equivariance,
    "dtilde_consistency": _drive_dtilde_consistency,
    "det32_pattern": _drive_det32,
    "uniqueness_translates": _drive_uniqueness,
}


def run_suite(seed: int = 42, trials: int = 100, only: str | None = None) -> list[PropertyReport]:
    """Run the verification suite; deterministic given (seed, trials).

    trials = 0 yields an empty summary.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; known: {', '.join(sorted(CHECKS))}")
    if trials == 0:
        return []
    return [driver(seed, trials) for name, driver in CHECKS.items() if only in (None, name)]
