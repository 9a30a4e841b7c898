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

from .cplx import (
    C_ONE,
    ComplexMatrix2,
    Cplx,
    det_duality_point,
    det_pair,
    group_action,
    scale_point,
)
from .linalg import det, dot, mat_inverse
from .mixed import mixed_volume, mixed_volume_31
from .polytope import Polytope, affine_transform, convex_hull, minkowski_sum, split_by_hyperplane
from .valuations import (
    OPERATORS,
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
    covariant_of,
    dual_diff_support_via_det,
    zero_body,
)

F = Fraction

LAMBDA_NODES = (1, 2, 3, 4, 5)
_VANDERMONDE_INV = mat_inverse(
    [[F(lam) ** j for j in range(5)] for lam in LAMBDA_NODES]
)


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

    op_kind: str
    dirs: list
    coefficients: list = field(default_factory=list)

    def nonzero_degrees(self) -> set[int]:
        out = set()
        for row in self.coefficients:
            out.update(k for k, c in enumerate(row) if c != 0)
        return out


# -- randomized generators -----------------------------------------------------


def rand_rational(rng: random.Random, span: int = 4, max_den: int = 16) -> Fraction:
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_direction(rng: random.Random, dim: int = 4) -> tuple:
    while True:
        w = tuple(rand_rational(rng) for _ in range(dim))
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


def rand_sl2(rng: random.Random, factors: int = 3) -> ComplexMatrix2:
    g = ComplexMatrix2.identity()
    for _ in range(factors):
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


# -- instance-level checks ----------------------------------------------------------


def homogeneous_decomposition(op: ValuationOp, K: Polytope, dirs) -> DecompositionTable:
    """Exact degree coefficients of lam -> h(Z(lam K), w) per direction."""
    evals = [SupportEvaluator(op, K.scale(lam)) for lam in LAMBDA_NODES]
    table = DecompositionTable(op_kind=op.kind, dirs=list(dirs))
    for w in dirs:
        values = [ev.at(w) for ev in evals]
        coeffs = tuple(dot(row, values) for row in _VANDERMONDE_INV)
        recon = [
            sum(c * F(lam) ** k for k, c in enumerate(coeffs)) for lam in LAMBDA_NODES
        ]
        if recon != values:
            raise AssertionError("Vandermonde solve failed to reproduce samples")
        table.coefficients.append(coeffs)
    return table


def check_valuation_additivity(op: ValuationOp, P: Polytope, xi, c, dirs,
                               seed: int = 0) -> PropertyReport:
    """h(Z P, w) + h(Z(K cap L), w) = h(Z K, w) + h(Z L, w) for the split of P."""
    K, L, mid = split_by_hyperplane(P, xi, c)
    evs = [
        SupportEvaluator(op, B if not B.is_empty else zero_body())
        for B in (P, K, L, mid)
    ]
    for w in dirs:
        lhs = evs[0].at(w) + evs[3].at(w)
        rhs = evs[1].at(w) + evs[2].at(w)
        if lhs != rhs:
            witness = {
                "op": op.kind,
                "P": _body_witness(P),
                "xi": _strs(xi),
                "c": str(c),
                "w": _strs(w),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
            return PropertyReport("valuation_additivity", seed, 1, "fail", witness)
    return PropertyReport("valuation_additivity", seed, 1, "pass")


def check_equivariance(op: ValuationOp, K: Polytope, g: ComplexMatrix2, dirs,
                       seed: int = 0) -> PropertyReport:
    """Contravariant: h(Z(gK), w) = h(ZK, g^{-1} w); covariant: h(Z'(gK), xi) =
    h(Z'K, g^* xi).  Requires det g = 1."""
    if not g.is_sl():
        raise ValueError("equivariance check requires det = 1")
    gK = group_action(g, K)
    ev_gk = SupportEvaluator(op, gK)
    ev_k = SupportEvaluator(op, K)
    g_inv = g.inverse()
    g_star = g.adjoint()
    for w in dirs:
        lhs = ev_gk.at(w)
        if op.is_contravariant:
            rhs = ev_k.at(g_inv.apply(w))
        else:
            rhs = ev_k.at(g_star.apply(w))
        if lhs != rhs:
            witness = {
                "op": op.kind,
                "K": _body_witness(K),
                "g": [_strs((z.re, z.im)) for z in (g.a, g.b, g.c, g.d)],
                "w": _strs(w),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
            return PropertyReport("equivariance", seed, 1, "fail", witness)
    return PropertyReport("equivariance", seed, 1, "pass")


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
    a, b = F(a), F(b)
    if a == 0 or b == 0:
        raise ValueError("simplex parameters a, b must be nonzero")
    P = convex_hull([
        (0, 0, 0),
        (a, F(0), F(0)),
        (F(0), b, F(0)),
        (gamma.re, gamma.im, F(1)),
    ])
    got = set(P.area_measure().atoms)
    want = shear_simplex_expected_atoms(a, b, gamma)
    closure = P.area_measure().closure_sum()
    ok = got == want and all(x == 0 for x in closure)
    witness = None
    if not ok:
        witness = {
            "a": str(a),
            "b": str(b),
            "gamma": _strs((gamma.re, gamma.im)),
            "computed": sorted(_strs(atom) for atom in got),
            "expected": sorted(_strs(atom) for atom in want),
        }
    return PropertyReport("shear_simplex_atoms", seed, 1, "pass" if ok else "fail", witness)


def check_degenerate_vanishing(op: ValuationOp, stratum: str, seed: int,
                               trials: int) -> PropertyReport:
    """Degree-3 operators vanish on bodies in C-independent 2-planes; on
    3-dimensional bodies in span{e1, ie1, e2} the support in direction
    alpha e1 + beta e2 only sees beta e2."""
    if not op.is_contravariant or op.homogeneity_degrees != {3}:
        raise ValueError("degenerate vanishing applies to the degree-3 operators")
    if stratum not in ("plane2", "e_plane"):
        raise ValueError(f"unknown stratum {stratum!r}")

    def trial_fn(rng, trial):
        if stratum == "plane2":
            K = rand_complex_plane_body(rng)
            ev = SupportEvaluator(op, K)
            body = apply_valuation(op, K).body
            dirs = [rand_direction(rng) for _ in range(10)]
            if body != zero_body() or any(ev.at(w) != 0 for w in dirs):
                return {"stratum": stratum, "K": _body_witness(K)}
            return None
        K = rand_e_plane_body(rng)
        ev = SupportEvaluator(op, K)
        for _ in range(10):
            alpha = Cplx(rand_rational(rng), rand_rational(rng))
            beta = Cplx(rand_rational(rng), rand_rational(rng))
            lhs = ev.at((alpha.re, alpha.im, beta.re, beta.im))
            rhs = ev.at((F(0), F(0), beta.re, beta.im))
            if lhs != rhs:
                return {
                    "stratum": stratum,
                    "K": _body_witness(K),
                    "alpha": _strs((alpha.re, alpha.im)),
                    "beta": _strs((beta.re, beta.im)),
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
        return None

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

    def make_op(param):
        return ValuationOp(kind, **{spec.params[0]: param})

    def trial_fn(rng, trial):
        t = (rand_rational(rng), rand_rational(rng))
        shifted = M.translate(t)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        ev1 = SupportEvaluator(make_op(M), K)
        ev2 = SupportEvaluator(make_op(shifted), K)
        for _ in range(5):
            w = rand_direction(rng)
            if ev1.at(w) != ev2.at(w):
                return {"kind": kind, "t": _strs(t), "w": _strs(w)}
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
    for K in probes:
        ev1 = SupportEvaluator(make_op(M), K)
        ev2 = SupportEvaluator(make_op(M2), K)
        for _ in range(25):
            w = rand_direction(rng)
            if ev1.at(w) != ev2.at(w):
                return PropertyReport(
                    "uniqueness_translates", seed, trials, "pass",
                    {
                        "separated_by": {
                            "K": _body_witness(K),
                            "w": _strs(w),
                            "values": [str(ev1.at(w)), str(ev2.at(w))],
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
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        P = rand_polytope(rng, min_verts=5, max_verts=9)
        xi = rand_direction(rng)
        lo = -P.support(tuple(-x for x in xi))
        hi = P.support(xi)
        c = lo + (hi - lo) * F(rng.randint(1, 7), 8)
        dirs = [rand_direction(rng) for _ in range(50)]
        for op in ops:
            rep = check_valuation_additivity(op, P, xi, c, dirs, seed)
            if not rep.passed:
                return rep.witness
        return None

    rng = random.Random(f"{seed}:additivity")
    return _run_trials("valuation_additivity", seed, trials, rng, trial_fn)


def _drive_equivariance(seed: int, trials: int) -> PropertyReport:
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        ops.append(covariant_of(ValuationOp("pi_n", N=rand_planar_body(rng))))
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        g = rand_sl2(rng)
        dirs = [rand_direction(rng) for _ in range(8)]
        for op in ops:
            rep = check_equivariance(op, K, g, dirs, seed)
            if not rep.passed:
                return rep.witness
        return None

    rng = random.Random(f"{seed}:equivariance")
    return _run_trials("equivariance", seed, trials, rng, trial_fn)


def _drive_homogeneity(seed: int, trials: int) -> PropertyReport:
    def trial_fn(rng, trial):
        ops = _suite_ops(rng)
        K = rand_polytope(rng, min_verts=5, max_verts=8)
        dirs = [rand_direction(rng) for _ in range(3)]
        for op in ops:
            degrees = homogeneous_decomposition(op, K, dirs).nonzero_degrees()
            if not degrees <= op.homogeneity_degrees:
                return {
                    "op": op.kind,
                    "K": _body_witness(K),
                    "nonzero_degrees": sorted(degrees),
                    "allowed": sorted(op.homogeneity_degrees),
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
        gamma = Cplx(rand_rational(rng), rand_rational(rng))
        return verify_shear_simplex_area_measure(a, b, gamma, seed).witness

    rng = random.Random(f"{seed}:shear_simplex")
    return _run_trials("shear_simplex_atoms", seed, trials, rng, trial_fn)


def _drive_phi_equivariance(seed: int, trials: int) -> PropertyReport:
    alt_rejected = False

    def trial_fn(rng, trial):
        nonlocal alt_rejected
        while True:
            g = ComplexMatrix2(
                Cplx(rand_rational(rng), rand_rational(rng)),
                Cplx(rand_rational(rng), rand_rational(rng)),
                Cplx(rand_rational(rng), rand_rational(rng)),
                Cplx(rand_rational(rng), rand_rational(rng)),
            )
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
        ev_g = SupportEvaluator(op, gK)
        ev = SupportEvaluator(op, K)
        for _ in range(5):
            u = rand_direction(rng)
            lhs = ev_g.at(u)
            via_g0 = t**3 * ev.at(g0.inverse().apply(u))
            via_g = t**4 * ev.at(g.inverse().apply(u))
            if lhs != via_g0 or lhs != via_g:
                return {
                    "t": str(t),
                    "u": _strs(u),
                    "lhs": str(lhs),
                    "t3_g0_inverse": str(via_g0),
                    "t4_g_inverse": str(via_g),
                }
        return None

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
        vol = lambda B: B.volume() if not B.is_empty else F(0)
        if vol(low) + vol(high) != P.volume() + vol(mid):
            failures["split_volume_valuation"] = True
        Q = rand_polytope(rng, min_verts=4, max_verts=6, full_dim=False)
        S = minkowski_sum(P, Q)
        for _ in range(5):
            w = rand_direction(rng)
            if S.support(w) != P.support(w) + Q.support(w):
                failures["support_additivity"] = True
        A = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if det(A) != 0:
            if affine_transform(P, A).volume() != abs(det(A)) * P.volume():
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
