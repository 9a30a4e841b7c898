"""Valuation tests: reconstructions, evaluators, equivariance, degeneracies."""

from fractions import Fraction
import itertools
import random
import re

import pytest

from minkval.cplx import (
    C_ONE,
    ComplexMatrix2,
    Cplx,
    DualPolytope,
    complex_scale,
    det_duality,
    det_duality_inverse,
    det_image,
    det_pair,
    dual_action,
    dual_scalar_scale,
    group_action,
)
from minkval.harness import homogeneous_decomposition
from minkval.mixed import mixed_volume, mixed_volume_31, mixed_volume_fn
from minkval.polytope import (
    Polytope,
    affine_transform,
    convex_hull,
    minkowski_sum,
    split_by_hyperplane,
)
from minkval.valuations import (
    OPERATORS,
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
    covariant_of,
    dual_diff_support_via_det,
    planar_atoms,
    zero_body,
)

F = Fraction


def unit_cube4():
    return convex_hull(list(itertools.product((0, 1), repeat=4)))


def simplex4():
    return convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def seg_m11():
    return Polytope.segment((-1, 0), (1, 0))


def seg_0i():
    return Polytope.segment((0, 0), (0, 1))


def unit_square2():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def triangle2():
    return convex_hull([(0, 0), (1, 0), (0, 1)])


def rand_rational(rng, span=2, max_den=4):
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_dir(rng):
    while True:
        w = tuple(rand_rational(rng) for _ in range(4))
        if any(x != 0 for x in w):
            return w


def rand_body(rng, nverts=6, full=False):
    while True:
        P = convex_hull([tuple(rand_rational(rng) for _ in range(4)) for _ in range(nverts)])
        if P.affine_dim >= (4 if full else 1):
            return P


def rand_sl(rng, factors=2):
    g = ComplexMatrix2.identity()
    for _ in range(factors):
        kind = rng.randrange(3)
        gamma = Cplx(rand_rational(rng, span=1, max_den=3), rand_rational(rng, span=1, max_den=3))
        if kind == 0:
            g = g @ ComplexMatrix2.shear_upper(gamma)
        elif kind == 1:
            g = g @ ComplexMatrix2.shear_lower(gamma)
        else:
            lam = Cplx.of(F(rng.randint(1, 4), rng.randint(1, 4)))
            g = g @ ComplexMatrix2.diagonal(lam, C_ONE / lam)
    return g


# -- projection body -----------------------------------------------------------


def test_projection_body_of_cube():
    P = apply_valuation(ValuationOp("proj"), unit_cube4())
    expected = convex_hull(list(itertools.product((-1, 1), repeat=4)))
    assert P.body == expected
    rng = random.Random(41)
    for _ in range(10):
        v = rand_dir(rng)
        assert P.support(v) == sum(abs(x) for x in v)


def test_projection_body_low_dim_vanishes():
    K = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
    assert apply_valuation(ValuationOp("proj"), K).body == zero_body()


def test_projection_body_sl_contravariance():
    rng = random.Random(42)
    K = simplex4()
    for _ in range(5):
        g = rand_sl(rng)
        left = apply_valuation(ValuationOp("proj"), group_action(g, K))
        right = dual_action(g, apply_valuation(ValuationOp("proj"), K))
        assert left.body == right.body


# -- difference body ---------------------------------------------------------------


def test_difference_body_cases():
    assert apply_valuation(ValuationOp("diff"), Polytope.point((1, 2, 3, 4))) == zero_body()
    D = apply_valuation(ValuationOp("diff"), unit_cube4())
    assert D == convex_hull(list(itertools.product((-1, 1), repeat=4)))


def test_difference_body_linear_covariance():
    rng = random.Random(43)
    K = rand_body(rng, nverts=5)
    diff = ValuationOp("diff")
    for _ in range(5):
        g = ComplexMatrix2(
            Cplx(rand_rational(rng), rand_rational(rng)),
            Cplx(rand_rational(rng), rand_rational(rng)),
            Cplx(rand_rational(rng), rand_rational(rng)),
            Cplx(rand_rational(rng), rand_rational(rng)),
        )
        if g.det().is_zero():
            continue
        assert apply_valuation(diff, group_action(g, K)) == group_action(g, apply_valuation(diff, K))


# -- complex difference body ---------------------------------------------------------


def test_segment_parameter_gives_difference_body():
    assert planar_atoms(seg_0i()) in ((Cplx.of(1), Cplx.of(-1)), (Cplx.of(-1), Cplx.of(1)))
    K = simplex4()
    diff_K = apply_valuation(ValuationOp("diff"), K)
    assert apply_valuation(ValuationOp("d_m", M=seg_0i()), K) == diff_K


def test_square_parameter_gives_four_rotates():
    K = simplex4()
    out = apply_valuation(ValuationOp("d_m", M=unit_square2()), K)
    expected = K
    for alpha in (Cplx.of(0, 1), Cplx.of(-1), Cplx.of(0, -1)):
        expected = minkowski_sum(expected, complex_scale(alpha, K))
    assert out == expected


def test_point_parameter_gives_zero():
    K = unit_cube4()
    M = Polytope.point((2, 5))
    assert apply_valuation(ValuationOp("d_m", M=M), K) == zero_body()
    assert apply_valuation(ValuationOp("dtilde_m", M=M), K).body == zero_body()


# -- complex projection body ------------------------------------------------------------


def test_point_N_gives_zero():
    K = unit_cube4()
    N = Polytope.point((3, -1))
    assert apply_valuation(ValuationOp("pi_n", N=N), K).body == zero_body()


def test_real_segment_N_halves_projection_body():
    K = unit_cube4()
    out = apply_valuation(ValuationOp("pi_n", N=seg_m11()), K)
    assert out.body == apply_valuation(ValuationOp("proj"), K).body.scale(F(1, 2))
    assert out.support((1, 0, 0, 0)) == F(1, 2)


def test_complex_plane_body_vanishes():
    # K spanned by e1, e2 (C-independent directions): degree-3 part must die
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 2, 0), (F(1, 2), 0, F(1, 3), 0)]
    K = convex_hull(pts)
    assert K.affine_dim == 2
    assert apply_valuation(ValuationOp("pi_n", N=triangle2()), K).body == zero_body()
    # a complex line is still 2-dimensional
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
    K = convex_hull(pts)
    assert apply_valuation(ValuationOp("pi_n", N=triangle2()), K).body == zero_body()


def test_e_plane_projection_identity():
    # K inside span{e1, i e1, e2}: support in direction alpha e1 + beta e2
    # only sees beta e2
    rng = random.Random(44)
    pts = [(rand_rational(rng), rand_rational(rng), rand_rational(rng), 0) for _ in range(6)]
    K = convex_hull(pts)
    N = triangle2()
    out = apply_valuation(ValuationOp("pi_n", N=N), K)
    for _ in range(10):
        alpha = Cplx(rand_rational(rng), rand_rational(rng))
        beta = Cplx(rand_rational(rng), rand_rational(rng))
        w_full = (alpha.re, alpha.im, beta.re, beta.im)
        w_beta = (0, 0, beta.re, beta.im)
        assert out.support(w_full) == out.support(w_beta)


# -- dual complex difference body ----------------------------------------------------------


def test_dual_diff_point_source():
    M = unit_square2()
    K = Polytope.point((1, F(1, 2), -2, 3))
    assert apply_valuation(ValuationOp("dtilde_m", M=M), K).body == zero_body()


def test_dual_diff_cube_value():
    out = apply_valuation(ValuationOp("dtilde_m", M=seg_0i()), unit_cube4())
    assert out.support((0, 0, 1, 0)) == 1
    # both evaluation routes agree under the pinned conjugation convention
    assert dual_diff_support_via_det(seg_0i(), unit_cube4(), (0, 0, 1, 0)) == 1


def test_dual_diff_homogeneity():
    rng = random.Random(45)
    M = triangle2()
    K = rand_body(rng, nverts=5)
    lam = F(3, 2)
    left = apply_valuation(ValuationOp("dtilde_m", M=M), K.scale(lam))
    right = apply_valuation(ValuationOp("dtilde_m", M=M), K)
    for _ in range(8):
        w = rand_dir(rng)
        assert left.support(w) == lam * right.support(w)


def test_conjugation_convention_pinned():
    rng = random.Random(46)
    M = triangle2()
    mismatch = 0
    for _ in range(10):
        K = rand_body(rng, nverts=5)
        w = rand_dir(rng)
        phi_route = apply_valuation(ValuationOp("dtilde_m", M=M), K).support(w)
        assert dual_diff_support_via_det(M, K, w, conjugate_atoms=True) == phi_route
        if dual_diff_support_via_det(M, K, w, conjugate_atoms=False) != phi_route:
            mismatch += 1
    assert mismatch > 0  # the alternative convention is genuinely different


def _det_route_by_hand(M, K, w, conjugate_atoms):
    """sum_j max_k <det(k, w), b_j> over the vertices k of K, written out."""
    if K.is_empty:
        return F(0)
    images = [det_pair(v, w) for v in K.vertices]
    total = F(0)
    for nu in planar_atoms(M):
        b = nu.conjugate() if conjugate_atoms else nu
        total += max(a.re * b.re + a.im * b.im for a in images)
    return total


def _flat_body(rng, rank):
    """A random body in W of affine dimension rank."""
    base = [rand_rational(rng) for _ in range(4)]
    while True:
        gens = [[rand_rational(rng) for _ in range(4)] for _ in range(rank)]
        coefs = [[rand_rational(rng) for _ in gens] for _ in range(rank + 3)]
        P = convex_hull([tuple(x + sum(c * g[i] for c, g in zip(cs, gens))
                               for i, x in enumerate(base)) for cs in coefs])
        if P.affine_dim == rank:
            return P


def test_det_route_matches_the_max_over_det_images():
    rng = random.Random(271)
    polygon = convex_hull([(0, 0), (2, F(1, 3)), (F(-1, 2), F(5, 7)), (1, 2)])
    Ms = [Polytope.segment((F(-1, 2), F(1, 3)), (F(3, 4), 2)), polygon, Polytope.point((1, 2))]
    Ks = [rand_body(rng, full=True), _flat_body(rng, 2), _flat_body(rng, 3),
          Polytope.point((1, F(-1, 2), 3, F(2, 5))), Polytope.empty(4)]
    assert [K.affine_dim for K in Ks] == [4, 2, 3, 0, -1]
    ws = [(1, -2, 0, 3), rand_dir(rng), ("1/2", "-3/4", "5", "0"), (2, F(1, 3), "-7/5", 0),
          (0, 0, 0, 0)]
    for M, K, w, conj in itertools.product(Ms, Ks, ws, (True, False)):
        got = dual_diff_support_via_det(M, K, w, conjugate_atoms=conj)
        assert type(got) is Fraction
        assert got == _det_route_by_hand(M, K, w, conj)
    assert dual_diff_support_via_det(Ms[0], Ks[0], ws[0]) != 0


def test_det_route_argument_errors():
    M, K = triangle2(), unit_cube4()
    for body in (K, Polytope.empty(4)):
        for w in ((1, 0, 0), (1, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="expected a point of R\\^4"):
                dual_diff_support_via_det(M, body, w)
        with pytest.raises(ValueError, match="planar_atoms expects ambient dimension 2, not 4"):
            dual_diff_support_via_det(simplex4(), body, (1, 0, 0, 0))
    with pytest.raises(TypeError,
                       match="dual_diff_support_via_det expects a Polytope, not DualPolytope"):
        dual_diff_support_via_det(M, DualPolytope(K), (1, 0, 0, 0))


# -- combined operator --------------------------------------------------------------------


def test_combined_point_parameters_give_zero():
    K = unit_cube4()
    M = Polytope.point((1, 1))
    N = Polytope.point((-2, 0))
    assert apply_valuation(ValuationOp("z_combined", M=M, N=N), K).body == zero_body()


def test_combined_degree_split():
    rng = random.Random(47)
    M, N = seg_0i(), seg_m11()
    K = simplex4()
    d1 = apply_valuation(ValuationOp("dtilde_m", M=M), K)
    d3 = apply_valuation(ValuationOp("pi_n", N=N), K)
    for lam in (1, 2, 3, 4, 5):
        Z = apply_valuation(ValuationOp("z_combined", M=M, N=N), K.scale(lam))
        if lam == 1:
            assert Z.body == minkowski_sum(d1.body, d3.body)
        for _ in range(5):
            w = rand_dir(rng)
            assert Z.support(w) == lam * d1.support(w) + lam**3 * d3.support(w)


def test_combined_translation_invariance():
    rng = random.Random(48)
    M, N = triangle2(), seg_m11()
    K = rand_body(rng, nverts=5)
    t = tuple(rand_rational(rng) for _ in range(4))
    op = ValuationOp("z_combined", M=M, N=N)
    assert apply_valuation(op, K.translate(t)).body == apply_valuation(op, K).body


# -- parameter translation invariance -------------------------------------------------------


def test_parameter_translation_invariance():
    rng = random.Random(49)
    K = simplex4()
    M = triangle2()
    t = (rand_rational(rng), rand_rational(rng))
    for kind, param in (("d_m", "M"), ("pi_n", "N")):
        moved = apply_valuation(ValuationOp(kind, **{param: M.translate(t)}), K)
        assert moved == apply_valuation(ValuationOp(kind, **{param: M}), K)


# -- evaluator / reconstruction agreement ----------------------------------------------------


OPS = [
    ValuationOp("proj"),
    ValuationOp("diff"),
]


def _all_ops():
    M, N = triangle2(), seg_m11()
    ops = [
        ValuationOp("proj"),
        ValuationOp("diff"),
        ValuationOp("d_m", M=M),
        ValuationOp("pi_n", N=N),
        ValuationOp("dtilde_m", M=M),
        ValuationOp("z_combined", M=M, N=N),
    ]
    ops.append(covariant_of(ValuationOp("pi_n", N=N)))
    return ops


@pytest.mark.parametrize("op", _all_ops(), ids=lambda op: op.kind)
def test_evaluator_matches_reconstruction(op):
    rng = random.Random(50)
    K = simplex4()
    out = apply_valuation(op, K)
    body = out.body if isinstance(out, DualPolytope) else out
    ev = SupportEvaluator(op, K)
    for _ in range(15):
        w = rand_dir(rng)
        assert ev.at(w) == body.support(w)


def test_support_reads_float_and_string_directions_exactly():
    # both faces read a float or string component as the rational it denotes
    K = convex_hull([(0, 0, 0, 0), (F(1, 3), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert K.support((0.1, 0, 0, 0)) == F(3602879701896397, 108086391056891904)
    dirs = [(0.1, 0, 0, 0), ("1/3", 0, 0, 0), (0.25, "-7/2", 1e-3, "5")]
    for op, space in ((ValuationOp("diff"), Polytope), (ValuationOp("proj"), DualPolytope)):
        out = apply_valuation(op, K)
        assert type(out) is space
        ev = SupportEvaluator(op, K)
        for w in dirs:
            value = out.support(w)
            assert type(value) is F and value == ev.at(w)


BATCH_SOURCES = {
    "empty": Polytope.empty(4),
    "point": Polytope.point((F(1, 3), -2, F(5, 7), 0)),
    "segment": Polytope.segment((0, 1, F(-1, 2), 3), (F(2, 3), 0, 1, -1)),
    # a 2-flat and a 3-flat, neither along the axes; the 3-flat's atoms are
    # its facet pair
    "plane": convex_hull([(0, 0, 0, 0), (1, 2, 0, F(1, 3)), (0, 1, -1, 1), (1, 3, -1, F(4, 3)),
                          (F(1, 2), 1, 0, F(1, 6))]),
    "3-flat": convex_hull([(1, 0, 0, 0), (0, F(1, 2), 0, 0), (0, 0, -1, 0), (0, 0, 0, F(1, 3)),
                           (F(1, 2), F(1, 4), 0, 0), (0, 1, 1, 0)]),
    "simplex": convex_hull([(0, 0, 0, 0), (F(3, 2), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (F(1, 3), F(1, 5), -1, 1)]),
}
# M a segment or a triangle, N a point (one complex scalar), a segment or a triangle
BATCH_PARAMS = {
    "M": [Polytope.segment((F(-1, 3), 0), (1, F(2, 5))), triangle2()],
    "N": [Polytope.point((F(1, 2), -1)), seg_m11(), convex_hull([(0, 0), (2, F(1, 3)), (-1, 1)])],
}
BATCH_DIRS = [(0, 0, 0, 0), (1, 2, -1, 3), (0.5, "1/3", F(-7, 2), 2), ("-3", 1.25, 0, F(1, 9)),
              (F(123456789, 1000003), "-1/999983", 7, 1)]


@pytest.mark.parametrize("kind", [*OPERATORS, *(f"cov_of:{k}" for k, spec in OPERATORS.items()
                                               if spec.contravariant)])
def test_batched_evaluation_matches_at_and_reconstruction(kind):
    params = OPERATORS[kind.removeprefix("cov_of:")].params
    assert [K.affine_dim for K in BATCH_SOURCES.values()] == [-1, 0, 1, 2, 3, 4]
    for chosen in itertools.product(*(BATCH_PARAMS[p] for p in params)):
        op = ValuationOp(kind, **dict(zip(params, chosen)))
        for K in BATCH_SOURCES.values():
            ev, out = SupportEvaluator(op, K), apply_valuation(op, K)
            values = ev.at_many(BATCH_DIRS)
            assert all(type(v) is F for v in values) and values[0] == 0
            assert values == [ev.at(w) for w in BATCH_DIRS]
            assert values == [out.support(w) for w in BATCH_DIRS]
            assert ev.at_many([]) == []


def test_batched_evaluation_checks_each_direction():
    ev = SupportEvaluator(ValuationOp("proj"), simplex4())
    for bad in [(1, 2, 3)], [(1, 0, 0, 0), (1, 2, 3, 4, 5)]:
        with pytest.raises(ValueError, match="expected 4"):
            ev.at_many(bad)


@pytest.mark.parametrize("op", _all_ops(), ids=lambda op: op.kind)
def test_valuation_additivity_one_split(op):
    rng = random.Random(51)
    P = rand_body(rng, nverts=6, full=True)
    xi = rand_dir(rng)
    c = P.support(xi) / 2  # guaranteed to cut through or touch
    K, L, mid = split_by_hyperplane(P, xi, c)
    evs = {name: SupportEvaluator(op, B if not B.is_empty else zero_body())
           for name, B in (("P", P), ("K", K), ("L", L), ("mid", mid))}
    for _ in range(10):
        w = rand_dir(rng)
        assert evs["P"].at(w) + evs["mid"].at(w) == evs["K"].at(w) + evs["L"].at(w)


def certify_reconstruction(op, K):
    """Prove that apply_valuation(op, K) is exactly the evaluator's body E.

    The output R must be full-dimensional.  h_E(n_F) = c_F on every facet
    (n_F, c_F) of R gives E inside R.  For a vertex v of R, u_v, the sum of
    the normals of the facets through v, lies inside the normal cone of R at
    v, so the face of E in direction u_v lies in {v}; it is nonempty exactly
    when h_E(u_v) = <v, u_v>, which puts every vertex of R inside E.
    """
    out = apply_valuation(op, K)
    R = out.body if isinstance(out, DualPolytope) else out
    assert R.affine_dim == 4
    ev = SupportEvaluator(op, K)
    for f in R.facets:
        assert ev.at(f.normal) == f.offset
    for i, v in enumerate(R.vertices):
        through = [f.normal for f in R.facets if i in f.vertex_ids]
        u = tuple(sum(col) for col in zip(*through))
        assert ev.at(u) == sum(a * b for a, b in zip(u, v))


def _certified_tokens():
    return list(OPERATORS) + [f"cov_of:{k}" for k, spec in OPERATORS.items() if spec.contravariant]


@pytest.mark.parametrize("kind", _certified_tokens())
def test_reconstruction_certified(kind):
    # the pyramid6 body, triangle M and tilted segment N of the pinned op --out bytes
    K = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0),
                     (0, 0, 0, 1)])
    bodies = {"M": triangle2(), "N": Polytope.segment((-1, 0), (1, 1))}
    params = OPERATORS[kind.removeprefix("cov_of:")].params
    certify_reconstruction(ValuationOp(kind, **{p: bodies[p] for p in params}), K)


@pytest.mark.parametrize("kind", [k for k in _certified_tokens() if not k.endswith("z_combined")])
def test_reconstruction_certified_rational_body(kind):
    # pyramid6 under a rational diagonal map and shift, with rational M and N,
    # so that K's vectors and the complex scalars clear over denominators above 1
    scale, shift = (F(1, 2), F(2, 3), F(3, 5), F(5, 7)), (F(1, 3), F(-2, 5), F(1, 7), F(3, 11))
    K = convex_hull([tuple(a * x + b for a, x, b in zip(scale, v, shift))
                     for v in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1)]])
    bodies = {"M": convex_hull([(0, 0), (F(1, 2), 0), (F(1, 5), F(2, 3))]),
              "N": Polytope.segment((F(-1, 2), 0), (1, F(1, 3)))}
    params = OPERATORS[kind.removeprefix("cov_of:")].params
    certify_reconstruction(ValuationOp(kind, **{p: bodies[p] for p in params}), K)


def test_k8_projection_body_folds_in_three_engine_runs(monkeypatch):
    # the recorded reconstruction body K8 (tests/work_counts.py) has 18
    # atoms, so its projection body sums 18 segments.  The fold hulls the
    # partial sums of ranks 2 and 3 to cut them, then one engine run grows
    # a simplex of the first rank-4 partial sum to the whole sum by the
    # oracle driver; the pairwise fold made 17 runs.  The body keeps its
    # 1,562 vertices, and its support is the evaluator's
    import minkval.polytope as polytope
    from minkval import harness

    runs = []
    engine = polytope._hull_engine

    def counted(ipts, d, *rest):
        runs.append(d)
        return engine(ipts, d, *rest)

    K = harness.rand_polytope(random.Random(7), min_verts=8, max_verts=8)
    monkeypatch.setattr(polytope, "_hull_engine", counted)
    op = ValuationOp("proj")
    R = apply_valuation(op, K).body
    assert len(K.area_measure()) == 18 and len(R.vertices) == 1562
    assert runs == [2, 3, 4]
    ev, rng = SupportEvaluator(op, K), random.Random("k8-proj")
    for _ in range(10):
        w = rand_dir(rng)
        assert R.support(w) == ev.at(w)


def test_k8_projection_body_certified():
    # the first large input of certify_reconstruction: the projection body
    # of the recorded body K8, 1,562 vertices, is proved to be the
    # evaluator's body facet by facet and vertex by vertex
    from minkval import harness

    K = harness.rand_polytope(random.Random(7), min_verts=8, max_verts=8)
    certify_reconstruction(ValuationOp("proj"), K)


def _cmul(c, w):
    """The complex scalar c = (re, im) times each complex coordinate of w."""
    r, i = c
    return (r * w[0] - i * w[1], i * w[0] + r * w[1], r * w[2] - i * w[3], i * w[2] + r * w[3])


def _fraction_formula(kind, K, M=None, N=None):
    """h(Z K, .) by each kind's formula in plain Fraction arithmetic.

    An oracle for the integer-cleared evaluators: it reads K only through
    its vertices and area measure, and M only through planar_atoms.
    """
    atoms = K.area_measure()

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), F(0))

    def supp(w):
        return max(dot(v, w) for v in K.vertices)

    def d_m(xi):
        return sum((supp(_cmul((nu.re, -nu.im), xi)) for nu in planar_atoms(M)), F(0))

    def pi_n(w):
        return sum((max(dot(a, _cmul(c, w)) for c in N.vertices) for a in atoms), F(0)) / 4

    def dtilde_m(w):  # Phi^{-1} w, then d_m
        return d_m((w[2], -w[3], -w[0], w[1]))

    return {
        "proj": lambda w: sum((abs(dot(a, w)) for a in atoms), F(0)) / 2,
        "diff": lambda w: supp(w) + supp(tuple(-x for x in w)),
        "d_m": d_m,
        "pi_n": pi_n,
        "dtilde_m": dtilde_m,
        "z_combined": lambda w: dtilde_m(w) + pi_n(w),
    }[kind]


@pytest.mark.parametrize("kind", _certified_tokens())
def test_evaluator_matches_fraction_formula(kind):
    rng = random.Random(53)

    def big():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    def flat(k):  # a k-flat through a rational point, spanned by k rational directions
        base = tuple(big() for _ in range(4))
        span = [tuple(rand_rational(rng) for _ in range(4)) for _ in range(k)]
        coeffs = [[rand_rational(rng) for _ in span] for _ in range(k + 3)]
        return convex_hull([base] + [
            tuple(b + sum(c * d[i] for c, d in zip(cs, span)) for i, b in enumerate(base))
            for cs in coeffs])

    bodies_K = [convex_hull([tuple(big() for _ in range(4)) for _ in range(7)]),
                flat(1), flat(2), flat(3), Polytope.point((F(1, 3), -2, F(5, 7), 0))]
    assert [K.affine_dim for K in bodies_K] == [4, 1, 2, 3, 0]
    planar = [Polytope.point((F(1, 2), -1)), Polytope.segment((F(-1, 3), 0), (1, F(2, 5))),
              convex_hull([(0, 0), (F(3, 2), F(1, 7)), (1, 2), (F(-1, 4), 1)])]
    dirs = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (2, -1, 3, 5), ("1/3", "-7/2", "0", "5/11"),
            ("-3", 4, F(1, 7), "22/7"), (F(123456789, 1000003), F(-1, 999983), F(7, 3), 1)]
    base = kind.removeprefix("cov_of:")
    params = OPERATORS[base].params
    for K in bodies_K:
        for chosen in itertools.product(planar, repeat=len(params)):
            bodies = dict(zip(params, chosen))
            formula = _fraction_formula(base, K, **bodies)
            ev = SupportEvaluator(ValuationOp(kind, **bodies), K)
            for w in dirs:
                value = ev.at(w)
                assert type(value) is F
                x1, y1, x2, y2 = (F(x) for x in w)
                # a companion's support at w is the kind's at Phi w
                phi_w = (-x2, y2, x1, -y1) if kind != base else (x1, y1, x2, y2)
                assert value == formula(phi_w)


# -- covariant companions -------------------------------------------------------------------


def test_covariant_of_dual_diff_recovers_plain_diff():
    M = triangle2()
    op = covariant_of(ValuationOp("dtilde_m", M=M))
    K = simplex4()
    assert apply_valuation(op, K) == apply_valuation(ValuationOp("d_m", M=M), K)


def test_covariant_of_pi_n_covariance():
    rng = random.Random(52)
    N = seg_m11()
    op = covariant_of(ValuationOp("pi_n", N=N))
    K = simplex4()
    pi_n = apply_valuation(ValuationOp("pi_n", N=N), K)
    assert apply_valuation(op, K) == det_duality_inverse(pi_n)
    for _ in range(3):
        g = rand_sl(rng)
        left = apply_valuation(op, group_action(g, K))
        right = group_action(g, apply_valuation(op, K))
        assert left == right


def test_covariant_of_point_parameter_constant_zero():
    op = covariant_of(ValuationOp("pi_n", N=Polytope.point((1, 2))))
    assert apply_valuation(op, unit_cube4()) == zero_body()


def test_op_validation():
    with pytest.raises(ValueError):
        ValuationOp("pi_n")
    with pytest.raises(ValueError):
        ValuationOp("proj", M=triangle2())
    with pytest.raises(ValueError):
        ValuationOp("nope")
    with pytest.raises(ValueError):
        covariant_of(ValuationOp("diff"))
    # a cov_of: token is checked as typed, and its errors name it
    N = seg_m11()
    for kind, params in (
        ("cov_of:nope", {}),
        ("cov_of:cov_of:proj", {}),
        ("cov_of:diff", {}),
        ("cov_of:pi_n", {}),
        ("cov_of:pi_n", {"M": triangle2(), "N": N}),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            ValuationOp(kind, **params)
    assert ValuationOp("cov_of:pi_n", N=N) == covariant_of(ValuationOp("pi_n", N=N))


@pytest.mark.parametrize("kind,spec", OPERATORS.items(), ids=list(OPERATORS))
def test_operator_table_entry(kind, spec):
    bodies = {"M": triangle2(), "N": seg_m11()}
    op = ValuationOp(kind, **{p: bodies[p] for p in spec.params})
    K = simplex4()
    assert isinstance(apply_valuation(op, K), DualPolytope) == spec.contravariant
    # toggling either parameter body drops a required one or adds a forbidden one
    for toggled in ("M", "N"):
        params = set(spec.params) ^ {toggled}
        with pytest.raises(ValueError):
            ValuationOp(kind, **{p: bodies[p] for p in params})
    table = homogeneous_decomposition(op, K, [(1, 2, -1, 3), (0, 1, 0, -2)])
    assert table.nonzero_degrees() == spec.degrees


@pytest.mark.parametrize("call,error,message", [
    (lambda: apply_valuation(ValuationOp("proj"), DualPolytope(unit_cube4())), TypeError,
     "apply_valuation expects a Polytope, not DualPolytope"),
    (lambda: apply_valuation(ValuationOp("diff"), convex_hull([(0, 0, 0), (1, 2, 3)])),
     ValueError, "apply_valuation expects ambient dimension 4, not 3"),
    (lambda: dual_diff_support_via_det(simplex4(), unit_cube4(), (1, 0, 0, 0)), ValueError,
     "planar_atoms expects ambient dimension 2, not 4"),
    (lambda: dual_diff_support_via_det(Polytope.empty(2), unit_cube4(), (1, 0, 0, 0)),
     ValueError, "parameter body must be nonempty"),
], ids=["apply-dual", "apply-3d", "det-route-4d-M", "det-route-empty-M"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


G_ONE = ComplexMatrix2.identity()
# every public function that takes a body: the name its messages give, the
# call on the body B, whether B lives in W*, and B's ambient dimension when
# the function fixes it
BODY_ARGUMENTS = [
    ("minkowski_sum", lambda B: minkowski_sum(unit_cube4(), B), False, None),
    ("affine_transform", lambda B: affine_transform(B, [[1, 0, 0, 0]]), False, None),
    ("split_by_hyperplane", lambda B: split_by_hyperplane(B, (1, 0, 0, 0), 0), False, None),
    ("mixed_volume", lambda B: mixed_volume(B, unit_cube4(), unit_cube4(), unit_cube4()), False, 4),
    ("mixed_volume_31", lambda B: mixed_volume_31(unit_cube4(), B), False, 4),
    ("mixed_volume_fn", lambda B: mixed_volume_fn(B, abs), False, 4),
    ("complex_scale", lambda B: complex_scale(C_ONE, B), False, None),
    ("det_image", lambda B: det_image(B, (1, 0, 0, 0)), False, 4),
    ("det_duality", det_duality, False, 4),
    ("group_action", lambda B: group_action(G_ONE, B), False, 4),
    ("apply_valuation", lambda B: apply_valuation(ValuationOp("proj"), B), False, 4),
    ("SupportEvaluator", lambda B: SupportEvaluator(ValuationOp("proj"), B), False, 4),
    ("dual_diff_support_via_det", lambda B: dual_diff_support_via_det(triangle2(), B, (1, 0, 0, 0)),
     False, 4),
    # the parameter body of the planar-integral route is read by planar_atoms
    ("planar_atoms", lambda B: dual_diff_support_via_det(B, unit_cube4(), (1, 0, 0, 0)), False, 2),
    ("ValuationOp M", lambda B: ValuationOp("d_m", M=B), False, 2),
    ("ValuationOp N", lambda B: ValuationOp("pi_n", N=B), False, 2),
    ("det_duality_inverse", det_duality_inverse, True, 4),
    ("dual_action", lambda B: dual_action(G_ONE, B), True, 4),
    ("dual_scalar_scale", lambda B: dual_scalar_scale(C_ONE, B), True, 4),
]


def _wrong_bodies():
    """For each function: a list of points, the other space's body and, where
    the dimension is fixed, a body of another ambient dimension, with the
    exception and the whole message each raises."""
    cube3 = convex_hull(list(itertools.product((0, 1), repeat=3)))
    for name, call, dual, dim in BODY_ARGUMENTS:
        other = unit_cube4() if dual else DualPolytope(unit_cube4())
        want = "DualPolytope" if dual else "Polytope"
        cases = [("list", [(0, 0, 0, 0), (1, 0, 0, 0)], TypeError,
                  f"{name} expects a {want}, not list"),
                 ("other-space", other, TypeError,
                  f"{name} expects a {want}, not {type(other).__name__}")]
        if dim is not None:
            wrong = unit_cube4() if dim == 2 else cube3
            cases.append(("wrong-dim", DualPolytope(wrong) if dual else wrong, ValueError,
                          f"{name} expects ambient dimension {dim}, not {wrong.ambient_dim}"))
        for case, body, error, message in cases:
            yield pytest.param(call, body, error, message, id=f"{name}-{case}")


@pytest.mark.parametrize("call,body,error,message", _wrong_bodies())
def test_body_argument_contract(call, body, error, message):
    # a TypeError names the function and the type it got, a ValueError both
    # dimensions; no AttributeError escapes from a field of the argument
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(body)


def test_dual_bodies_raise_type_error():
    # a body of W* where a Polytope is expected is a TypeError, as for the
    # source body of apply_valuation, not an AttributeError from its fields
    with pytest.raises(TypeError, match="ValuationOp M expects a Polytope, not DualPolytope"):
        ValuationOp("d_m", M=DualPolytope(triangle2()))
    with pytest.raises(TypeError, match="ValuationOp N expects a Polytope, not DualPolytope"):
        ValuationOp("pi_n", N=DualPolytope(seg_m11()))
    with pytest.raises(TypeError, match="mixed_volume_fn expects a Polytope, not DualPolytope"):
        mixed_volume_fn(DualPolytope(unit_cube4()), unit_cube4().support)
    # and so for the kernel's body maps, the dual of P beside P included
    P = unit_cube4()
    D = det_duality(P)
    for call, what in ((lambda: minkowski_sum(P, D), "minkowski_sum"),
                       (lambda: minkowski_sum(D, P), "minkowski_sum"),
                       (lambda: P + D, "minkowski_sum"),
                       (lambda: affine_transform(D, [[1, 0, 0, 0]] * 4), "affine_transform"),
                       (lambda: split_by_hyperplane(D, (1, 0, 0, 0), 0), "split_by_hyperplane")):
        with pytest.raises(TypeError, match=f"{what} expects a Polytope, not DualPolytope"):
            call()
