"""Kernel tests: hulls, support, volume, area measures, splits.

Expected values are frozen from independent derivations: simplex volumes via
the determinant formula |det|/n!, facet normals by hand enumeration, and a
fan-triangulation volume oracle for random bodies.
"""

from fractions import Fraction
import hashlib
import itertools
import math
from math import gcd, lcm
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from minkval.cplx import DualPolytope, det_image
from minkval.linalg import det, dot, mat_inverse, vec_sub
import minkval.polytope as polytope
from minkval.polytope import (
    Polytope,
    _basis,
    _plane,
    affine_transform,
    convex_hull,
    minkowski_sum,
    split_by_hyperplane,
)
from minkval.valuations import SupportEvaluator, ValuationOp, dual_diff_support_via_det

F = Fraction


def unit_cube(dim=4):
    return convex_hull(list(itertools.product((0, 1), repeat=dim)))


def standard_simplex(dim=4):
    pts = [(0,) * dim]
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        pts.append(tuple(e))
    return convex_hull(pts)


def rand_rational(rng, span=4, max_den=8):
    num = rng.randint(-span * max_den, span * max_den)
    den = rng.randint(1, max_den)
    return F(num, den)


def rand_points(rng, dim, count):
    return [tuple(rand_rational(rng) for _ in range(dim)) for _ in range(count)]


# -- convex_hull ------------------------------------------------------------


def test_hull_collinear_midpoint_dropped():
    P = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (F(1, 2), 0, 0, 0)])
    assert P.affine_dim == 1
    assert P.vertices == ((F(0), F(0), F(0), F(0)), (F(1), F(0), F(0), F(0)))


def test_hull_cube_interior_point_removed():
    pts = list(itertools.product((0, 1), repeat=4)) + [(F(1, 2),) * 4]
    P = convex_hull(pts)
    assert P.affine_dim == 4
    assert len(P.vertices) == 16
    assert len(P.facets) == 8
    assert (F(1, 2),) * 4 not in P.vertices


def test_hull_simplex_facets():
    P = standard_simplex(4)
    assert P.affine_dim == 4
    assert len(P.vertices) == 5
    normals = sorted(f.normal for f in P.facets)
    expected = sorted(
        [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (1, 1, 1, 1)]
    )
    assert normals == expected
    offsets = {f.normal: f.offset for f in P.facets}
    assert offsets[(1, 1, 1, 1)] == 1
    assert offsets[(-1, 0, 0, 0)] == 0


def test_hull_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (0, 0, 0)])


def test_hull_order_independence():
    rng = random.Random(7)
    pts = rand_points(rng, 3, 9)
    P = convex_hull(pts)
    for _ in range(5):
        rng.shuffle(pts)
        Q = convex_hull(pts + pts[:3])
        assert Q == P
        assert sorted(f.normal for f in Q.facets) == sorted(f.normal for f in P.facets)


def test_hull_idempotence():
    rng = random.Random(11)
    for _ in range(10):
        P = convex_hull(rand_points(rng, 4, 8))
        assert convex_hull(P.vertices) == P


# -- affine_transform --------------------------------------------------------


def test_translate_preserves_volume():
    P = unit_cube(4)
    Q = P.translate((F(3, 7), -2, F(1, 3), 5))
    assert Q.volume() == 1
    assert len(Q.vertices) == 16


def test_translate_rejects_wrong_length():
    P = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    for t in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError):
            P.translate(t)


def test_reflection_of_cube():
    P = unit_cube(4)
    minus_i = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
    Q = affine_transform(P, minus_i)
    assert Q == convex_hull([tuple(-x for x in v) for v in P.vertices])
    assert Q.support((1, 0, 0, 0)) == 0
    assert Q.support((-1, 0, 0, 0)) == 1


def test_coordinate_projection_to_plane():
    P = unit_cube(4)
    A = [[1, 0, 0, 0], [0, 1, 0, 0]]
    Q = affine_transform(P, A)
    assert Q.ambient_dim == 2
    assert Q == unit_cube(2)


def test_affine_shape_mismatch():
    with pytest.raises(ValueError):
        affine_transform(unit_cube(4), [[1, 0], [0, 1]])


# -- minkowski_sum -----------------------------------------------------------


def test_sum_with_point_translates():
    P = unit_cube(4)
    Q = Polytope.point((1, 2, 3, 4))
    assert minkowski_sum(P, Q) == P.translate((1, 2, 3, 4))


def test_box_as_zonotope():
    segs = [Polytope.segment((0, 0, 0, 0), tuple(1 if j == i else 0 for j in range(4))) for i in range(4)]
    total = segs[0]
    for s in segs[1:]:
        total = minkowski_sum(total, s)
    assert total == unit_cube(4)


def test_difference_body_support_oracle():
    K = standard_simplex(4)
    D = minkowski_sum(K, -K)
    rng = random.Random(3)
    for _ in range(20):
        xi = tuple(rand_rational(rng) for _ in range(4))
        assert D.support(xi) == K.support(xi) + K.support(tuple(-x for x in xi))


# -- support ------------------------------------------------------------------


def test_support_cube_and_zero():
    P = unit_cube(4)
    assert P.support((1, 1, 1, 1)) == 4
    assert P.support((0, 0, 0, 0)) == 0


def test_support_simplex_direction():
    P = standard_simplex(4)
    assert P.support((1, -1, 2, 0)) == 2


def test_support_homogeneity_and_subadditivity():
    rng = random.Random(5)
    P = convex_hull(rand_points(rng, 4, 7))
    for _ in range(25):
        xi = tuple(rand_rational(rng) for _ in range(4))
        eta = tuple(rand_rational(rng) for _ in range(4))
        lam = F(rng.randint(1, 9), rng.randint(1, 5))
        assert P.support(tuple(lam * x for x in xi)) == lam * P.support(xi)
        assert P.support(tuple(a + b for a, b in zip(xi, eta))) <= P.support(xi) + P.support(eta)


# -- volume --------------------------------------------------------------------


def test_volume_cube():
    assert unit_cube(4).volume() == 1


def test_volume_simplex_determinant_oracle():
    # |det(e1,e2,e3,e4)| / 4! = 1/24
    assert standard_simplex(4).volume() == F(1, 24)
    # a skewed simplex, oracle by determinant
    verts = [(0, 0, 0, 0), (1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 1), (1, 1, 1, 3)]
    P = convex_hull(verts)
    rows = [vec_sub(v, verts[0]) for v in verts[1:]]
    assert P.volume() == abs(det(rows)) / 24


def test_volume_lower_dimensional_is_zero():
    P = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    assert P.affine_dim == 2
    assert P.volume() == 0


def test_volume_gl_covariance():
    rng = random.Random(13)
    P = convex_hull(rand_points(rng, 4, 7))
    for _ in range(5):
        A = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if det(A) == 0:
            continue
        Q = affine_transform(P, A)
        assert Q.volume() == abs(det(A)) * P.volume()


# -- area_measure ----------------------------------------------------------------


def test_area_measure_cube():
    atoms = set(unit_cube(4).area_measure().atoms)
    expected = set()
    for i in range(4):
        for s in (1, -1):
            a = [F(0)] * 4
            a[i] = F(s)
            expected.add(tuple(a))
    assert atoms == expected


def test_area_measure_unit_square():
    atoms = set(unit_cube(2).area_measure().atoms)
    assert atoms == {(F(0), F(-1)), (F(1), F(0)), (F(0), F(1)), (F(-1), F(0))}


@pytest.mark.parametrize(
    "gamma1,gamma2",
    [(F(0), F(0)), (F(1), F(1)), (F(2, 3), F(-1, 2))],
)
def test_area_measure_sheared_simplex(gamma1, gamma2):
    # simplex [0, e1, i*e1, gamma*e1 + e2] in coordinates (e1, i*e1, e2)
    P = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (gamma1, gamma2, 1)])
    atoms = set(P.area_measure().atoms)
    expected = {
        (F(0), F(0), F(-1, 2)),
        (F(0), F(-1, 2), gamma2 / 2),
        (F(-1, 2), F(0), gamma1 / 2),
        (F(1, 2), F(1, 2), -(gamma1 + gamma2 - 1) / 2),
    }
    assert atoms == expected


def test_area_measure_codim1_two_atoms():
    # unit square inside the x3=x4=0 plane of R^4: a 2-dim body has no atoms
    P = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    assert P.area_measure().atoms == ()
    # a 3-cube inside the x4=0 hyperplane: two opposite atoms of weight 1
    pts = [tuple(list(p) + [0]) for p in itertools.product((0, 1), repeat=3)]
    Q = convex_hull(pts)
    assert Q.affine_dim == 3
    atoms = set(Q.area_measure().atoms)
    assert atoms == {(F(0), F(0), F(0), F(1)), (F(0), F(0), F(0), F(-1))}
    # a segment in R^2: its length 5 times the unit normals +/-(-4, 3)/5
    S = convex_hull([(0, 0), (3, 4)])
    assert set(S.area_measure().atoms) == {(F(-4), F(3)), (F(4), F(-3))}
    # a triangle in R^3 spanning a tilted plane: area sqrt(2)/2 along +/-(0, -1, 1)/sqrt(2)
    T = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 1)])
    assert set(T.area_measure().atoms) == {(F(0), F(-1, 2), F(1, 2)), (F(0), F(1, 2), F(-1, 2))}
    # two flats whose basis edges have |det| != 1 on their pivot coordinates
    T2 = convex_hull([(0, 0, 0), (2, 0, 1), (0, 3, 1)])
    assert set(T2.area_measure().atoms) == {(F(3, 2), F(1), F(-3)), (F(-3, 2), F(-1), F(3))}
    edges = [(2, 0, 0, 1), (0, 3, 0, 1), (0, 0, 5, 1)]
    S3 = convex_hull([(0, 0, 0, 0)] + edges)
    assert S3.affine_dim == 3
    plus = (F(5, 2), F(5, 3), F(1), F(-5))
    assert set(S3.area_measure().atoms) == {plus, tuple(-x for x in plus)}


def test_area_measure_closure_random():
    rng = random.Random(17)
    for _ in range(12):
        P = convex_hull(rand_points(rng, 4, rng.randint(5, 9)))
        sums = P.area_measure().closure_sum()
        assert all(x == 0 for x in sums)


def test_divergence_identity_random():
    rng = random.Random(19)
    for _ in range(8):
        P = convex_hull(rand_points(rng, 4, 8))
        if P.affine_dim < 4:
            continue
        n = P.ambient_dim
        total = sum(P.support(a) for a in P.area_measure())
        assert P.volume() == total / n


# -- split_by_hyperplane -----------------------------------------------------------


def test_split_cube_in_half():
    P = unit_cube(4)
    low, high, mid = split_by_hyperplane(P, (1, 0, 0, 0), F(1, 2))
    assert low.volume() == F(1, 2)
    assert high.volume() == F(1, 2)
    assert mid.affine_dim == 3
    assert mid.volume() == 0


def test_split_missing_the_body():
    P = standard_simplex(4)
    low, high, mid = split_by_hyperplane(P, (1, 0, 0, 0), 2)
    assert low == P
    assert high.is_empty
    assert mid.is_empty


def test_empty_body_maps_sums_and_splits():
    # the empty body, which splits make, comes back empty from every body
    # map, sum and split, and has no atoms and volume zero
    E = Polytope.empty(4)
    assert E.is_empty and repr(E) == "Polytope.empty(4)"
    assert E.area_measure().atoms == () and E.area_measure().ambient_dim == 4
    assert E.volume() == 0
    assert E._cleared() == (1, []) and E._cleared_atoms() == (1, [])
    for B in (E.image(lambda v: v), E.translate((1, 2, 3, 4)), E.scale(3), -E):
        assert B.is_empty and B.ambient_dim == 4
    flat = affine_transform(E, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert flat.is_empty and flat == Polytope.empty(2) and flat.area_measure().ambient_dim == 2
    C = unit_cube(4)
    assert minkowski_sum(E, C).is_empty and minkowski_sum(C, E).is_empty
    with pytest.raises(ValueError):
        minkowski_sum(E, unit_cube(3))
    assert all(B.is_empty and B.ambient_dim == 4 for B in split_by_hyperplane(E, (1, 0, 0, 0), 0))
    with pytest.raises(ValueError):
        E.support((1, 0, 0, 0))


def test_empty_body_checks_arguments_as_a_nonempty_one():
    # a map to R^1, a split direction of the wrong length and an ambient
    # dimension outside 2..4 are refused for the empty body as for any other
    for body in (unit_cube(4), Polytope.empty(4)):
        with pytest.raises(ValueError):
            affine_transform(body, [[1, 0, 0, 0]])
        with pytest.raises(ValueError):
            split_by_hyperplane(body, (1, 2), 0)
    for dim in (1, 5, 7):
        with pytest.raises(ValueError):
            convex_hull([(0,) * dim])
        with pytest.raises(ValueError):
            Polytope.empty(dim)


def test_empty_body_checks_directions_as_a_nonempty_one():
    # a direction that is not a rational point of W, and a parameter body
    # that is not planar, are refused for the empty body as for any other
    # by the support evaluator, the planar-integral route and the det
    # image; valid arguments give the empty body its zero values
    M = convex_hull([(-1, 0), (1, 0)])
    E = Polytope.empty(4)
    for body in (unit_cube(4), E):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            SupportEvaluator(ValuationOp("proj"), body).at(("x", 0, 0, 0))
        with pytest.raises(ValueError, match="parameter body must be planar"):
            dual_diff_support_via_det(unit_cube(3), body, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="expected a point of R\\^4"):
            dual_diff_support_via_det(M, body, (1, 0, 0))
        with pytest.raises(ValueError, match="expected a point of R\\^4"):
            det_image(body, (1, 2, 3))
    for body in (unit_cube(3), Polytope.empty(3)):
        with pytest.raises(ValueError, match="det_image expects a body of ambient dimension 4"):
            det_image(body, (1, 2, 3, 4))
    assert SupportEvaluator(ValuationOp("proj"), E).at(("1/2", 0, 0, 0)) == 0
    assert dual_diff_support_via_det(M, E, (1, 0, 0, 0)) == 0
    assert det_image(E, (1, 2, 3, 4)) == Polytope.empty(2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: unit_cube(4).support((1, 0, 0)), ValueError, "dimension mismatch in support direction"),
    (lambda: dot((1, 2), (1, 2, 3)), ValueError, "dimension mismatch: 2 vs 3"),
    (lambda: mat_inverse([[1, 2], [2, 4]]), ValueError, "singular matrix"),
], ids=["support-length", "dot-lengths", "singular-inverse"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_split_simplex_volume_additivity():
    P = standard_simplex(4)
    low, high, mid = split_by_hyperplane(P, (1, 0, 0, 0), F(1, 2))
    assert mid.volume() == 0
    assert low.volume() + high.volume() == F(1, 24)
    # the piece beyond x1 >= 1/2 is a scaled copy of the simplex
    assert high.volume() == F(1, 24) / 16


def test_split_valuation_property_random():
    rng = random.Random(23)
    for _ in range(10):
        P = convex_hull(rand_points(rng, 4, 8))
        xi = tuple(rand_rational(rng) for _ in range(4))
        if all(x == 0 for x in xi):
            continue
        c = rand_rational(rng)
        low, high, mid = split_by_hyperplane(P, xi, c)
        vol = lambda Q: Q.volume() if not Q.is_empty else F(0)
        assert vol(low) + vol(high) == P.volume() + vol(mid)


# -- hypothesis property tests -------------------------------------------------------

# every phase but shrinking: each shrink step reruns the brute-force
# oracles, so a failing example would take minutes to report
NO_SHRINK = tuple(p for p in settings.default.phases if p is not Phase.shrink)

small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def point_lists(draw, dim, min_size=3, max_size=7):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    return [tuple(draw(small_rational) for _ in range(dim)) for _ in range(count)]


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(point_lists(dim=3))
def test_hyp_hull_idempotent_3d(pts):
    P = convex_hull(pts)
    assert convex_hull(P.vertices) == P


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(point_lists(dim=3), point_lists(dim=3), st.tuples(small_rational, small_rational, small_rational))
def test_hyp_support_additivity(pts1, pts2, xi):
    P = convex_hull(pts1)
    Q = convex_hull(pts2)
    S = minkowski_sum(P, Q)
    assert S.support(xi) == P.support(xi) + Q.support(xi)


huge_den = st.fractions(min_value=-9, max_value=9, max_denominator=10**12)
direction_component = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    huge_den,
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.builds("{}/{}".format, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
)


@st.composite
def bodies_of_any_rank(draw):
    """(k, points): up to seven points of a flat of rank 0 to k in R^k, for
    k in {2, 3, 4}, with denominators up to 10^12."""
    k = draw(st.integers(min_value=2, max_value=4))
    r = draw(st.integers(min_value=0, max_value=k))
    base = draw(st.tuples(*[huge_den] * k))
    gens = [draw(st.tuples(*[small_int] * k)) for _ in range(r)]
    coefs = draw(st.lists(st.tuples(*[huge_den] * r), min_size=1, max_size=7))
    return k, [tuple(b + sum(t * g[i] for t, g in zip(co, gens)) for i, b in enumerate(base))
               for co in coefs]


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(bodies_of_any_rank(), st.data())
def test_hyp_support_is_an_exact_fraction_max(body, data):
    # int, Fraction, float and "p/q" components, each read exactly, against
    # a Fraction max over the input points; the dual body answers the same
    k, pts = body
    P = convex_hull(pts)
    xi = data.draw(st.tuples(*[direction_component] * k))
    want = max(sum(F(a) * x for a, x in zip(xi, p)) for p in pts)
    for got in (P.support(xi), DualPolytope(P).support(xi), P.support(list(xi))):
        assert type(got) is Fraction and got == want


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(point_lists(dim=3, min_size=4, max_size=8))
def test_hyp_area_closure(pts):
    P = convex_hull(pts)
    assert all(x == 0 for x in P.area_measure().closure_sum())


# -- brute-force 4-D oracle ----------------------------------------------------------
#
# Facets, vertices, volume and area atoms from first principles, in plain
# Fraction arithmetic written here: a hyperplane through k of the points is a
# facet when every point lies on one side of it.  No _o* helper below calls
# the hull engine's helpers or minkval.linalg (test_hygiene.py checks it).


def _odot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _orref(rows, k):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _orank(vectors, k):
    return len(_orref(vectors, k)[1]) if vectors else 0


def _oprimitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _onormal(sub, k):
    """Primitive integer normal of the hyperplane the points span in R^k, or
    None when their affine hull is not a hyperplane."""
    m, pivots = _orref([[x - y for x, y in zip(q, sub[0])] for q in sub[1:]], k)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    v = [F(0)] * k
    v[free] = F(1)
    for i, col in enumerate(pivots):
        v[col] = -m[i][free]
    return _oprimitive(v)


def _ofacets(pts, k):
    """{outward primitive normal: offset} of a point set spanning R^k."""
    found = {}
    for sub in itertools.combinations(pts, k):
        a = _onormal(sub, k)
        if a is None:
            continue
        c = _odot(a, sub[0])
        vals = [_odot(a, p) for p in pts]
        if all(v <= c for v in vals):
            found[a] = c
        elif all(v >= c for v in vals):
            found[tuple(-x for x in a)] = -c
    return found


def _overtices(pts, facets, k):
    """A point is a vertex when the normals of the facets through it span R^k."""
    return sorted(
        p for p in pts if _orank([a for a, c in facets.items() if _odot(a, p) == c], k) == k
    )


def _ovolume(pts, k):
    """k-volume by cones from the centroid over the facets, recursively.

    A facet with normal a is measured by its projection along a coordinate
    axis j with a_j != 0, which scales its (k-1)-volume by |a_j| / |a|.
    """
    if k == 1:
        return max(p[0] for p in pts) - min(p[0] for p in pts)
    o = tuple(sum(p[i] for p in pts) / len(pts) for i in range(k))
    total = F(0)
    for a, c in _ofacets(pts, k).items():
        j = next(i for i, x in enumerate(a) if x != 0)
        face = [p[:j] + p[j + 1:] for p in pts if _odot(a, p) == c]
        total += (c - _odot(a, o)) / abs(a[j]) * _ovolume(face, k - 1)
    return total / k


def _oatom(pts, a, c, k):
    """vol_{k-1}(F) * a / |a| for the face of pts on <a, x> = c."""
    j = next(i for i, x in enumerate(a) if x != 0)
    face = [p[:j] + p[j + 1:] for p in pts if _odot(a, p) == c]
    w = _ovolume(face, k - 1) / abs(a[j])
    return tuple(w * x for x in a)


def _oflat_chart(pts, r):
    """Coordinates J (|J| = r) on which the r-flat of pts projects injectively."""
    diffs = [tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]
    for J in itertools.combinations(range(len(pts[0])), r):
        if _orank([tuple(d[j] for j in J) for d in diffs], r) == r:
            return J
    raise AssertionError("no injective chart")


small_int = st.integers(min_value=-2, max_value=2)
lattice_point = st.tuples(small_int, small_int, small_int, small_int)
rational_point = st.tuples(small_rational, small_rational, small_rational, small_rational)


@st.composite
def clouds_4d(draw):
    """Up to nine distinct points in R^4, often degenerate, sometimes repeated."""
    shape = draw(st.sampled_from(["rational", "lattice", "coplanar", "flat2", "flat3", "faces"]))
    if shape == "rational":
        pts = draw(st.lists(rational_point, min_size=5, max_size=9))
    elif shape == "lattice":
        pts = draw(st.lists(lattice_point, min_size=5, max_size=9))
    elif shape == "coplanar":
        # a cluster on one hyperplane <a, x> = c, plus points off it
        a = draw(lattice_point.filter(lambda v: any(v)))
        c = draw(small_int)
        j = next(i for i, x in enumerate(a) if x != 0)
        cluster = []
        for q in draw(st.lists(rational_point, min_size=3, max_size=6)):
            rest = sum(a[i] * q[i] for i in range(4) if i != j)
            cluster.append(q[:j] + (F(c - rest, a[j]),) + q[j + 1:])
        pts = cluster + draw(st.lists(lattice_point, min_size=1, max_size=9 - len(cluster)))
    elif shape == "faces":
        # 0/1 points plus midpoints of pairs and centroids of triples of them,
        # which lie inside edges and 2-faces when their corners span one
        corners = draw(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=5, max_size=9))
        pts = list(corners)
        for k in draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)):
            sub = draw(st.lists(st.sampled_from(corners), min_size=k, max_size=k))
            pts.append(tuple(F(sum(q[i] for q in sub), k) for i in range(4)))
    else:
        r = 2 if shape == "flat2" else 3
        base = draw(lattice_point)
        gens = [draw(lattice_point) for _ in range(r)]
        pts = []
        for _ in range(draw(st.integers(min_value=r + 1, max_value=9))):
            coef = [draw(small_rational) for _ in range(r)]
            pts.append(tuple(base[i] + sum(t * g[i] for t, g in zip(coef, gens)) for i in range(4)))
    pts = [tuple(F(x) for x in p) for p in pts]
    repeats = draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts + repeats


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(clouds_4d())
def test_hyp_hull_4d_matches_bruteforce_facets(pts):
    P = convex_hull(pts)
    distinct = sorted(set(pts))
    diffs = [tuple(x - y for x, y in zip(p, distinct[0])) for p in distinct[1:]]
    r = _orank(diffs, 4)
    assert P.affine_dim == r
    if r < 4:
        assert P.facets == ()
        if r == 0:
            assert P.vertices == tuple(distinct)
            return
        J = _oflat_chart(distinct, r)
        chart = {tuple(p[j] for j in J): p for p in distinct}
        proj = list(chart)
        if r == 1:
            ends = [min(proj), max(proj)]
        else:
            ends = _overtices(proj, _ofacets(proj, r), r)
        assert P.vertices == tuple(sorted(chart[q] for q in ends))
        return
    facets = _ofacets(distinct, 4)
    verts = _overtices(distinct, facets, 4)
    assert P.vertices == tuple(verts)
    expected = {
        (a, c, frozenset(i for i, v in enumerate(verts) if _odot(a, v) == c))
        for a, c in facets.items()
    }
    assert {(f.normal, f.offset, f.vertex_ids) for f in P.facets} == expected


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(clouds_4d())
def test_hyp_volume_and_area_4d_match_cone_decomposition(pts):
    P = convex_hull(pts)
    distinct = sorted(set(pts))
    if P.affine_dim == 4:
        assert P.volume() == _ovolume(distinct, 4)
        atoms = {_oatom(distinct, a, c, 4) for a, c in _ofacets(distinct, 4).items()}
        assert set(P.area_measure().atoms) == atoms
        assert len(P.area_measure()) == len(atoms)
        return
    assert P.volume() == 0
    if P.affine_dim == 3:
        u = _onormal(distinct, 4)
        atom = _oatom(distinct, u, _odot(u, distinct[0]), 4)
        assert set(P.area_measure().atoms) == {atom, tuple(-x for x in atom)}
    else:
        assert P.area_measure().atoms == ()


@st.composite
def clouds_2d_3d(draw):
    """A dimension k in {2, 3} and up to nine points of R^k, spread or on a
    flat of lower rank, sometimes repeated."""
    k = draw(st.sampled_from([2, 3]))
    lattice = st.tuples(*[small_int] * k)
    shape = draw(st.sampled_from(["rational", "lattice", "flat"]))
    if shape == "rational":
        pts = draw(st.lists(st.tuples(*[small_rational] * k), min_size=k + 1, max_size=9))
    elif shape == "lattice":
        pts = draw(st.lists(lattice, min_size=k + 1, max_size=9))
    else:
        r = draw(st.integers(min_value=1, max_value=k - 1))
        base = draw(lattice)
        gens = [draw(lattice) for _ in range(r)]
        pts = []
        for _ in range(draw(st.integers(min_value=r + 1, max_value=9))):
            coef = [draw(small_rational) for _ in range(r)]
            pts.append(tuple(base[i] + sum(t * g[i] for t, g in zip(coef, gens)) for i in range(k)))
    pts = [tuple(F(x) for x in p) for p in pts]
    return k, pts + draw(st.lists(st.sampled_from(pts), max_size=3))


def assert_matches_bruteforce(P, pts, k):
    """P, the hull of pts in R^k, against the _o* oracles at every rank:
    vertices, facets, volume and atoms, with the two opposite atoms of a
    body of dimension k - 1."""
    distinct = sorted(set(pts))
    r = _orank([tuple(x - y for x, y in zip(p, distinct[0])) for p in distinct[1:]], k)
    assert P.affine_dim == r
    if r == k:
        facets = _ofacets(distinct, k)
        verts = _overtices(distinct, facets, k)
        assert P.vertices == tuple(verts)
        expected = {
            (a, c, frozenset(i for i, v in enumerate(verts) if _odot(a, v) == c))
            for a, c in facets.items()
        }
        assert {(f.normal, f.offset, f.vertex_ids) for f in P.facets} == expected
        assert P.volume() == _ovolume(distinct, k)
        atoms = {_oatom(distinct, a, c, k) for a, c in facets.items()}
        assert set(P.area_measure().atoms) == atoms
        assert len(P.area_measure()) == len(atoms)
        return
    assert P.facets == ()
    assert P.volume() == 0
    if r == 0:
        assert P.vertices == tuple(distinct)
    else:
        chart = {tuple(p[j] for j in _oflat_chart(distinct, r)): p for p in distinct}
        proj = list(chart)
        ends = [min(proj), max(proj)] if r == 1 else _overtices(proj, _ofacets(proj, r), r)
        assert P.vertices == tuple(sorted(chart[q] for q in ends))
    if r == k - 1:
        u = _onormal(distinct, k)
        atom = _oatom(distinct, u, _odot(u, distinct[0]), k)
        assert set(P.area_measure().atoms) == {atom, tuple(-x for x in atom)}
    else:
        assert P.area_measure().atoms == ()


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(clouds_2d_3d())
def test_hyp_hull_2d_3d_matches_bruteforce(cloud):
    k, pts = cloud
    assert_matches_bruteforce(convex_hull(pts), pts, k)


def hull_record(P):
    facets = tuple((f.normal, f.offset, tuple(sorted(f.vertex_ids))) for f in P.facets)
    return P.vertices, facets, P.volume(), P.area_measure().atoms


def coplanar_cloud(rng, k, shape):
    """About a dozen points of R^k, many of them on one facet plane: a
    lattice grid in a hyperplane and two points off it, sums of lattice
    segments, points on the faces of a box (most on two opposite ones), or
    (k = 4) a lattice grid on a 2- or 3-flat.  Sheared, scaled by 1/3 or
    1/10^6 at times, and with a few repeats."""
    size = (12, 16, 11)[k - 2]
    if shape in ("flat2", "flat3"):
        r = int(shape[-1])
        gens = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(r)]
        coefs = itertools.product(*([range(3)] * 2 + [range(2)] * (r - 2)))
        pts = [tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(k)) for cs in coefs]
    elif shape == "grid":
        while True:
            sides = [rng.randint(1, 3) for _ in range(k - 1)]
            if math.prod(s + 1 for s in sides) <= size - 2:
                break
        pts = [p + (0,) for p in itertools.product(*(range(s + 1) for s in sides))]
        pts += [tuple(rng.randint(-1, 3) for _ in range(k - 1)) + (rng.randint(1, 2),)
                for _ in range(2)]
    elif shape == "segments":
        segs = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(k)]
        steps = [range(3)] + [range(2)] * (k - 1)
        pts = [tuple(sum(c * g[i] for c, g in zip(cs, segs)) for i in range(k))
               for cs in itertools.product(*steps)]
        pts = rng.sample(pts, min(size, len(pts)))
    else:
        sides = [rng.randint(1, 3) for _ in range(k)]
        pts = []
        for _ in range(size):
            p = [F(rng.randint(0, 2 * s), 2) for s in sides]
            j = rng.choice([0, 0, 0] + list(range(1, k)))
            p[j] = rng.choice((0, sides[j]))
            pts.append(tuple(p))
    shear = [[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(k)] for i in range(k)]
    scale = rng.choice((1, F(1, 3), F(1, 10**6)))
    pts = [tuple(scale * sum(a * F(x) for a, x in zip(row, p)) for row in shear) for p in pts]
    return pts + rng.choices(pts, k=2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coplanar_clouds_match_bruteforce(k, monkeypatch):
    # many points on each facet plane, so that a new piece often lies in the
    # plane of the horizon piece it borders and takes that plane; the result
    # must match the oracles and not depend on the input order
    made = []
    make = polytope._Piece

    def recorded():
        made.append(make())
        return made[-1]

    monkeypatch.setattr(polytope, "_Piece", recorded)
    rng = random.Random(f"coplanar:{k}")
    shapes = ["grid", "segments", "faces"] + (["flat2", "flat3"] if k == 4 else [])
    for shape in shapes:
        for _ in range(3 if k < 4 else 2):
            pts = coplanar_cloud(rng, k, shape)
            P = convex_hull(pts)
            assert_matches_bruteforce(P, pts, k)
            for _ in range(5):
                rng.shuffle(pts)
                assert hull_record(convex_hull(pts)) == hull_record(P)
    # a piece that took its horizon neighbour's plane holds that very tuple,
    # and every other piece a tuple of its own: count those of the runs of
    # rank k, whichever path built them
    full = [P for P in made if len(P.verts) == k]
    assert len(full) - len({id(P.plane) for P in full}) >= 10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_plane_known_form_gives_the_gcd(d):
    # the known-plane form reads the same weight g off one cofactor, for any
    # d points on the plane, signed by the points' orientation about n: +g
    # when det(n, p_1 - p_0, ..., p_{d-1} - p_0) > 0, and -g otherwise, so
    # swapping two points flips it; it still rejects a degenerate simplex.
    # The full form's normal has no orientation, so other points of the
    # plane give it up to sign
    rng = random.Random(f"plane:{d}")
    pad = (0,) * (4 - d)

    def signed(points, n, g):
        return g if det([list(n)] + [vec_sub(p, points[0]) for p in points[1:]]) > 0 else -g

    for _ in range(100):
        face = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if _orank([vec_sub(p, face[0]) for p in face[1:]], d) < d - 1:
            continue
        n, g = _plane(face, d)
        known = n + pad + (sum(a * x for a, x in zip(n, face[0])),)
        assert _plane(face, d, known) == signed(face, n, g)
        swapped = face[1::-1] + face[2:]
        assert _plane(swapped, d, known) == -signed(face, n, g)
        # other points of the plane: integer affine combinations of the face
        other = [tuple(x + sum(a * (q[i] - x) for a, q in zip(co, face[1:]))
                       for i, x in enumerate(face[0]))
                 for co in ([rng.randint(-3, 3) for _ in range(d - 1)] for _ in range(d))]
        if _orank([vec_sub(p, other[0]) for p in other[1:]], d) == d - 1:
            n2, g2 = _plane(other, d)
            assert n2 in (n, tuple(-a for a in n))
            assert _plane(other, d, known) == signed(other, n, g2)
        with pytest.raises(RuntimeError):
            _plane([face[0]] * d, d, known)


# -- per-point denominators ----------------------------------------------------------


def column_cloud(rng, k, shared):
    """Six or seven points of R^k with numerators up to 4 * 2^100.  Each
    coordinate has its own denominator in [2^100, 2^101], unrelated to the
    others, or (shared) every coordinate of the cloud has one denominator."""
    count = rng.randint(6, 7)
    one = rng.randint(2**100, 2**101)
    return [tuple(F(rng.randint(-4 * 2**100, 4 * 2**100),
                    one if shared else rng.randint(2**100, 2**101)) for _ in range(k))
            for _ in range(count)]


def engine_runs(monkeypatch):
    """Counts of hull engine runs [over a common s, per point]."""
    runs = [0, 0]
    engine = polytope._hull_engine

    def counted(ipts, d, *rest):
        runs[len(ipts[0]) > d] += 1
        return engine(ipts, d, *rest)

    monkeypatch.setattr(polytope, "_hull_engine", counted)
    return runs


@pytest.mark.parametrize("shared", [False, True], ids=["columns", "shared"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_column_denominator_clouds_match_bruteforce(k, shared, monkeypatch):
    # columns with unrelated denominators give a common s of six or seven
    # times the bits of any one point's, so the hull runs on homogeneous
    # points, each over its own denominator; over one shared denominator s
    # is each point's own, and it does not
    Q = [(F(0),) * k, tuple(F(1, 2 + j) for j in range(k))]
    Qh = convex_hull(Q)
    runs = engine_runs(monkeypatch)
    rng = random.Random(f"columns:{k}:{shared}")
    for _ in range(3):
        pts = column_cloud(rng, k, shared)
        runs[:] = [0, 0]
        P = convex_hull(pts)
        assert_matches_bruteforce(P, pts, k)
        for _ in range(3):
            rng.shuffle(pts)
            assert hull_record(convex_hull(pts)) == hull_record(P)
        # four hulls, all full-rank
        assert runs == ([4, 0] if shared else [0, 4])
        # the sum with a segment: support additivity, and the brute-force
        # vertices of the pairwise sums
        S = minkowski_sum(P, Qh)
        assert sum(runs) == 5 and (runs[1] == 0 if shared else runs[1] >= 4)
        for _ in range(8):
            w = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k))
            assert S.support(w) == max(_odot(w, p) for p in pts) + max(_odot(w, q) for q in Q)
        if k < 4:
            sums = sorted({tuple(a + b for a, b in zip(p, q)) for p in pts for q in Q})
            assert S.vertices == tuple(_overtices(sums, _ofacets(sums, k), k))
        else:
            assert S.vertices == tuple(_osum_vertices(pts, Q))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_plane_per_point_form_scales_only_the_weight(d):
    # the same normal for the homogeneous points as for the points over
    # their common s, and weights in the ratio D / s^(d-1), D = w_0^(d-1) *
    # prod_{i>0} w_i the product of the edges' weights, for the full and the
    # known-plane forms and either corner order; the known form keeps its
    # sign, as the edges' weights are positive
    rng = random.Random(f"plane-points:{d}")
    for _ in range(60):
        pts = [tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(d))
               for _ in range(d)]
        s = lcm(*(x.denominator for p in pts for x in p))
        face = [tuple(int(x * s) for x in p) for p in pts]
        if _orank([vec_sub(p, face[0]) for p in face[1:]], d) < d - 1:
            continue
        hface = []
        for p in pts:
            w = lcm(*(x.denominator for x in p))
            hface.append(tuple(int(x * w) for x in p) + (w,))

        def D(corners):
            ws = [p[d] for p in corners]
            return ws[0] ** (d - 1) * math.prod(ws[1:])

        n, g = _plane(face, d)
        n2, g2 = _plane(hface, d)
        assert n2 == n
        assert g2 * s ** (d - 1) == g * D(hface)
        known = n + (0,) * (4 - d) + (sum(a * x for a, x in zip(n, face[0])),)
        for corners, cleared_corners in ((hface, face), (hface[::-1], face[::-1])):
            x = _plane(corners, d, known)
            assert x * s ** (d - 1) == _plane(cleared_corners, d, known) * D(corners)
            assert abs(x) * s ** (d - 1) == g * D(corners)
        assert _plane(hface, d, known) in (g2, -g2)


def flat_cloud(rng, k, r, count, max_den):
    """count points of a rank-r flat of R^k: a rational base point plus
    rational multiples of r lattice vectors, every coordinate p / q with
    1 <= q <= max_den drawn on its own, so that the points' denominators are
    unrelated.  Like box_cloud, few of them are extreme."""
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(r)]
        if _orank(gens, k) == r:
            break
    q = lambda: F(rng.randint(-4 * max_den, 4 * max_den), rng.randint(1, max_den))
    base = [q() for _ in range(k)]
    pts = []
    for _ in range(count):
        t = [q() for _ in range(r)]
        pts.append(tuple(b + sum(c * g[i] for c, g in zip(t, gens)) for i, b in enumerate(base)))
    return pts


def assert_certified_by_vertices(P, pts, k):
    """P, the hull of pts in R^k, against the _o* oracles run on P's own
    vertices, which must be input points, and every input inside their
    hull: then conv(pts) = conv(vertices), and the oracles see it whole."""
    verts = list(P.vertices)
    assert set(verts) <= set(pts)
    assert_matches_bruteforce(P, verts, k)
    r = P.affine_dim
    assert _orank([vec_sub(p, verts[0]) for p in pts], k) == r
    if r == k:
        for f in P.facets:
            assert _oslack(pts, f.normal, f.offset) == 0
    elif r > 0:
        J = _oflat_chart(verts, r)
        chart = lambda p: tuple(p[j] for j in J)
        ends = [chart(v) for v in verts]
        if r == 1:
            assert min(ends) <= min(map(chart, pts)) and max(map(chart, pts)) <= max(ends)
        else:
            for a, c in _ofacets(ends, r).items():
                assert _oslack([chart(p) for p in pts], a, c) == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_large_point_denominator_clouds_match_bruteforce(k, monkeypatch):
    # 40-200 points with unrelated denominators up to 10^6, on flats of
    # every rank: the hull runs on homogeneous points at every rank >= 2,
    # matches the oracles and does not depend on the input order
    runs = engine_runs(monkeypatch)
    rng = random.Random(f"large-points:{k}")
    for r in [*range(k + 1), k]:
        pts = flat_cloud(rng, k, r, rng.randint(40, 200), 10**6)
        pts += rng.choices(pts, k=5)
        runs[:] = [0, 0]
        P = convex_hull(pts)
        assert P.affine_dim == r
        assert runs == [0, int(r >= 2)]
        assert_certified_by_vertices(P, pts, k)
        for _ in range(3):
            rng.shuffle(pts)
            assert hull_record(convex_hull(pts)) == hull_record(P)


def box_cloud(rng, count, max_den):
    """count points of R^4 with coordinates p / q, |p| <= 4 * max_den and
    1 <= q <= max_den uniform: few of them extreme."""
    return [tuple(F(rng.randint(-4 * max_den, 4 * max_den), rng.randint(1, max_den))
                  for _ in range(4)) for _ in range(count)]


def test_plane_integers_do_not_grow_with_the_point_count(monkeypatch):
    # per-point denominators keep the cross product's integers the size of
    # the points: 800 points with denominators up to 10^6 hand _plane no
    # larger integers than 50 such points do.  Over one common s they would
    # grow with the count (about 2,400 bits of s at 50 points, 27,000 at 800)
    seen = []

    def counted(points, d, known=None):
        seen[-1][0] = max(seen[-1][0], *(abs(x).bit_length() for p in points for x in p))
        seen[-1][1] = max(seen[-1][1], 0, *(abs(x).bit_length() for x in known or ()))
        return _plane(points, d, known)

    monkeypatch.setattr(polytope, "_plane", counted)
    for count in (50, 800):
        seen.append([0, 0])
        P = convex_hull(box_cloud(random.Random(f"box:{count}"), count, 10**6))
        assert P.affine_dim == 4 and P._scale.bit_length() < 1000
    (small, small_known), (large, large_known) = seen
    # the edges w_0 * p_i - w_i * p_0, w a point's own weight, the lcm of
    # four denominators up to 10^6
    assert large <= small + 16 <= 2 * 90
    # and the known planes, whose normals and offsets come from them
    assert large_known <= small_known + 64 <= 7 * 90


sparse_int = st.sampled_from([0, 0, 0, -2, -1, 1, 2])


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[sparse_int] * d), max_size=6),
                        st.lists(st.tuples(*[small_int] * 3), max_size=4))))
def test_hyp_spans_matches_fraction_rank(case):
    # the engine's vertex test against Fraction elimination; entries are
    # often zero, and the second list adds vectors from the span of the first
    # ones, so coordinate-aligned and dependent sets are common
    d, vectors, coefs = case
    mixes = [tuple(sum(c * v[i] for c, v in zip(co, vectors)) for i in range(d)) for co in coefs]
    normals = vectors + mixes
    assert (len(_basis(normals, d)[0]) == d) == (_orank(normals, d) == d)
    assert (len(_basis(mixes, d)[0]) == d) == (_orank(mixes, d) == d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spans_coordinate_frames_in_every_order(d):
    frame = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for order in itertools.permutations(frame):
        rest = list(order[1:])
        assert len(_basis(order, d)[0]) == d
        assert len(_basis(rest + [tuple(map(sum, zip(*rest)))], d)[0]) != d


huge_int = st.integers(min_value=2**2999, max_value=2**3000) | st.integers(-2**3000, -2**2999)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(st.tuples(st.tuples(*[small_int | sparse_int] * d),
                                           huge_int | st.just(1)), max_size=6),
                        st.lists(st.tuples(*[small_int | huge_int] * 3), max_size=4),
                        st.randoms(use_true_random=False))))
def test_hyp_basis_matches_fraction_rank(case):
    # the one integer rank routine against Fraction elimination, on small
    # vectors scaled by 3,000-bit factors, so that minors share huge
    # factors, and on combinations of them, so that many sets are dependent
    d, scaled, coefs, rnd = case
    vectors = [tuple(f * x for x in v) for v, f in scaled]
    vectors += [tuple(sum(c * v[i] for c, v in zip(co, vectors)) for i in range(d)) for co in coefs]
    rnd.shuffle(vectors)
    ids, cols = _basis(vectors, d)
    rank = _orank(vectors, d)
    assert ids == [i for i in range(len(vectors))
                   if _orank(vectors[:i + 1], d) > _orank(vectors[:i], d)]
    assert len(cols) == rank and sorted(set(cols)) == cols and all(k < d for k in cols)
    minor = [tuple(vectors[i][k] for k in cols) for i in ids]
    assert _orank(minor, rank) == rank


def _ohull_vertices(pts):
    """Sorted extreme points of a full-dimensional point set in R^4."""
    distinct = sorted(set(pts))
    return _overtices(distinct, _ofacets(distinct, 4), 4)


def _ofull(pts):
    return _orank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]], 4) == 4


@st.composite
def summand_pairs(draw):
    """A full simplex P, and Q a segment, a triangle or a full simplex whose
    denominators (up to 9) mostly differ from P's."""
    P = draw(st.lists(rational_point, min_size=5, max_size=5).filter(_ofull))
    point = st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=9)] * 4)
    count = draw(st.sampled_from([2, 3, 5]))
    return P, draw(st.lists(point, min_size=count, max_size=count))


def _osum_vertices(pts, qts):
    """Sorted vertices of conv(pts) + conv(qts) in R^4.

    An edge of the sum is parallel to an edge of a summand, so every facet
    normal is orthogonal to three independent differences of summand points.
    Taking every such direction, with both signs and its support value over
    the pairwise sums, adds supporting hyperplanes of lower faces too, which
    leaves the vertex rank test of _overtices unchanged.
    """
    sums = {tuple(a + b for a, b in zip(p, q)) for p in pts for q in qts}
    diffs = {tuple(x - y for x, y in zip(p, q))
             for S in (pts, qts) for p, q in itertools.combinations(set(S), 2)}
    origin = (F(0),) * 4
    normals = {_onormal([origin, *triple], 4) for triple in itertools.combinations(diffs, 3)}
    normals.discard(None)
    # the sums times a common denominator: integer dots, the same vertices
    den = lcm(*(x.denominator for p in sums for x in p))
    scaled = {tuple(int(x * den) for x in p): p for p in sums}
    planes = {}
    for a in normals:
        for u in (a, tuple(-x for x in a)):
            planes[u] = max(_odot(u, x) for x in scaled)
    return sorted(scaled[v] for v in _overtices(list(scaled), planes, 4))


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(summand_pairs())
def test_hyp_minkowski_sum_4d_matches_bruteforce(pair):
    pts, qts = pair
    S = minkowski_sum(convex_hull(pts), convex_hull(qts))
    assert S.affine_dim == 4
    assert S.vertices == tuple(_osum_vertices(pts, qts))


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(st.lists(rational_point, min_size=5, max_size=8).filter(_ofull))
def test_hyp_scale_4d_matches_bruteforce(pts):
    P = convex_hull(pts)
    assert P.scale(0).vertices == ((F(0),) * 4,)
    for c in (F(-3, 2), F(5, 7), 2):
        assert P.scale(c).vertices == tuple(_ohull_vertices([tuple(c * x for x in p) for p in pts]))


# -- many groups: the fold against one hull of every sum ---------------------------
#
# A sum of three or more groups hulls its first partial sums pairwise while
# they are below full rank, then folds the other groups into one engine run
# (_cleared_sum).  The oracle hulls every sum of one point per group in one
# run, with no fold.


def fold_groups(rng, k, rank_at, den):
    """Seeded groups of points of R^k, each point over its own denominator
    w: w = 1, w <= 16, or w in [2^100, 2^101] for den = 2^100, where the
    points' unrelated weights put the sum in the per-point form.

    rank_at says where the running sum reaches full rank: "first", two
    triangles first, so the fold's first check finds it; "segments", one
    segment a group, one more rank each; "last", every group but the last
    in a hyperplane x_k = const; "never", every group so, and the sum is a
    flat.  3-12 groups of 1-4 points, and at most 400 sums (100 at
    den = 2^100, whose integers run to thousands of bits).
    """
    def point(last=None):
        w = 1 if den == 1 else rng.randint(1, 16) if den == 16 else rng.randint(den, 2 * den)
        p = tuple(F(rng.randint(-3 * w, 3 * w), w) for _ in range(k))
        return p if last is None else p[:-1] + (last,)

    count = rng.randint(max(3, k), 7) if rank_at == "segments" else rng.randint(3, 12)
    sizes = [2] * count if rank_at == "segments" else [rng.randint(1, 4) for _ in range(count)]
    if rank_at == "first":
        sizes[:2] = [3, 3]
    while math.prod(sizes) > (100 if den == 2**100 else 400):
        i = rng.randrange(2 if rank_at in ("first", "segments") else 0, count)
        sizes[i] = max(1, sizes[i] - 1)
    if rank_at == "last":
        sizes[-1] = max(sizes[-1], 2)
    groups = []
    for j, size in enumerate(sizes):
        flat = rank_at == "never" or (rank_at == "last" and j < count - 1)
        last = point()[0] if flat else None
        groups.append([point(last) for _ in range(size)])
    return groups


def fold_record(P):
    """What the fold must reproduce: rank, scale, vertices, facets with
    their vertex ids, volume and atoms, and the facet rows as the integer
    atoms over their lcm (the rows' unit follows the points' denominators,
    which the sums and the groups need not share)."""
    D, atoms = P._cleared_atoms()
    return P.affine_dim, P._scale, hull_record(P), D, sorted(atoms)


@pytest.mark.parametrize("den", [1, 16, 2**100], ids=["den1", "den16", "den2e100"])
@pytest.mark.parametrize("rank_at", ["first", "segments", "last", "never"])
def test_fold_of_many_groups_matches_one_hull_of_every_sum(rank_at, den, monkeypatch):
    runs = engine_runs(monkeypatch)
    rng = random.Random(f"fold:{rank_at}:{den}")
    hom = 0
    for k in (2, 3, 4):
        for _ in range(3):
            groups = fold_groups(rng, k, rank_at, den)
            sums = set(groups[0])
            for S in groups[1:]:
                sums = {tuple(a + b for a, b in zip(x, p)) for x in sums for p in S}
            runs[:] = [0, 0]
            P = polytope._sum_points(groups)
            folded = sum(runs)
            hom += runs[1]
            assert fold_record(P) == fold_record(convex_hull(sums))
            assert (P.affine_dim == k) == (rank_at != "never")
            if rank_at == "first":
                # the first check finds full rank: one engine run folds all
                assert folded == 1
    assert (hom > 0) == (den == 2**100)


def test_oracle_driver_proves_pieces_final_and_inserts_vertices():
    # one run on a full-rank cloud whose oracle groups are the cloud and
    # [0, e], so that it hulls the cloud and its translate by e.  The first
    # k points lie on x_0 = -9 and the others above it, so the starting
    # simplex is points 0, ..., k, and its piece on corners 0, ..., k - 1
    # lies on x_0 = -9.  As e_0 > 0 that plane supports the sum: the piece's
    # query proves it final, and it lives to the end.  Every other vertex of
    # the sum is the oracle's point beyond some piece, appended to the points
    # and inserted; the cloud's other points are never inserted
    for k in (2, 3, 4):
        rng = random.Random(f"fold-branches:{k}")
        pts = [(-9 if i < k else rng.randint(-8, 9), *(rng.randint(-9, 9) for _ in range(k - 1)))
               for i in range(k + 12)]
        e = tuple(rng.randint(1, 3) * (-1) ** i for i in range(k))
        got = polytope._hull_ids(list(pts), k, [pts, [(0,) * k, e]])
        assert got[1] == list(range(1, k + 1))
        pieces = got[5][1]
        assert tuple(range(k)) in [P.verts for P in pieces]
        sums = pts + [tuple(map(sum, zip(p, e))) for p in pts]
        # every live piece was proved final, or lies on a plane that was
        assert all(max(dot(P.plane[:k], x) for x in sums) == P.plane[4] for P in pieces)
        inserted = range(len(set(pts)), len(got[0]))
        assert inserted and set(inserted) <= set(got[3])
        want = polytope._hull_ids(sums, k)
        assert sorted(got[0][i] for i in got[3]) == sorted(want[0][i] for i in want[3])
        assert sorted(got[4]) == sorted(want[4])


@pytest.mark.parametrize("den", [1, 2**100], ids=["den1", "den2e100"])
def test_oracle_inserts_only_vertices_of_the_sum(den, monkeypatch):
    # every point the oracle driver appends to a run's points is a vertex of
    # the sum as convex_hull finds it on the point path, over every sum of
    # one point per group, where every vertex takes the rank test; so it
    # inserts at most as many points as the sum has vertices.  In both
    # integer forms: a point over the common denominator s is s * x, and a
    # homogeneous one (w * x, w)
    engine = polytope._hull_engine
    seen = []

    def recorded(ipts, d, simplex, groups=()):
        first = len(ipts)
        out = engine(ipts, d, simplex, groups)
        seen.append((ipts[first:], len(ipts[0]) > d))
        return out

    monkeypatch.setattr(polytope, "_hull_engine", recorded)
    rng = random.Random(f"oracle-vertices:{den}")
    inserted = 0
    for k in (2, 3, 4):
        # summed segments give facets parallel to whole groups, where both
        # ends of a group tie in <n, x>
        for rank_at in ["first"] * 3 + ["segments"] * 2:
            groups = fold_groups(rng, k, rank_at, den)
            seen.clear()
            polytope._sum_points(groups)
            runs = list(seen)
            sums = set(groups[0])
            for S in groups[1:]:
                sums = {tuple(a + b for a, b in zip(x, p)) for x in sums for p in S}
            vertices = set(convex_hull(sums).vertices)
            s = lcm(*(x.denominator for S in groups for p in S for x in p))
            for new, hom in runs:
                assert hom == (den == 2**100)
                got = {tuple(F(x, p[k]) for x in p[:k]) if hom else tuple(F(x, s) for x in p)
                       for p in new}
                assert len(got) == len(new) and got <= vertices
                inserted += len(new)
    assert inserted > 0


# -- both integer forms ------------------------------------------------------------
#
# The gate of _sum_points runs every hull of the oracle tests above over one
# common denominator: their clouds' denominators are small.  The twins below
# run the same tests, on fewer examples, with the gate forced open, so that
# every hull, sum and dilate of them runs on homogeneous points and the same
# oracles check the per-point form.


@pytest.fixture
def per_point_form(monkeypatch):
    """Every hull of the test on homogeneous points, whatever its common
    denominator."""
    monkeypatch.setattr(polytope, "_GATE_BITS", 0)
    monkeypatch.setattr(polytope, "_GATE_RATIO", 0)


@pytest.mark.usefixtures("per_point_form")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coplanar_clouds_match_bruteforce_per_point(k, monkeypatch):
    test_coplanar_clouds_match_bruteforce(k, monkeypatch)


@pytest.mark.usefixtures("per_point_form")
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(clouds_4d())
def test_hyp_hull_4d_matches_bruteforce_facets_per_point(pts):
    test_hyp_hull_4d_matches_bruteforce_facets.hypothesis.inner_test(pts)


@pytest.mark.usefixtures("per_point_form")
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(clouds_4d())
def test_hyp_volume_and_area_4d_per_point(pts):
    test_hyp_volume_and_area_4d_match_cone_decomposition.hypothesis.inner_test(pts)


@pytest.mark.usefixtures("per_point_form")
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(clouds_2d_3d())
def test_hyp_hull_2d_3d_per_point(cloud):
    test_hyp_hull_2d_3d_matches_bruteforce.hypothesis.inner_test(cloud)


@pytest.mark.usefixtures("per_point_form")
@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(summand_pairs())
def test_hyp_minkowski_sum_4d_per_point(pair):
    test_hyp_minkowski_sum_4d_matches_bruteforce.hypothesis.inner_test(pair)


@pytest.mark.usefixtures("per_point_form")
@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(st.lists(rational_point, min_size=5, max_size=8).filter(_ofull))
def test_hyp_scale_4d_per_point(pts):
    test_hyp_scale_4d_matches_bruteforce.hypothesis.inner_test(pts)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_integer_forms_give_equal_records(k, monkeypatch):
    # each integer form is the other's oracle: every hull over a common
    # denominator and every hull on homogeneous points give the same hull
    # records, integer atoms, sums and, in R^4, mixed volumes, on seeded
    # clouds of every rank (codimension-1 flats, whose facet pair is kept
    # as rows, among them) with small and large denominators, and on clouds
    # with many points per facet plane
    from minkval.mixed import mixed_volume, mixed_volume_31

    Q = convex_hull([(F(0),) * k] + [tuple(F(int(j == i), 2 + i) for j in range(k))
                                     for i in range(k)])
    rng = random.Random(f"forms:{k}")
    clouds = [flat_cloud(rng, k, r, rng.randint(r + 1, 12), den)
              for r in range(k + 1) for den in (16, 10**6)]
    clouds += [coplanar_cloud(rng, k, shape) for shape in ("grid", "segments", "faces")]
    runs = engine_runs(monkeypatch)
    # the gate is shut for any s under an infinite _GATE_BITS, and open for
    # every s at 0 with _GATE_RATIO 0
    monkeypatch.setattr(polytope, "_GATE_RATIO", 0)
    for pts in clouds:
        records = []
        for bits in (math.inf, 0):
            monkeypatch.setattr(polytope, "_GATE_BITS", bits)
            runs[:] = [0, 0]
            P = convex_hull(pts)
            S = minkowski_sum(P, Q)
            D, atoms = P._cleared_atoms()
            rec = [hull_record(P), P._scale, D, sorted(atoms), hull_record(S)]
            if k == 4:
                rec += [mixed_volume(P, P, P, Q), mixed_volume(P, P, Q, Q),
                        mixed_volume_31(P, Q), mixed_volume_31(Q, P)]
            records.append(rec)
            # the sum's engine run at least, in the forced form only
            assert runs[bits == 0] >= 1 and runs[bits != 0] == 0
        assert records[0] == records[1]


@pytest.mark.parametrize("count,bits,conditions,form", [
    (3, 200, (True, False), 0),
    (6, 60, (False, True), 0),
    (12, 60, (True, True), 1),
], ids=["floor-only", "ratio-only", "both"])
def test_each_gate_condition_alone_keeps_the_common_form(count, bits, conditions, form,
                                                         monkeypatch):
    # R^4 clouds whose points each have their own denominator w, one of
    # count distinct weights of the given bits: s passes the floor
    # _GATE_BITS alone at three 200-bit weights and the ratio
    # _GATE_RATIO * bits(w) alone at six 60-bit ones, and the hull runs over
    # the common s; at twelve it passes both, and the hull runs per point
    rng = random.Random(f"gate:{count}:{bits}")
    weights = [rng.randrange(2 ** (bits - 1), 2 ** bits) for _ in range(count)]
    pts = [tuple(F(rng.randint(-4 * w, 4 * w), w) for _ in range(4))
           for w in weights for _ in range(2)]
    wts = [lcm(*(x.denominator for x in p)) for p in pts]
    s = lcm(*wts).bit_length()
    assert (s > polytope._GATE_BITS,
            s > polytope._GATE_RATIO * max(wts).bit_length()) == conditions
    runs = engine_runs(monkeypatch)
    P = convex_hull(pts)
    assert P.affine_dim == 4
    assert runs == [1 - form, form]


# -- large clouds ------------------------------------------------------------------


def _oslack(pts, a, c):
    """min over the points of c - <a, p>: not negative when every point
    satisfies <a, x> <= c, and zero when the hyperplane touches them."""
    return min(c - _odot(a, p) for p in pts)


def _oface_rank(pts, a, c):
    """Affine rank of the points on the hyperplane <a, x> = c."""
    on = [p for p in pts if _odot(a, p) == c]
    return _orank([tuple(x - y for x, y in zip(p, on[0])) for p in on[1:]], len(a))


def large_cloud(seed):
    """40-150 points of R^4, most of them interior, on facets or repeated:
    a box lattice grid under a unimodular shear, or all sums of three small
    lattice point sets; every third cloud is scaled by 2/3.  The seed
    "per-point" gives a grid whose points other than the box's corners are
    moved within their face of the box, each by a / q for integers a and
    one q in [2^40, 2^41] per point: the points' denominators are
    unrelated, and the hull takes the per-point form."""
    rng = random.Random(f"large-cloud:{seed}")
    per_point = seed == "per-point"
    if per_point or seed % 2 == 0:
        while True:
            sides = [rng.randint(1, 3) for _ in range(4)]
            if 40 <= (sides[0] + 1) * (sides[1] + 1) * (sides[2] + 1) * (sides[3] + 1) <= 130:
                break
        shear = [[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(4)]
                 for i in range(4)]
        grid = itertools.product(*(range(s + 1) for s in sides))
        if per_point:
            # a coordinate strictly inside its side moves by less than 1/2
            # and stays inside; one on the box's boundary stays
            moved = []
            for p in grid:
                q = rng.randint(2**40, 2**41)
                moved.append(tuple(x + F(rng.randint(1 - q // 2, q // 2 - 1), q) if 0 < x < s
                                   else F(x) for x, s in zip(p, sides)))
            grid = moved
        pts = [tuple(sum(r * x for r, x in zip(row, p)) for row in shear) for p in grid]
    else:
        # a lattice segment with its midpoint, and one more point, per set
        sets = []
        for _ in range(3):
            v, w = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(2)]
            sets.append([(0,) * 4, v, tuple(2 * x for x in v), w])
        pts = [tuple(map(sum, zip(a, b, c))) for a, b, c in itertools.product(*sets)]
    pts += rng.choices(pts, k=10)
    scale = F(2, 3) if not per_point and seed % 3 == 0 else 1
    return [tuple(scale * F(x) for x in p) for p in pts]


@pytest.mark.parametrize("seed", [*range(6), "per-point"])
def test_hull_large_clouds_certified(seed, monkeypatch):
    # large enough for points to be handed between outside lists many times;
    # the brute-force oracles above stop at nine points.  The seeded clouds
    # run over a common s, and the per-point one on homogeneous points, so
    # both forms of the farthest point of an outside list are certified
    runs = engine_runs(monkeypatch)
    pts = large_cloud(seed)
    P = convex_hull(pts)
    distinct = set(pts)
    assert P.affine_dim == 4 and 40 <= len(distinct) <= 150
    assert set(P.vertices) <= distinct and len(P.vertices) < len(distinct) / 2

    rng = random.Random(seed)
    for _ in range(5):
        rng.shuffle(pts)
        assert hull_record(convex_hull(pts)) == hull_record(P)
    assert runs == ([0, 6] if seed == "per-point" else [6, 0])

    # every input lies beneath every facet, each facet's hyperplane meets the
    # inputs in a 3-face, and the vertices on it are the facet's vertex ids
    for f in P.facets:
        assert _oslack(pts, f.normal, f.offset) == 0
        assert _oface_rank(pts, f.normal, f.offset) == 3
        on = {i for i, v in enumerate(P.vertices) if _odot(f.normal, v) == f.offset}
        assert on == f.vertex_ids
    for v in P.vertices:
        through = [f.normal for f in P.facets if _odot(f.normal, v) == f.offset]
        assert _orank(through, 4) == 4
    for _ in range(64):
        u = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        assert P.support(u) == max(_odot(u, p) for p in pts)


def test_large_clouds_build_pinned_piece_count(monkeypatch):
    # the work of the six seeded hulls, in facet pieces built (_Piece
    # constructions, which the engine looks up in the module for every
    # piece, whichever path computes its plane).  Inserting the farthest
    # point of each piece's own outside list builds 834, and 97 on the
    # per-point cloud; inserting every point in one order, farthest from
    # the starting simplex's centroid first, built 1,732 and 331
    built = 0
    make = polytope._Piece

    def counted():
        nonlocal built
        built += 1
        return make()

    monkeypatch.setattr(polytope, "_Piece", counted)
    for seed in range(6):
        convex_hull(large_cloud(seed))
    assert built == 834
    built = 0
    convex_hull(large_cloud("per-point"))
    assert built == 97


def test_pieces_built_in_place_match_plane(monkeypatch):
    # every live piece of an engine run against _plane on its corners, in
    # either integer form, its normal oriented away from the centroid of all
    # the run's points, not by the engine's test.  The starting simplex's
    # pieces come from _plane, and every later piece takes its plane from
    # the pencil through its ridge or, counted in known, takes the very
    # plane tuple of its horizon neighbour.  Each must hold the same
    # primitive outward normal and offset, (n, c, w) in lowest terms on
    # homogeneous points, and the g that the merge computed; and each
    # merged facet's G must be the sum of its pieces' g, over the edges'
    # weights on homogeneous points.  The runs: the six seeded large
    # clouds and the per-point one in Z^4; clouds in R^2 and R^3, and
    # clouds on a 2-flat and a 3-flat of R^4, hulled in their projection;
    # a sum that stays on a hyperplane; oracle runs on sums of four groups
    # in R^2, R^3 (per-point, at 2^100) and R^4, and of eight in R^4; and a
    # cloud with 300-bit coordinates
    runs = []
    engine = polytope._hull_engine

    def recorded(ipts, d, simplex, groups=()):
        runs.append((d, len(ipts[0]) > d, bool(groups)))
        return engine(ipts, d, simplex, groups)

    monkeypatch.setattr(polytope, "_hull_engine", recorded)
    rng = random.Random("in-place")
    inputs = [[large_cloud(seed)] for seed in [*range(6), "per-point"]]
    inputs += [[rand_points(rng, 2, 12)], [rand_points(rng, 3, 15)]]
    inputs += [[coplanar_cloud(rng, 4, shape)] for shape in ("flat2", "flat3")]
    inputs.append(fold_groups(rng, 4, "never", 16))
    inputs += [[rand_points(rng, k, 3) for _ in range(4)] for k in (2, 4)]
    inputs.append(fold_groups(rng, 3, "first", 2**100))
    inputs.append([rand_points(rng, 4, 2 + j % 2) for j in range(8)])
    inputs.append([[tuple(rng.randint(-2**300, 2**300) for _ in range(4)) for _ in range(40)]])
    known = 0
    last = []
    for groups in inputs:
        hull = polytope._cleared_sum(groups)[0]
        merged, (points, pieces) = hull[4], hull[5]
        d = len(next(iter(pieces)).verts)
        hom = len(points[0]) > d
        pad = (0,) * (4 - d)
        if hom:
            L = lcm(*(p[d] for p in points))
            ref = tuple(sum(p[j] * (L // p[d]) for p in points) for j in range(d))
            k = L * len(points)
        else:
            ref, k = tuple(map(sum, zip(*points))), len(points)
        G = {}
        for P in pieces:
            corners = [points[v] for v in P.verts]
            n, g = _plane(corners, d)
            # oriented away from the centroid ref / k, which lies off every
            # facet plane: on homogeneous points the offset is c / w
            w = corners[0][d] if hom else 1
            c = sum(a * x for a, x in zip(n, corners[0]))
            side = w * sum(a * x for a, x in zip(n, ref)) - k * c
            assert side != 0
            if side > 0:
                n, c = tuple(-a for a in n), -c
            if hom:
                assert P.plane == n + pad + (c // gcd(c, w), w // gcd(c, w))
                assert P.g == g
                g = F(g, w ** (d - 2) * math.prod(p[d] for p in corners))
            else:
                assert (P.plane, P.g) == (n + pad + (c,), g)
            G[n] = G.get(n, 0) + g
        assert G == {n: g for n, _, g in merged}
        known += len(pieces) - len({id(P.plane) for P in pieces})
        last.append(runs[-1])
    # (d, homogeneous, oracle) of the run that built each input's hull
    assert last == [(4, False, False)] * 6 + [
        (4, True, False), (2, False, False), (3, False, False), (2, False, False),
        (3, False, False), (3, False, False), (2, False, True), (4, False, True),
        (3, True, True), (4, False, True), (4, False, False)]
    assert known > 0


# -- pinned kernel output ------------------------------------------------------------

# sha256 of the kernel's exact outputs on _pinned_clouds(), recorded before
# the d < 4 cross products moved into _plane
KERNEL_SHA256 = "07c4321d9adb204dd6c1526fbaa3ad3379c84972c90ced665a10e63bb991b299"


def _pinned_clouds():
    """500 seeded clouds in R^2, R^3 and R^4: flats of every rank, lattice
    points and denominators up to 8 or 10^6, and repeated points."""
    rng = random.Random(2026)
    for i in range(500):
        d = 2 + i % 3
        r = rng.randint(1, d)
        den = rng.choice((1, 8, 10**6))
        q = lambda: F(rng.randint(-2 * den, 2 * den), rng.randint(1, den))
        base = [q() for _ in range(d)]
        gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
        pts = []
        for _ in range(rng.randint(r + 1, 9)):
            coef = [q() for _ in range(r)]
            pts.append(tuple(b + sum(t * g[k] for t, g in zip(coef, gens))
                             for k, b in enumerate(base)))
        yield pts + rng.choices(pts, k=rng.randint(0, 2))


def test_kernel_outputs_pinned():
    digest = hashlib.sha256()
    for pts in _pinned_clouds():
        P = convex_hull(pts)
        facets = tuple((f.normal, f.offset, tuple(sorted(f.vertex_ids))) for f in P.facets)
        out = (P.vertices, P.affine_dim, P.volume(), P.area_measure().atoms, facets)
        digest.update(repr(out).encode())
    assert digest.hexdigest() == KERNEL_SHA256


# sha256 of tests/kernel_digest.py over its first 24 clouds, recorded when
# the digest took in the dilate and the split pieces, on the kernel before
# the segment's facet pair and the one s of _hull_cleared
KERNEL_DIGEST_24 = "06c7abfcccfa1391d61ed41f61ea5305afe88161da6873f9a6156915a3055a87"


def test_kernel_digest_script_smoke(monkeypatch, capsys):
    # the parent-vs-change digest script runs, prints one sha256, and on a
    # few clouds of both denominator sizes still reads what it read before,
    # with some of its engine runs on homogeneous points
    import kernel_digest

    runs = engine_runs(monkeypatch)
    assert kernel_digest.main(["--clouds", "24"]) == 0
    assert capsys.readouterr().out == KERNEL_DIGEST_24 + "\n"
    assert runs[1] > 0
