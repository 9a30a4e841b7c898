"""Mixed volume tests: known values, oracle agreement, multilinearity,
GL covariance, and the functional extension.
"""

from fractions import Fraction
import itertools
import math
import random

import pytest

from minkval import mixed, polytope
from minkval.cplx import DualPolytope
from minkval.linalg import det, dot
from minkval.mixed import mixed_volume, mixed_volume_31, mixed_volume_fn
from minkval.polytope import (
    Polytope, _sum_chain, _sum_points, affine_transform, convex_hull, minkowski_sum,
)

F = Fraction


def unit_cube4():
    return convex_hull(list(itertools.product((0, 1), repeat=4)))


def standard_simplex4():
    return convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def axis_segment(i):
    e = [0, 0, 0, 0]
    e[i] = 1
    return Polytope.segment((0, 0, 0, 0), tuple(e))


def rand_rational(rng, span=2, max_den=4):
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_body(rng, nverts=5, full=False):
    while True:
        P = convex_hull([tuple(rand_rational(rng) for _ in range(4)) for _ in range(nverts)])
        if P.affine_dim >= (4 if full else 1):
            return P


# -- known values ------------------------------------------------------------


def test_diagonal_is_volume():
    C = unit_cube4()
    assert mixed_volume(C, C, C, C) == 1
    S = standard_simplex4()
    assert mixed_volume(S, S, S, S) == F(1, 24)


def test_axis_segments():
    segs = [axis_segment(i) for i in range(4)]
    assert mixed_volume(*segs) == F(1, 24)


def test_cube_with_segment():
    C = unit_cube4()
    assert mixed_volume_31(C, axis_segment(3)) == F(1, 4)
    assert mixed_volume(C, C, C, axis_segment(3)) == F(1, 4)


def test_point_slot_gives_zero():
    C = unit_cube4()
    p = Polytope.point((3, F(1, 2), -1, 0))
    assert mixed_volume(C, C, C, p) == 0
    assert mixed_volume_31(C, p) == 0


# -- oracle agreement -----------------------------------------------------------


def test_facet_form_matches_polarization_random():
    rng = random.Random(31)
    for _ in range(15):
        K = rand_body(rng, nverts=5)
        L = rand_body(rng, nverts=5)
        assert mixed_volume_31(K, L) == mixed_volume(K, K, K, L)


def test_facet_form_matches_on_degenerate_K():
    rng = random.Random(32)
    # 3-dimensional K: two-atom area measure path
    pts = [(rand_rational(rng), rand_rational(rng), rand_rational(rng), F(0)) for _ in range(6)]
    K = convex_hull(pts)
    assert K.affine_dim <= 3
    L = rand_body(rng, nverts=5)
    assert mixed_volume_31(K, L) == mixed_volume(K, K, K, L)


def test_low_dimensional_K_vanishes():
    rng = random.Random(33)
    pts = [(rand_rational(rng), rand_rational(rng), F(0), F(0)) for _ in range(5)]
    K = convex_hull(pts)
    assert K.affine_dim <= 2
    L = rand_body(rng, nverts=6)
    assert mixed_volume_31(K, L) == 0
    assert mixed_volume(K, K, K, L) == 0


# -- dilates of one body ---------------------------------------------------------


def flat_body(rng, rank, max_den):
    """A body of affine dimension rank in R^4 with denominators up to max_den."""
    while True:
        base = [rand_rational(rng, max_den=max_den) for _ in range(4)]
        gens = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rank)]
        pts = []
        for _ in range(rank + 3):
            coef = [rand_rational(rng, max_den=max_den) for _ in range(rank)]
            pts.append(tuple(b + sum(t * g[i] for t, g in zip(coef, gens)) for i, b in enumerate(base)))
        P = convex_hull(pts)
        if P.affine_dim == rank:
            return P


def test_diagonal_is_volume_random():
    rng = random.Random(41)
    for rank in (0, 2, 3, 4, 4):
        K = flat_body(rng, rank, 10**6)
        assert mixed_volume(K, K, K, K) == K.volume()


@pytest.mark.parametrize("max_den", [4, 10**6])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_polarization_with_dilates_matches_facet_form(rank, max_den):
    # V(P, P, P, Q) reads vol(mP) as m^4 vol(P), also when P comes as two
    # equal bodies that are distinct objects
    rng = random.Random(f"dilates:{rank}:{max_den}")
    for _ in range(2):
        P = flat_body(rng, rank, max_den)
        twin = convex_hull(reversed(P.vertices))
        assert twin == P and twin is not P
        Q = rand_body(rng, nverts=5)
        want = mixed_volume_31(P, Q)
        assert (want == 0) == (rank < 3)
        assert mixed_volume(P, P, P, Q) == want
        assert mixed_volume(P, twin, P, Q) == want
        assert mixed_volume(Q, twin, P, twin) == want


@pytest.mark.parametrize("shared", [False, True], ids=["columns", "shared"])
def test_column_denominators_polarization_matches_facet_form(shared, monkeypatch):
    # P's coordinates carry unrelated denominators of about 100 bits, so its
    # hull, the sum P+Q of polarization and minkowski_sum(P, Q) run the hull
    # engine on homogeneous points, each over its own denominator; over one
    # shared denominator none of them does
    runs = [0, 0]
    engine = polytope._hull_engine

    def counted(ipts, d, *rest):
        runs[len(ipts[0]) > d] += 1
        return engine(ipts, d, *rest)

    monkeypatch.setattr(polytope, "_hull_engine", counted)
    rng = random.Random(f"mixed-columns:{shared}")
    for _ in range(3):
        one = rng.randint(2**100, 2**101)
        P = convex_hull([tuple(F(rng.randint(-4 * 2**100, 4 * 2**100),
                                 one if shared else rng.randint(2**100, 2**101))
                               for _ in range(4)) for _ in range(6)])
        Q = rand_body(rng, nverts=5, full=True)
        assert mixed_volume(P, P, P, Q) == mixed_volume_31(P, Q)
        S = minkowski_sum(P, Q)
        sums = {tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices}
        assert set(S.vertices) <= sums
        for _ in range(8):
            w = tuple(rand_rational(rng) for _ in range(4))
            assert S.support(w) == P.support(w) + Q.support(w) == max(dot(w, v) for v in sums)
    # per round: the hull of P, the one polarization sum P + Q and
    # minkowski_sum
    assert runs[1] == (0 if shared else 3 * 3)


def test_one_body_subsets_build_no_hull(monkeypatch):
    built = []

    def counted(groups):
        built.append(len(groups))
        return _sum_chain(groups)

    monkeypatch.setattr(mixed, "_sum_chain", counted)
    C, S = unit_cube4(), standard_simplex4()
    assert mixed_volume(C, C, C, C) == 1 and built == []
    assert mixed_volume(C, C, C, S) == mixed_volume_31(C, S)
    # of P, Q, 2P, P+Q, 3P, 2P+Q and 3P+Q only P+Q is hulled: 2P+Q and 3P+Q
    # are read off its chain
    assert built == [2]
    built.clear()
    assert mixed_volume(*[axis_segment(i) for i in range(4)]) == F(1, 24)
    # one hull, of the four segments' sum, for the 11 sums of polarization
    assert built == [4]


# -- the volume polynomial against hulling every sum ----------------------------------


def _polarization_by_hulls(*bodies):
    """V(K1, K2, K3, K4) by polarization with a hull for every sum: the test
    oracle of mixed_volume's volume polynomial.  vol(sum k_j B_j) is the
    volume of its own hull (_sum_points) for every multiplicity vector k of
    the distinct bodies B_j, one-body vectors too."""
    distinct = [K for i, K in enumerate(bodies) if K not in bodies[:i]]
    mults = [bodies.count(B) for B in distinct]
    acc = F(0)
    for ks in list(itertools.product(*(range(m + 1) for m in mults)))[1:]:
        groups = [[tuple(k * x for x in v) for v in B.vertices] for k, B in zip(ks, distinct) if k]
        weight = (-1) ** (4 - sum(ks)) * math.prod(map(math.comb, mults, ks))
        acc += weight * _sum_points(groups).volume()
    return acc / 24


# the slots of each multiplicity pattern, by distinct body
PATTERNS = {"4": (0, 0, 0, 0), "3+1": (0, 0, 0, 1), "2+2": (0, 0, 1, 1),
            "2+1+1": (0, 0, 1, 2), "1+1+1+1": (0, 1, 2, 3)}


def own_denominator_flat(rng, rank, max_den):
    """A body of affine dimension rank in R^4 with rank + 2 points, each an
    integer base point plus an integer combination of rank lattice vectors
    over the point's own denominator w <= max_den."""
    while True:
        base = [rng.randint(-3, 3) for _ in range(4)]
        gens = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rank)]
        pts = []
        for _ in range(rank + 2):
            w = rng.randint(1, max_den)
            coef = [rng.randint(-3 * w, 3 * w) for _ in range(rank)]
            pts.append(tuple(b + F(sum(c * g[i] for c, g in zip(coef, gens)), w)
                             for i, b in enumerate(base)))
        P = convex_hull(pts)
        if P.affine_dim == rank:
            return P


@pytest.mark.parametrize("max_den", [1, 10**6, 2**100], ids=["den1", "den1e6", "den2e100"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_volume_polynomial_matches_hulling_every_sum(pattern, max_den, monkeypatch):
    # five trials give each distinct body every affine rank 0-4, in shuffled
    # slots; low ranks make sums of rank below 4 (0 + 1, 1 + 2, 0 + 1 + 2).
    # Points over their own denominators up to 2^100 make the sum's hull run
    # on homogeneous points, each over its own denominator
    hom_runs = []
    engine = polytope._hull_engine

    def counted(ipts, d, *rest):
        hom_runs.append(len(ipts[0]) > d)
        return engine(ipts, d, *rest)

    monkeypatch.setattr(polytope, "_hull_engine", counted)
    rng = random.Random(f"polynomial:{pattern}:{max_den}")
    slots = PATTERNS[pattern]
    seen_hom = False
    for trial in range(5):
        bodies = [own_denominator_flat(rng, (trial + i) % 5, max_den)
                  for i in range(max(slots) + 1)]
        quad = [bodies[i] for i in slots]
        rng.shuffle(quad)
        hom_runs.clear()
        got = mixed_volume(*quad)
        seen_hom = seen_hom or any(hom_runs)
        assert got == _polarization_by_hulls(*quad)
    if max_den == 1 or pattern == "4":
        assert not seen_hom
    elif max_den == 2**100:
        assert seen_hom


def test_volume_polynomial_matches_hulling_every_sum_on_fixtures():
    C, S = unit_cube4(), standard_simplex4()
    segs = [axis_segment(i) for i in range(4)]
    # four 3-dimensional bodies in parallel hyperplanes: their sum has rank 3
    rng = random.Random("polynomial:flat3")
    flats = [convex_hull([tuple(rand_rational(rng) for _ in range(3)) + (F(k),) for _ in range(6)])
             for k in range(4)]
    assert all(B.affine_dim == 3 for B in flats)
    assert _sum_points([B.vertices for B in flats]).affine_dim == 3
    cases = [segs, [C, C, C, segs[3]], [C, C, C, S], [C, C, S, S], [C, S, segs[0], segs[1]],
             [C, S, C.translate((F(1, 2), 0, 0, -3)), segs[2]], flats, [flats[0]] * 2 + flats[2:]]
    for quad in cases:
        assert mixed_volume(*quad) == _polarization_by_hulls(*quad)
    assert mixed_volume(*segs) == F(1, 24)
    assert mixed_volume(C, C, C, segs[3]) == F(1, 4)
    assert mixed_volume(*flats) == 0


def _split_counts(bodies):
    """For each corner of the live pieces of the bodies' sum (_sum_chain),
    the number of its splits: tuples of one vertex of each body that add up
    to it, compared as integer points over the lcm D of every denominator."""
    _, s, (points, pieces) = _sum_chain([B.vertices for B in bodies])
    D = math.lcm(*(x.denominator for B in bodies for v in B.vertices for x in v))
    *firsts, last = sorted(([tuple(int(x * D) for x in v) for v in B.vertices] for B in bodies),
                           key=len)
    last = set(last)
    counts = []
    for v in {v for piece in pieces for v in piece.verts}:
        *p, w = points[v] if s is None else (*points[v], s)
        corner = [x * D // w for x in p]
        counts.append(sum(tuple(c - sum(xs) for c, *xs in zip(corner, *combo)) in last
                          for combo in itertools.product(*firsts)))
    return counts


def _shifted(B, rng, den):
    """B moved by a vector with coordinates a / den."""
    return B.translate([F(rng.randint(-4 * den, 4 * den), den) for _ in range(4)])


# distinct bodies whose sum's corners split several ways, and the quadruples
# that take every one of them: a cube and a parallel segment, a cube and two
# parallel segments, and a cube, its double and two of its edge directions
SPLIT_CASES = {
    "2": (lambda: [unit_cube4(), axis_segment(0)], [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]),
    "3": (lambda: [unit_cube4(), axis_segment(0), axis_segment(0).scale(2)],
          [(0, 0, 1, 2), (0, 1, 1, 2), (0, 1, 2, 2)]),
    "4": (lambda: [unit_cube4(), unit_cube4().scale(2), axis_segment(0), axis_segment(1)],
          [(0, 1, 2, 3)]),
}


@pytest.mark.parametrize("den", [1, 2**100], ids=["den1", "den2e100"])
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_any_split_of_a_corner_serves(case, den):
    # _volume_polynomial takes the first split it finds of each corner; on
    # bodies with shared edge directions some corners of the sum's pieces,
    # which are no vertices of it, have several, and the mixed volumes
    # still equal those of a hull for every sum
    make, quads = SPLIT_CASES[case]
    rng = random.Random(f"splits:{case}:{den}")
    bodies = [_shifted(B, rng, den) for B in make()]
    assert max(_split_counts(bodies)) > 1
    for slots in quads:
        quad = [bodies[i] for i in slots]
        assert mixed_volume(*quad) == _polarization_by_hulls(*quad)


# -- structural properties ---------------------------------------------------------


def test_symmetry_spot_checks():
    rng = random.Random(34)
    bodies = [rand_body(rng, nverts=4) for _ in range(4)]
    base = mixed_volume(*bodies)
    perms = list(itertools.permutations(range(4)))
    rng.shuffle(perms)
    for perm in perms[:5]:
        assert mixed_volume(*[bodies[i] for i in perm]) == base


def test_multilinearity_in_first_slot():
    rng = random.Random(35)
    K1, K1p, K2, K3, K4 = (rand_body(rng, nverts=4) for _ in range(5))
    left = mixed_volume(minkowski_sum(K1, K1p), K2, K3, K4)
    right = mixed_volume(K1, K2, K3, K4) + mixed_volume(K1p, K2, K3, K4)
    assert left == right


def test_translation_invariance_per_slot():
    rng = random.Random(36)
    bodies = [rand_body(rng, nverts=4) for _ in range(4)]
    base = mixed_volume(*bodies)
    for slot in range(4):
        t = tuple(rand_rational(rng) for _ in range(4))
        shifted = list(bodies)
        shifted[slot] = shifted[slot].translate(t)
        assert mixed_volume(*shifted) == base


def test_gl_covariance():
    rng = random.Random(37)
    bodies = [rand_body(rng, nverts=4) for _ in range(4)]
    base = mixed_volume(*bodies)
    for _ in range(3):
        A = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        d = det(A)
        if d == 0:
            continue
        imgs = [affine_transform(K, A) for K in bodies]
        assert mixed_volume(*imgs) == abs(d) * base


def test_nonnegativity():
    rng = random.Random(38)
    for _ in range(10):
        bodies = [rand_body(rng, nverts=4) for _ in range(4)]
        assert mixed_volume(*bodies) >= 0


# -- functional extension ------------------------------------------------------------


def test_fn_support_integrand_matches_31():
    rng = random.Random(39)
    K = rand_body(rng, nverts=5, full=True)
    L = rand_body(rng, nverts=5)
    assert mixed_volume_fn(K, L.support) == mixed_volume_31(K, L)


def test_fn_linear_integrand_vanishes():
    rng = random.Random(40)
    K = rand_body(rng, nverts=6, full=True)
    a = tuple(rand_rational(rng) for _ in range(4))
    assert mixed_volume_fn(K, lambda xi: dot(a, xi)) == 0


def test_fn_absolute_coordinate_on_cube():
    assert mixed_volume_fn(unit_cube4(), lambda xi: abs(xi[0])) == F(1, 2)


def test_fn_rejects_inexact_integrand():
    with pytest.raises(ValueError):
        mixed_volume_fn(unit_cube4(), lambda xi: float(abs(xi[0])))


CUBE3 = list(itertools.product((0, 1), repeat=3))


@pytest.mark.parametrize("call,error,message", [
    (lambda: mixed_volume(*[DualPolytope(unit_cube4())] * 4), TypeError,
     "mixed_volume expects a Polytope, not DualPolytope"),
    (lambda: mixed_volume(*[convex_hull(CUBE3)] * 4), ValueError,
     "mixed_volume expects ambient dimension 4, not 3"),
    (lambda: mixed_volume(unit_cube4(), unit_cube4(), unit_cube4(), Polytope.empty(4)),
     ValueError, "mixed volume of an empty body is undefined"),
    (lambda: mixed_volume_31(unit_cube4(), DualPolytope(unit_cube4())), TypeError,
     "mixed_volume_31 expects a Polytope, not DualPolytope"),
    (lambda: mixed_volume_31(unit_cube4(), convex_hull(CUBE3)), ValueError,
     "mixed_volume_31 expects ambient dimension 4, not 3"),
    (lambda: mixed_volume_31(Polytope.empty(4), unit_cube4()), ValueError,
     "mixed volume of an empty body is undefined"),
    (lambda: mixed_volume_fn(convex_hull(CUBE3), abs), ValueError,
     "mixed_volume_fn expects ambient dimension 4, not 3"),
], ids=["polarization-dual", "polarization-3d", "polarization-empty", "facet-form-dual",
        "facet-form-3d", "facet-form-empty", "fn-3d"])
def test_mixed_volume_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
