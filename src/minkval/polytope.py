"""Exact rational convex polytopes in ambient dimension 2, 3, 4.

Vertex-representation polytopes with exact Fraction coordinates.  Every hull
and Minkowski sum enters through _sum_points(groups), the one path from
rational points to a Polytope: it makes the points integer and hulls their
sum (_cleared_sum), and _hull_cleared builds Fractions for the kept vertices
only.  The hull engine is Quickhull-style (Barber, Dobkin and Huhdanpaa,
ACM TOMS 22, 1996): one loop walks the live simplicial pieces and asks for
a point beyond each, and one insertion step walks across ridges from that
piece to the pieces the point sees and hands their outside points to the
new pieces only.  On a point set, each point outside the hull waits in the
outside list of one piece it sees, and the point asked for is the farthest
one of the piece's own list.  Its sign predicates are integer-only and
unrolled in Z^4.  A sum of three or more groups is folded: the groups are
added pairwise while the partial sum is below full rank, and then one
engine run starts from a simplex of the first full-rank partial sum and
grows it to the whole sum by a linear-optimisation oracle.  For a piece
with normal n, the oracle adds up each group's lexicographic maximiser of
(<n, x>, x), a vertex of the sum (Fukuda, J. Symbolic Comput. 38, 2004);
the piece is final when that vertex lies on it, and otherwise the vertex
is the point asked for.  So only vertices of the sum are inserted, and no
partial sum is hulled again.
_basis, the one integer rank routine, picks the starting simplex, projects a
flat one-to-one and tells the vertices; on summand groups only the simplex's
corners need it.  _plane is the integer cross product, unrolled in Z^4 and
fed zero-padded points in Z^2 and Z^3; it reads the integer form off the
points and gives an unoriented normal.  It gives the starting simplex's
pieces, which the engine orients away from the corner each one omits, the
normal of a codimension-1 flat, which needs no orientation as its facet
pair holds both, and the cofactors of mixed's volume polynomial.  Every
later piece of a run, in every dimension and both integer forms, takes
its plane from the pencil through its ridge, as in gift wrapping (Chand
and Kapur, J. ACM 17, 1970): the ridge joins a piece V that the new point
q sees to a piece N that it does not, and with t_X the height of q over
X's plane, t_V * H_N - t_N * H_V is the plane through the ridge and q,
outward as t_V > 0 >= t_N.  When t_N = 0, q lies
on N's plane and the new piece takes that plane.  Each simplicial facet
piece is kept as its primitive outward normal u and offset c; the gcd g
of its cross product, which is g * u, is read by the merge only, which
takes it off one cofactor of the cross product (_plane's known-plane
form) for the live pieces.  Coplanar pieces are merged by u into facets
(u, c, G) with G the sum of their g, so facet identity and area-measure
atoms are canonical, and

    vol(P) = sum_F G * c / (n! * s * W),    atom_F = G * u / ((n-1)! * W)

need no triangulation once the hull is built, with c over s, the lcm of the
vertices' denominators (Polytope._scale), and G over the unit W
(Polytope._unit, see _hull_cleared).  A segment's facets are its two ends,
each of weight 1, so that the same sum gives its length.  The engine also
returns its boundary chain, the live simplicial pieces and the points their
corners index, as it holds them.  _sum_chain, the same path as _sum_points,
hands the chain of a sum's hull to the volume polynomial of
mixed.mixed_volume; _sum_points drops it as soon as the engine returns, and
no Polytope keeps it.

The points are integer in one of two forms.  In the common form, which
most hulls take, every point x is cleared over the lcm s of all
denominators, as s * x.  But that s is the lcm over every point, so it
grows with the point count: a hundred points with denominators up to 10^6
give s with thousands of bits, though no point's own denominators take a
hundred.  When s is that large beside them, the points take the
per-point form: each point enters as the homogeneous (w * x, w), w the lcm
of its own denominators.  The one rule, applied once in _sum_points, is
bits(s) > max(_GATE_BITS, _GATE_RATIO * bits(max w)); every function after
it reads the form off the points, a homogeneous point having one entry
more than the dimension.  In that form the engine's integers keep the
size of the points: its edges are w_0 * p_i - w_i * p_0 (_edges, which
_plane and _basis both read), a point (p, w)
is beyond a piece (u, c, v) when v * <u, p> > w * c, and each piece's g
is divided by its edges' weights once the hull is built, summed per
merged facet as a Fraction.  Either way s is the lcm of the built
vertices' denominators, and the facets, volume and atoms are the same
numbers.  The sum in vol(P) is taken with the hull; a Polytope then keeps
only u and G of each facet, in one flat tuple, and its facets read c off
the vertices; a codimension-1 body keeps its two sides as the facet pair
(+/-u, G).  This record is a body's one integer form: area_measure builds
every body's atoms from it, and the support evaluators read its rows and
cleared vertices (_cleared_atoms, _cleared), which a body builds once.
Lower-dimensional polytopes are first-class: operations degrade per
contract rather than erroring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from math import factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .linalg import dot, mat_apply

Coords = tuple[Fraction, ...]

# _sum_points takes the homogeneous form when the common denominator s has
# more than _GATE_BITS bits and more than _GATE_RATIO times those of every
# point's own denominator
_GATE_BITS = 512
_GATE_RATIO = 4


@dataclass(frozen=True)
class Facet:
    """One facet of a full-dimensional polytope.

    normal is the primitive integer outward normal, offset = h(P, normal),
    vertex_ids index into the polytope's sorted vertex tuple.
    """

    normal: tuple[int, ...]
    offset: Fraction
    vertex_ids: frozenset[int]


@dataclass(frozen=True)
class AreaMeasure:
    """Atomic surface area measure as exact weighted outward normals.

    Each atom is vol_{n-1}(F) * u_F for one merged facet direction F; for an
    (n-1)-dimensional body the two atoms are +/- vol_{n-1}(P) * u.  Atoms of
    distinct directions are never parallel, and they sum to zero.
    """

    ambient_dim: int
    atoms: tuple[Coords, ...]

    def closure_sum(self) -> Coords:
        return tuple(sum((a[i] for a in self.atoms), Fraction(0)) for i in range(self.ambient_dim))

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


def _edges(points: Sequence[Sequence[int]], d: int):
    """The edges of points in Z^d from the first, as a generator: p_i - p_0,
    or, on homogeneous points (*p, w) of d + 1 entries, the per-point form of
    the module docstring, w_0 * p_i - w_i * p_0, which is w_0 * w_i times
    the rational edge.  The first edge is zero."""
    b = points[0]
    if len(b) == d:
        return (tuple([x - y for x, y in zip(p, b)]) for p in points)
    *b, w = b
    return (tuple([w * x - p[d] * y for x, y in zip(p, b)]) for p in points)


def _plane(points: Sequence[tuple[int, ...]], d: int, known=None):
    """Hyperplane through d points of Z^d, or homogeneous ones (*p, w).

    Returns (n, g): n is the primitive normal, in no particular orientation,
    and g the gcd of the simplex's cross product X, which is therefore
    +/- g * n.  This is the kernel's integer cross product, unrolled in
    Z^4 over the six 2x2 minors of the last two edges.  The hull engine
    takes it for the starting simplex's pieces, which it orients itself,
    and, in the known-plane form, for the weight g of each live piece at
    the merge; the planes of its later pieces come from the pencil through
    their ridge, and this function is their reference.  _hull_cleared takes
    it for the normal of a codimension-1 flat, and mixed for its volume
    polynomial's cofactors.  Points of d + 1 entries are homogeneous, and
    their edges (_edges) are w_0 * w_i times the rational ones: X is
    w_0^(d-1) * prod_{i>0} w_i times the rational cross product, and n is
    the same.  For d < 4 the edges are padded with zeros and completed by
    the unit edges e_d, ..., e_3, whose minors vanish off the first d
    coordinates: the Z^4 cross product is then zero after entry d, and its
    first d entries are the Z^d one.  Only points of Z^4 in the common form,
    the engine's most frequent call, are subtracted in place.

    known is the plane (*n, ...) of a piece the points are known to lie in,
    with n padded to Z^4 as the engine keeps it.  Then only X_j / n_j at the
    first nonzero n_j is returned: one cofactor of X, with no gcd.  It is
    +g when the points run positively about n and -g otherwise, so the
    engine's merge takes its absolute value, and the volume polynomial of
    mixed.mixed_volume reads the sign.
    """
    if d < 4 or len(points[0]) > d:
        # the edges as points beside the origin, which the subtraction
        # below leaves as they are
        pad = (0,) * (4 - d)
        units = [(0,) * j + (1,) + (0,) * (3 - j) for j in range(d, 4)]
        points = [e + pad for e in _edges(points, d)] + units
    b0, b1, b2, b3 = points[0]
    u0, u1, u2, u3 = points[1]
    v0, v1, v2, v3 = points[2]
    w0, w1, w2, w3 = points[3]
    u0 -= b0; u1 -= b1; u2 -= b2; u3 -= b3
    v0 -= b0; v1 -= b1; v2 -= b2; v3 -= b3
    w0 -= b0; w1 -= b1; w2 -= b2; w3 -= b3
    if known is not None:
        # entry j of X, written out as below with the minors inlined
        j = 0 if known[0] else 1 if known[1] else 2 if known[2] else 3
        if j == 0:
            x = u1 * (v2 * w3 - v3 * w2) - u2 * (v1 * w3 - v3 * w1) + u3 * (v1 * w2 - v2 * w1)
        elif j == 1:
            x = u2 * (v0 * w3 - v3 * w0) - u0 * (v2 * w3 - v3 * w2) - u3 * (v0 * w2 - v2 * w0)
        elif j == 2:
            x = u0 * (v1 * w3 - v3 * w1) - u1 * (v0 * w3 - v3 * w0) + u3 * (v0 * w1 - v1 * w0)
        else:
            x = u1 * (v0 * w2 - v2 * w0) - u0 * (v1 * w2 - v2 * w1) - u2 * (v0 * w1 - v1 * w0)
        if x == 0:
            raise RuntimeError("degenerate facet candidate")
        return x // known[j]
    m01 = v0 * w1 - v1 * w0
    m02 = v0 * w2 - v2 * w0
    m03 = v0 * w3 - v3 * w0
    m12 = v1 * w2 - v2 * w1
    m13 = v1 * w3 - v3 * w1
    m23 = v2 * w3 - v3 * w2
    x0 = u1 * m23 - u2 * m13 + u3 * m12
    x1 = u2 * m03 - u0 * m23 - u3 * m02
    x2 = u0 * m13 - u1 * m03 + u3 * m01
    x3 = u1 * m02 - u0 * m12 - u2 * m01
    g = gcd(x0, x1, x2, x3)
    if g == 0:
        raise RuntimeError("degenerate facet candidate")
    return (x0 // g, x1 // g, x2 // g, x3 // g)[:d], g


class _Piece:
    """One simplicial piece of the boundary during a _hull_engine run.

    plane is (*n, c), with n the primitive outward normal padded by zeros
    to Z^4 and c = <n, x> on the plane; on homogeneous points it is
    (*n, c, w) with c / w the rational offset in lowest terms.  The
    starting simplex's pieces take n from _plane, oriented away from the
    corner each one omits; every later piece takes its plane from the
    pencil through its ridge, in insert, or as the very tuple of its
    horizon neighbour when the new point lies on that plane.  g, the
    gcd of the cross product of the corners, which is g * n, is None until
    the merge computes it for the live pieces.  verts are the sorted labels
    of the corners; nbrs[j] is the piece across ridge j, the j-th of
    combinations(verts, d - 1), which omits corner d - 1 - j.  outside lists
    the points that wait on this piece, by their index in the engine's
    ipts: each was found strictly beyond it, and it was the first such
    piece of its step.  It is None while there are none.  mark is the last
    point the piece was tested against, and t that point's height over the
    plane, <n, x> - c, or v * <n, p> - w * c for a homogeneous point (p, w)
    and plane (n, c, v) (see the walk).
    """

    __slots__ = ("plane", "verts", "g", "nbrs", "outside", "mark", "t")


def _hull_engine(ipts: list[tuple[int, ...]], d: int, simplex: list[int], groups=()):
    """Quickhull-style hull of deduped integer points with affine rank d >= 2,
    or, given point groups S_j in groups, of sum_j conv(S_j).

    Returns (vertex_ids, merged_facets, chain): the ids of the extreme
    points; facets (normal, offset, G) with the outward primitive normal,
    after the coplanar merge of the simplicial pieces, G being the sum over
    the pieces of the gcd g of the piece's cross product, which is
    g * normal; and the boundary chain (points, pieces), the live pieces
    (_Piece) in order of creation, whose verts index points, the points in
    order of insertion.  The chain is what the run already holds:
    returning it builds nothing, and the caller decides what to keep.

    One loop grows the starting simplex to the hull.  It walks the live
    pieces in order of creation, each new piece queued as it is made, and
    asks for one point beyond each piece it pops that is still live.
    Without groups, every other point waits in the outside list of the
    first starting piece it sees, and the point is the farthest one of the
    piece's own list (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996); a
    piece whose list is empty is done.  With groups, which are in the form
    of the points and have every point of ipts in their sum, the points
    give only the starting simplex, and the point is the oracle's: the sum
    p of each group's lexicographic maximiser of (<n, x>, x) for the
    piece's normal n, which is the sum's own maximiser and a vertex of it
    (Fukuda, J. Symbolic Comput. 38, 2004; Emiris, Fisikopoulos, Konaxis
    and Penaranda, IJCGA 23, 2013).  If <n, p> = c, or <n, p> / w = c / v on
    homogeneous points, the piece is final, and so is every piece on its
    plane; otherwise p is appended to ipts, and vertex_ids index the grown
    list.  A query inserts a vertex, which is then on the hull for good,
    or proves a facet's plane final, so the oracle makes at most V + F of
    them.  When the queue is empty, no live piece has a point beyond it.

    One insertion step, insert, adds the point beyond the piece popped and
    returns the pieces it made: it walks across ridges from that piece to
    every piece the point sees, cones the horizon to it, and hands the
    outside points of the deleted pieces to the new pieces only: a point
    beyond a deleted piece and outside the new hull is beyond a new piece.
    A point that sees no piece is inside for good and is never tested
    again.

    The starting simplex's pieces are built by piece, from _plane's normal
    oriented away from the simplex's corner that the piece omits: the one
    orientation test of the run.  insert gives every later piece, in every
    dimension and both forms, the plane of the pencil through its ridge
    that passes through the new point (Chand and Kapur, J. ACM 17, 1970),
    from the two planes that meet at the ridge and the point's heights over
    them, which the walk has already taken; it needs no orientation test
    and meets no degenerate piece.  The merge computes the weight g of each
    live piece from one known-plane cofactor of _plane.  Every piece is a
    _Piece, looked up in the module.  Points of d + 1 entries are
    homogeneous, in the per-point form of the module docstring.
    A merged offset is then the pair (c, v) for c / v in lowest terms, and
    G a Fraction.  Otherwise c and G are in the units of the points.
    """
    hom = len(ipts[0]) > d
    k = d + 1
    # the visibility tests run in Z^4, on points and normals padded by zeros
    # ahead of a homogeneous point's weight
    pad = (0,) * (4 - d)
    pts = [p[:d] + pad + p[d:] for p in ipts] if pad else ipts
    # the points are labelled in order of insertion, the simplex first, so
    # that a new point's label exceeds that of every corner on the hull;
    # raw holds them by label and ids their indices in ipts
    ids = list(simplex)
    raw = [ipts[i] for i in ids]

    def piece(i):
        # the starting simplex's piece that omits corner i, oriented away
        # from it: on homogeneous points o = (p, w) is beyond the plane
        # <n, x> = c / w_0 when w_0 * <n, p> > w * c.  insert builds every
        # later piece
        P = _Piece()
        P.verts = verts = tuple(j for j in range(k) if j != i)
        corners = [raw[v] for v in verts]
        n, _ = _plane(corners, d)
        b, o = corners[0], raw[i]
        c, x = sum(map(mul, n, b)), sum(map(mul, n, o))
        if x * b[d] > o[d] * c if hom else x > c:
            n, c = tuple([-y for y in n]), -c
        if hom:
            # the offset c / w in lowest terms, so that equal planes are
            # equal tuples
            w = b[d]
            h = gcd(c, w)
            P.plane = n + pad + (c // h, w // h)
        else:
            P.plane = n + pad + (c,)
        P.outside = P.mark = P.g = None
        return P

    def assign(r, pieces):
        # r joins the outside list of the first of the pieces it is
        # strictly beyond, or is inside them all
        x0, x1, x2, x3 = pts[r]
        for P in pieces:
            a, b, e, f, c = P.plane
            if a * x0 + b * x1 + e * x2 + f * x3 > c:
                if P.outside is None:
                    P.outside = [r]
                else:
                    P.outside.append(r)
                return

    def assign_hom(r, pieces):
        # the same on homogeneous points and planes
        x0, x1, x2, x3, w = pts[r]
        for P in pieces:
            a, b, e, f, c, v = P.plane
            if v * (a * x0 + b * x1 + e * x2 + f * x3) > w * c:
                if P.outside is None:
                    P.outside = [r]
                else:
                    P.outside.append(r)
                return

    # two closures, rather than a branch in one, keep the common path's
    # inner loop as lean as it was
    if hom:
        assign = assign_hom

    def heights(n, S):
        # <n, x> over the padded points x of S, over each point's weight w
        # on homogeneous points
        a, b, e, f = n
        if hom:
            return [Fraction(a * x0 + b * x1 + e * x2 + f * x3, w) for x0, x1, x2, x3, w in S]
        return [a * x0 + b * x1 + e * x2 + f * x3 for x0, x1, x2, x3 in S]

    def insert(q, V):
        # the insertion step, for the point labelled q, beyond the piece V;
        # t is q's height over a piece's plane, times v * w on homogeneous
        # points
        if hom:
            x0, x1, x2, x3, w = pts[ids[q]]
            a, b, e, f, c, v = V.plane
            V.t = v * (a * x0 + b * x1 + e * x2 + f * x3) - w * c
        else:
            x0, x1, x2, x3 = pts[ids[q]]
            a, b, e, f, c = V.plane
            V.t = a * x0 + b * x1 + e * x2 + f * x3 - c
        # walk the pieces q sees, a ball around V, marking each piece tested
        # with q (seen) or ~q (not seen) and keeping its height.  Each ridge
        # from a piece V seen to a piece N not seen is on the horizon and
        # gets the new piece ridge + (q,), whose ridge 0 is that ridge and
        # ridge i + 1 that ridge's i-th sub-ridge plus q; two new pieces meet
        # across each sub-ridge of the horizon.  Its plane is the member
        # t_V * H_N - t_N * H_V of the pencil of planes through the ridge
        # that passes through q (Chand and Kapur, J. ACM 17, 1970), which
        # points outward as t_V > 0 > t_N; when t_N = 0 it is N's plane.
        V.mark = q
        visible = [V]
        new = []
        cone = {}
        for V in visible:
            del live[V]
            for ridge, N in zip(combinations(V.verts, d - 1), V.nbrs):
                m = N.mark
                if m == q:
                    continue
                if m == ~q:
                    t = N.t
                else:
                    if hom:
                        a, b, e, f, c, v = N.plane
                        t = v * (a * x0 + b * x1 + e * x2 + f * x3) - w * c
                    else:
                        a, b, e, f, c = N.plane
                        t = a * x0 + b * x1 + e * x2 + f * x3 - c
                    N.t = t
                    if t > 0:
                        N.mark = q
                        visible.append(N)
                        continue
                    N.mark = ~q
                P = _Piece()
                P.verts = ridge + (q,)
                P.outside = P.mark = P.g = None
                if t == 0:
                    P.plane = N.plane
                elif hom:
                    # the offset's numerator over the normal's gcd, in lowest
                    # terms
                    a, b, e, f, c, v = N.plane
                    A, B, E, F, C, W = V.plane
                    s, r = V.t * v, t * W
                    y0 = s * a - r * A
                    y1 = s * b - r * B
                    y2 = s * e - r * E
                    y3 = s * f - r * F
                    g = gcd(y0, y1, y2, y3)
                    c = V.t * c - t * C
                    h = gcd(c, g)
                    P.plane = (y0 // g, y1 // g, y2 // g, y3 // g, c // h, g // h)
                else:
                    a, b, e, f, _ = N.plane
                    A, B, E, F, _ = V.plane
                    s = V.t
                    y0 = s * a - t * A
                    y1 = s * b - t * B
                    y2 = s * e - t * E
                    y3 = s * f - t * F
                    g = gcd(y0, y1, y2, y3)
                    y0 //= g; y1 //= g; y2 //= g; y3 //= g
                    P.plane = (y0, y1, y2, y3, y0 * x0 + y1 * x1 + y2 * x2 + y3 * x3)
                P.nbrs = nbrs = [N] + [None] * (d - 1)
                N.nbrs[N.nbrs.index(V)] = P
                for j, sub in enumerate(combinations(ridge, d - 2), 1):
                    other = cone.pop(sub, None)
                    if other is None:
                        cone[sub] = P, j
                    else:
                        O, o = other
                        nbrs[j] = O
                        O.nbrs[o] = P
                new.append(P)
                live[P] = None
        for V in visible:
            if V.outside is not None:
                for r in V.outside:
                    assign(r, new)
            # no cycles left behind, so the dead pieces are freed at once
            V.nbrs = V.outside = None
        return new

    start = [piece(i) for i in range(k)]
    for i, P in enumerate(start):
        P.nbrs = [start[j] for j in range(d, -1, -1) if j != i]
    # live pieces in order of creation, so that the merge below is repeatable
    live = dict.fromkeys(start)
    if groups:
        # each group is padded to Z^4 and sorted in decreasing order, so that
        # its first point of largest <n, x> is its lexicographic maximiser of
        # (<n, x>, x)
        key = (lambda p: [Fraction(x, p[4]) for x in p[:4]]) if hom else None
        groups = [sorted((p[:d] + pad + p[d:] for p in S), key=key, reverse=True) for S in groups]
        # the planes proved final: a piece made on one of them is final too
        final = set()
    else:
        skip = set(simplex)
        for r in range(len(ipts)):
            if r not in skip:
                assign(r, start)
    queue = deque(start)
    while queue:
        P = queue.popleft()
        if P.nbrs is None:
            continue
        n = P.plane[:4]
        if groups:
            if P.plane in final:
                continue
            # h(n) = sum_j max_{S_j} <n, x> against the offset c, or c / v
            if hom:
                dots = [heights(n, S) for S in groups]
            else:
                a, b, e, f = n
                dots = [[a * x0 + b * x1 + e * x2 + f * x3 for x0, x1, x2, x3 in S]
                        for S in groups]
            tops = [max(D) for D in dots]
            if sum(tops) == (Fraction(*P.plane[4:]) if hom else P.plane[4]):
                final.add(P.plane)
                continue
            # the oracle's vertex, beyond P
            top = [S[D.index(t)] for S, D, t in zip(groups, dots, tops)]
            p = reduce(_hom_add, top) if hom else tuple(map(sum, zip(*top)))
            ipts.append(p[:d] + p[4:])
            if pts is not ipts:
                pts.append(p)
            i = len(ipts) - 1
        elif P.outside is None:
            continue
        else:
            # the farthest point of the piece's own outside list: <n, x> - c
            # is |n| times a point's distance from the plane; ties go to the
            # first
            h = heights(n, [pts[r] for r in P.outside])
            i = P.outside.pop(h.index(max(h)))
        ids.append(i)
        raw.append(ipts[i])
        queue.extend(insert(len(raw) - 1, P))

    # a point is extreme iff the facets through it have normals of rank d;
    # every facet through an extreme point has a piece with it as a corner.
    # On summand groups only the simplex's corners are tested: every point
    # after them is the oracle's, a vertex of the sum
    tested = k if groups else len(raw)
    merged: dict[tuple[int, ...], list] = {}
    incident: dict[int, set[tuple[int, ...]]] = {}
    for P in live:
        # as for the dead pieces: no cycles left behind, and no outside list
        P.nbrs = P.outside = None
        # g, the one number of the cross product that only the merge reads,
        # from one known-plane cofactor
        corners = [raw[v] for v in P.verts]
        P.g = g = abs(_plane(corners, d, P.plane))
        n, c = P.plane[:d], P.plane[4]
        if hom:
            # the offset (c, w) for c / w, and g over the edge weights
            c = P.plane[4:]
            w = [p[d] for p in corners]
            g = Fraction(g, w[0] ** (d - 2) * prod(w))
        acc = merged.get(n)
        if acc is None:
            merged[n] = [c, g]
        elif acc[0] != c:
            raise RuntimeError("parallel facets with distinct offsets")
        else:
            acc[1] += g
        for v in P.verts:
            if v < tested:
                incident.setdefault(v, set()).add(n)
    vertex_ids = [ids[v] for v, normals in incident.items() if len(_basis(normals, d)[0]) == d]
    vertex_ids += ids[tested:]
    return vertex_ids, [(n, c, g) for n, (c, g) in merged.items()], (raw, live)


def _basis(vectors: Iterable[Sequence[int]], d: int):
    """Greedy basis of the span of integer vectors in Z^d, d <= 4.

    Returns (ids, cols): the positions of the vectors that raise the rank,
    and as many coordinates on which the minor of those vectors is nonzero,
    so projecting onto cols maps their span one-to-one.  The chain is
    unrolled in Z^4, with shorter vectors padded by zeros, and stops at rank
    d: a nonzero a, then b with a nonzero 2x2 minor m of a, b, then c with a
    nonzero cross product x of a, b, c, then e with <x, e> != 0.  At the
    first candidate that m (or x) finds dependent, it is divided by its gcd,
    which keeps it small while the chain scans on over a flat of huge
    points; a chain that meets no dependent candidate, as in the vertex test,
    never pays for the gcd.
    """
    pad = (0,) * (4 - d)
    it = enumerate(vectors if d == 4 else (tuple(v) + pad for v in vectors))
    for ia, a in it:
        if any(a):
            break
    else:
        return [], []
    a0, a1, a2, a3 = a
    for ib, (b0, b1, b2, b3) in it:
        m01 = a0 * b1 - a1 * b0
        m02 = a0 * b2 - a2 * b0
        m03 = a0 * b3 - a3 * b0
        m12 = a1 * b2 - a2 * b1
        m13 = a1 * b3 - a3 * b1
        m23 = a2 * b3 - a3 * b2
        if m01 or m02 or m03 or m12 or m13 or m23:
            break
    else:
        return [ia], [next(k for k, x in enumerate(a) if x)]
    if d == 2:
        return [ia, ib], [0, 1]
    reduced = False
    for ic, (c0, c1, c2, c3) in it:
        x0 = c1 * m23 - c2 * m13 + c3 * m12
        x1 = c2 * m03 - c0 * m23 - c3 * m02
        x2 = c0 * m13 - c1 * m03 + c3 * m01
        x3 = c1 * m02 - c0 * m12 - c2 * m01
        if x0 or x1 or x2 or x3:
            break
        if not reduced:
            reduced = True
            g = gcd(m01, m02, m03, m12, m13, m23)
            m01 //= g; m02 //= g; m03 //= g; m12 //= g; m13 //= g; m23 //= g
    else:
        m = {(0, 1): m01, (0, 2): m02, (0, 3): m03, (1, 2): m12, (1, 3): m13, (2, 3): m23}
        return [ia, ib], list(next(cols for cols, x in m.items() if x))
    if d == 3:
        return [ia, ib, ic], [0, 1, 2]
    reduced = False
    for ie, (e0, e1, e2, e3) in it:
        if x0 * e0 + x1 * e1 + x2 * e2 + x3 * e3:
            return [ia, ib, ic, ie], [0, 1, 2, 3]
        if not reduced:
            reduced = True
            g = gcd(x0, x1, x2, x3)
            x0 //= g; x1 //= g; x2 //= g; x3 //= g
    # x_k is, up to sign, the minor of a, b, c on the other three coordinates
    skip = next(k for k, x in enumerate((x0, x1, x2, x3)) if x)
    return [ia, ib, ic], [k for k in range(4) if k != skip]


class Polytope:
    """Immutable V-representation polytope with exact rational coordinates.

    vertices hold only extreme points, sorted lexicographically.  An empty
    polytope (affine_dim -1) is a flagged degenerate value produced by
    hyperplane splits that miss the body.
    """

    __slots__ = (
        "ambient_dim",
        "vertices",
        "affine_dim",
        "_scale",
        "_unit",
        "_merged",
        "_facets",
        "_area",
        "_volume",
        "_ints",
    )

    def __init__(self, *, _raw=None):
        if _raw is None:
            raise TypeError("use convex_hull()")
        (
            self.ambient_dim,
            self.vertices,
            self.affine_dim,
            self._scale,
            self._unit,
            self._merged,
            self._volume,
        ) = _raw
        self._facets = self._area = self._ints = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        if not 2 <= ambient_dim <= 4:
            raise ValueError("ambient dimension must be between 2 and 4")
        return Polytope(_raw=(ambient_dim, (), -1, 1, 1, (), 0))

    @staticmethod
    def point(coords: Sequence) -> "Polytope":
        return convex_hull([coords])

    @staticmethod
    def segment(a: Sequence, b: Sequence) -> "Polytope":
        return convex_hull([a, b])

    # -- basic predicates ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.affine_dim < 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Polytope.empty({self.ambient_dim})"
        return (
            f"Polytope(dim={self.ambient_dim}, affine_dim={self.affine_dim}, "
            f"nverts={len(self.vertices)})"
        )

    # -- structure -----------------------------------------------------------

    def _rows(self):
        """(n, G) of each merged facet, the atom G * n / ((d-1)! * _unit);
        a codimension-1 body has the pair (n, G), (-n, G), and a lower one
        none.  _merged keeps them flat, d + 1 integers a facet, and not the
        offsets, which the vertices give: a body kept in memory holds no
        tuple and no offset per facet."""
        m, d = self._merged, self.ambient_dim
        return ((m[i:i + d], m[i + d]) for i in range(0, len(m), d + 1))

    def _cleared(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(s, points): the vertices as the integer points s * v, s being
        _scale, the lcm of their denominators.  The first call builds them,
        and the body keeps them for support, facets, the evaluators and
        mixed."""
        if self._ints is None:
            s = self._scale
            self._ints = s, tuple(tuple(x.numerator * (s // x.denominator) for x in v)
                                  for v in self.vertices)
        return self._ints

    def _cleared_atoms(self) -> tuple[int, list[tuple[int, ...]]]:
        """(D, atoms): the area measure's atoms as integer vectors over D,
        the lcm of their entries' denominators, read off the rows."""
        D = factorial(self.ambient_dim - 1) * self._unit
        atoms = [tuple(g * x for x in n) for n, g in self._rows()]
        f = gcd(D, *(x for a in atoms for x in a))
        return D // f, [tuple(x // f for x in a) for a in atoms]

    @property
    def facets(self) -> tuple[Facet, ...]:
        """Merged facets; populated only for full-dimensional polytopes."""
        if self._facets is None:
            if self.affine_dim != self.ambient_dim:
                self._facets = ()
            else:
                # the cleared offset c of facet n is the largest <n, s * v>,
                # taken on its vertices
                s, ivs = self._cleared()
                out = []
                for n, _ in self._rows():
                    dots = [sum(map(mul, n, v)) for v in ivs]
                    c = max(dots)
                    ids = frozenset(i for i, x in enumerate(dots) if x == c)
                    out.append(Facet(n, Fraction(c, s), ids))
                out.sort(key=lambda f: f.normal)
                self._facets = tuple(out)
        return self._facets

    def support(self, xi: Sequence) -> Fraction:
        """Exact support value max_{x in P} <xi, x>, always a Fraction.

        The value is taken in integers: xi is cleared once to W = t * xi
        (_direction) and the vertices to s * v, s being _scale, which the
        body keeps from its first call (_cleared), and the largest
        <W, s * v> over the vertices gives the one Fraction built.
        """
        if self.is_empty:
            raise ValueError("support of an empty polytope is undefined")
        t, W = _direction(xi, self.ambient_dim)
        s, ivs = self._cleared()
        return Fraction(max(sum(map(mul, W, v)) for v in ivs), t * s)

    def volume(self) -> Fraction:
        """Top-dimensional volume; zero for lower-dimensional bodies.

        Via the divergence identity vol = (1/n) sum_F h(P, sigma_F): with
        facets (u, c, G) in the integer-cleared coordinates s * x, s being
        _scale, the facet's cross-product weight is G * u / W and its support
        value c / s, so vol = sum_F G * c / (n! * s * W), W being _unit.
        The hull leaves the integer sum_F G * c in _volume, and the first
        call divides it.
        """
        if type(self._volume) is int:
            n = self.ambient_dim
            self._volume = Fraction(self._volume, factorial(n) * self._scale * self._unit)
        return self._volume

    def area_measure(self) -> AreaMeasure:
        """Surface area measure as exact weighted-normal atoms.

        Each row (u, G) gives the atom G * u / ((n-1)! * W), W being _unit:
        for a full-dimensional body the summed cross products of a facet's
        simplicial pieces rescaled from the integer-cleared coordinates, for
        a codimension-1 body its two sides (see _hull_cleared).  The atoms
        are those of _cleared_atoms, over their common denominator.
        """
        if self._area is None:
            D, atoms = self._cleared_atoms()
            atoms = (tuple(Fraction(x, D) for x in a) for a in atoms)
            self._area = AreaMeasure(self.ambient_dim, tuple(sorted(atoms)))
        return self._area

    # -- algebra ---------------------------------------------------------------

    def image(self, f: Callable[[Coords], Sequence]) -> "Polytope":
        """The hull of f over the vertices, in the same ambient dimension.

        An empty body comes back unchanged.
        """
        if self.is_empty:
            return self
        return convex_hull([f(v) for v in self.vertices])

    def translate(self, t: Sequence) -> "Polytope":
        t = tuple(Fraction(x) for x in t)
        if len(t) != self.ambient_dim:
            raise ValueError(f"translation of dimension {len(t)} in ambient {self.ambient_dim}")
        return self.image(lambda v: tuple(a + b for a, b in zip(v, t)))

    def scale(self, c) -> "Polytope":
        """The dilate cP."""
        c = Fraction(c)
        return self.image(lambda v: tuple(c * x for x in v))

    def __add__(self, other: "Polytope") -> "Polytope":
        return minkowski_sum(self, other)

    def __neg__(self) -> "Polytope":
        return self.image(lambda v: tuple(-x for x in v))


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Convex hull with minimal vertex set and exact facet structure.

    The ambient dimension is that of the first point.  The result is
    independent of input order and duplicates.  Raises ValueError on an
    empty input or inconsistent point dimensions.
    """
    pts = [tuple(x if type(x) is Fraction else Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("convex hull of an empty point set")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise ValueError(f"point of dimension {len(p)} in ambient dimension {dim}")
    if not 2 <= dim <= 4:
        raise ValueError("ambient dimension must be between 2 and 4")
    return _sum_points([pts])


def _hull_ids(ipts: list[tuple[int, ...]], dim: int, groups=()):
    """Dedupe, rank and hull integer points in Z^dim, or homogeneous ones,
    or at full rank, given point groups whose sum holds every point, hull
    that sum from a simplex of the points (_hull_engine, by the oracle);
    below full rank groups is not read.

    Returns (ipts, chosen, cols, ids, merged, chain): the distinct points
    in order of first occurrence, then the vertices the oracle inserted;
    the ids i whose edges ipts[i] - ipts[0] form the greedy basis of all
    edges, and coordinates on which their minor is nonzero (_basis); the
    ids of the extreme points, sorted by their coordinates; and the merged
    facets (n, c, g) and boundary chain of the engine run, in the projected
    coordinates below full rank.  At affine rank 1 the facets are the
    segment's ends, (-1, -lo) and (+1, hi) of weight 1 in the projected
    coordinate, and at rank 0 there are none; at both the chain is None.
    Homogeneous points (*p, w), p / w in lowest terms, have dim + 1 entries,
    and each offset c is then the pair (c, w) for c / w, as the engine gives
    them.
    """
    hom = len(ipts[0]) > dim
    ipts = list(dict.fromkeys(ipts))
    key = ((lambda i: [Fraction(x, ipts[i][dim]) for x in ipts[i][:dim]]) if hom
           else ipts.__getitem__)
    # the first edge is zero, so _basis skips it and its ids index ipts
    chosen, cols = _basis(_edges(ipts, dim), dim)
    r = len(chosen)
    merged, chain = [], None
    # projecting onto cols maps the body's affine hull one-to-one and keeps
    # its extreme points; at full rank cols is every coordinate
    proj = ipts if r == dim else [tuple(p[k] for k in cols) + p[dim:] for p in ipts]
    if r == 0:
        ids = [0]
    elif r == 1:
        line = (lambda i: Fraction(*proj[i])) if hom else proj.__getitem__
        ids = [min(range(len(proj)), key=line), max(range(len(proj)), key=line)]
        (a, *w), (b, *v) = (proj[i] for i in ids)
        merged = [((-1,), (-a, *w) if hom else -a, 1), ((1,), (b, *v) if hom else b, 1)]
    else:
        ids, merged, chain = _hull_engine(proj, r, [0] + chosen, groups if r == dim else ())
    ids.sort(key=key)
    return ipts, chosen, cols, ids, merged, chain


def _hull_cleared(hull, dim: int, scale) -> Polytope:
    """The Polytope of a _hull_ids run without its boundary chain, hull =
    (ipts, chosen, cols, ids, merged), on the points p / scale for integer
    points p in Z^dim and scale > 0, or on the homogeneous points (*p, w) in
    lowest terms, which have dim + 1 entries and leave scale unread.  No
    Polytope keeps the chain.

    Fractions are built for the extreme points only.  In either form the
    Polytope keeps its offsets over _scale, s, the lcm of the built
    vertices' denominators, and its facet weights over _unit: scale^(r-1)
    for points over a common scale, else the lcm of the weights' own
    denominators, and for a codimension-1 body that unit times the factor
    of its facet pair.  sum_F G * c over the engine's facets is the volume's
    numerator at full rank and the facet pair's G at codimension 1.  The
    pair's normal is _plane's, through the flat's basis corners, in either
    orientation: the pair holds both.
    """
    ipts, chosen, cols, ids, merged = hull
    hom = len(ipts[0]) > dim
    r = len(chosen)
    if hom:
        vertices = tuple(tuple(Fraction(x, ipts[i][dim]) for x in ipts[i][:dim]) for i in ids)
    else:
        vertices = tuple(tuple(Fraction(x, scale) for x in ipts[i]) for i in ids)
    s = lcm(*(x.denominator for v in vertices for x in v))
    # c * s is an integer, c being <n, v> at a vertex v on the facet
    if hom:
        unit = lcm(*(g.denominator for _, _, g in merged))
        merged = [(n, c * (s // w), g.numerator * (unit // g.denominator))
                  for n, (c, w), g in merged]
    else:
        unit = scale ** max(r - 1, 0)
        merged = [(n, c * s // scale, g) for n, c, g in merged]
    G = sum(g * c for _, c, g in merged)
    rows, total = (), 0
    if r == dim:
        rows = tuple(x for n, _, g in merged for x in (*n, g))
        total = G
    elif r == dim - 1:
        # the facet pair (+/-n, G) over the unit |n[skip]| * s * unit, G the
        # projection's volume times r! * s * unit: projecting onto cols
        # scales r-volume by the basis edges' minor there, which is +/- entry
        # skip (the coordinate not in cols) of their cross product g * n.
        # The pair holds both orientations, so n needs none
        skip = next(k for k in range(dim) if k not in cols)
        n, _ = _plane([ipts[0]] + [ipts[i] for i in chosen], dim)
        unit *= abs(n[skip]) * s
        rows = (*n, G, *(-x for x in n), G)
    return Polytope(_raw=(dim, vertices, r, s, unit, rows, total))


def _direction(xi: Sequence, dim: int) -> tuple[int, tuple[int, ...]]:
    """(t, W) with xi = W / t, W integer and t > 0 the lcm of the
    components' denominators: the one clearing of a direction, for
    Polytope.support and the support evaluators, and the one check that it
    has dim components.  Components other than int and Fraction, such as
    floats and strings like "1/3", are read exactly by Fraction."""
    if len(xi) != dim:
        raise ValueError(f"direction has {len(xi)} components, expected {dim}")
    xi = [x if type(x) is Fraction or type(x) is int else Fraction(x) for x in xi]
    t = lcm(*(x.denominator for x in xi))
    return t, tuple(x.numerator * (t // x.denominator) for x in xi)


def _hom_add(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of homogeneous points (*p, w) and (*q, v), in lowest terms."""
    w, v = p[-1], q[-1]
    m = lcm(w, v)
    a, b = m // w, m // v
    out = [x * a + y * b for x, y in zip(p[:-1], q)]
    g = gcd(m, *out)
    return (*(x // g for x in out), m // g)


def _lcm_within(values: Sequence[int], bits: int):
    """The lcm of the positive integers, or None once it has more than bits
    bits.  They are taken 64 at a time, so a small input costs one lcm call
    and a large one stops soon after the bound."""
    m = 1
    for i in range(0, len(values), 64):
        m = lcm(m, *values[i:i + 64])
        if m.bit_length() > bits:
            return None
    return m


def _sum_points(groups: Sequence[Sequence[Sequence]]) -> Polytope:
    """sum_j conv(S_j) for nonempty groups S_j of rational points in R^dim,
    dim being the length of the first point.

    The one way from rational points to a Polytope: _cleared_sum makes the
    points integer and hulls their sum, and _hull_cleared builds the hull
    record.  The slice drops the engine run's boundary chain before the
    record is built, so that it is freed at once.
    """
    hull, dim, s = _cleared_sum(groups)
    hull = hull[:5]
    return _hull_cleared(hull, dim, s)


def _sum_chain(groups: Sequence[Sequence[Sequence]]):
    """_sum_points(groups), with what its hull saw: (P, s, chain).

    s is the common denominator of the points, or None in the per-point
    form, and chain the boundary chain (points, pieces) of the engine run
    that built P (_hull_engine), or None when P has affine rank below 2.
    The points are sums of one point of each group, cleared as s * x, or
    homogeneous (*(w * x), w) when s is None, and below full rank projected
    (_hull_ids).
    """
    hull, dim, s = _cleared_sum(groups)
    return _hull_cleared(hull[:5], dim, s), s, hull[5]


def _cleared_sum(groups: Sequence[Sequence[Sequence]]):
    """(hull, dim, s): the _hull_ids record of sum_j conv(S_j) in integers,
    the dimension dim of the points and their common denominator s, or
    None.

    A sum of one or two groups is hulled once, on the sums p + q.  A longer
    one is folded, and every point is a point of the whole sum: the first
    group is shifted by the first point q_j0 of each later group S_j, and
    S_j enters as its offsets q - q_j0, the zero offset first.  The groups
    are added in order, pairwise, while the partial sum is below full rank:
    each running total is cut to its extreme points before the next group
    is added.  Once the partial sum spans R^dim and groups remain, one
    engine run starts from a simplex of it and grows it to the whole sum by
    the linear-optimisation oracle over the shifted first group and every
    group's offsets (_hull_engine).  It inserts only vertices of the sum,
    and no partial sum is hulled again.

    The integer form of the module docstring is chosen here, and read off
    the points everywhere after: a homogeneous point has dim + 1 entries.
    With w each point's own denominator and s the lcm of them all, the
    points take the per-point form, and s is None, when

        bits(s) > max(_GATE_BITS, _GATE_RATIO * bits(max w)),

    decided in one _lcm_within pass over the w: below it, the homogeneous
    predicates' extra products and Fractions cost about as much as the
    smaller integers save, or more (at 75-412 bits of s, 0.9-1.3 times the
    common-s time; at 700 bits and more, under 0.55 times).
    """
    pts = [p for S in groups for p in S]
    dim = len(pts[0])
    wts = [lcm(*[x.denominator for x in p]) for p in pts]
    # s is built only as far as the gate needs: past it, the points go
    # homogeneous and s is never used, and on large clouds building it
    # whole would cost more than the hull
    s = _lcm_within(wts, max(_GATE_BITS, _GATE_RATIO * max(wts).bit_length()))
    if s is None:
        ipts = [(*(x.numerator * (w // x.denominator) for x in p), w) for p, w in zip(pts, wts)]
        plus = _hom_add
    else:
        ipts = [tuple(x.numerator * (s // x.denominator) for x in p) for p in pts]
        plus = lambda p, q: tuple(map(add, p, q))
    it = iter(ipts)
    first, *rest = [list(islice(it, len(S))) for S in groups]
    if len(rest) < 2:
        total = [plus(p, q) for p in first for q in rest[0]] if rest else first
        return _hull_ids(total, dim), dim, s
    # -q keeps a homogeneous point's weight
    offsets = [[plus(q, (*(-x for x in S[0][:dim]), *S[0][dim:])) for q in S] for S in rest]
    shift = reduce(plus, [S[0] for S in rest])
    total = first = [plus(p, shift) for p in first]
    for j, E in enumerate(offsets, 1):
        total = [plus(p, e) for p in total for e in E]
        hull = _hull_ids(total, dim, [first, *offsets])
        if j == len(offsets) or len(hull[1]) == dim:
            return hull, dim, s
        ipts, _, _, ids = hull[:4]
        total = [ipts[i] for i in ids]


def _require_polytope(what: str, *bodies, dim: int | None = None):
    """The argument contract for bodies, checked before any of their fields
    is read: a body that is no Polytope, such as a DualPolytope of W* or a
    list of points, raises TypeError naming what and the type; with dim
    given, a body of another ambient dimension raises ValueError naming
    what and both dimensions."""
    for K in bodies:
        if not isinstance(K, Polytope):
            raise TypeError(f"{what} expects a Polytope, not {type(K).__name__}")
        if dim is not None and K.ambient_dim != dim:
            raise ValueError(f"{what} expects ambient dimension {dim}, not {K.ambient_dim}")


def affine_transform(P: Polytope, A: Sequence[Sequence]) -> Polytope:
    """Exact image {A v : v in P}; changes ambient dimension with A's shape."""
    _require_polytope("affine_transform", P)
    rows = [tuple(Fraction(x) for x in row) for row in A]
    out_dim = len(rows)
    for row in rows:
        if len(row) != P.ambient_dim:
            raise ValueError("matrix shape does not match polytope dimension")
    if P.is_empty:
        return Polytope.empty(out_dim)
    return convex_hull([mat_apply(rows, v) for v in P.vertices])


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """Minkowski sum; h(P+Q, xi) = h(P, xi) + h(Q, xi) for every xi."""
    _require_polytope("minkowski_sum", P, Q)
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    if P.is_empty or Q.is_empty:
        return Polytope.empty(P.ambient_dim)
    return _sum_points([P.vertices, Q.vertices])


def split_by_hyperplane(P: Polytope, xi: Sequence, c) -> tuple[Polytope, Polytope, Polytope]:
    """Exact split of P by the hyperplane <xi, x> = c.

    Returns (P inter {<= c}, P inter {>= c}, P inter {= c}); pieces missing
    the body come back as flagged empty polytopes, so that valuations can map
    them to the zero body.
    """
    _require_polytope("split_by_hyperplane", P)
    if len(xi) != P.ambient_dim:
        raise ValueError("dimension mismatch in split direction")
    if P.is_empty:
        e = Polytope.empty(P.ambient_dim)
        return e, e, e
    xi = tuple(Fraction(x) for x in xi)
    c = Fraction(c)
    vals = [dot(xi, v) for v in P.vertices]
    crossings = []
    for (u, fu), (v, fv) in combinations(zip(P.vertices, vals), 2):
        if (fu < c < fv) or (fv < c < fu):
            t = (c - fu) / (fv - fu)
            crossings.append(tuple(a + t * (b - a) for a, b in zip(u, v)))

    def piece(side) -> Polytope:
        # the vertices side() keeps plus the crossings, or the empty body
        pts = [v for v, f in zip(P.vertices, vals) if side(f)] + crossings
        return convex_hull(pts) if pts else Polytope.empty(P.ambient_dim)

    return piece(lambda f: f <= c), piece(lambda f: f >= c), piece(lambda f: f == c)
