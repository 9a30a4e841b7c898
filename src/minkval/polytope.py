"""Exact rational convex polytopes in ambient dimension 2, 3, 4.

Vertex-representation polytopes with exact Fraction coordinates.  Every hull
and Minkowski sum enters through _sum_points(groups), the one path from
rational points to a Polytope: it makes the points integer, adds the groups
pairwise in integers and hulls the integer points in _hull_cleared, which
builds Fractions for the kept vertices only.  The hull engine is
Quickhull-style: each point outside the current hull waits in the outside
list of one simplicial piece it sees, the points are inserted
farthest-first, and an insertion walks across ridges from the owner piece to
the pieces the point sees and hands their outside points to the new pieces
only.  Its sign predicates are integer-only and unrolled in Z^4.
_basis, the one integer rank routine, picks the starting simplex, projects a
flat one-to-one and tells the vertices.  _plane is the one integer cross
product, unrolled in Z^4 and fed zero-padded points in Z^2 and Z^3; it gives
every facet piece and the normal of a codimension-1 flat.  Each simplicial facet
piece is kept as its primitive outward normal u, offset c and the gcd g of
its cross product, which is g * u.  A new piece whose point lies on the plane
of the horizon piece it borders lies on that plane too: it takes (u, c) from
there, and _plane's known-plane form reads g off one cofactor of the cross
product.  Coplanar pieces are merged by u into facets
(u, c, G) with G the sum of their g, so facet identity and area-measure
atoms are canonical, and

    vol(P) = sum_F G * c / (n! * s * W),    atom_F = G * u / ((n-1)! * W)

need no triangulation once the hull is built, with c over s, the lcm of the
vertices' denominators (Polytope._scale), and G over the unit W
(Polytope._unit, see _hull_cleared).  A segment's facets are its two ends,
each of weight 1, so that the same sum gives its length.

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
size of the points: its edges are w_0 * p_i - w_i * p_0, a point (p, w)
is beyond a piece (u, c, v) when v * <u, p> > w * c, and each piece's g
is divided by its edges' weights once the hull is built, summed per
merged facet as a Fraction.  Either way s is the lcm of the built
vertices' denominators, and the facets, volume and atoms are the same
numbers.  The sum in vol(P) is taken with the hull; a Polytope then keeps
only u and G of each facet, in one flat tuple, and its facets read c off
the vertices; a codimension-1 body keeps its two sides as the facet pair
(+/-u, G).  This record is a body's one integer form: area_measure builds
every body's atoms from it, and the support evaluators read its rows and
cleared vertices (_cleared_atoms, _cleared).  Lower-dimensional polytopes
are first-class: operations degrade per contract rather than erroring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .linalg import dot, mat_apply, vec_sub

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
        total = [Fraction(0)] * self.ambient_dim
        for a in self.atoms:
            for i, x in enumerate(a):
                total[i] += x
        return tuple(total)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


def _plane(points: Sequence[tuple[int, ...]], ref: tuple[int, ...], k: int, known=None):
    """Hyperplane through d points of Z^d, oriented away from the point ref / k.

    Returns (n, c, g): n is the primitive outward normal, c = <n, points[0]>
    and g the gcd of the simplex's cross product X, which is therefore
    +/- g * n.  This is the kernel's one integer cross product, unrolled in
    Z^4 over the six 2x2 minors of the last two edges.  For d < 4 the points
    and ref are padded with zeros and the edges completed by the unit edges
    e_d, ..., e_3, whose minors vanish off the first d coordinates: the Z^4
    cross product is then zero after entry d, and its first d entries are
    the Z^d one.

    known is the plane (*n, ...) of a piece the points are known to lie in,
    with n padded to Z^4 as the engine keeps it.  Then only g is returned,
    as |X_j / n_j| at the first nonzero n_j: one cofactor of X, with no gcd,
    offset or orientation test.

    """
    d = len(ref)
    if d < 4:
        pad = (0,) * (4 - d)
        b = points[0] + pad
        units = [b[:j] + (b[j] + 1,) + b[j + 1:] for j in range(d, 4)]
        points = [b, *(p + pad for p in points[1:]), *units]
        ref += pad
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
        return abs(x // known[j])
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
    x0 //= g; x1 //= g; x2 //= g; x3 //= g
    c = x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3
    r0, r1, r2, r3 = ref
    side = x0 * r0 + x1 * r1 + x2 * r2 + x3 * r3 - k * c
    if side == 0:
        raise RuntimeError("interior reference lies on facet hyperplane")
    if side > 0:
        x0 = -x0; x1 = -x1; x2 = -x2; x3 = -x3; c = -c
    return (x0, x1, x2, x3)[:d], c, g


def _plane_hom(points: Sequence[tuple[int, ...]], ref: tuple[int, ...], k: int, known=None):
    """_plane for homogeneous points (*p, w), the per-point form of the
    module docstring.

    The edges, w_0 * w_i times the rational ones, go to _plane as points
    beside the origin, and ref / k moves by the same map, to
    w_0 * ref - k * p_0.  So X is w_0^(d-1) * prod_{i>0} w_i
    times the rational cross product, n is the same, and c = <n, p_0> is w_0
    times the rational offset.
    """
    *b, w = points[0]
    d = len(b)
    edges = [(0,) * d]
    for p in points[1:]:
        f = p[d]
        edges.append(tuple([w * x - f * y for x, y in zip(p, b)]))
    if known is not None:
        return _plane(edges, ref, k, known)
    n, _, g = _plane(edges, tuple([w * r - k * x for r, x in zip(ref, b)]), 1)
    return n, sum(map(mul, n, b)), g


class _Piece:
    """One simplicial piece of the boundary during a _hull_engine run.

    plane is (*n, c), with n padded by zeros to Z^4, and g the gcd of the
    cross product, as _plane gives them; on homogeneous points it is
    (*n, c, w) with c / w the rational offset in lowest terms.  verts are the
    sorted labels of the corners; nbrs[j] is the piece across ridge j, the
    j-th of combinations(verts, d - 1), which omits corner d - 1 - j.
    outside lists the points that see this piece first, or is None while
    there are none, and mark is the last point the piece was tested against
    (see the walk).
    """

    __slots__ = ("plane", "verts", "g", "nbrs", "outside", "mark")


def _hull_engine(ipts: list[tuple[int, ...]], d: int, simplex: list[int]):
    """Quickhull-style hull of deduped integer points with affine rank d >= 2.

    Returns (vertex_ids, merged_facets): the ids of the extreme points, and
    facets (normal, offset, G) with the outward primitive normal, after the
    coplanar merge of the simplicial pieces; G is the sum over the pieces of
    the gcd g of the piece's cross product, which is g * normal.

    The points off the starting simplex are inserted once each, farthest
    from its centroid first.  A point outside the current hull waits in the
    outside list of the first piece it sees.  Inserting it walks across
    ridges from that owner to every piece it sees, cones the horizon to it,
    and hands the outside points of the deleted pieces to the new pieces
    only: a point beyond a deleted piece and outside the new hull is beyond
    a new piece (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996).  A point
    that sees no piece is inside for good and is never tested again.  Every
    piece is built by one constructor, piece, from _plane or, on homogeneous
    points, _plane_hom, bound once per run.

    Points of d + 1 entries are homogeneous, in the per-point form of the
    module docstring.  A merged offset is then the pair (c, v) for c / v in
    lowest terms, and G a Fraction.  Otherwise c and G are in the units of
    the points.
    """
    hom = len(ipts[0]) > d
    k = d + 1
    # the simplex's centroid, interior2 / kw, is interior to every step; on
    # homogeneous points kw is k times the lcm of the corners' weights
    if hom:
        lw = lcm(*(ipts[i][d] for i in simplex))
        interior2 = tuple(sum(ipts[i][j] * (lw // ipts[i][d]) for i in simplex) for j in range(d))
        kw = k * lw

        def dist(i):
            # |p / w - interior2 / kw|^2 times kw^2, floored: the floor can
            # only tie distances less than 1 / kw^2 apart, and any order
            # gives the same hull
            *p, w = ipts[i]
            return sum((kw * x - w * m) ** 2 for x, m in zip(p, interior2)) // w**2
    else:
        interior2 = tuple(sum(ipts[i][j] for i in simplex) for j in range(d))
        kw = k
        dist = lambda i: sum((k * x - m) ** 2 for x, m in zip(ipts[i], interior2))
    # label the points in order of insertion: the simplex, then the rest by
    # decreasing squared distance from the centroid, ties by id; so a new
    # point's label exceeds that of every corner on the hull
    skip = set(simplex)
    rest = [i for i in range(len(ipts)) if i not in skip]
    rest.sort(key=dist, reverse=True)
    ids = simplex + rest
    raw = [ipts[i] for i in ids]
    # the visibility tests run in Z^4, on points and normals padded by zeros
    # ahead of a homogeneous point's weight
    pad = (0,) * (4 - d)
    pts = [p[:d] + pad + p[d:] for p in raw] if pad else raw
    plane_of = _plane_hom if hom else _plane

    def piece(verts, plane=None):
        P = _Piece()
        corners = [raw[v] for v in verts]
        if plane is None:
            n, c, P.g = plane_of(corners, interior2, kw)
            if hom:
                # the offset c / w in lowest terms, so that equal planes are
                # equal tuples
                w = corners[0][d]
                h = gcd(c, w)
                P.plane = n + pad + (c // h, w // h)
            else:
                P.plane = n + pad + (c,)
        else:
            P.g = plane_of(corners, interior2, kw, plane)
            P.plane = plane
        P.verts = verts
        P.outside = P.mark = None
        return P

    owner: list = [None] * len(ids)

    def assign(q, pieces):
        # q joins the outside list of the first of the pieces it is
        # strictly beyond, or is inside them all
        x0, x1, x2, x3 = pts[q]
        for P in pieces:
            a, b, e, f, c = P.plane
            if a * x0 + b * x1 + e * x2 + f * x3 > c:
                owner[q] = P
                if P.outside is None:
                    P.outside = [q]
                else:
                    P.outside.append(q)
                return
        owner[q] = None

    def assign_hom(q, pieces):
        # the same on homogeneous points and planes
        x0, x1, x2, x3, w = pts[q]
        for P in pieces:
            a, b, e, f, c, v = P.plane
            if v * (a * x0 + b * x1 + e * x2 + f * x3) > w * c:
                owner[q] = P
                if P.outside is None:
                    P.outside = [q]
                else:
                    P.outside.append(q)
                return
        owner[q] = None

    # two closures, rather than a branch in one, keep the common path's
    # inner loop as lean as it was
    if hom:
        assign = assign_hom

    start = [piece(tuple(j for j in range(k) if j != i)) for i in range(k)]
    for i, P in enumerate(start):
        P.nbrs = [start[j] for j in range(d, -1, -1) if j != i]
    # live pieces in order of creation, so that the merge below is repeatable
    live = dict.fromkeys(start)
    for q in range(k, len(ids)):
        assign(q, start)

    for q in range(k, len(ids)):
        V = owner[q]
        if V is None:
            continue
        owner[q] = None
        if hom:
            x0, x1, x2, x3, w = pts[q]
        else:
            x0, x1, x2, x3 = pts[q]
        # walk the pieces q sees, a ball around its owner, marking each piece
        # tested with q (seen) or ~q (not seen).  Each ridge to a piece not
        # seen is on the horizon and gets the new piece ridge + (q,), whose
        # ridge 0 is that ridge and ridge i + 1 that ridge's i-th sub-ridge
        # plus q; two new pieces meet across each sub-ridge of the horizon.
        # When q lies on the plane of the piece not seen, in flat, the new
        # piece lies on it too and takes that plane.
        V.mark = q
        visible = [V]
        new = []
        cone = {}
        flat = set()
        for V in visible:
            del live[V]
            for ridge, N in zip(combinations(V.verts, d - 1), V.nbrs):
                m = N.mark
                if m == q:
                    continue
                if m != ~q:
                    if hom:
                        a, b, e, f, c, v = N.plane
                        t = v * (a * x0 + b * x1 + e * x2 + f * x3) - w * c
                    else:
                        a, b, e, f, c = N.plane
                        t = a * x0 + b * x1 + e * x2 + f * x3 - c
                    if t > 0:
                        N.mark = q
                        visible.append(N)
                        continue
                    N.mark = ~q
                    if t == 0:
                        flat.add(N)
                P = piece(ridge + (q,), N.plane if N in flat else None)
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
                    if r != q:
                        assign(r, new)
            # no cycles left behind, so the dead pieces are freed at once
            V.nbrs = V.outside = None

    merged: dict[tuple[int, ...], list] = {}
    incident: dict[int, set[tuple[int, ...]]] = {}
    for P in live:
        P.nbrs = None  # as for the dead pieces: no cycles left behind
        n, c, g = P.plane[:d], P.plane[4], P.g
        if hom:
            # the offset (c, w) for c / w, and g over the edge weights
            c = P.plane[4:]
            w = [raw[v][d] for v in P.verts]
            g = Fraction(g, w[0] ** (d - 2) * prod(w))
        acc = merged.get(n)
        if acc is None:
            merged[n] = [c, g]
        elif acc[0] != c:
            raise RuntimeError("parallel facets with distinct offsets")
        else:
            acc[1] += g
        for v in P.verts:
            incident.setdefault(v, set()).add(n)

    # a point is extreme iff the facets through it have normals of rank d;
    # every facet through an extreme point has a piece with it as a corner
    vertex_ids = [ids[v] for v, normals in incident.items() if len(_basis(normals, d)[0]) == d]
    return vertex_ids, [(n, c, g) for n, (c, g) in merged.items()]


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
        self._facets = self._area = None

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

    def _cleared(self) -> tuple[int, list[tuple[int, ...]]]:
        """(s, points): the vertices as the integer points s * v, s being
        _scale, the lcm of their denominators."""
        s = self._scale
        return s, [tuple(x.numerator * (s // x.denominator) for x in v) for v in self.vertices]

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
        (_direction) and the vertices to s * v, s being _scale, and the
        largest <W, s * v> over the vertices gives the one Fraction built.
        Nothing of it is stored.
        """
        if self.is_empty:
            raise ValueError("support of an empty polytope is undefined")
        if len(xi) != self.ambient_dim:
            raise ValueError("dimension mismatch in support direction")
        t, W = _direction(xi)
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


def _hull_ids(ipts: list[tuple[int, ...]], dim: int):
    """Dedupe, rank and hull integer points in Z^dim, or homogeneous ones.

    Returns (ipts, chosen, cols, ids, merged): the distinct points in order
    of first occurrence; the ids i whose edges ipts[i] - ipts[0] form the
    greedy basis of all edges, and coordinates on which their minor is
    nonzero (_basis); the ids of the extreme points, sorted by their
    coordinates; and the merged facets (n, c, g) of the engine run.  At
    affine rank 1 they are the segment's ends, (-1, -lo) and (+1, hi) of
    weight 1 in the projected coordinate, and at rank 0 there are none.
    Homogeneous points (*p, w), p / w in lowest terms, have dim + 1 entries,
    and each offset c is then the pair (c, w) for c / w, as the engine gives
    them.
    """
    hom = len(ipts[0]) > dim
    ipts = list(dict.fromkeys(ipts))
    if hom:
        *b, w = ipts[0]
        edges = (tuple(w * x - p[dim] * y for x, y in zip(p, b)) for p in ipts)
        key = lambda i: [Fraction(x, ipts[i][dim]) for x in ipts[i][:dim]]
    else:
        edges = (vec_sub(p, ipts[0]) for p in ipts)
        key = ipts.__getitem__
    # the first edge is zero, so _basis skips it and its ids index ipts
    chosen, cols = _basis(edges, dim)
    r = len(chosen)
    merged = []
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
        ids, merged = _hull_engine(proj, r, [0] + chosen)
    ids.sort(key=key)
    return ipts, chosen, cols, ids, merged


def _hull_cleared(ipts: list[tuple[int, ...]], dim: int, scale) -> Polytope:
    """convex_hull of the points p / scale for integer points p in Z^dim and
    scale > 0, or of the homogeneous points (*p, w) in lowest terms, which
    have dim + 1 entries and leave scale unread.

    Fractions are built for the extreme points only.  In either form the
    Polytope keeps its offsets over _scale, s, the lcm of the built
    vertices' denominators, and its facet weights over _unit: scale^(r-1)
    for points over a common scale, else the lcm of the weights' own
    denominators, and for a codimension-1 body that unit times the factor
    of its facet pair.  sum_F G * c over the engine's facets is the volume's
    numerator at full rank and the facet pair's G at codimension 1.
    """
    hom = len(ipts[0]) > dim
    ipts, chosen, cols, ids, merged = _hull_ids(ipts, dim)
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
        # skip (the coordinate not in cols) of their cross product g * n, so
        # ref lies off the flat
        skip = next(k for k in range(dim) if k not in cols)
        w = ipts[0][dim] if hom else 1
        ref = tuple(x + w * (k == skip) for k, x in enumerate(ipts[0][:dim]))
        n, _, _ = (_plane_hom if hom else _plane)([ipts[0]] + [ipts[i] for i in chosen], ref, w)
        unit *= abs(n[skip]) * s
        rows = (*n, G, *(-x for x in n), G)
    return Polytope(_raw=(dim, vertices, r, s, unit, rows, total))


def _direction(xi: Sequence) -> tuple[int, tuple[int, ...]]:
    """(t, W) with xi = W / t, W integer and t > 0 the lcm of the
    components' denominators: the one clearing of a direction, for
    Polytope.support and the support evaluators.  Components other than int
    and Fraction, such as floats and strings like "1/3", are read exactly by
    Fraction."""
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

    The one way from rational points to a Polytope.  The points are made
    integer, and the groups are added in order, pairwise, in integers; each
    running total after the first is cut to its extreme points before the
    next group is added.

    The integer form of the module docstring is chosen here, and read off
    the points everywhere after: a homogeneous point has dim + 1 entries.
    With w each point's own denominator and s the lcm of them all, the
    points take the per-point form when

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
    hom = s is None
    if hom:
        ipts = [(*(x.numerator * (w // x.denominator) for x in p), w) for p, w in zip(pts, wts)]
    else:
        ipts = [tuple(x.numerator * (s // x.denominator) for x in p) for p in pts]
    it = iter(ipts)
    total = list(islice(it, len(groups[0])))
    for j, S in enumerate(groups[1:]):
        if j:
            ipts, _, _, ids, _ = _hull_ids(total, dim)
            total = [ipts[i] for i in ids]
        S = list(islice(it, len(S)))
        if hom:
            total = [_hom_add(p, q) for p in total for q in S]
        else:
            total = [tuple(map(add, p, q)) for p in total for q in S]
    return _hull_cleared(total, dim, s)


def affine_transform(P: Polytope, A: Sequence[Sequence]) -> Polytope:
    """Exact image {A v : v in P}; changes ambient dimension with A's shape."""
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
