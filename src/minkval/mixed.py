"""Exact mixed volumes of quadruples of polytopes in R^4.

Two independent routes are provided and cross-validated by the test harness:
polarization over Minkowski sums of sub-collections (the defining formula)
and the facet form (1/4) sum_F h(L, sigma_F) for V(K, K, K, L).  The facet
form takes any exact 1-homogeneous integrand in place of h(L, .), and every
value stays a Fraction.

Polarization reads every volume it needs off one hull, that of the sum
B_1 + ... + B_m of the distinct bodies.  Two facts make that possible.  For
lam > 0 the sum sum_i lam_i B_i has the normal fan of B_1 + ... + B_m, the
common refinement of the B_i's fans (Ziegler, Lectures on Polytopes,
Prop. 7.12): every such sum has the faces of the one sum, each vertex moving
to sum_i lam_i v_i for the summand vertices v_i that add up to it.  And
vol(sum_i lam_i B_i) is a polynomial in lam whose coefficients are the mixed
volumes (Minkowski; Schneider, Convex Bodies, 2nd ed., Sec. 5.1).  So the
simplicial boundary pieces of the one hull, their corners moved with lam,
give the volume at every lam >= 0.  The facet form reads K's area measure and
L's support instead, and shares none of this.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from operator import mul
from typing import Callable, Sequence

from .polytope import Polytope, _plane, _require_polytope, _sum_chain


def _check_quadruple(bodies: Sequence[Polytope]):
    for K in bodies:
        if not isinstance(K, Polytope):
            raise TypeError("mixed volume arguments must be Polytope")
        if K.ambient_dim != 4:
            raise ValueError("mixed volume requires ambient dimension 4")
        if K.is_empty:
            raise ValueError("mixed volume of an empty body is undefined")


def mixed_volume(K1: Polytope, K2: Polytope, K3: Polytope, K4: Polytope) -> Fraction:
    """V(K1, K2, K3, K4) by polarization; symmetric and Minkowski-multilinear.

    V = (1/4!) sum over nonempty S of (-1)^(4-|S|) vol(sum of K_i, i in S).
    The sum runs over the multiplicity vectors k of the distinct bodies B_j,
    each taken m_j times: a vector stands for prod C(m_j, k_j) subsets, all
    with the volume of sum k_j B_j.  A vector of one distinct body B builds
    no hull: its volume is k^4 * vol(B), read from B's cache.  Every other
    volume is the volume polynomial of the distinct bodies at k
    (_volume_polynomial), read off the one hull of their sum, so V(P, P, P, Q)
    builds one hull and four distinct bodies one.
    """
    bodies = (K1, K2, K3, K4)
    _check_quadruple(bodies)
    # equal bodies are found by ==, on the vertices, identity first, as tuple
    # membership compares
    distinct = [K for i, K in enumerate(bodies) if K not in bodies[:i]]
    mults = [bodies.count(B) for B in distinct]

    # the first vector is zero, the empty subset
    vectors = list(product(*(range(m + 1) for m in mults)))[1:]
    sums = [ks for ks in vectors if len(ks) - ks.count(0) > 1]
    vols = dict(zip(sums, _volume_polynomial(distinct, sums))) if sums else {}
    acc = Fraction(0)
    for ks in vectors:
        vol = vols.get(ks)
        if vol is None:
            [(k, B)] = [(k, B) for k, B in zip(ks, distinct) if k]
            vol = k**4 * B.volume()
        acc += (-1) ** (4 - sum(ks)) * prod(map(comb, mults, ks)) * vol
    return acc / 24


def _volume_polynomial(bodies: Sequence[Polytope], lams) -> list[Fraction]:
    """vol(sum_i lam_i B_i) at each tuple lam of integers >= 0 in lams, for
    the bodies B_i, from the one hull of their sum (module docstring).

    With S the lcm of the bodies' scales, each body's vertices are cleared
    over S (Polytope._cleared), and each corner of the hull's live pieces is
    split into its summand vertices by linear optimisation: u, the sum of the
    normals of the facets at the corner, lies in the normal cone of the
    corner's face, so the maximisers of <u, .> over each body's vertices
    hold a split, unique at a vertex of the sum.  At lam the corner is
    sum_i lam_i times its summand vertices, and a piece with normal n and
    corners p_0, ..., p_3 adds eps * (X_j / n_j) * <n, p_0> / (4! * S^4):
    X_j / n_j is _plane's signed known-plane cofactor, and eps its sign at
    lam = 1, where the pieces tile the boundary.  Two chains in a hyperplane
    with one boundary differ by a cycle of no volume, so any split of a
    corner that is not a vertex serves.  The value at lam = 1 is checked
    against the hull's own volume, and a sum of affine rank below 4 has
    volume 0 at every lam.
    """
    P, s, chain = _sum_chain([B.vertices for B in bodies])
    if P.affine_dim < 4:
        return [Fraction(0)] * len(lams)
    points, pieces = chain
    cleared = [B._cleared() for B in bodies]
    S = lcm(*(t for t, _ in cleared))
    verts = [[tuple(x * (S // t) for x in p) for p in ps] for t, ps in cleared]

    normals_at: dict[int, set] = {}
    for piece in pieces:
        n = piece.plane[:4]
        for v in piece.verts:
            normals_at.setdefault(v, set()).add(n)
    split = {}
    for v, normals in normals_at.items():
        u = [sum(col) for col in zip(*normals)]
        faces = []
        for V in verts:
            dots = [sum(map(mul, u, p)) for p in V]
            h = max(dots)
            faces.append([p for p, x in zip(V, dots) if x == h])
        # the corner as the rational point p / w, compared over S
        *p, w = points[v] if s is None else (*points[v], s)
        want = [S * x for x in p]
        split[v] = next((c for c in product(*faces)
                         if [w * sum(col) for col in zip(*c)] == want), None)
        if split[v] is None:
            raise RuntimeError("hull corner is no sum of its bodies' vertices")

    def cofactors(lam):
        # (X_j / n_j, <n, p_0>) of each piece at lam, in order.  X = 0 on a
        # piece whose corners lam makes affinely dependent, and there _plane
        # raises.  Most such pieces have two corners that meet, their splits
        # differing only in bodies that lam zeroes, and those are given 0
        # without the call
        corner = {v: tuple(sum(map(mul, lam, col)) for col in zip(*c)) for v, c in split.items()}
        meet = 0 in lam
        for piece in pieces:
            a, *_ = ps = [corner[v] for v in piece.verts]
            n = piece.plane
            try:
                x = 0 if meet and len(set(ps)) < 4 else _plane(ps, 4, n)
            except RuntimeError:
                x = 0
            yield x, n[0] * a[0] + n[1] * a[1] + n[2] * a[2] + n[3] * a[3]

    ones = (1,) * len(bodies)
    # each piece's orientation eps, read once, at lam = 1
    eps, total = [], 0
    for x, c in cofactors(ones):
        eps.append(1 if x > 0 else -1)
        total += abs(x) * c
    den = 24 * S**4
    if Fraction(total, den) != P.volume():
        raise RuntimeError("volume polynomial at 1 differs from the hull's volume")
    return [Fraction(total if lam == ones else
                     sum(e * x * c for e, (x, c) in zip(eps, cofactors(lam))), den)
            for lam in lams]


def mixed_volume_31(K: Polytope, L: Polytope) -> Fraction:
    """V(K, K, K, L) via the facet form (1/4) sum_F h(L, sigma_F).

    Exact for K of any affine dimension: a body of dimension <= 2 has an
    empty area measure, so the value is 0; a 3-dimensional body contributes
    through its two opposite atoms.
    """
    _check_quadruple((K, K, K, L))
    return mixed_volume_fn(K, L.support)


def mixed_volume_fn(K: Polytope, phi: Callable[[tuple], Fraction]) -> Fraction:
    """V(K, K, K, phi) = (1/4) sum_F phi(sigma_F) over area-measure atoms.

    Every integrand value must be a Fraction; anything else raises
    ValueError, so nothing rounds.
    """
    _require_polytope("mixed_volume_fn", K)
    if K.ambient_dim != 4:
        raise ValueError("mixed_volume_fn requires ambient dimension 4")
    total = Fraction(0)
    for atom in K.area_measure():
        v = phi(atom)
        if not isinstance(v, Fraction):
            raise ValueError(f"integrand value {v!r} at {atom} is not a Fraction")
        total += v
    return total / 4
