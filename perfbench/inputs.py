"""Seeded input generators for the recon and kernel workloads.

Standard library only and independent of ``minkval.harness``, so a change to
the harness's random generators cannot change what the benchmark feeds the
program.  Every generator takes a ``random.Random`` and returns plain tuples
of ``Fraction``; the program only ever sees the generated points.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction


def rational(rng: random.Random, span: int, max_den: int) -> Fraction:
    """p/q with |p| <= span * max_den and 1 <= q <= max_den, both uniform.

    Small q are as likely as large ones, so the values crowd around 0 with a
    thin tail out to span * max_den: a cloud of them has few extreme points.
    """
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(map(F, r)) for r in rows]
    n = len(m)
    out = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return out


def affine_rank(points) -> int:
    """Dimension of the affine hull of the points (exact)."""
    base = points[0]
    rows = []
    for p in points[1:]:
        v = [F(a) - F(b) for a, b in zip(p, base)]
        for r in rows:
            lead = next(i for i, x in enumerate(r) if x != 0)
            if v[lead] != 0:
                f = v[lead] / r[lead]
                v = [a - f * b for a, b in zip(v, r)]
        if any(x != 0 for x in v):
            rows.append(v)
    return len(rows)


# -- recon bodies ----------------------------------------------------------------


def simplex(rng: random.Random, span: int = 4, max_den: int = 4) -> list[tuple]:
    """Five affinely independent rational points of R^4."""
    while True:
        pts = [tuple(rational(rng, span, max_den) for _ in range(4)) for _ in range(5)]
        if det([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) != 0:
            return pts


def truncated_simplex(rng: random.Random, cuts: int) -> list[tuple]:
    """A 4-simplex with `cuts` vertices cut off by generic hyperplanes.

    Each cut replaces a vertex v by the four points v + t_j (u_j - v) on its
    edges, with distinct t_j in [1/8, 3/8].  Cuts below 1/2 never meet, so
    the body has 5 + 3*cuts vertices and 5 + cuts facets, and distinct t_j
    keep each new facet normal off the old ones.
    """
    verts = simplex(rng)
    cut_ids = set(rng.sample(range(5), cuts))
    out = []
    for i, v in enumerate(verts):
        if i not in cut_ids:
            out.append(v)
            continue
        ts = rng.sample(range(12, 37), 4)
        others = [u for j, u in enumerate(verts) if j != i]
        for t, u in zip(ts, others):
            t = F(t, 96)
            out.append(tuple(a + t * (b - a) for a, b in zip(v, u)))
    return out


def _times_i(a, b, k: int):
    for _ in range(k % 4):
        a, b = -b, a
    return a, b


def unitary_image(rng: random.Random, points) -> list[tuple]:
    """Image under a random monomial matrix of SU(2) and a lattice shift.

    With z = (z1, z2) the map is (i^a z1, i^-a z2) or (i^a z2, -i^-a z1).
    Every operator is SL(2, C)-equivariant and no area measure sees a
    shift, so each output is the matching image of the unshifted one with
    the same combinatorics: the cost of an op barely moves with the seed
    while the coordinates the program sees do.
    """
    a = rng.randrange(4)
    swap = rng.random() < 0.5
    shift = tuple(F(rng.randint(-3, 3)) for _ in range(4))
    out = []
    for p in points:
        z1, z2 = (p[0], p[1]), (p[2], p[3])
        if swap:
            z1, z2 = z2, _times_i(*z1, 2)
        w = _times_i(*z1, a) + _times_i(*z2, -a)
        out.append(tuple(x + s for x, s in zip(w, shift)))
    return out


def signed_permutation(rng: random.Random):
    """A random coordinate permutation with random sign flips of R^4, as a
    function on points.  It maps every body to a congruent one, so hulls,
    volumes, area measures, sums and mixed volumes keep their combinatorics
    and values while the coordinates the program sees change."""
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    return lambda p: tuple(signs[k] * p[perm[k]] for k in range(4))


def lattice_shift(rng: random.Random, points) -> list[tuple]:
    shift = tuple(rng.randint(-3, 3) for _ in range(4))
    return [tuple(x + s for x, s in zip(p, shift)) for p in points]


# -- kernel clouds ---------------------------------------------------------------


def box_cloud(rng: random.Random, n: int, max_den: int) -> list[tuple]:
    """n random points; few of them end up extreme."""
    return [tuple(rational(rng, 4, max_den) for _ in range(4)) for _ in range(n)]


def moment_cloud(rng: random.Random, n: int) -> list[tuple]:
    """n points x = t/2 on the moment curve x -> (x, x^2, x^3, x^4) for
    distinct integers t; all extreme, denominators at most 16."""
    out = []
    for t in sorted(rng.sample(range(-2 * n, 2 * n + 1), n)):
        x = F(t, 2)
        out.append((x, x**2, x**3, x**4))
    return out


def sphere_cloud(rng: random.Random, n: int, max_den: int) -> list[tuple]:
    """n rational points on the unit 3-sphere by inverse stereographic
    projection of rational points of R^3; all extreme."""
    seen = set()
    out = []
    while len(out) < n:
        x = tuple(F(rng.randint(-2 * max_den, 2 * max_den), max_den) for _ in range(3))
        if x in seen:
            continue
        seen.add(x)
        s = sum(a * a for a in x)
        out.append(tuple(2 * a / (s + 1) for a in x) + ((s - 1) / (s + 1),))
    return out


def flat_cloud(rng: random.Random, n: int, max_den: int, rank: int) -> list[tuple]:
    """n random points of a random rank-`rank` affine flat of R^4."""
    while True:
        base = tuple(rational(rng, 4, 4) for _ in range(4))
        dirs = [tuple(rational(rng, 4, 4) for _ in range(4)) for _ in range(rank)]
        if affine_rank([base] + [tuple(b + d for b, d in zip(base, v)) for v in dirs]) == rank:
            break
    out = []
    for _ in range(n):
        cs = [rational(rng, 1, max_den) for _ in range(rank)]
        out.append(tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base)))
    return out
