"""One sha256 over the hull kernel's exact outputs on seeded clouds.

    PYTHONPATH=src python tests/kernel_digest.py --clouds 3000

Run it with PYTHONPATH pointing at two checkouts' src to compare them: a
change that keeps every output byte-identical prints the same digest.  It
uses the public API only, so any revision of the kernel can run it.

Cloud i lies in R^(2 + i % 3) and is drawn from its own seed, so the first N
clouds are the same for every --clouds >= N.  Blocks of three clouds
alternate between denominators up to 16 and up to 10^6.  A fifth of the
clouds lie on the moment curve, where every point is extreme, and
three tenths on a flat of lower rank; some points repeat.  Per cloud
the digest covers the hull record (vertices, affine dimension, volume, area
atoms and facets with their vertex ids), the support values in four fixed
directions, the vertices, volume and atoms of the dilate by -3/2, the hull
records of the three pieces of the split across the middle of the support
range along the first direction, the vertices and volume of the sum with a
small simplex and, in R^4, both mixed volumes V(P, P, P, Q) and the
SupportEvaluator values of every kind token at the four directions, with a
fixed segment M and triangle N.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from fractions import Fraction

from minkval.mixed import mixed_volume, mixed_volume_31
from minkval.polytope import convex_hull, minkowski_sum, split_by_hyperplane
from minkval.valuations import OPERATORS, SupportEvaluator, ValuationOp

F = Fraction

PARAMS = {
    "M": convex_hull([(F(-1, 2), F(1, 3)), (F(3, 4), F(2, 5))]),
    "N": convex_hull([(0, 0), (2, F(1, 3)), (F(-1, 2), F(5, 7))]),
}
# every kind, then the covariant companion of every contravariant kind
TOKENS = [*OPERATORS, *(f"cov_of:{k}" for k, spec in OPERATORS.items() if spec.contravariant)]


def cloud(i: int) -> list[tuple]:
    """The i-th seeded cloud."""
    rng = random.Random(f"kernel-digest:{i}")
    d = 2 + i % 3
    den = 10**6 if (i // 3) % 2 else 16
    q = lambda: F(rng.randint(-4 * den, 4 * den), rng.randint(1, den))
    count = rng.randint(d + 1, 60)
    shape = rng.random()
    if shape < 0.2:
        # on the moment curve t -> (t, t^2, ..., t^d): every point extreme
        ts = {q() for _ in range(min(count, 16))}
        pts = [tuple(t**k for k in range(1, d + 1)) for t in ts]
    elif shape < 0.5:
        r = rng.randint(0, d - 1)
        base = [q() for _ in range(d)]
        gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
        pts = []
        for _ in range(count):
            t = [q() for _ in range(r)]
            pts.append(tuple(b + sum(c * g[k] for c, g in zip(t, gens))
                             for k, b in enumerate(base)))
    else:
        pts = [tuple(q() for _ in range(d)) for _ in range(count)]
    return pts + rng.choices(pts, k=rng.randint(0, 3))


def hull_record(P) -> list:
    facets = tuple((f.normal, f.offset, tuple(sorted(f.vertex_ids))) for f in P.facets)
    return [P.vertices, P.affine_dim, P.volume(), P.area_measure().atoms, facets]


def record(i: int) -> str:
    pts = cloud(i)
    d = len(pts[0])
    P = convex_hull(pts)
    out = hull_record(P)
    rng = random.Random(f"kernel-digest:dirs:{d}")
    dirs = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)) for _ in range(4)]
    out.append(tuple(P.support(u) for u in dirs))
    D = P.scale(F(-3, 2))
    out += [D.vertices, D.volume(), D.area_measure().atoms]
    u = dirs[0]
    mid = (P.support(u) - P.support(tuple(-x for x in u))) / 2
    for piece in split_by_hyperplane(P, u, mid):
        out += hull_record(piece)
    simplex = [(F(0),) * d] + [tuple(F(int(j == k), 2 + k) for j in range(d)) for k in range(d)]
    Q = convex_hull(simplex)
    S = minkowski_sum(P, Q)
    out += [S.vertices, S.volume()]
    if d == 4:
        out += [mixed_volume(P, P, P, Q), mixed_volume_31(P, Q)]
        for kind in TOKENS:
            params = OPERATORS[kind.removeprefix("cov_of:")].params
            ev = SupportEvaluator(ValuationOp(kind, **{p: PARAMS[p] for p in params}), P)
            out.append(tuple(ev.at(u) for u in dirs))
    return repr(out)


def digest(clouds: int) -> str:
    h = hashlib.sha256()
    for i in range(clouds):
        h.update(record(i).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clouds", type=int, default=300, help="number of clouds (default 300)")
    args = parser.parse_args(argv)
    print(digest(args.clouds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
