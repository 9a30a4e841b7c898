"""Exact mixed volumes of quadruples of polytopes in R^4.

Two independent routes are provided and cross-validated by the test harness:
polarization over Minkowski sums of sub-collections (the defining formula)
and the facet form (1/4) sum_F h(L, sigma_F) for V(K, K, K, L).  The facet
form takes any exact 1-homogeneous integrand in place of h(L, .), and every
value stays a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .polytope import Polytope, _sum_points


def _check_quadruple(bodies: Sequence[Polytope]):
    if len(bodies) != 4:
        raise ValueError("mixed volume takes exactly four bodies")
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
    Repeated (equal) bodies are collapsed to dilates before summing, which
    keeps the intermediate hulls small.  A subset of one distinct body K
    taken m times builds no hull: its volume is m^4 * vol(K), read from K's
    cache.  Every sum of distinct bodies is hulled, so this route stays
    independent of the facet form.
    """
    bodies = (K1, K2, K3, K4)
    _check_quadruple(bodies)

    canon = []
    for i, K in enumerate(bodies):
        j = next((k for k in range(i) if bodies[k] == K), i)
        canon.append(j)

    vol_cache: dict[tuple[int, ...], Fraction] = {}

    def subset_volume(ids: tuple[int, ...]) -> Fraction:
        key = tuple(sorted(canon[i] for i in ids))
        if key not in vol_cache:
            counts: dict[int, int] = {}
            for c in key:
                counts[c] = counts.get(c, 0) + 1
            if len(counts) == 1:
                vol_cache[key] = len(key) ** 4 * bodies[key[0]].volume()
            else:
                groups = [[tuple(m * x for x in v) for v in bodies[c].vertices]
                          for c, m in counts.items()]
                vol_cache[key] = _sum_points(groups, 4).volume()
        return vol_cache[key]

    acc = Fraction(0)
    for size in range(1, 5):
        sign = (-1) ** (4 - size)
        for ids in combinations(range(4), size):
            acc += sign * subset_volume(ids)
    return acc / 24


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
    if K.ambient_dim != 4:
        raise ValueError("mixed_volume_fn requires ambient dimension 4")
    total = Fraction(0)
    for atom in K.area_measure():
        v = phi(atom)
        if not isinstance(v, Fraction):
            raise ValueError(f"integrand value {v!r} at {atom} is not a Fraction")
        total += v
    return total / 4
