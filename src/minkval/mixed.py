"""Exact mixed volumes of quadruples of polytopes in R^4.

Two independent routes are provided and cross-validated by the test harness:
polarization over Minkowski sums of sub-collections (the defining formula)
and the facet form (1/4) sum_F h(L, sigma_F) for V(K, K, K, L).  The facet
form takes any exact 1-homogeneous integrand in place of h(L, .), and every
value stays a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Callable, Sequence

from .polytope import Polytope, _sum_points


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
    with the volume of sum k_j B_j, which keeps the hulls few and small.
    A vector of one distinct body B builds no hull: its volume is
    k^4 * vol(B), read from B's cache.  Every sum of distinct bodies is
    hulled, so this route stays independent of the facet form.
    """
    bodies = (K1, K2, K3, K4)
    _check_quadruple(bodies)
    # equal bodies are found by ==, on the vertices, identity first, as tuple
    # membership compares
    distinct = [K for i, K in enumerate(bodies) if K not in bodies[:i]]
    mults = [bodies.count(B) for B in distinct]

    acc = Fraction(0)
    # the first vector is zero, the empty subset
    for ks in list(product(*(range(m + 1) for m in mults)))[1:]:
        used = [(k, B) for k, B in zip(ks, distinct) if k]
        if len(used) == 1:
            [(k, B)] = used
            vol = k**4 * B.volume()
        else:
            groups = [[tuple(k * x for x in v) for v in B.vertices] for k, B in used]
            vol = _sum_points(groups).volume()
        acc += (-1) ** (4 - sum(ks)) * prod(map(comb, mults, ks)) * vol
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
