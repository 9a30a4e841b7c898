"""Minkowski valuations on bodies in W = C^2, with explicit polytope outputs
and formula-direct support evaluators.

Contravariant operators (projection body, complex projection body, the
dual-twisted complex difference body, and their sum) land in W* and are
returned as DualPolytope; covariant ones (difference body, complex difference
body) stay in W.  Every operator ships two faces: a reconstruction that
returns the output body as an explicit polytope, and a SupportEvaluator that
computes h(ZK, w) straight from the defining formula.  The two agree exactly
and the harness checks it.

The operator kinds, with every fact that tells them apart, are the entries
of OPERATORS; their keys, plus cov_of:<kind>, are the kind tokens used on
the wire and in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cplx import (
    Cplx,
    DualPolytope,
    complex_scale,
    det_duality,
    det_duality_inverse,
    det_duality_inverse_point,
    det_duality_point,
    det_pair,
    scale_point,
)
from .polytope import Polytope, convex_hull, minkowski_sum


def zero_body() -> Polytope:
    return Polytope.point((0, 0, 0, 0))


def zero_dual() -> DualPolytope:
    return DualPolytope(zero_body())


def planar_atoms(M: Polytope) -> tuple[Cplx, ...]:
    """Area-measure atoms of a planar body read as complex numbers.

    For a polygon these are the edge normals scaled by edge length; for a
    segment the two opposite normals scaled by its length; for a point there
    are none.
    """
    if M.ambient_dim != 2:
        raise ValueError("parameter body must be planar (ambient dimension 2)")
    if M.is_empty:
        raise ValueError("parameter body must be nonempty")
    return tuple(Cplx(a[0], a[1]) for a in M.area_measure())


@dataclass(frozen=True)
class ValuationOp:
    """An operator handle: kind token plus the planar parameter bodies it needs.

    kind is a key of OPERATORS, or cov_of:<key> for a contravariant key: the
    covariant companion K -> Phi^{-1}(Z K), which takes the key's parameters.
    """

    kind: str
    M: Polytope | None = None
    N: Polytope | None = None

    def __post_init__(self):
        spec = OPERATORS.get(self.kind.removeprefix("cov_of:"))
        if spec is None:
            raise ValueError(
                f"unknown operator kind {self.kind!r}; known: {', '.join(OPERATORS)}"
                ", cov_of:<contravariant kind>"
            )
        if self.is_companion and not spec.contravariant:
            raise ValueError(f"{self.kind!r}: cov_of wraps contravariant kinds only")
        for name in ("M", "N"):
            needed = name in spec.params
            body = getattr(self, name)
            if needed != (body is not None):
                raise ValueError(f"kind {self.kind!r} {'requires' if needed else 'forbids'} {name}")
            if body is not None and (body.ambient_dim != 2 or body.is_empty):
                raise ValueError(f"parameter {name} must be a nonempty planar body")

    @property
    def is_companion(self) -> bool:
        """True for a cov_of: token."""
        return self.kind.startswith("cov_of:")

    @property
    def spec(self) -> OpSpec:
        """The OPERATORS entry of the kind, or of the kind a cov_of: token wraps."""
        return OPERATORS[self.kind.removeprefix("cov_of:")]

    @property
    def params(self) -> tuple[Polytope, ...]:
        """The parameter bodies, in the order the spec's functions take them."""
        return tuple(getattr(self, p) for p in self.spec.params)

    @property
    def is_contravariant(self) -> bool:
        return self.spec.contravariant and not self.is_companion

    @property
    def homogeneity_degrees(self) -> frozenset[int]:
        return self.spec.degrees


def covariant_of(op: ValuationOp) -> ValuationOp:
    """The covariant companion K -> Phi^{-1}(Z K) of a contravariant operator."""
    return ValuationOp(f"cov_of:{op.kind}", op.M, op.N)


# -- reconstructions ------------------------------------------------------------


def _check_source(K: Polytope):
    if isinstance(K, DualPolytope):
        raise TypeError("valuations act on bodies in W, not W*")
    if K.ambient_dim != 4:
        raise ValueError("source body must live in ambient dimension 4")


def projection_body(K: Polytope) -> DualPolytope:
    """The zonotope sum of segments [-sigma_F/2, sigma_F/2] in W*.

    h(Pi K, v) = (1/2) sum_F |<sigma_F, v>| = 2 V(K, K, K, [-v, v]).
    """
    _check_source(K)
    if K.is_empty:
        return zero_dual()
    total = zero_body()
    for atom in K.area_measure():
        half = tuple(x / 2 for x in atom)
        seg = Polytope.segment(tuple(-x for x in half), half)
        total = minkowski_sum(total, seg)
    return DualPolytope(total)


def difference_body(K: Polytope) -> Polytope:
    """K + (-K); centrally symmetric, 1-homogeneous, covariant."""
    _check_source(K)
    if K.is_empty:
        return zero_body()
    return minkowski_sum(K, -K)


def complex_difference_body(M: Polytope, K: Polytope) -> Polytope:
    """Minkowski sum of the complex dilates nu_j K over the atoms of M.

    Realizes the weighted rotation average h -> integral of h(alpha K, .)
    against the boundary measure of M: the atom nu_j = len_j * u_j absorbs
    the weight by 1-homogeneity, len_j h(u_j K, xi) = h((len_j u_j) K, xi).
    """
    _check_source(K)
    atoms = planar_atoms(M)
    if K.is_empty or not atoms:
        return zero_body()
    total = zero_body()
    for nu in atoms:
        total = minkowski_sum(total, complex_scale(nu, K))
    return total


def complex_projection_body(N: Polytope, K: Polytope) -> DualPolytope:
    """The body in W* with h(Pi_N K, w) = V(K, K, K, N.w), N.w = {c w : c in N}.

    Reconstruction: expanding the facet form of the mixed volume, each facet
    atom sigma_F contributes (1/4) conv{lambda_{c,F} : c vertex of N} with
    lambda_{c,F} the covector w -> <sigma_F, c w>, which is conj(c) sigma_F.
    """
    _check_source(K)
    if N.ambient_dim != 2 or N.is_empty:
        raise ValueError("parameter N must be a nonempty planar body")
    if K.is_empty:
        return zero_dual()
    conj_vertices = [Cplx(c[0], c[1]).conjugate() for c in N.vertices]
    total = zero_body()
    for atom in K.area_measure():
        pts = [tuple(x / 4 for x in scale_point(c, atom)) for c in conj_vertices]
        total = minkowski_sum(total, convex_hull(pts, 4))
    return DualPolytope(total)


def dual_complex_difference_body(M: Polytope, K: Polytope) -> DualPolytope:
    """The determinant-duality image of the complex difference body.

    Primary construction: apply the duality map to complex_difference_body.
    The planar-integral route over det(K, w) is available through the
    support evaluator and is pinned to conjugated atoms by the harness.
    """
    _check_source(K)
    return det_duality(complex_difference_body(M, K))


def combined_contravariant(M: Polytope, N: Polytope, K: Polytope) -> DualPolytope:
    """Sum of the degree-1 and degree-3 contravariant parts."""
    return dual_complex_difference_body(M, K) + complex_projection_body(N, K)


# -- support evaluators ------------------------------------------------------------
#
# Each takes the kind's parameter bodies and K and returns w -> h(Z K, w) for
# a Fraction direction w.  They read K only through its vertices and area
# measure, never through a reconstruction.

def _projection_support(K: Polytope):
    """h(Pi K, w) = (1/2) sum_F |<sigma_F, w>|."""
    atoms = tuple(K.area_measure())

    def h(w) -> Fraction:
        total = Fraction(0)
        for atom in atoms:
            total += abs(sum(a * x for a, x in zip(atom, w)))
        return total / 2

    return h


def _difference_support(K: Polytope):
    """h(K + (-K), w) = h(K, w) + h(K, -w)."""
    return lambda w: K.support(w) + K.support(tuple(-x for x in w))


def _complex_difference_support(M: Polytope, K: Polytope):
    """h(D_M K, xi) = sum_j h(K, conj(nu_j) xi) over the atoms nu_j of M."""
    conj_atoms = [nu.conjugate() for nu in planar_atoms(M)]

    def h(xi) -> Fraction:
        total = Fraction(0)
        for c in conj_atoms:
            total += K.support(scale_point(c, xi))
        return total

    return h


def _complex_projection_support(N: Polytope, K: Polytope):
    """h(Pi_N K, w) = (1/4) sum_F max_{c vertex of N} <sigma_F, c w>."""
    atoms = tuple(K.area_measure())
    scalars = [Cplx(c[0], c[1]) for c in N.vertices]

    def h(w) -> Fraction:
        total = Fraction(0)
        scaled = [scale_point(c, w) for c in scalars]
        for atom in atoms:
            total += max(sum(a * x for a, x in zip(atom, cw)) for cw in scaled)
        return total / 4

    return h


def _dual_complex_difference_support(M: Polytope, K: Polytope):
    """h(Phi D_M K, w) = h(D_M K, Phi^T w), and Phi^T = Phi^{-1}."""
    d_m = _complex_difference_support(M, K)
    return lambda w: d_m(det_duality_inverse_point(w))


def _combined_support(M: Polytope, N: Polytope, K: Polytope):
    """The degree-1 part plus the degree-3 part."""
    deg1 = _dual_complex_difference_support(M, K)
    deg3 = _complex_projection_support(N, K)
    return lambda w: deg1(w) + deg3(w)


# -- the operator table ------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """Everything that distinguishes one operator kind of the family.

    params names the planar parameter bodies ("M", "N") in the order that
    reconstruct(*params, K) and support(*params, K) take them.  The two
    functions are independent: each is the other's oracle.
    """

    params: tuple[str, ...]
    contravariant: bool
    degrees: frozenset[int]
    reconstruct: Callable[..., Polytope | DualPolytope]
    support: Callable[..., Callable[[tuple], Fraction]]


OPERATORS: dict[str, OpSpec] = {
    "proj": OpSpec((), True, frozenset({3}), projection_body, _projection_support),
    "diff": OpSpec((), False, frozenset({1}), difference_body, _difference_support),
    "d_m": OpSpec(("M",), False, frozenset({1}), complex_difference_body,
                  _complex_difference_support),
    "pi_n": OpSpec(("N",), True, frozenset({3}), complex_projection_body,
                   _complex_projection_support),
    "dtilde_m": OpSpec(("M",), True, frozenset({1}), dual_complex_difference_body,
                       _dual_complex_difference_support),
    "z_combined": OpSpec(("M", "N"), True, frozenset({1, 3}), combined_contravariant,
                         _combined_support),
}


def apply_valuation(op: ValuationOp, K: Polytope) -> Polytope | DualPolytope:
    """Evaluate the operator as an explicit output body."""
    out = op.spec.reconstruct(*op.params, K)
    return det_duality_inverse(out) if op.is_companion else out


class SupportEvaluator:
    """Evaluates h(Z K, .) directly from the defining formula.

    Exact at every rational direction; agrees with the support function of
    the reconstructed body (tested).  The direction argument lives in W for
    contravariant kinds and in W* for covariant ones.
    """

    def __init__(self, op: ValuationOp, K: Polytope):
        _check_source(K)
        self.op = op
        self.K = K
        h = op.spec.support(*op.params, K)
        # h(Phi^{-1} Z K, xi) = h(Z K, Phi^{-T} xi), and Phi^{-T} = Phi
        self._h = (lambda w: h(det_duality_point(w))) if op.is_companion else h

    def at(self, w) -> Fraction:
        if len(w) != 4:
            raise ValueError(f"direction has {len(w)} components, expected 4")
        if self.K.is_empty:
            return Fraction(0)
        return self._h(tuple(Fraction(x) for x in w))


def dual_diff_support_via_det(M: Polytope, K: Polytope, w, conjugate_atoms: bool = True) -> Fraction:
    """The planar-integral route for the dual-twisted complex difference body.

    Evaluates sum_j h(det(K, w), b_j) with the planar pairing <a, b> =
    Re(conj(a) b), where b_j is the conjugate of the j-th atom of M under
    the pinned convention (conjugate_atoms=True) or the raw atom under the
    alternative.  The consistency harness pins the convention against the
    duality-map route.
    """
    _check_source(K)
    if K.is_empty:
        return Fraction(0)
    atoms = planar_atoms(M)
    w = tuple(Fraction(x) for x in w)
    images = [det_pair(v, w) for v in K.vertices]
    total = Fraction(0)
    for nu in atoms:
        b = nu.conjugate() if conjugate_atoms else nu
        total += max(a.re * b.re + a.im * b.im for a in images)
    return total
