"""Minkowski valuations on bodies in W = C^2, with explicit polytope outputs
and formula-direct support evaluators.

Contravariant operators (projection body, complex projection body, the
dual-twisted complex difference body, and their sum) land in W* and are
returned as DualPolytope; covariant ones (difference body, complex difference
body) stay in W.  Every operator ships two faces: its Minkowski summands,
which apply_valuation sums into the output body as an explicit polytope, and
a SupportEvaluator that computes h(ZK, w) straight from the defining formula.
The two agree exactly and the harness checks it.

The operator kinds, with every fact that tells them apart, are the entries
of OPERATORS; their keys, plus cov_of:<kind>, are the kind tokens used on
the wire and in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cplx import (
    Cplx,
    DualPolytope,
    det_duality_inverse_point,
    det_duality_point,
    det_image,
    scale_point,
)
from .polytope import Polytope, _direction, _require_polytope, _sum_points


def zero_body() -> Polytope:
    return Polytope.point((0, 0, 0, 0))


def planar_atoms(M: Polytope) -> tuple[Cplx, ...]:
    """Area-measure atoms of a planar body read as complex numbers.

    For a polygon these are the edge normals scaled by edge length; for a
    segment the two opposite normals scaled by its length; for a point there
    are none.
    """
    _require_polytope("planar_atoms", M, dim=2)
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
            if body is not None:
                _require_polytope(f"ValuationOp {name}", body, dim=2)
                if body.is_empty:
                    raise ValueError(f"parameter {name} must be nonempty")

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


def covariant_of(op: ValuationOp) -> ValuationOp:
    """The covariant companion K -> Phi^{-1}(Z K) of a contravariant operator."""
    return ValuationOp(f"cov_of:{op.kind}", op.M, op.N)


# -- Minkowski summands ------------------------------------------------------------


def _projection_summands(K: Polytope):
    """The segments [-sigma_F/2, sigma_F/2] in W*.

    h(Pi K, v) = (1/2) sum_F |<sigma_F, v>| = 2 V(K, K, K, [-v, v]).
    """
    return [(tuple(x / 2 for x in a), tuple(-x / 2 for x in a)) for a in K.area_measure()]


def _difference_summands(K: Polytope):
    """K + (-K); centrally symmetric, 1-homogeneous, covariant."""
    return [K.vertices, [tuple(-x for x in v) for v in K.vertices]]


def _complex_difference_summands(M: Polytope, K: Polytope):
    """The complex dilates nu_j K over the atoms of M.

    Realizes the weighted rotation average h -> integral of h(alpha K, .)
    against the boundary measure of M: the atom nu_j = len_j * u_j absorbs
    the weight by 1-homogeneity, len_j h(u_j K, xi) = h((len_j u_j) K, xi).
    """
    return [[scale_point(nu, v) for v in K.vertices] for nu in planar_atoms(M)]


def _complex_projection_summands(N: Polytope, K: Polytope):
    """Summands of the body in W* with h(Pi_N K, w) = V(K, K, K, N.w), N.w = {c w : c in N}.

    Expanding the facet form of the mixed volume, each facet atom sigma_F
    contributes (1/4) conv{lambda_{c,F} : c vertex of N} with lambda_{c,F}
    the covector w -> <sigma_F, c w>, which is conj(c) sigma_F.
    """
    conj_vertices = [Cplx(c[0], c[1]).conjugate() for c in N.vertices]
    return [[tuple(x / 4 for x in scale_point(c, atom)) for c in conj_vertices]
            for atom in K.area_measure()]


def _dual_complex_difference_summands(M: Polytope, K: Polytope):
    """The determinant-duality image of the complex difference body.

    The planar-integral route over det(K, w) is dual_diff_support_via_det,
    pinned to conjugated atoms by the harness.
    """
    return [[det_duality_point(p) for p in S] for S in _complex_difference_summands(M, K)]


def _combined_summands(M: Polytope, N: Polytope, K: Polytope):
    """The degree-1 part, then the degree-3 part."""
    return _dual_complex_difference_summands(M, K) + _complex_projection_summands(N, K)


# -- support evaluators ------------------------------------------------------------
#
# Each takes the kind's parameter bodies and K and returns a function from a
# list of cleared directions (t_i, W_i), W_i integer over t_i > 0, to their
# values in integers: (D, [n_i]) with h(Z K, W_i / t_i) = n_i / (D t_i).  They
# read K only through its vertices and area measure, never through the
# summands, and read both in the integer form the body keeps: K's vertices over
# their common s (_cleared) or its atoms over their own s (_cleared_atoms), and
# the complex scalars, the atoms of M or the vertices of N, over their own q the
# same way.  They act on the direction side: a complex scalar re + i im rotates
# a direction, and <v, (re + i im) X> = re <v, X> + im <v, i X>, so each
# direction takes two columns of dots and each scalar combines them.


def _dots(vectors, W) -> list[int]:
    """The column <v, W> over the integer 4-vectors v."""
    x1, y1, x2, y2 = W
    return [a * x1 + b * y1 + c * x2 + d * y2 for a, b, c, d in vectors]


def _projection_support(K: Polytope):
    """h(Pi K, w) = (1/2) sum_F |<sigma_F, w>|."""
    s, atoms = K._cleared_atoms()
    return lambda dirs: (2 * s, [sum(map(abs, _dots(atoms, W))) for _, W in dirs])


def _difference_support(K: Polytope):
    """h(K + (-K), w) = h(K, w) + h(K, -w) = max_v <v, w> - min_v <v, w>."""
    s, verts = K._cleared()
    return lambda dirs: (s, [max(col) - min(col) for col in (_dots(verts, W) for _, W in dirs)])


def _complex_difference_support(M: Polytope, K: Polytope):
    """h(D_M K, xi) = sum_j h(K, conj(nu_j) xi) over the atoms nu_j of M, and
    <v, conj(re + i im) X> = re <v, X> + im <v, -i X>."""
    s, verts = K._cleared()
    q, atoms = M._cleared_atoms()

    def one(x1, y1, x2, y2):
        cols = [(a * x1 + b * y1 + c * x2 + d * y2, a * y1 - b * x1 + c * y2 - d * x2)
                for a, b, c, d in verts]
        return sum([max([re * u + im * v for u, v in cols]) for re, im in atoms])

    return lambda dirs: (s * q, [one(*W) for _, W in dirs])


def _complex_projection_support(N: Polytope, K: Polytope):
    """h(Pi_N K, w) = (1/4) sum_F max_{c vertex of N} <sigma_F, c w>, and
    <sigma, (re + i im) W> = re <sigma, W> + im <sigma, i W>."""
    s, atoms = K._cleared_atoms()
    q, scalars = N._cleared()

    def one(x1, y1, x2, y2):
        cols = [(a * x1 + b * y1 + c * x2 + d * y2, b * x1 - a * y1 + d * x2 - c * y2)
                for a, b, c, d in atoms]
        return sum(map(max, zip(*[[re * u + im * v for u, v in cols] for re, im in scalars])))

    return lambda dirs: (4 * s * q, [one(*W) for _, W in dirs])


def _dual_complex_difference_support(M: Polytope, K: Polytope):
    """h(Phi D_M K, w) = h(D_M K, Phi^T w), and Phi^T = Phi^{-1}."""
    d_m = _complex_difference_support(M, K)
    return lambda dirs: d_m([(t, det_duality_inverse_point(W)) for t, W in dirs])


def _combined_support(M: Polytope, N: Polytope, K: Polytope):
    """The degree-1 part plus the degree-3 part."""
    deg1 = _dual_complex_difference_support(M, K)
    deg3 = _complex_projection_support(N, K)

    def h(dirs):
        (D1, n1), (D3, n3) = deg1(dirs), deg3(dirs)
        return D1 * D3, [a * D3 + b * D1 for a, b in zip(n1, n3)]

    return h


# -- the operator table ------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """Everything that distinguishes one operator kind of the family.

    params names the planar parameter bodies ("M", "N") in the order that
    summands(*params, K) and support(*params, K) take them.  For a nonempty
    K, summands returns point groups S_j with Z K = sum_j conv(S_j), built on
    the point side; support acts on the direction side, on a list of
    directions cleared to (t, W), and returns their values in integers.  The
    two functions are independent: each is the other's oracle.
    """

    params: tuple[str, ...]
    contravariant: bool
    degrees: frozenset[int]
    summands: Callable[..., list[Sequence[tuple]]]
    support: Callable[..., Callable[[list], tuple[int, list[int]]]]


OPERATORS: dict[str, OpSpec] = {
    "proj": OpSpec((), True, frozenset({3}), _projection_summands, _projection_support),
    "diff": OpSpec((), False, frozenset({1}), _difference_summands, _difference_support),
    "d_m": OpSpec(("M",), False, frozenset({1}), _complex_difference_summands,
                  _complex_difference_support),
    "pi_n": OpSpec(("N",), True, frozenset({3}), _complex_projection_summands,
                   _complex_projection_support),
    "dtilde_m": OpSpec(("M",), True, frozenset({1}), _dual_complex_difference_summands,
                       _dual_complex_difference_support),
    "z_combined": OpSpec(("M", "N"), True, frozenset({1, 3}), _combined_summands,
                         _combined_support),
}


def apply_valuation(op: ValuationOp, K: Polytope) -> Polytope | DualPolytope:
    """The output body: the sum of the kind's summand groups (_sum_points).
    The empty K gives the zero body."""
    _require_polytope("apply_valuation", K, dim=4)
    groups = op.spec.summands(*op.params, K) if not K.is_empty else []
    if not groups:
        total = zero_body()
    else:
        if op.is_companion:
            groups = [[det_duality_inverse_point(p) for p in S] for S in groups]
        total = _sum_points(groups)
    return DualPolytope(total) if op.is_contravariant else total


def cleared_directions(ws) -> list[tuple[int, tuple[int, ...]]]:
    """The directions of W or W* cleared to (t, W), one _direction each."""
    return [_direction(w, 4) for w in ws]


class SupportEvaluator:
    """Evaluates h(Z K, .) directly from the defining formula.

    Exact at every rational direction; agrees with the support function of
    the reconstructed body (tested).  The direction argument lives in W for
    contravariant kinds and in W* for covariant ones.  integer_form is the
    one evaluation, over many cleared directions at once; at_many and at are
    its Fraction views.
    """

    def __init__(self, op: ValuationOp, K: Polytope):
        _require_polytope("SupportEvaluator", K, dim=4)
        self.op = op
        self.K = K
        h = op.spec.support(*op.params, K)
        # h(Phi^{-1} Z K, xi) = h(Z K, Phi^{-T} xi), and Phi^{-T} = Phi
        self._h = ((lambda dirs: h([(t, det_duality_point(W)) for t, W in dirs]))
                   if op.is_companion else h)

    def integer_form(self, dirs) -> tuple[int, list[int]]:
        """(D, [n_i]) with h(Z K, W_i / t_i) = n_i / (D t_i) at the cleared
        directions (t_i, W_i) of cleared_directions."""
        if self.K.is_empty:
            return 1, [0] * len(dirs)
        return self._h(dirs)

    def at_many(self, ws) -> list[Fraction]:
        """h(Z K, w) at each direction w, in order."""
        dirs = cleared_directions(ws)
        D, ns = self.integer_form(dirs)
        return [Fraction(n, D * t) for n, (t, _) in zip(ns, dirs)]

    def at(self, w) -> Fraction:
        return self.at_many([w])[0]


def dual_diff_support_via_det(M: Polytope, K: Polytope, w, conjugate_atoms: bool = True) -> Fraction:
    """The planar-integral route for the dual-twisted complex difference body.

    Evaluates sum_j h(det(K, w), b_j) on the planar body det(K, w)
    (det_image), where b_j is the conjugate of the j-th atom of M under the
    pinned convention (conjugate_atoms=True) or the raw atom under the
    alternative; h(., b) is the planar pairing <a, b> = Re(conj(a) b).  The
    consistency harness pins the convention against the duality-map route.
    """
    _require_polytope("dual_diff_support_via_det", K, dim=4)
    atoms = planar_atoms(M)
    P = det_image(K, w)
    if P.is_empty:
        return Fraction(0)
    bs = (nu.conjugate() if conjugate_atoms else nu for nu in atoms)
    return sum((P.support((b.re, b.im)) for b in bs), Fraction(0))
