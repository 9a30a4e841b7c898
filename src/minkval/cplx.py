"""The complex structure W = C^2 realized on R^4.

Fixed identification (x1, y1, x2, y2) <-> (x1 + i*y1, x2 + i*y2).  Under it
complex scalar multiplication is block-diagonal and e1, i*e1, e2, i*e2 form
the standard basis.  Bodies in the dual space W* are wrapped in DualPolytope
so that W and W* cannot be mixed by accident: a DualPolytope is supported at
points of W, a plain Polytope at covectors, and the group acts on the two
sides by g and by g^{-*} respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polytope import Polytope, _require_polytope, convex_hull


@dataclass(frozen=True)
class Cplx:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "Cplx":
        return Cplx(Fraction(re), Fraction(im))

    def __add__(self, other: "Cplx") -> "Cplx":
        return Cplx(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Cplx") -> "Cplx":
        return Cplx(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Cplx") -> "Cplx":
        return Cplx(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "Cplx":
        return Cplx(-self.re, -self.im)

    def __truediv__(self, other: "Cplx") -> "Cplx":
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by complex zero")
        return Cplx(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "Cplx":
        return Cplx(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


C_ZERO = Cplx.of(0)
C_ONE = Cplx.of(1)
C_I = Cplx.of(0, 1)


def to_complex_pair(p) -> tuple[Cplx, Cplx]:
    if len(p) != 4:
        raise ValueError("expected a point of R^4")
    return Cplx(Fraction(p[0]), Fraction(p[1])), Cplx(Fraction(p[2]), Fraction(p[3]))


def from_complex_pair(z1: Cplx, z2: Cplx):
    return (z1.re, z1.im, z2.re, z2.im)


def scale_point(alpha: Cplx, p) -> tuple:
    """alpha * p on each complex coordinate of a point of C or W.

    On W* the scalar action (alpha . xi)(w) = xi(alpha w) is
    scale_point(alpha.conjugate(), xi), the transpose of the action on W.
    """
    r, s = alpha.re, alpha.im
    out = []
    for k in range(0, len(p), 2):
        x, y = p[k], p[k + 1]
        out += (r * x - s * y, s * x + r * y)
    return tuple(out)


@dataclass(frozen=True)
class ComplexMatrix2:
    """Element of GL(2, C) with exact rational entries, row-major [[a, b], [c, d]]."""

    a: Cplx
    b: Cplx
    c: Cplx
    d: Cplx

    @staticmethod
    def identity() -> "ComplexMatrix2":
        return ComplexMatrix2(C_ONE, C_ZERO, C_ZERO, C_ONE)

    @staticmethod
    def diagonal(lam: Cplx, mu: Cplx) -> "ComplexMatrix2":
        return ComplexMatrix2(lam, C_ZERO, C_ZERO, mu)

    @staticmethod
    def shear_upper(gamma: Cplx) -> "ComplexMatrix2":
        """g e1 = e1, g e2 = gamma e1 + e2."""
        return ComplexMatrix2(C_ONE, gamma, C_ZERO, C_ONE)

    @staticmethod
    def shear_lower(gamma: Cplx) -> "ComplexMatrix2":
        return ComplexMatrix2(C_ONE, C_ZERO, gamma, C_ONE)

    def det(self) -> Cplx:
        return self.a * self.d - self.b * self.c

    def is_sl(self) -> bool:
        return self.det() == C_ONE

    def inverse(self) -> "ComplexMatrix2":
        dt = self.det()
        if dt.is_zero():
            raise ValueError("singular complex matrix")
        return ComplexMatrix2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def __matmul__(self, other: "ComplexMatrix2") -> "ComplexMatrix2":
        return ComplexMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, p) -> tuple:
        z1, z2 = to_complex_pair(p)
        return from_complex_pair(self.a * z1 + self.b * z2, self.c * z1 + self.d * z2)

    def adjoint(self) -> "ComplexMatrix2":
        """The conjugate transpose g*; its real matrix is the transpose of g's."""
        return ComplexMatrix2(
            self.a.conjugate(), self.c.conjugate(), self.b.conjugate(), self.d.conjugate()
        )

    def real_matrix(self):
        """The 4x4 rational matrix of this map on (x1, y1, x2, y2)."""
        rows = []
        for blk_row in ((self.a, self.b), (self.c, self.d)):
            for part in range(2):
                row = []
                for e in blk_row:
                    if part == 0:
                        row.extend((e.re, -e.im))
                    else:
                        row.extend((e.im, e.re))
                rows.append(tuple(Fraction(x) for x in row))
        return tuple(rows)

    def scaled(self, t) -> "ComplexMatrix2":
        t = Cplx.of(t)
        return ComplexMatrix2(self.a * t, self.b * t, self.c * t, self.d * t)


@dataclass(frozen=True)
class DualPolytope:
    """A polytope living in W*; the vertex tuples are covector coordinates.

    Support evaluation takes a point of W.  Wrapping keeps the W / W*
    bookkeeping honest: operators that act on W reject DualPolytope inputs
    and vice versa.
    """

    body: Polytope

    @property
    def vertices(self):
        return self.body.vertices

    @property
    def is_empty(self) -> bool:
        return self.body.is_empty

    def support(self, w) -> Fraction:
        """max over xi in the body of <xi, w> for a point w of W."""
        return self.body.support(w)


def _require_dual(what: str, Q):
    """_require_polytope's contract for a body of W*."""
    if not isinstance(Q, DualPolytope):
        raise TypeError(f"{what} expects a DualPolytope, not {type(Q).__name__}")
    _require_polytope(what, Q.body, dim=4)


def complex_scale(alpha: Cplx, P: Polytope) -> Polytope:
    """The image {alpha * k : k in P} for P in W (ambient 4) or in C (ambient 2)."""
    _require_polytope("complex_scale", P)
    if P.ambient_dim not in (2, 4):
        raise ValueError("complex scaling needs an ambient-4 or planar body")
    return P.image(lambda v: scale_point(alpha, v))


def det_pair(u, v) -> Cplx:
    """The determinant form det(u, v) = u1 v2 - u2 v1 on W x W."""
    u1, u2 = to_complex_pair(u)
    v1, v2 = to_complex_pair(v)
    return u1 * v2 - u2 * v1


def det_image(K: Polytope, w) -> Polytope:
    """The planar body {det(k, w) : k in K} inside C."""
    _require_polytope("det_image", K, dim=4)
    w = from_complex_pair(*to_complex_pair(w))
    if K.is_empty:
        return Polytope.empty(2)
    zs = [det_pair(v, w) for v in K.vertices]
    return convex_hull([(z.re, z.im) for z in zs])


def det_duality_point(u) -> tuple:
    """Phi(u), the covector w -> Re det(u, w): (p1, q1, p2, q2) -> (-p2, q2, p1, -q1).

    Phi is a signed permutation, so its transpose is its inverse.
    """
    p1, q1, p2, q2 = u
    return (-p2, q2, p1, -q1)


def det_duality_inverse_point(xi) -> tuple:
    """Phi^{-1}(xi): (x1, y1, x2, y2) -> (x2, -y2, -x1, y1)."""
    x1, y1, x2, y2 = xi
    return (x2, -y2, -x1, y1)


def det_duality(P: Polytope) -> DualPolytope:
    """The identification W -> W*, u -> Re det(u, .), applied vertexwise."""
    _require_polytope("det_duality", P, dim=4)
    return DualPolytope(P.image(det_duality_point))


def det_duality_inverse(Q: DualPolytope) -> Polytope:
    _require_dual("det_duality_inverse", Q)
    return Q.body.image(det_duality_inverse_point)


def group_action(g: ComplexMatrix2, P: Polytope) -> Polytope:
    """gK for a body K in W."""
    _require_polytope("group_action", P, dim=4)
    if g.det().is_zero():
        raise ValueError("group_action requires invertible g")
    return P.image(g.apply)


def dual_action(g: ComplexMatrix2, Q: DualPolytope) -> DualPolytope:
    """g^{-*} Q, characterized by <g^{-*} xi, w> = <xi, g^{-1} w>."""
    _require_dual("dual_action", Q)
    return DualPolytope(Q.body.image(g.inverse().adjoint().apply))


def dual_scalar_scale(alpha: Cplx, Q: DualPolytope) -> DualPolytope:
    """Complex scalar action on W*: (alpha . xi)(w) = xi(alpha w)."""
    _require_dual("dual_scalar_scale", Q)
    return DualPolytope(complex_scale(alpha.conjugate(), Q.body))
