"""Complex-structure tests: scalar action, determinant pairing, duality map,
group actions on W and W*.
"""

from fractions import Fraction
import itertools
import random

import pytest

from minkval.cplx import (
    C_I,
    C_ONE,
    ComplexMatrix2,
    Cplx,
    DualPolytope,
    complex_scale,
    det_duality,
    det_duality_inverse,
    det_duality_inverse_point,
    det_duality_point,
    det_image,
    det_pair,
    dual_action,
    dual_scalar_scale,
    group_action,
    scale_point,
    to_complex_pair,
)
from minkval.linalg import dot, mat_apply
from minkval.polytope import Polytope, convex_hull

F = Fraction
E1 = (1, 0, 0, 0)
IE1 = (0, 1, 0, 0)
E2 = (0, 0, 1, 0)
IE2 = (0, 0, 0, 1)


def unit_cube4():
    return convex_hull(list(itertools.product((0, 1), repeat=4)))


def rand_rational(rng, span=3, max_den=6):
    return F(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_cplx(rng):
    return Cplx(rand_rational(rng), rand_rational(rng))


def rand_body(rng, nverts=6):
    while True:
        P = convex_hull(
            [tuple(rand_rational(rng) for _ in range(4)) for _ in range(nverts)]
        )
        if P.affine_dim >= 1:
            return P


def rand_invertible(rng):
    while True:
        g = ComplexMatrix2(rand_cplx(rng), rand_cplx(rng), rand_cplx(rng), rand_cplx(rng))
        if not g.det().is_zero():
            return g


def rand_sl(rng, factors=3):
    g = ComplexMatrix2.identity()
    for _ in range(factors):
        kind = rng.randrange(3)
        if kind == 0:
            g = g @ ComplexMatrix2.shear_upper(rand_cplx(rng))
        elif kind == 1:
            g = g @ ComplexMatrix2.shear_lower(rand_cplx(rng))
        else:
            lam = Cplx.of(F(rng.randint(1, 5), rng.randint(1, 5)))
            g = g @ ComplexMatrix2.diagonal(lam, C_ONE / lam)
    assert g.is_sl()
    return g


# -- complex numbers and matrices ------------------------------------------------


def test_cplx_field_ops():
    a = Cplx.of(F(1, 2), F(-3))
    b = Cplx.of(2, F(1, 3))
    assert (a * b) / b == a
    assert a * a.conjugate() == Cplx.of(a.abs2())
    assert (a + b) - b == a


def test_matrix_inverse_and_det():
    rng = random.Random(1)
    for _ in range(20):
        g = rand_invertible(rng)
        assert g @ g.inverse() == ComplexMatrix2.identity()
        h = rand_invertible(rng)
        assert (g @ h).det() == g.det() * h.det()


def test_real_matrix_matches_complex_apply():
    rng = random.Random(2)
    for _ in range(20):
        g = rand_invertible(rng)
        p = tuple(rand_rational(rng) for _ in range(4))
        assert tuple(mat_apply(g.real_matrix(), p)) == tuple(g.apply(p))
        # the real matrix of the conjugate transpose is the transpose
        assert g.adjoint().apply(p) == mat_apply(tuple(zip(*g.real_matrix())), p)


# -- complex scalar action ---------------------------------------------------------


def test_scale_by_one_and_minus_one():
    K = rand_body(random.Random(3))
    assert complex_scale(C_ONE, K) == K
    assert complex_scale(Cplx.of(-1), K) == -K


def test_scale_by_i_rotates_cube():
    K = unit_cube4()
    Q = complex_scale(C_I, K)
    expected = convex_hull([(-v[1], v[0], -v[3], v[2]) for v in K.vertices])
    assert Q == expected


def test_scale_is_ring_action():
    rng = random.Random(4)
    K = rand_body(rng)
    a, b = rand_cplx(rng), rand_cplx(rng)
    assert complex_scale(a * b, K) == complex_scale(a, complex_scale(b, K))
    p = tuple(rand_rational(rng) for _ in range(4))
    pt = Polytope.point(p)
    left = complex_scale(a + b, pt)
    right = convex_hull(
        [
            tuple(
                x + y
                for x, y in zip(complex_scale(a, pt).vertices[0], complex_scale(b, pt).vertices[0])
            )
        ]
    )
    assert left == right


# -- determinant pairing ------------------------------------------------------------


def test_det_pair_basis():
    assert det_pair(E1, E2) == C_ONE
    assert det_pair(E2, E1) == Cplx.of(-1)
    one_plus_i_e1 = (1, 1, 0, 0)
    assert det_pair(one_plus_i_e1, E2) == Cplx.of(1, 1)


def test_det_pair_antisymmetric_bilinear():
    rng = random.Random(5)
    for _ in range(20):
        u = tuple(rand_rational(rng) for _ in range(4))
        v = tuple(rand_rational(rng) for _ in range(4))
        assert det_pair(u, v) == -det_pair(v, u)
        c = rand_cplx(rng)
        cu = tuple(
            x
            for pair in [
                (
                    c.re * F(a) - c.im * F(b),
                    c.re * F(b) + c.im * F(a),
                )
                for a, b in ((u[0], u[1]), (u[2], u[3]))
            ]
            for x in pair
        )
        assert det_pair(cu, v) == c * det_pair(u, v)
        assert cu == scale_point(c, u)
        # the transpose of multiplication by c is multiplication by conj(c)
        assert dot(scale_point(c, u), v) == dot(u, scale_point(c.conjugate(), v))


def test_det_pair_equivariance():
    rng = random.Random(6)
    for _ in range(20):
        g = rand_invertible(rng)
        u = tuple(rand_rational(rng) for _ in range(4))
        v = tuple(rand_rational(rng) for _ in range(4))
        assert det_pair(g.apply(u), g.apply(v)) == g.det() * det_pair(u, v)


# -- det image ------------------------------------------------------------------------


def test_det_image_cube_is_unit_square():
    K = unit_cube4()
    Q = det_image(K, E2)
    assert Q == convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_det_image_degenerate():
    K = rand_body(random.Random(7))
    assert det_image(K, (0, 0, 0, 0)) == Polytope.point((0, 0))
    p = Polytope.point((1, 2, 3, 4))
    z = det_pair((1, 2, 3, 4), E1)
    assert det_image(p, E1) == Polytope.point((z.re, z.im))


def test_det_image_equivariance():
    rng = random.Random(8)
    for _ in range(10):
        g = rand_invertible(rng)
        K = rand_body(rng)
        w = tuple(rand_rational(rng) for _ in range(4))
        left = det_image(group_action(g, K), g.apply(w))
        right = complex_scale(g.det(), det_image(K, w))
        assert left == right


# -- duality map -----------------------------------------------------------------------


def test_duality_on_basis_vectors():
    assert det_duality_point(E1) == (0, 0, 1, 0)
    assert det_duality_point(IE2) == (0, 1, 0, 0)


def test_duality_matrix_agrees_with_pairing():
    rng = random.Random(9)
    for _ in range(20):
        u = tuple(rand_rational(rng) for _ in range(4))
        w = tuple(rand_rational(rng) for _ in range(4))
        assert dot(det_duality_point(u), w) == det_pair(u, w).re
        assert det_duality_inverse_point(det_duality_point(u)) == u
        # Phi is a signed permutation: its transpose is its inverse
        assert dot(det_duality_point(u), w) == dot(u, det_duality_inverse_point(w))


def test_duality_roundtrip():
    rng = random.Random(10)
    for _ in range(20):
        K = rand_body(rng)
        assert det_duality_inverse(det_duality(K)) == K


def test_duality_equivariance():
    # Phi(g u) = det(g) . g^{-*} Phi(u), with (c . xi)(w) = xi(c w)
    rng = random.Random(11)
    for _ in range(25):
        g = rand_invertible(rng)
        K = rand_body(rng)
        left = det_duality(group_action(g, K))
        right = dual_scalar_scale(g.det(), dual_action(g, det_duality(K)))
        assert left.body == right.body


def test_duality_equivariance_rejects_conjugate_convention():
    # the alternative scalar action (c . xi)(w) = xi(conj(c) w) breaks the identity
    g = ComplexMatrix2.diagonal(C_I, C_ONE)
    K = unit_cube4()
    left = det_duality(group_action(g, K))
    right_conj = dual_scalar_scale(g.det().conjugate(), dual_action(g, det_duality(K)))
    assert left.body != right_conj.body


# -- group actions on the two sides -------------------------------------------------------


def test_group_action_identity_and_shear():
    K = rand_body(random.Random(12))
    assert group_action(ComplexMatrix2.identity(), K) == K
    g = ComplexMatrix2.shear_upper(C_ONE)
    seg = Polytope.segment((0, 0, 0, 0), E2)
    assert group_action(g, seg) == Polytope.segment((0, 0, 0, 0), (1, 0, 1, 0))


def test_dual_action_is_antihomomorphic_pairing():
    rng = random.Random(13)
    from minkval.linalg import dot

    for _ in range(10):
        g = rand_invertible(rng)
        Q = DualPolytope(rand_body(rng))
        w = tuple(rand_rational(rng) for _ in range(4))
        gw = g.inverse().apply(w)
        assert dual_action(g, Q).support(w) == Q.support(gw)


def test_dual_action_composition():
    rng = random.Random(14)
    g1, g2 = rand_invertible(rng), rand_invertible(rng)
    Q = DualPolytope(rand_body(rng))
    left = dual_action(g1 @ g2, Q)
    right = dual_action(g1, dual_action(g2, Q))
    assert left.body == right.body


def test_w_wstar_separation():
    K = rand_body(random.Random(15))
    Q = det_duality(K)
    with pytest.raises(TypeError):
        group_action(ComplexMatrix2.identity(), Q)
    with pytest.raises(TypeError):
        dual_action(ComplexMatrix2.identity(), K)
    with pytest.raises(TypeError):
        complex_scale(C_ONE, Q)
    with pytest.raises(TypeError):
        Q + K
    planar = DualPolytope(convex_hull([(0, 0), (1, 0), (0, 1)]))
    for f in (lambda: dual_scalar_scale(C_I, planar), lambda: det_duality_inverse(planar)):
        with pytest.raises(ValueError):
            f()


@pytest.mark.parametrize("call,error,message", [
    (lambda: C_ONE / Cplx.of(0), ZeroDivisionError, "division by complex zero"),
    (lambda: to_complex_pair((1, 2, 3)), ValueError, "expected a point of R\\^4"),
    (lambda: ComplexMatrix2.diagonal(C_ONE, Cplx.of(0)).inverse(), ValueError,
     "singular complex matrix"),
    (lambda: group_action(ComplexMatrix2.diagonal(C_ONE, Cplx.of(0)), unit_cube4()),
     ValueError, "group_action requires invertible g"),
    (lambda: complex_scale(C_I, convex_hull([(0, 0, 0), (1, 1, 1)])), ValueError,
     "complex scaling needs an ambient-4 or planar body"),
    (lambda: group_action(ComplexMatrix2.identity(), [(0, 0, 0, 0)]), TypeError,
     "group_action expects a Polytope"),
], ids=["divide-by-zero", "pair-of-3", "singular-inverse", "singular-action", "scale-3d",
        "act-on-list"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
