"""The valuation operators and their homogeneity decomposition.

Each operator is shown twice: as an explicit output polytope and through its
formula-direct support evaluator; the two agree exactly.  The degree table
at the end exhibits the 1 + 3 homogeneity split of the combined operator.
"""

from itertools import product

from minkval import (
    DualPolytope,
    Polytope,
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
    convex_hull,
    homogeneous_decomposition,
    mixed_volume,
)

cube = convex_hull(list(product((0, 1), repeat=4)))
seg_e4 = Polytope.segment((0, 0, 0, 0), (0, 0, 0, 1))

# Projection body of the cube: a dual cube, h = sum |v_i|.
pi_cube = apply_valuation(ValuationOp("proj"), cube)
print("projection body of the cube has", len(pi_cube.vertices), "vertices")
print("h(Pi cube, e1) =", pi_cube.support((1, 0, 0, 0)))
print("2 V(cube^3, [-e1, e1]) =", 2 * mixed_volume(cube, cube, cube,
                                                   Polytope.segment((-1, 0, 0, 0), (1, 0, 0, 0))))

# Parameter bodies in the plane: a segment and a triangle.
M = Polytope.segment((0, 0), (0, 1))
N = Polytope.segment((-1, 0), (1, 0))
triangle = convex_hull([(0, 0), (1, 0), (0, 1)])

ops = [
    ValuationOp("proj"),
    ValuationOp("diff"),
    ValuationOp("d_m", M=M),
    ValuationOp("pi_n", N=N),
    ValuationOp("dtilde_m", M=triangle),
    ValuationOp("z_combined", M=M, N=N),
]

w = (1, 2, -1, 3)
print("\noperator     reconstruction == evaluator at", w)
for op in ops:
    out = apply_valuation(op, cube)
    body = out.body if isinstance(out, DualPolytope) else out
    ev = SupportEvaluator(op, cube).at(w)
    print(f"  {op.kind:11s} {str(body.support(w)):>10s} == {str(ev):>10s}")
    assert body.support(w) == ev

# Homogeneity decomposition: h(Z(lam K), w) as an exact polynomial in lam.
print("\ndegree coefficients c_0..c_4 at", w)
for op in ops:
    table = homogeneous_decomposition(op, cube, [w])
    row = ", ".join(str(c) for c in table.coefficients[0])
    print(f"  {op.kind:11s} [{row}]")
