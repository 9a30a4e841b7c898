"""minkval: exact rational convex geometry and Minkowski valuations on C^2 = R^4.

The kernel handles vertex-representation polytopes in ambient dimension 2-4
with exact Fraction coordinates; on top of it sit mixed volumes, the complex
structure of R^4 (determinant pairing, duality map, group actions), the
valuation operators, and a property-verification harness where every check
is exact rational equality.
"""

from .cplx import (
    ComplexMatrix2,
    Cplx,
    DualPolytope,
    complex_scale,
    det_duality,
    det_duality_inverse,
    det_image,
    det_pair,
    dual_action,
    dual_scalar_scale,
    group_action,
)
from .harness import (
    DecompositionTable,
    PropertyReport,
    check_degenerate_vanishing,
    check_equivariance,
    check_uniqueness_translates,
    check_valuation_additivity,
    homogeneous_decomposition,
    run_suite,
    verify_shear_simplex_area_measure,
)
from .mixed import HomogeneousFunction, mixed_volume, mixed_volume_31, mixed_volume_fn
from .polytope import (
    AreaMeasure,
    Facet,
    Polytope,
    affine_transform,
    convex_hull,
    minkowski_sum,
    split_by_hyperplane,
)
from .valuations import (
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
    covariant_of,
)

__all__ = [
    "AreaMeasure",
    "ComplexMatrix2",
    "Cplx",
    "DecompositionTable",
    "DualPolytope",
    "Facet",
    "HomogeneousFunction",
    "Polytope",
    "PropertyReport",
    "SupportEvaluator",
    "ValuationOp",
    "affine_transform",
    "apply_valuation",
    "check_degenerate_vanishing",
    "check_equivariance",
    "check_uniqueness_translates",
    "check_valuation_additivity",
    "complex_scale",
    "convex_hull",
    "covariant_of",
    "det_duality",
    "det_duality_inverse",
    "det_image",
    "det_pair",
    "dual_action",
    "dual_scalar_scale",
    "group_action",
    "homogeneous_decomposition",
    "minkowski_sum",
    "mixed_volume",
    "mixed_volume_31",
    "mixed_volume_fn",
    "run_suite",
    "split_by_hyperplane",
    "verify_shear_simplex_area_measure",
]

__version__ = "0.1.0"
