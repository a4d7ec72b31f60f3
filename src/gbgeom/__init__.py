"""Exact Groebner-basis computation and planarity analysis of surface intersections.

The package computes reduced lexicographic Groebner bases over the rationals
and over parametric coefficient fields Q(a, b, ...), decides whether the
intersection of algebraic surfaces lies in a plane, and carries a complete
case study of a ruled surface whose plane sections are never non-degenerate
conics.  All arithmetic is exact; there are no runtime dependencies outside
the standard library.
"""

from .coefficients import (
    ParamFraction,
    ParamPoly,
    fraction_gcd,
    normalize_fraction,
    param_poly_gcd,
    param_poly_lcm,
)
from .conoid import (
    AXES,
    CONCLUSION,
    CONSTRAINT_MONOMIALS,
    SECTION_KINDS,
    ConicCandidateFamily,
    ConoidParams,
    ConoidVerdict,
    SectionLine,
    SectionReport,
    axis_section,
    conic_constraint_basis,
    conic_constraints,
    conoid_surface,
    egg_curve,
    final_verdict,
    plane_projection,
    quintic_decomposition_check,
    solve_conic_constraints,
    verify_section_lines,
)
from .division import DivisionResult, multivariate_divide, normal_form
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_groebner,
    minimalize,
    reduce_basis,
    reduced_basis,
    s_polynomial,
)
from .parsing import ParseError, SystemFile, parse_expression, parse_system, read_system
from .planarity import (
    LTMembershipReport,
    PlaneDetection,
    PlaneFamily,
    detect_planes,
    lt_membership,
    scan_linear,
)
from .polynomials import (
    RENDER_MODES,
    Polynomial,
    Term,
    VarContext,
    clear_denominators,
    coefficient_of,
    leading_parts,
    render,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CONCLUSION",
    "CONSTRAINT_MONOMIALS",
    "ConicCandidateFamily",
    "ConoidParams",
    "ConoidVerdict",
    "DivisionResult",
    "GroebnerBasis",
    "LTMembershipReport",
    "ParamFraction",
    "ParamPoly",
    "ParseError",
    "PlaneDetection",
    "PlaneFamily",
    "Polynomial",
    "RENDER_MODES",
    "SECTION_KINDS",
    "SectionLine",
    "SectionReport",
    "SystemFile",
    "Term",
    "VarContext",
    "axis_section",
    "buchberger",
    "clear_denominators",
    "coefficient_of",
    "conic_constraint_basis",
    "conic_constraints",
    "conoid_surface",
    "detect_planes",
    "egg_curve",
    "final_verdict",
    "fraction_gcd",
    "is_groebner",
    "leading_parts",
    "lt_membership",
    "minimalize",
    "multivariate_divide",
    "normal_form",
    "normalize_fraction",
    "param_poly_gcd",
    "param_poly_lcm",
    "parse_expression",
    "parse_system",
    "plane_projection",
    "quintic_decomposition_check",
    "read_system",
    "reduce_basis",
    "reduced_basis",
    "render",
    "s_polynomial",
    "scan_linear",
    "solve_conic_constraints",
    "substitute",
    "verify_section_lines",
    "__version__",
]
