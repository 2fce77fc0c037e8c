"""Exact computation of the magnitude of odd-dimensional Euclidean balls.

The magnitude of the n-ball of radius R (n odd) is a rational function of R.
This package computes it exactly, by three independent routes built on
reverse Bessel polynomials and fraction-free Hankel-determinant linear
algebra, assembles and verifies the ball's potential function, and mechanizes
the identities and conjectures relating all of these at desk scale.
"""

from .bessel import (
    BesselTable,
    DerivTriangle,
    KernelTable,
    bessel_by_recurrence,
    bessel_from_kernels,
    deriv_coeff,
    deriv_triangle,
    kernel_table,
    reverse_bessel,
)
from .errors import OddballError
from .explaurent import DEFAULT_PRECISION, ExpLaurent
from .hankel import (
    PolyMatrix,
    build_hankel,
    det_bareiss,
    det_minor_expansion,
    hankel_det,
    solve_unit_rhs,
    unit_solution,
)
from .magnitude import (
    border_polys,
    boundary_value_at,
    derivative_conjecture_rhs,
    magnitude_boundary,
    magnitude_det,
    magnitude_explicit,
    magnitude_hankel,
    verify_derivative_conjecture,
    verify_formula_equality,
    verify_integral_lemma,
    verify_observation,
    verify_triple_route,
)
from .poly import IntPoly, RatFunc, format_poly, format_ratfunc, parse_poly, poly_gcd
from .potential import (
    Potential,
    boundary_limit_derivative,
    build_potential,
    h_sequence,
    verify_annihilation,
    verify_boundary_conditions,
    verify_limit_derivative,
)

__version__ = "1.0.0"

__all__ = [
    "BesselTable",
    "DEFAULT_PRECISION",
    "DerivTriangle",
    "ExpLaurent",
    "IntPoly",
    "KernelTable",
    "OddballError",
    "PolyMatrix",
    "Potential",
    "RatFunc",
    "bessel_by_recurrence",
    "bessel_from_kernels",
    "border_polys",
    "boundary_limit_derivative",
    "boundary_value_at",
    "build_hankel",
    "build_potential",
    "deriv_coeff",
    "deriv_triangle",
    "derivative_conjecture_rhs",
    "det_bareiss",
    "det_minor_expansion",
    "format_poly",
    "format_ratfunc",
    "h_sequence",
    "hankel_det",
    "kernel_table",
    "magnitude_boundary",
    "magnitude_det",
    "magnitude_explicit",
    "magnitude_hankel",
    "parse_poly",
    "poly_gcd",
    "reverse_bessel",
    "solve_unit_rhs",
    "unit_solution",
    "verify_annihilation",
    "verify_boundary_conditions",
    "verify_derivative_conjecture",
    "verify_formula_equality",
    "verify_integral_lemma",
    "verify_limit_derivative",
    "verify_observation",
    "verify_triple_route",
]
