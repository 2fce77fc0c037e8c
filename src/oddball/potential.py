"""Potential functions of odd-dimensional balls, with exact verification.

For odd n = 2p + 1 and rational radius, the potential function equals 1 on
the ball and, outside it, is a combination of the decaying kernels whose
coefficients solve the unit-RHS Hankel system.  This module assembles that
exterior function and checks, by exact coefficient arithmetic, every
property claimed of it: the p+1 boundary conditions, annihilation by
(I - Laplacian)^(p+1), and the closed form for the first nonvanishing
boundary derivative.

Exponential bookkeeping: the true exterior is e^(radius) times the stored
ExpLaurent (one global constant, never evaluated).  Boundary values at
r = radius see that constant cancel against e^(-radius), and identities with
a zero right-hand side are scale-free, so every check below reduces to
rational-coefficient arithmetic.  The numeric oracle,
`oracles.potential_value`, multiplies the constant back in at working
precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bessel import reverse_bessel
from .errors import SingularMatrix, odd_dimension, positive_radius
from .explaurent import ExpLaurent
from .hankel import hankel_det, unit_solution
from .poly import RatFunc


class Potential(NamedTuple):
    """Potential function of the n-ball of the given radius.

    coeff_funcs are the solution of the Hankel system as rational functions
    of the radius; coeffs are their exact values at this radius.  exterior is
    the outside part divided by the constant e^(radius).
    """

    n: int
    p: int
    radius: Fraction
    coeff_funcs: tuple
    coeffs: tuple
    exterior: ExpLaurent


def build_potential(n: int, radius) -> Potential:
    """Assemble the potential of the n-ball of rational radius > 0."""
    p = odd_dimension(n)
    radius = positive_radius(radius)
    if hankel_det(p + 1, 0)(radius) == 0:
        raise SingularMatrix(f"Hankel system singular at radius {radius}")
    coeff_funcs = unit_solution(p)
    coeffs = tuple(f(radius) for f in coeff_funcs)
    bessels = reverse_bessel(p)
    exterior = ExpLaurent.zero()
    for i, c in enumerate(coeffs):
        scalar = c * radius ** (2 * i)
        poly = bessels.poly(i)
        term = ExpLaurent({k - 2 * i: scalar * ck for k, ck in enumerate(poly.coeffs)})
        exterior = exterior + term
    return Potential(n, p, radius, coeff_funcs, coeffs, exterior)


def verify_boundary_conditions(pot: Potential) -> bool:
    """h(radius) = 1 and the first p derivatives vanish there, exactly."""
    f = pot.exterior
    if f.laurent_at(pot.radius) != 1:
        return False
    for _ in range(pot.p):
        f = f.diff()
        if f.laurent_at(pot.radius) != 0:
            return False
    return True


def verify_annihilation(pot: Potential) -> bool:
    """(I - Laplacian)^(p+1) kills the exterior part, exactly."""
    g = pot.exterior
    for _ in range(pot.p + 1):
        g = g - g.laplacian(pot.n)
    return g.is_zero


def boundary_limit_derivative(n: int) -> RatFunc:
    """Limit from above of the (p+1)-st radial derivative at the boundary,
    as a rational function of the radius: minus the offset-1 Hankel
    determinant over R^(p+1) times the offset-0 one."""
    p = odd_dimension(n)
    num = -hankel_det(p + 1, 1)
    den = hankel_det(p + 1, 0).shift(p + 1)
    return RatFunc(num, den)


def verify_limit_derivative(pot: Potential) -> bool:
    """Differentiate the exterior p+1 times and compare with the closed form."""
    g = pot.exterior
    for _ in range(pot.p + 1):
        g = g.diff()
    return g.laurent_at(pot.radius) == boundary_limit_derivative(pot.n)(pot.radius)
