"""Potential-function assembly and its exact verifications: boundary
conditions, annihilation, the h-chain, and the boundary limit derivative."""

from fractions import Fraction

import mpmath
import pytest

from oddball.errors import EvenDimension, NonpositiveRadius
from oddball.explaurent import ExpLaurent
from oddball.golden import LIMIT_DERIVATIVE
from oddball.potential import (
    boundary_limit_derivative,
    build_potential,
    h_sequence,
    verify_annihilation,
    verify_boundary_conditions,
    verify_limit_derivative,
)


class TestBuild:
    def test_dimension_one_is_bare_exponential(self):
        for radius in (1, 2, Fraction(7, 3)):
            pot = build_potential(1, radius)
            assert pot.exterior == ExpLaurent.exponential()
            assert verify_boundary_conditions(pot)
            assert verify_annihilation(pot)

    def test_three_ball_radius_one(self):
        pot = build_potential(3, 1)
        assert pot.coeffs == (Fraction(2), Fraction(-1))
        assert pot.exterior == ExpLaurent({0: Fraction(2), -1: Fraction(-1)})
        assert pot.exterior.laurent_at(Fraction(1)) == 1

    def test_errors(self):
        with pytest.raises(EvenDimension):
            build_potential(4, 1)
        with pytest.raises(NonpositiveRadius):
            build_potential(3, 0)
        with pytest.raises(NonpositiveRadius):
            build_potential(3, Fraction(-1, 2))

    def test_decay_representation(self):
        # finite support under the e^-r factor forces decay at infinity
        pot = build_potential(7, Fraction(1, 2))
        assert len(pot.exterior.terms) < 30
        assert pot.value_at(pot.radius + 40) < mpmath.mpf(10) ** -12


class TestBoundaryConditions:
    @pytest.mark.parametrize("n,radius", [
        (3, 1),
        (1, 2),
        (7, Fraction(1, 2)),
        (9, Fraction(7, 3)),
        (11, 2),
    ])
    def test_holds(self, n, radius):
        assert verify_boundary_conditions(build_potential(n, radius))

    def test_detects_corruption(self):
        pot = build_potential(3, 1)
        broken = type(pot)(
            n=pot.n, p=pot.p, radius=pot.radius, coeff_funcs=pot.coeff_funcs,
            coeffs=pot.coeffs, exterior=pot.exterior + ExpLaurent({2: Fraction(1, 7)}),
        )
        assert not verify_boundary_conditions(broken)
        assert not verify_annihilation(broken)


class TestAnnihilation:
    @pytest.mark.parametrize("n,radius", [
        (5, 1),
        (1, 3),
        (9, Fraction(2, 3)),
        (13, Fraction(1, 2)),
    ])
    def test_holds(self, n, radius):
        assert verify_annihilation(build_potential(n, radius))


class TestHSequence:
    def test_j_zero_is_exterior(self):
        pot = build_potential(5, 1)
        assert h_sequence(pot, 0) == pot.exterior

    def test_boundary_zeros(self):
        pot = build_potential(3, 1)
        assert h_sequence(pot, 1).laurent_at(Fraction(1)) == 0
        pot = build_potential(5, 1)
        assert h_sequence(pot, 1).laurent_at(Fraction(1)) == 0
        assert h_sequence(pot, 2).laurent_at(Fraction(1)) == 0

    def test_routes_agree_through_p_plus_one(self):
        for n in range(1, 26, 2):
            p = (n - 1) // 2
            pot = build_potential(n, Fraction(3, 2))
            for j in range(p + 2):
                h_sequence(pot, j)  # raises RouteMismatch on any disagreement

    def test_chain_values_vanish_up_to_p(self):
        pot = build_potential(11, Fraction(1, 2))
        for j in range(1, pot.p + 1):
            assert h_sequence(pot, j).laurent_at(pot.radius) == 0
        assert h_sequence(pot, pot.p + 1).laurent_at(pot.radius) != 0

    def test_route_mismatch_detected(self):
        from oddball.errors import RouteMismatch
        pot = build_potential(3, 1)
        broken = type(pot)(
            n=pot.n, p=pot.p, radius=pot.radius, coeff_funcs=pot.coeff_funcs,
            coeffs=pot.coeffs, exterior=pot.exterior + ExpLaurent({4: Fraction(1)}),
        )
        with pytest.raises(RouteMismatch):
            h_sequence(broken, 1)


class TestLimitDerivative:
    def test_golden_table(self):
        for n, want in LIMIT_DERIVATIVE.items():
            assert boundary_limit_derivative(n) == want

    def test_even_dimension(self):
        with pytest.raises(EvenDimension):
            boundary_limit_derivative(6)

    def test_direct_differentiation_agrees(self):
        for n, radius in ((3, 1), (1, 5), (7, 2)):
            assert verify_limit_derivative(build_potential(n, radius)), (n, radius)

    def test_three_ball_value(self):
        # both routes give -3 at radius 1
        pot = build_potential(3, 1)
        g = pot.exterior.diff().diff()
        assert g.laurent_at(Fraction(1)) == -3
        assert boundary_limit_derivative(3)(Fraction(1)) == -3

    def test_one_ball_constant(self):
        for radius in (1, 5, Fraction(1, 3)):
            assert boundary_limit_derivative(1)(Fraction(radius)) == -1


class TestNumericSanity:
    def test_h_between_zero_and_one_on_grid(self):
        for n, radius in ((3, Fraction(1)), (7, Fraction(2)), (5, Fraction(1, 2))):
            pot = build_potential(n, radius)
            assert pot.value_at(radius) == pytest.approx(1.0, abs=1e-25)
            for k in range(1, 51):
                r = radius + Fraction(k, 5)
                v = pot.value_at(r)
                assert 0 <= v <= 1, (n, radius, r, v)

    def test_inside_is_one(self):
        pot = build_potential(3, 2)
        assert pot.value_at(Fraction(1, 2)) == 1
