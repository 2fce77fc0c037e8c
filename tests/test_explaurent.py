"""The e^(-r) Laurent algebra: differentiation, the radial Laplacian,
closure, and numeric evaluation."""

from fractions import Fraction

import mpmath
import pytest

from oddball.errors import EvenDimension, NonpositiveRadius
from oddball.explaurent import ExpLaurent
from oddball.oracles import explaurent_value, kernel_table


def _el(d):
    return ExpLaurent({k: Fraction(v) for k, v in d.items()})


K0 = _el({0: 1})                      # e^-r
K1 = _el({-1: 1})                     # e^-r / r
K2 = _el({-2: 1, -3: 1})


class TestDiff:
    def test_exponential(self):
        assert K0.diff() == _el({0: -1})

    def test_product_rule_and_ladder(self):
        d1 = K1.diff()
        assert d1 == _el({-1: -1, -2: -1})
        # -(1/r) d/dr applied to K1 gives K2
        assert d1.mul_rpow(-1).scale(-1) == K2

    def test_zero(self):
        assert ExpLaurent.zero().diff().is_zero


class TestLaplacian:
    def test_ladder_step_dimension_five(self):
        lhs = K0 - K0.laplacian(5)
        assert lhs == K1.scale(4)

    def test_annihilation_top_of_ladder(self):
        # in n = 2p+1 the operator I - Lap kills the p-th kernel
        for p in (1, 2, 3, 4):
            n = 2 * p + 1
            k = kernel_table(p).funcs[p]
            assert (k - k.laplacian(n)).is_zero

    def test_dimension_one(self):
        assert K0.laplacian(1) == K0
        assert (K0 - K0.laplacian(1)).is_zero

    def test_even_dimension_rejected(self):
        with pytest.raises(EvenDimension):
            K0.laplacian(4)

    def test_closure(self):
        out = K2.laplacian(7)
        assert isinstance(out, ExpLaurent)
        assert min(out.terms) >= min(K2.terms) - 2


class TestAlgebra:
    def test_add_cancel(self):
        assert (K2 - K2).is_zero
        assert K1 + ExpLaurent.zero() == K1

    def test_scale(self):
        assert K1.scale(0).is_zero
        assert K1.scale(Fraction(2, 3)).terms == {-1: Fraction(2, 3)}

    def test_mul_rpow(self):
        assert K2.mul_rpow(3) == _el({1: 1, 0: 1})
        assert K2.mul_rpow(0) is K2

    def test_no_zero_entries_stored(self):
        f = _el({0: 1, 5: 0})
        assert 5 not in f.terms


class TestEvaluation:
    def test_laurent_at(self):
        assert K2.laurent_at(Fraction(1)) == 2
        assert K2.laurent_at(Fraction(1, 2)) == 4 + 8

    def test_numeric_values(self):
        with mpmath.workprec(128):
            assert abs(explaurent_value(K0, 1) - mpmath.exp(-1)) < mpmath.mpf(10) ** -35
            assert abs(explaurent_value(K1, 2) - mpmath.exp(-2) / 2) < mpmath.mpf(10) ** -35
            assert abs(explaurent_value(K2, 1) - 2 * mpmath.exp(-1)) < mpmath.mpf(10) ** -35

    def test_positive_point_required(self):
        with pytest.raises(NonpositiveRadius):
            explaurent_value(K1, 0)
        with pytest.raises(NonpositiveRadius):
            explaurent_value(K1, Fraction(-1, 2))

