"""Kernel and reverse-Bessel generation (both routes), table invariants,
and the derivative-conversion triangle against its closed form."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from oddball import oracles
from oddball.bessel import reverse_bessel
from oddball.errors import InexactDivision, TableTooSmall
from oddball.explaurent import ExpLaurent
from oddball.oracles import (
    IndexOutOfTriangle,
    KernelTable,
    NonpolynomialResidue,
    bessel_from_kernels,
    deriv_coeff,
    deriv_triangle,
    kernel_table,
)
from oddball.poly import IntPoly

PRINTED_KERNELS = [
    {0: 1},
    {-1: 1},
    {-2: 1, -3: 1},
    {-3: 1, -4: 3, -5: 3},
    {-4: 1, -5: 6, -6: 15, -7: 15},
]

PRINTED_POLYS = [
    (1,),
    (0, 1),
    (0, 1, 1),
    (0, 3, 3, 1),
    (0, 15, 15, 6, 1),
]


class TestKernels:
    def test_printed_table(self):
        kt = kernel_table(4)
        for i, want in enumerate(PRINTED_KERNELS):
            assert kt.funcs[i].terms == {k: Fraction(v) for k, v in want.items()}

    def test_exponent_window(self):
        kt = kernel_table(30)
        for i in range(1, 31):
            f = kt.funcs[i]
            assert min(f.terms) == -(2 * i - 1)
            assert max(f.terms) == -i

    def test_nonnegative_integer_coefficients(self):
        for f in kernel_table(30).funcs:
            for c in f.terms.values():
                assert c.denominator == 1 and c >= 0


class TestBesselTables:
    def test_printed_table_both_routes(self):
        from_kernels = bessel_from_kernels(kernel_table(4))
        by_recurrence = reverse_bessel(4)
        for i, want in enumerate(PRINTED_POLYS):
            assert from_kernels.polys[i].coeffs == want
            assert by_recurrence.polys[i].coeffs == want

    def test_recurrence_steps(self):
        t = reverse_bessel(3)
        assert t.polys[2] == IntPoly([0, 1, 1])          # 1*B_1 + R^2*B_0
        assert t.polys[3] == IntPoly([0, 3, 3, 1])       # 3*B_2 + R^2*B_1

    def test_routes_agree_to_forty(self):
        assert bessel_from_kernels(kernel_table(40)).polys == reverse_bessel(40).polys

    def test_structural_invariants(self):
        t = reverse_bessel(40)
        for i, p in enumerate(t.polys):
            assert p.degree == i
            assert p.leading == 1
            assert all(c >= 0 for c in p.coeffs)
            if i >= 1:
                assert p(0) == 0

    def test_table_too_small(self):
        with pytest.raises(TableTooSmall):
            reverse_bessel(3).poly(4)

    def test_nonpolynomial_residue_detected(self):
        corrupt = KernelTable(1, (ExpLaurent({0: 1}), ExpLaurent({-3: Fraction(1)})))
        with pytest.raises(NonpolynomialResidue):
            bessel_from_kernels(corrupt)


class TestDerivTriangle:
    def test_base_and_fixture_entries(self):
        tri = deriv_triangle(5)
        assert tri.value(1, 1) == 1
        # values agreed by both the recurrence and the closed form
        assert tri.value(2, 1) == 1
        assert tri.value(3, 1) == 3
        assert tri.value(4, 1) == 15
        assert tri.rows[4] == (105, 105, 45, 10, 1)

    def test_diagonal_is_one(self):
        tri = deriv_triangle(20)
        for j in range(1, 21):
            assert tri.value(j, j) == 1
            assert deriv_coeff(j, j) == 1

    def test_recurrence_equals_closed_form(self):
        tri = deriv_triangle(40)
        for j in range(1, 41):
            for k in range(1, j + 1):
                assert tri.value(j, k) == deriv_coeff(j, k)

    def test_out_of_triangle(self):
        tri = deriv_triangle(5)
        for j, k in ((0, 0), (3, 0), (3, 4), (6, 1)):
            with pytest.raises(IndexOutOfTriangle):
                tri.value(j, k)
        with pytest.raises(IndexOutOfTriangle):
            deriv_coeff(2, 3)

    def test_nonintegral_closed_form_is_typed(self, monkeypatch):
        # with m! replaced by 3^m, (j, k) = (2, 1) gives 3^2 / (2 * 3^1 * 3^0) = 3/2
        monkeypatch.setattr(oracles, "math", SimpleNamespace(factorial=lambda m: 3 ** m))
        with pytest.raises(InexactDivision):
            deriv_coeff(2, 1)

    def test_expansion_identity(self):
        # the triangle actually converts iterated -(1/r) d/dr into plain
        # derivatives: check against the kernel sequence with g_0 = e^-r,
        # whose k-th derivative is (-1)^k e^-r.
        kt = kernel_table(8)
        tri = deriv_triangle(8)
        for j in range(1, 9):
            expansion = ExpLaurent.zero()
            for k in range(1, j + 1):
                # (-1)^k d[j][k] g0^(k) / r^(2j-k) with g0^(k) = (-1)^k e^-r
                expansion = expansion + ExpLaurent({-(2 * j - k): Fraction(tri.value(j, k))})
            assert expansion == kt.funcs[j]


class TestLadderAndODE:
    def test_ladder(self):
        for p in range(13):
            n = 2 * p + 1
            kt = kernel_table(p + 1)
            for i in range(p):
                lhs = kt.funcs[i] - kt.funcs[i].laplacian(n)
                assert lhs == kt.funcs[i + 1].scale(n - 1 - 2 * i)

    def test_nilpotency(self):
        for p in range(13):
            n = 2 * p + 1
            kt = kernel_table(p)
            for i in range(p + 1):
                g = kt.funcs[i]
                for _ in range(p + 1):
                    g = g - g.laplacian(n)
                assert g.is_zero

    def test_second_order_ode(self):
        kt = kernel_table(25)
        for i, f in enumerate(kt.funcs):
            residue = f.diff().diff() + f.diff().mul_rpow(-1).scale(2 * i) - f
            assert residue.is_zero
