"""Polynomial and rational-function arithmetic: spec examples, ring axioms,
reduction canonicity, and the numeric derivative cross-check; property tests
of the kernels' edge cases against independent oracles: evaluation for
products on both sides of the Kronecker cutoff and the schoolbook loop for
its sign halves, sympy for the gcd's certificate and its pseudo-remainder
fallback."""

import functools
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddball import magnitude, poly
from oddball.errors import InexactDivision, InputError, ParseError, ZeroDenominator
from oddball.oracles import parse_poly
from oddball.poly import (
    IntPoly,
    RatFunc,
    format_poly,
    format_ratfunc,
    poly_gcd,
)

R = IntPoly.variable()
CHI2 = IntPoly([0, 1, 1])
CHI3 = IntPoly([0, 3, 3, 1])
CHI4 = IntPoly([0, 15, 15, 6, 1])
MAG3_NUM = IntPoly([6, 12, 6, 1])


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _random_poly(rng, max_deg=30, bound=2**64):
    deg = rng.randrange(0, max_deg + 1)
    return IntPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


class TestIntPoly:
    def test_add(self):
        assert R + CHI2 == IntPoly([0, 2, 1])

    def test_mul(self):
        assert R * IntPoly([1, 1]) == CHI2

    def test_zero_absorbs(self):
        z = IntPoly.zero() * CHI3
        assert z.is_zero and z.coeffs == ()

    def test_scale(self):
        assert 3 * CHI2 == IntPoly([0, 3, 3])
        assert 0 * CHI2 == IntPoly.zero()

    def test_derivative(self):
        assert MAG3_NUM.derivative() == IntPoly([12, 12, 3])
        assert IntPoly([6]).derivative().is_zero
        assert CHI4.derivative() == IntPoly([15, 30, 18, 4])

    def test_eval(self):
        assert CHI3(1) == 7
        assert CHI3(0) == 0
        assert IntPoly([5, 7])(0) == 5
        assert CHI2(Fraction(1, 2)) == Fraction(3, 4)

    def test_shift(self):
        assert R.shift(2) == IntPoly([0, 0, 0, 1])
        assert IntPoly([0, 0, 6]).shift_down(2) == IntPoly([6])
        with pytest.raises(InexactDivision):
            IntPoly([1, 2]).shift_down(1)
        with pytest.raises(InputError):
            IntPoly([1, 2]).shift(-1)
        with pytest.raises(InputError):
            IntPoly([0, 0, 5]).shift_down(-1)

    def test_divexact(self):
        assert (CHI2 * CHI3).divexact(CHI3) == CHI2
        with pytest.raises(InexactDivision):
            IntPoly([1, 1]).divexact(IntPoly([0, 2]))

    def test_pow(self):
        # no ** on IntPoly: a power is a repeated product, and R^k is
        # IntPoly.one().shift(k)
        assert R * R * R == IntPoly.one().shift(3)
        with pytest.raises(TypeError):
            CHI2 ** 2

    def test_ring_axioms_randomized(self):
        rng = random.Random(20260808)
        for _ in range(20):
            a, b, c = (_random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + IntPoly.zero() == a
            assert a * IntPoly.one() == a

    def test_kronecker_matches_schoolbook(self):
        rng = random.Random(7)
        a = [rng.randint(-2**70, 2**70) for _ in range(90)]
        b = [rng.randint(-2**70, 2**70) for _ in range(65)]
        assert (IntPoly(a) * IntPoly(b)).coeffs == _schoolbook(a, b)

    @pytest.mark.parametrize("signs", ["mixed", "negative", "positive"])
    def test_kronecker_square_matches_schoolbook(self, signs):
        rng = random.Random(11)
        low, high = {"mixed": (-2**70, 2**70), "negative": (-2**70, -1),
                     "positive": (1, 2**70)}[signs]
        a = IntPoly([rng.randint(low, high) for _ in range(50)])
        assert len(a.coeffs) ** 2 > poly._KRONECKER_CUTOFF
        assert (a * a).coeffs == _schoolbook(a.coeffs, a.coeffs)

    @pytest.mark.parametrize("one_signed", [(0, 2**70), (-2**70, 0)], ids=["positive", "negative"])
    def test_kronecker_with_one_empty_half_matches_schoolbook(self, one_signed):
        # one operand has an empty sign half, the other has both halves
        rng = random.Random(13)
        a = [rng.randint(*one_signed) for _ in range(40)] + [one_signed[0] or one_signed[1]]
        b = [rng.randint(-2**70, 2**70) for _ in range(35)] + [1]
        assert len(a) * len(b) > poly._KRONECKER_CUTOFF
        assert (IntPoly(a) * IntPoly(b)).coeffs == _schoolbook(a, b)
        assert (IntPoly(b) * IntPoly(a)).coeffs == _schoolbook(b, a)

    def test_gcd(self):
        a = CHI3 * IntPoly([2, 2])
        b = CHI3 * IntPoly([0, 4])
        g = poly_gcd(a, b)
        assert g == 2 * CHI3
        assert poly_gcd(IntPoly.zero(), b) == b
        assert poly_gcd(a, IntPoly.one()) == IntPoly.one()

    def test_serialization(self):
        assert CHI3.coeff_strings() == ["0", "3", "3", "1"]
        assert IntPoly.from_strings(["0", "3", "3", "1"]) == CHI3
        assert IntPoly.zero().coeff_strings() == []


def _polys(min_len, max_len, bits=80):
    """IntPolys with min_len..max_len coefficients, the leading one nonzero."""
    coeff = st.integers(-2 ** bits, 2 ** bits)
    return st.tuples(st.lists(coeff, min_size=min_len - 1, max_size=max_len - 1),
                     coeff.filter(bool)).map(lambda c: IntPoly(c[0] + [c[1]]))


_SCHOOLBOOK = _polys(1, 30)  # at most 900 coefficient products


_KRONECKER = _polys(33, 60)  # at least 1089


class TestProperties:
    @pytest.mark.parametrize("kronecker", [False, True], ids=["schoolbook", "kronecker"])
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_ring_axioms(self, kronecker, data):
        a, b, c = (data.draw(_KRONECKER if kronecker else _SCHOOLBOOK) for _ in range(3))
        assert (len(a.coeffs) * len(b.coeffs) > poly._KRONECKER_CUTOFF) == kronecker
        ab = a * b
        for x in (-3, 2, 2 ** 90 + 1):
            assert ab(x) == a(x) * b(x)
        assert ab == b * a
        assert ab * c == a * (b * c)
        assert a * (b + c) == ab + a * c
        assert (a + b) - b == a
        assert a * IntPoly.one() == a and (a * IntPoly.zero()).is_zero

    @settings(max_examples=40, deadline=None, database=None)
    @given(_polys(1, 40), _polys(2, 40), st.data())
    def test_divexact_round_trip(self, a, b, data):
        ab = a * b
        assert ab.divexact(b) == a
        # a nonzero change below deg b cannot be a multiple of b
        k = data.draw(st.integers(0, b.degree - 1))
        delta = data.draw(st.integers(-2 ** 40, 2 ** 40).filter(bool))
        with pytest.raises(InexactDivision):
            (ab + IntPoly.one().shift(k) * delta).divexact(b)

    @settings(max_examples=40, deadline=None, database=None)
    @given(_polys(2, 6, bits=20).filter(lambda g: g(0) != 0),
           _polys(1, 8, bits=20), _polys(1, 8, bits=20))
    def test_gcd_matches_sympy_through_the_prs(self, g, u, w):
        # g has degree >= 1 and no factor R, so it survives the stripped
        # powers of R and contents, and g(x) is too large at the point for
        # the certificate to prove the gcd constant
        a, b = g * u, g * w
        assert not poly._gcd_trivial_at_point(_prepared(a), _prepared(b))
        with mock.patch.object(poly, "_pseudo_rem_c", wraps=poly._pseudo_rem_c) as prs:
            got = poly_gcd(a, b)
        assert got == _sympy_gcd(a, b)
        assert prs.called  # the common factor g defeats the fast path

    @settings(max_examples=60, deadline=None, database=None)
    @given(_polys(1, 4, bits=6), _polys(1, 9, bits=30), _polys(1, 9, bits=30))
    def test_gcd_certificate_is_sound(self, g, u, w):
        # small shared factors make common roots likely; a True answer must
        # mean that sympy finds the gcd constant
        a, b = _prepared(g * u), _prepared(g * w)
        if len(a) > 1 and len(b) > 1 and poly._gcd_trivial_at_point(a, b):
            assert _sympy_gcd(IntPoly(a), IntPoly(b)).degree == 0

    def test_gcd_certificate_gives_up_on_a_coprime_pair(self):
        # R + 12 and R + 12 + q are coprime, but at x = 2^64 + 1 both values
        # are multiples of q = x + 12 = 2^64 + 13, a prime above 2^63
        q = 2 ** 64 + 13
        a, b = IntPoly([12, 1]), IntPoly([12 + q, 1])
        assert not poly._gcd_trivial_at_point(a.coeffs, b.coeffs)
        with mock.patch.object(poly, "_pseudo_rem_c", wraps=poly._pseudo_rem_c) as prs:
            assert poly_gcd(a, b) == IntPoly.one()
        assert prs.called

    @pytest.mark.parametrize("campaign", ["verify_derivative_conjecture",
                                          "verify_formula_equality"])
    def test_campaign_gcds_take_the_fast_path(self, campaign):
        with mock.patch.object(poly, "_pseudo_rem_c", wraps=poly._pseudo_rem_c) as prs, \
                mock.patch.object(poly, "_gcd_trivial_at_point",
                                  wraps=poly._gcd_trivial_at_point) as certificate:
            getattr(magnitude, campaign)(27, 1)
        assert certificate.called and not prs.called

    @settings(max_examples=60, deadline=None, database=None)
    @given(_polys(1, 12, bits=70) | st.just(IntPoly.zero()))
    def test_format_parse_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p

    @settings(max_examples=120, deadline=None, database=None)
    @given(st.integers(1, 2 ** 70),
           st.lists(st.integers(-2 ** 80, 2 ** 80) | st.just(0), max_size=12))
    @example(1, [])
    @example(1, [0, 0])
    @example(3, [-2 ** 65, 0, 2 ** 66])
    def test_content_is_the_gcd_of_the_coefficients(self, scale, coeffs):
        # a common factor makes the content exceed 1 in most examples
        coeffs = [scale * c for c in coeffs]
        p = IntPoly(coeffs)
        assert p.content() == functools.reduce(math.gcd, coeffs, 0)
        prim = p.primitive()
        assert prim * p.content() == p
        assert (prim.leading > 0) == (p.leading > 0) and prim.content() in (0, 1)


def _prepared(p):
    """p as `_gcd_c` hands it to the certificate: R powers and content out."""
    content = p.content()
    return tuple(x // content for x in p.coeffs[p.valuation():])


def _sympy_gcd(a, b):
    x = sympy.Symbol("x")
    want = sympy.Poly(list(reversed(a.coeffs)), x, domain="ZZ").gcd(
        sympy.Poly(list(reversed(b.coeffs)), x, domain="ZZ"))
    return IntPoly(int(c) for c in reversed(want.all_coeffs()))


class TestRatFunc:
    def test_reduce_worked_example(self):
        # -R^2 (R^3+6R^2+12R+6) over -6 R^2 reduces to the printed form
        f = RatFunc(-(R * R * MAG3_NUM), IntPoly([-6]) * R * R)
        assert f == RatFunc(MAG3_NUM, IntPoly([6]))

    def test_reduce_trivial(self):
        assert RatFunc(R, R) == RatFunc(IntPoly.one(), IntPoly.one())
        with pytest.raises(ZeroDenominator):
            RatFunc(R, IntPoly.zero())

    def test_reduce_cancellation_pattern(self):
        mag5_num = IntPoly([360, 1080, 1080, 525, 135, 18, 1])
        f = RatFunc(2 * mag5_num.shift(3), (2 * IntPoly([3, 1])).shift(2))
        assert f == RatFunc(mag5_num.shift(1), IntPoly([3, 1]))

    def test_sign_normalization(self):
        f = RatFunc(IntPoly([1]), IntPoly([-2]))
        assert f.den.leading > 0 and f.num == IntPoly([-1])

    def test_zero(self):
        f = RatFunc(IntPoly.zero(), CHI3)
        assert f.is_zero and f.den == IntPoly.one()

    def test_arithmetic(self):
        # a numerator that cancels to zero reduces to 0/1
        half = RatFunc(IntPoly.one(), IntPoly([2]))
        assert RatFunc(half.num * half.den - half.num * half.den, half.den * half.den).is_zero

    def test_derivative_printed_forms(self):
        mag3 = RatFunc(MAG3_NUM, IntPoly([6]))
        assert mag3.derivative() == RatFunc(IntPoly([4, 4, 1]), IntPoly([2]))
        assert RatFunc(IntPoly([5]), IntPoly.one()).derivative().is_zero
        mag5 = RatFunc(IntPoly([360, 1080, 1080, 525, 135, 18, 1]),
                       120 * IntPoly([3, 1]))
        core = IntPoly([24, 27, 9, 1])
        assert mag5.derivative() == RatFunc(core * core, 24 * IntPoly([3, 1]) * IntPoly([3, 1]))

    def test_eval_matches_unreduced(self):
        rng = random.Random(99)
        num = _random_poly(rng, 12, 2**32)
        den = _random_poly(rng, 8, 2**32) + IntPoly.one()
        if den.is_zero:
            den = IntPoly([1, 1])
        f = RatFunc(num, den)
        hits = 0
        while hits < 20:
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            if den(q) == 0 or f.den(q) == 0:
                continue
            assert f(q) == Fraction(num(q)) / Fraction(den(q))
            hits += 1

    def test_eval_at_pole(self):
        f = RatFunc(IntPoly.one(), IntPoly([-1, 1]))
        with pytest.raises(ZeroDenominator):
            f(1)
        with pytest.raises(ZeroDenominator):
            RatFunc(IntPoly.one(), IntPoly([2, 3]))(Fraction(-2, 3))

    def test_derivative_matches_finite_difference(self):
        f = RatFunc(IntPoly([360, 1080, 1080, 525, 135, 18, 1]),
                    120 * IntPoly([3, 1]))
        df = f.derivative()
        with mpmath.workprec(128):
            h = mpmath.mpf(10) ** -13
            for k in range(10):
                x = Fraction(2 * k + 1, 2)

                def val(q):
                    return (mpmath.mpf(q.numerator) / q.denominator)

                def feval(xv):
                    num = sum(c * xv ** i for i, c in enumerate(f.num.coeffs))
                    den = sum(c * xv ** i for i, c in enumerate(f.den.coeffs))
                    return num / den

                approx = (feval(val(x) + h) - feval(val(x) - h)) / (2 * h)
                exact = val(Fraction(df(x)))
                assert abs(approx - exact) <= abs(exact) * mpmath.mpf(10) ** -20

    def test_json_round_trip(self):
        f = RatFunc(MAG3_NUM, IntPoly([6]))
        assert RatFunc.from_dict(f.as_dict()) == f
        assert f.as_dict() == {"num": ["6", "12", "6", "1"], "den": ["6"]}


class TestFormatting:
    def test_format_descending(self):
        assert format_poly(MAG3_NUM) == "R^3 + 6R^2 + 12R + 6"
        assert format_poly(IntPoly([-2, -1])) == "-R - 2"
        assert format_poly(IntPoly.zero()) == "0"

    def test_parse_round_trip(self):
        for p in (MAG3_NUM, CHI4, IntPoly([-24, -27, -9, -1]), R, IntPoly([7]), IntPoly.zero()):
            assert parse_poly(format_poly(p)) == p

    @pytest.mark.parametrize("text", ["3 + 2R^-1", "2R^-1 + 3", "R^-1", "2x", "R^", "R^1.5",
                                      "3R^2R"])
    def test_parse_refuses_malformed_terms(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)

    def test_format_ratfunc(self):
        f = RatFunc(MAG3_NUM, IntPoly([6]))
        assert format_ratfunc(f) == "(R^3 + 6R^2 + 12R + 6) / (6)"
        assert format_ratfunc(RatFunc(IntPoly([1, 1]), IntPoly.one())) == "R + 1"
