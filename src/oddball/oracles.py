"""Oracles: independent reference routes that the tests hold the production
paths against.  No production path calls them, and no other module of the
package imports this one; only the tests do.  They are the kernel route to
the reverse Bessel polynomials, the derivative-conversion triangle by
recurrence and by closed form, a cofactor expansion for `det_bareiss`, the
det route's border row as polynomials, the explicit formula at a radius, a
potential's h-chain two ways, numeric values and the integral lemma by
mpmath, which no other module imports, and the parser that inverts
`poly.format_poly`.  The errors that only these routes raise are here too.

Waiting for ROADMAP items 1b, then 4: `perfbench/tracer.py` binds these by
module attribute, so they stay in their modules until it reads counters:
`hankel`'s elimination block, kept together (`PolyMatrix`, `build_hankel`,
`_eliminate`, `det_bareiss`, `solve_unit_rhs`); `magnitude`'s
`boundary_value_at` with its `_boundary_sum`; and
`magnitude.derivative_conjecture_rhs` and `RatFunc.from_dict`.  It also
reads `bessel.bessel_by_recurrence`, which is a second name for
the cached `bessel.reverse_bessel`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath

from .bessel import BesselTable, reverse_bessel
from .errors import (
    InexactDivision,
    InputError,
    OddballError,
    ParseError,
    RouteMismatch,
    at_least,
    odd_dimension,
    positive_radius,
)
from .explaurent import ExpLaurent
from .hankel import PolyMatrix, unit_solution
from .magnitude import _lemma_tail
from .poly import IntPoly
from .potential import Potential


class NonpolynomialResidue(OddballError):
    """Clearing the exponential/Laurent factors left negative powers behind."""


class DimensionTooLarge(OddballError):
    """Cost guard: the cofactor-expansion determinant refuses big matrices."""


class IndexOutOfTriangle(InputError):
    """Coefficient request outside the valid (j, k) triangle."""


class QuadratureNonconvergence(OddballError):
    """Numerical integration failed to reach the requested accuracy."""


DEFAULT_PRECISION = 128  # mantissa bits for numeric evaluation


class KernelTable(NamedTuple):
    """Decaying kernels k_0 .. k_max_index in the e^(-r) Laurent algebra."""

    max_index: int
    funcs: tuple


@lru_cache(maxsize=None)
def kernel_table(max_index: int) -> KernelTable:
    """Generate k_0 = e^(-r), k_{i+1} = -(1/r) k_i'."""
    at_least("max_index", max_index, 0)
    funcs = [ExpLaurent({0: 1})]
    for _ in range(max_index):
        funcs.append(funcs[-1].diff().mul_rpow(-1).scale(-1))
    return KernelTable(max_index, tuple(funcs))


def bessel_from_kernels(kernels: KernelTable) -> BesselTable:
    """B_i = e^r r^(2i) k_i, checking that a genuine polynomial remains."""
    polys = []
    for i, f in enumerate(kernels.funcs):
        shifted = f.mul_rpow(2 * i)
        coeffs = [0] * (max(shifted.terms, default=-1) + 1)
        for k, c in shifted.terms.items():
            if k < 0:
                raise NonpolynomialResidue(f"negative exponent {k} survives in index {i}")
            if c.denominator != 1:
                raise NonpolynomialResidue(f"non-integer coefficient {c} in index {i}")
            coeffs[k] = c.numerator
        polys.append(IntPoly(coeffs))
    return BesselTable(kernels.max_index, tuple(polys))


class DerivTriangle(NamedTuple):
    """Rows j = 1..max_j; row j holds d[j][k] for k = 1..j.

    If g_{j+1} = -(1/r) g_j', then g_j expands over plain derivatives of g_0
    with these integer weights (up to signs and powers of r).
    """

    max_j: int
    rows: tuple

    def value(self, j: int, k: int) -> int:
        if not (1 <= at_least("k", k, 0) <= at_least("j", j, 0) <= self.max_j):
            raise IndexOutOfTriangle(f"(j, k) = ({j}, {k}) outside triangle")
        return self.rows[j - 1][k - 1]


def deriv_triangle(max_j: int) -> DerivTriangle:
    """Fill the triangle by d[j+1][k] = d[j][k-1] + (2j-k) d[j][k], d[1][1] = 1."""
    at_least("max_j", max_j, 1)
    rows = [(1,)]
    for j in range(1, max_j):
        prev = rows[-1]
        row = []
        for k in range(1, j + 2):
            left = prev[k - 2] if 2 <= k <= j + 1 else 0   # d[j][k-1]
            right = prev[k - 1] if k <= j else 0           # d[j][k]
            row.append(left + (2 * j - k) * right)
        rows.append(tuple(row))
    return DerivTriangle(max_j, tuple(rows))


def deriv_coeff(j: int, k: int) -> int:
    """Closed form (2j-k-1)! / (2^(j-k) (j-k)! (k-1)!), an exact integer."""
    if not (1 <= at_least("k", k, 0) <= at_least("j", j, 0)):
        raise IndexOutOfTriangle(f"(j, k) = ({j}, {k}) outside triangle")
    num = math.factorial(2 * j - k - 1)
    den = (1 << (j - k)) * math.factorial(j - k) * math.factorial(k - 1)
    q, rem = divmod(num, den)
    if rem:
        raise InexactDivision(f"closed form not integral at (j, k) = ({j}, {k})")
    return q


_MINOR_EXPANSION_LIMIT = 13


def det_minor_expansion(m: PolyMatrix) -> IntPoly:
    """Cofactor expansion with column-mask memoization; oracle for Bareiss.

    Cost grows as 2^dim, hence the hard dimension guard.
    """
    n = m.dim
    if n > _MINOR_EXPANSION_LIMIT:
        raise DimensionTooLarge(f"cofactor expansion capped at {_MINOR_EXPANSION_LIMIT}, got {n}")
    rows = m.rows
    memo = {0: IntPoly.one()}

    # minors are built over the leading rows so that the heavily shared
    # small minors carry the lowest-degree entries
    def minor_det(mask: int) -> IntPoly:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        k = mask.bit_count()
        row = rows[k - 1]
        acc = IntPoly.zero()
        sign = 1 if k % 2 == 1 else -1  # cofactor sign at (k-1, first column)
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            term = row[j] * minor_det(mask ^ low)
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return minor_det((1 << n) - 1)


def border_polys(p: int) -> tuple:
    """Border-row polynomials xi_{p,0..p}, with n = 2p + 1:
    xi_{p,i} = R^(2p+2) B_i + n R^(2i) _lemma_tail(i, p-i); every coefficient
    is an integer by construction."""
    tb = reverse_bessel(at_least("p", p, 0) + 1)
    return tuple(tb.poly(i).shift(2 * p + 2) + ((2 * p + 1) * _lemma_tail(i, p - i)).shift(2 * i)
                 for i in range(p + 1))


def magnitude_explicit(n: int, radius) -> Fraction:
    """|B^n_R| at one rational radius, from the solved coefficients directly:
    (1/n!) { R^n + n sum_i a_i R^(2i-1) _lemma_tail(i, p-i)(R) }, where a_i
    solve the unit-RHS Hankel system at this radius.  The power R^(2i-1) is
    R^-1 at i = 0; exact rationals handle it.
    """
    p = odd_dimension(n)
    radius = positive_radius(radius)
    total = radius ** n
    for i, a in enumerate(unit_solution(p)):
        total += n * a(radius) * radius ** (2 * i - 1) * _lemma_tail(i, p - i)(radius)
    return total / math.factorial(n)


def h_sequence(pot: Potential, j: int) -> ExpLaurent:
    """The j-th function in the chain h_{j+1} = -(1/r) h_j', two ways.

    Route one iterates the operator on the exterior; route two shifts the
    kernel expansion index by j.  Both are computed and compared; any
    difference is an arithmetic bug, reported as RouteMismatch.
    """
    at_least("j", j, 0)
    via_operator = pot.exterior
    for _ in range(j):
        via_operator = via_operator.diff().mul_rpow(-1).scale(-1)
    kernels = kernel_table(pot.p + j)
    via_shift = ExpLaurent.zero()
    for i, c in enumerate(pot.coeffs):
        scalar = c * pot.radius ** (2 * i)
        via_shift = via_shift + kernels.funcs[i + j].scale(scalar)
    if via_operator != via_shift:
        raise RouteMismatch(f"h-sequence routes disagree at j={j} (n={pot.n}, R={pot.radius})")
    return via_operator


def explaurent_value(f: ExpLaurent, at) -> mpmath.mpf:
    """Numeric value e^(-at) * sum c_k at^k at DEFAULT_PRECISION bits."""
    at = positive_radius(at)
    with mpmath.workprec(DEFAULT_PRECISION):
        x = mpmath.mpf(at.numerator) / at.denominator
        total = mpmath.mpf(0)
        for k, c in f.terms.items():
            total += (mpmath.mpf(c.numerator) / c.denominator) * x ** k
        return mpmath.exp(-x) * total


def potential_value(pot: Potential, r) -> mpmath.mpf:
    """Numeric h(r): 1 inside the ball, and outside it e^(radius) times the
    stored exterior."""
    r = positive_radius(r)
    if r < pot.radius:
        return mpmath.mpf(1)
    with mpmath.workprec(DEFAULT_PRECISION):
        scale = mpmath.exp(mpmath.mpf(pot.radius.numerator) / pot.radius.denominator)
        return scale * explaurent_value(pot.exterior, r)


_QUAD_PREC = DEFAULT_PRECISION + 64  # 64 guard bits
# a tanh-sinh node u, by its mpf tuple -> (k, e^(-u) u^k) for the last
# moment k integrated there, at _QUAD_PREC
_node_terms: dict = {}


@lru_cache(maxsize=None)
def _moment(j: int) -> tuple:
    """(M_j, its error estimate): M_j = int_0^W e^(-u) u^j du by tanh-sinh
    quadrature on [0, 2, 8, 24, 64, W] at _QUAD_PREC bits, whatever the
    caller's precision, once per j per process.  The moments share the
    nodes below W: each node's e^(-u) u^k is kept, so e^(-u) is computed
    once per node while the moments run in ascending j, and moment j
    multiplies the last term by u^(j-k).

    W doubles from 180 until W >= j + 1 and the discarded tail
    int_W^inf e^(-u) u^j du = e^(-W) sum_{k<=j} j!/k! W^k is at most 1e-40
    of e^(-j-1) j^j <= int_j^(j+1) e^(-u) u^j du <= M_j.  The error
    estimate must be at most 1e-34 of M_j, retried once at maxdegree=10.
    """
    with mpmath.workprec(_QUAD_PREC):
        low = mpmath.mpf(j ** j) * mpmath.exp(-(j + 1))
        width = 180
        while width < j + 1 or (mpmath.exp(-width) * sum(math.perm(j, j - k) * width ** k
                                                         for k in range(j + 1))
                                > mpmath.mpf(10) ** (-40) * low):
            width *= 2

        def integrand(u):
            k, term = _node_terms.get(u._mpf_, (None, None))
            if k is None or k > j:
                k, term = 0, mpmath.exp(-u)
            if k < j:
                term *= u ** (j - k)
            _node_terms[u._mpf_] = (j, term)
            return term

        points = [0, 2, 8, 24, 64, width]
        val, err = mpmath.quad(integrand, points, error=True)
        if err > val * mpmath.mpf(10) ** (-34):
            val, err = mpmath.quad(integrand, points, error=True, maxdegree=10)
            if err > val * mpmath.mpf(10) ** (-34):
                raise QuadratureNonconvergence(f"moment {j}: estimated error {err} too large")
        return val, err


def _lemma_integral(i: int, b: int, radius: Fraction) -> tuple:
    """(e^R int_R^inf e^(-r) B_i(r) r^(2b) dr, its error estimate) at
    _QUAD_PREC: sum_j c_j M_j, with B_i(R + u) (R + u)^(2b) = sum_j c_j u^j
    expanded exactly and the moments M_j from `_moment`.  B_i has
    nonnegative coefficients, so every c_j >= 0."""
    a = reverse_bessel(i).poly(i).shift(2 * b).coeffs
    with mpmath.workprec(_QUAD_PREC):
        val = err = mpmath.mpf(0)
        for j in range(len(a)):
            c = sum(a[m] * math.comb(m, j) * radius ** (m - j) for m in range(j, len(a)))
            c = mpmath.mpf(c.numerator) / c.denominator
            moment, moment_err = _moment(j)
            val += c * moment
            err += c * moment_err
    return val, err


def quadrature_lemma(i: int, b: int, radius) -> bool:
    """Oracle for `magnitude.verify_integral_lemma`: the integral lemma at
    one radius by quadrature, both sides times e^R, so that no rounded
    e^(-R) enters.  Left side: e^R int_R^inf e^(-r) B_i(r) r^(2b) dr =
    sum_j c_j M_j (`_lemma_integral`), each moment M_j by quadrature
    (`_moment`), never from a closed form.  No c_j is negative, so nothing
    cancels and the sum keeps each moment's bounds, a tail at most 1e-40
    and an error estimate at most 1e-34 of it; the estimate is checked
    again here.  Right side: _lemma_tail(i, b)(R) / R, exact, converted
    once.  They must agree to 1e-30, relative, at DEFAULT_PRECISION bits
    and a 64-bit guard.
    """
    radius = positive_radius(radius)
    closed = _lemma_tail(at_least("i", i, 0), at_least("b", b, 0))(radius) / radius
    with mpmath.workprec(_QUAD_PREC):
        val, err = _lemma_integral(i, b, radius)
        if err > val * mpmath.mpf(10) ** (-34):
            raise QuadratureNonconvergence(f"estimated error {err} too large")
        rhs = mpmath.mpf(closed.numerator) / closed.denominator
        return abs(val - rhs) <= mpmath.mpf(10) ** (-30) * abs(rhs)


# one term of parse_poly, signs stripped: digits, then R or R^k, k >= 0
_TERM = re.compile(r"(\d*)(R(?:\^(\d+))?)?")


def parse_poly(text: str) -> IntPoly:
    """Inverse of format_poly; accepts any signed sum of c*R^k terms."""
    s = text.replace("*", "").replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return IntPoly.zero()
    # split into signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict = {}
    for t in terms:
        sign = 1
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if not t:
            raise ParseError(f"dangling sign in {text!r}")
        term = _TERM.fullmatch(t)
        if term is None:
            raise ParseError(f"bad term {t!r} in {text!r}")
        head, r, power = term.groups()
        power = int(power) if power else (1 if r else 0)
        coeffs[power] = coeffs.get(power, 0) + sign * (int(head) if head else 1)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)
