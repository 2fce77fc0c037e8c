"""Reverse Bessel polynomials, their decaying-kernel parents, and the
derivative-conversion triangle.

Two intertwined sequences drive everything downstream:

* the decaying radial kernels k_i, generated from k_0 = e^(-r) by repeatedly
  applying g -> -(1/r) g'; each k_i lives in the e^(-r) Laurent algebra with
  nonnegative integer coefficients on r^(-i) .. r^(-(2i-1));
* the reverse Bessel polynomials B_i, the polynomials obtained by clearing
  the exponential and the negative powers out of k_i.

The polynomials are produced by two independent routes, kept both alive as a
standing cross-check: clearing factors out of the kernels, and the three-term
recurrence B_{i+2} = (2i+1) B_{i+1} + R^2 B_i starting from 1 and R.

The triangle d[j][k] converts j-fold applications of -(1/r) d/dr into plain
derivatives; it too has two routes (a recurrence and a closed form in
factorials) which must agree entry for entry.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    IndexOutOfTriangle,
    InexactDivision,
    NonpolynomialResidue,
    TableTooSmall,
    at_least,
)
from .explaurent import ExpLaurent
from .poly import IntPoly


class KernelTable(NamedTuple):
    """Decaying kernels k_0 .. k_max_index in the e^(-r) Laurent algebra."""

    max_index: int
    funcs: tuple


class BesselTable(NamedTuple):
    """Reverse Bessel polynomials B_0 .. B_max_index."""

    max_index: int
    polys: tuple

    def poly(self, i: int) -> IntPoly:
        if i < 0 or i > self.max_index:
            raise TableTooSmall(f"table holds indices 0..{self.max_index}, asked for {i}")
        return self.polys[i]


@lru_cache(maxsize=None)
def kernel_table(max_index: int) -> KernelTable:
    """Generate k_0 = e^(-r), k_{i+1} = -(1/r) k_i'."""
    at_least("max_index", max_index, 0)
    funcs = [ExpLaurent.exponential()]
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


@lru_cache(maxsize=None)
def bessel_by_recurrence(max_index: int) -> BesselTable:
    """B_0 = 1, B_1 = R, B_{i+2} = (2i+1) B_{i+1} + R^2 B_i."""
    at_least("max_index", max_index, 0)
    polys = [IntPoly.one()]
    if max_index >= 1:
        polys.append(IntPoly.variable())
    for i in range(max_index - 1):
        polys.append((2 * i + 1) * polys[i + 1] + polys[i].shift(2))
    return BesselTable(max_index, tuple(polys))


def reverse_bessel(max_index: int) -> BesselTable:
    """Shared table of reverse Bessel polynomials covering 0..max_index.

    The recurrence route backs this; the kernel route re-derives the same
    table in the test suite.  Tables are cached per index bound, so repeated
    callers share one immutable instance.
    """
    return bessel_by_recurrence(max_index)


# ---------------------------------------------------------------------------
# derivative-conversion triangle
# ---------------------------------------------------------------------------

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
