"""Reverse Bessel polynomials by their three-term recurrence.

The reverse Bessel polynomials B_i are the polynomials left by clearing the
exponential and the negative powers out of the decaying radial kernels k_i,
generated from k_0 = e^(-r) by repeatedly applying g -> -(1/r) g'.
Production builds them by the recurrence B_{i+2} = (2i+1) B_{i+1} + R^2 B_i
from 1 and R; `oracles.bessel_from_kernels` clears them out of the kernels,
and the tests hold the two routes equal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import TableTooSmall, at_least
from .poly import IntPoly


class BesselTable(NamedTuple):
    """Reverse Bessel polynomials B_0 .. B_max_index."""

    max_index: int
    polys: tuple

    def poly(self, i: int) -> IntPoly:
        if i < 0 or i > self.max_index:
            raise TableTooSmall(f"table holds indices 0..{self.max_index}, asked for {i}")
        return self.polys[i]


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

    The recurrence route backs this; `oracles.bessel_from_kernels`
    re-derives the same table in the test suite.  Tables are cached per
    index bound, so repeated callers share one immutable instance.
    """
    return bessel_by_recurrence(max_index)

