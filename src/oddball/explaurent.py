"""The algebra of e^(-r) times Laurent polynomials with rational coefficients.

An element is e^(-r) * sum_k c_k r^k with finitely many nonzero c_k in Q and
k ranging over (possibly negative) integers.  A coefficient, scale or point
is an int or a Fraction and an exponent an int, or InputError is raised.
The algebra is closed under d/dr, under multiplication by any integer power
of r, and therefore under the radial Laplacian f'' + ((n-1)/r) f' in any
dimension n.  That closure is what lets every identity in this package be
checked by exact coefficient arithmetic: the exponential factor is part of
the type, never a number.

Numeric evaluation is an oracle, `oracles.explaurent_value`, by mpmath at
DEFAULT_PRECISION, 128 mantissa bits, the precision the quadrature check
of the integral lemma also starts from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import ZeroDenominator, exact, odd_dimension

DEFAULT_PRECISION = 128  # mantissa bits for numeric evaluation


class ExpLaurent:
    """e^(-r) * (Laurent polynomial in r) with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean = {}
        if terms:
            # every operation builds an ExpLaurent, so the common kinds
            # pass by one type test each and skip the checks
            for k, c in terms.items():
                if type(k) is not int:
                    exact(k, "exponent", "an int", int)
                if type(c) is not Fraction:
                    c = Fraction(c if type(c) is int else exact(c, "coefficient"))
                if c:
                    clean[k] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpLaurent is immutable")

    @classmethod
    def zero(cls) -> "ExpLaurent":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "ExpLaurent") -> "ExpLaurent":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return ExpLaurent(out)

    def __sub__(self, other: "ExpLaurent") -> "ExpLaurent":
        return self + -other

    def __neg__(self) -> "ExpLaurent":
        return ExpLaurent({k: -c for k, c in self.terms.items()})

    def scale(self, s) -> "ExpLaurent":
        s = Fraction(exact(s, "scale"))
        return ExpLaurent({k: s * c for k, c in self.terms.items()})

    def mul_rpow(self, j: int) -> "ExpLaurent":
        """Multiply by r^j (j may be negative)."""
        if exact(j, "exponent", "an int", int) == 0:
            return self
        return ExpLaurent({k + j: c for k, c in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def diff(self) -> "ExpLaurent":
        """d/dr, using d/dr (e^-r r^k) = e^-r (k r^(k-1) - r^k)."""
        out: dict = {}
        for k, c in self.terms.items():
            if k:
                out[k - 1] = out.get(k - 1, 0) + k * c
            out[k] = out.get(k, 0) - c
        return ExpLaurent(out)

    def laplacian(self, n: int) -> "ExpLaurent":
        """Radial Laplacian f'' + ((n-1)/r) f' in odd dimension n."""
        p = odd_dimension(n)
        d1 = self.diff()
        out = d1.diff()
        if p:
            out = out + d1.mul_rpow(-1).scale(2 * p)
        return out

    # -- evaluation -------------------------------------------------------------

    def laurent_at(self, x: Fraction) -> Fraction:
        """The Laurent part sum_k c_k x^k, exactly (ZeroDenominator at a pole)."""
        x = Fraction(exact(x, "point"))
        if not x and min(self.terms, default=0) < 0:
            raise ZeroDenominator(f"a negative power of r has a pole at {x}")
        total = Fraction(0)
        for k, c in self.terms.items():
            total += c * x ** k
        return total

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpLaurent) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExpLaurent(0)"
        bits = [f"{c}*r^{k}" for k, c in sorted(self.terms.items(), reverse=True)]
        return f"ExpLaurent(e^-r * ({' + '.join(bits)}))"
