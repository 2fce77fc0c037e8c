"""Exact univariate polynomial and rational-function arithmetic over Z.

A polynomial is a dense tuple of arbitrary-precision integer coefficients in
ascending powers of R: index k holds the coefficient of R^k.  The zero
polynomial is the empty tuple; nonzero polynomials never carry a trailing
zero, so equal values always have equal representations.

A rational function is a reduced value, not an algebra: a pair of such
polynomials with gcd 1 (content included) and a denominator of positive
leading coefficient, reduced at construction so that equality is tuple
comparison.  It is compared, hashed, evaluated, differentiated and
serialised; sums and products are formed on its polynomials.

Everything here is immutable and pure; scalars are ints, a coefficient is an
int (not a bool) and an evaluation point an int or a fractions.Fraction
(anything else raises InputError).

Two performance notes, because the determinant kernels lean on this module:

* Multiplication switches to Kronecker substitution (pack the coefficients
  into one huge integer, multiply once, unpack) above a small size cutoff.
  CPython's big-integer multiply is subquadratic, which beats the schoolbook
  double loop by a wide margin on the dense high-degree operands produced by
  fraction-free elimination.  Signs are split into two halves; an empty half
  is never packed, and a square packs once.
* The gcd strips any common power of R and the contents, then tries to prove
  the primitive parts a, b coprime at one point; only when that fails does
  it run a primitive pseudo-remainder sequence.  The proof: with n = deg a
  >= 1 and a(0) != 0, pick y = 2^(e-1) (e = 64, doubled as needed) with
  |a_n| y^n > sum_{i<n} |a_i| y^i.  Then |a(z)| > 0 for |z| >= y, so every
  root of a has |alpha| < y.  At x = 2^e + 1 = 2y + 1, a common factor G in
  Z[R] of degree m >= 1 has |G(x)| >= prod |x - alpha| > (y + 1)^m > y, and
  G(x) divides g = gcd(a(x), b(x)), which is > 0 as a(x) != 0.  So g <= y
  proves the gcd is 1.  x is odd because at x = 2^e, low coefficients that
  share a power of 2 would make the values share it too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import InexactDivision, ZeroDenominator, at_least, exact

_KRONECKER_CUTOFF = 1024  # schoolbook below this many coefficient products


# ---------------------------------------------------------------------------
# raw coefficient-tuple kernels
# ---------------------------------------------------------------------------

def _strip(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add_c(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _sub_c(a: tuple, b: tuple) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _strip(out)


def _pack(coeffs: Iterable[int], width: int) -> int:
    # all inputs nonnegative; width in bytes
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(value: int, width: int, count: int) -> list:
    raw = value.to_bytes(width * count, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little") for k in range(count)]


def _halves(coeffs: tuple, width: int) -> tuple:
    """(positive half, negative half) of coeffs, packed; an empty one is 0."""
    if min(coeffs) >= 0:
        return _pack(coeffs, width), 0
    neg = _pack([-c if c < 0 else 0 for c in coeffs], width)
    if max(coeffs) <= 0:
        return 0, neg
    return _pack([c if c > 0 else 0 for c in coeffs], width), neg


def _value_at_power_of_two(coeffs: tuple, width: int) -> int:
    """coeffs at R = 2^(8 width), every |c| below that: the packed positive
    half less the packed negative half."""
    if not coeffs:
        return 0
    pos, neg = _halves(coeffs, width)
    return pos - neg


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 2
    n = len(a) + len(b) - 1
    # a slot k of pos or neg sums some |a_i b_j| with i + j = k: it fits width
    ap, an = _halves(a, width)
    if b is a:
        pos, neg = ap * ap + an * an, (ap * an) << 1
    else:
        bp, bn = _halves(b, width)
        pos, neg = ap * bp + an * bn, ap * bn + an * bp
    out = _unpack(pos, width, n)
    if neg:
        out = [p - q for p, q in zip(out, _unpack(neg, width, n))]
    return _strip(out)


def _mul_c(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1:
        s = a[0]
        return _strip([s * c for c in b])
    if len(b) == 1:
        s = b[0]
        return _strip([s * c for c in a])
    if len(a) * len(b) <= _KRONECKER_CUTOFF:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _strip(out)
    return _kronecker_mul(a, b)


def _divexact_c(a: tuple, b: tuple) -> tuple:
    """Quotient of a by b, raising InexactDivision unless b divides a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise InexactDivision("degree of dividend below divisor")
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + db]
        if c == 0:
            continue
        d, m = divmod(c, lead)
        if m:
            raise InexactDivision("leading coefficient does not divide")
        q[k] = d
        for j, bj in enumerate(b):
            rem[k + j] -= d * bj
    if any(rem):
        raise InexactDivision("nonzero remainder")
    return _strip(q)


def _valuation_c(a: tuple) -> int:
    for i, c in enumerate(a):
        if c:
            return i
    return 0


def _pseudo_rem_c(a: tuple, b: tuple) -> tuple:
    """Pseudo-remainder of a by b (a scaled by powers of b's leading coeff)."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for j, bj in enumerate(b):
            r[shift + j] -= top * bj
        del r[-1]
        while r and r[-1] == 0:
            del r[-1]
        if not r:
            break
    return tuple(r)


def _gcd_trivial_at_point(a: tuple, b: tuple) -> bool:
    """True when primitive a, b (degree >= 1, a(0) != 0) are proven coprime
    as the module docstring shows; False proves nothing (run the PRS)."""
    e = 64
    while True:  # until every root of a lies in |z| < 2^(e-1)
        tail = 0
        for c in reversed(a[:-1]):
            tail = (tail << (e - 1)) + abs(c)
        if abs(a[-1]) << (e - 1) * (len(a) - 1) > tail:
            break
        e *= 2
    va = vb = 0
    for c in reversed(a):
        va = (va << e) + va + c
    for c in reversed(b):
        vb = (vb << e) + vb + c
    return math.gcd(va, vb) <= 1 << (e - 1)


def _gcd_c(a: tuple, b: tuple) -> tuple:
    """Gcd in Z[R] (contents included), positive leading coefficient."""
    if not a:
        return b if (not b or b[-1] > 0) else tuple(-c for c in b)
    if not b:
        return a if a[-1] > 0 else tuple(-c for c in a)
    va, vb = _valuation_c(a), _valuation_c(b)
    v = min(va, vb)
    a, b = a[va:], b[vb:]  # strip R powers; common R^v restored at the end
    ca, cb = math.gcd(*a), math.gcd(*b)
    c = math.gcd(ca, cb)
    aa = tuple(x // ca for x in a)
    bb = tuple(x // cb for x in b)
    if len(aa) == 1 or len(bb) == 1 or _gcd_trivial_at_point(aa, bb):
        g: tuple = (c,)
    else:
        if len(aa) < len(bb):
            aa, bb = bb, aa
        while bb:
            rem = _pseudo_rem_c(aa, bb)
            aa = bb
            if not rem:
                break
            cr = math.gcd(*rem)
            bb = tuple(x // cr for x in rem)
        if aa[-1] < 0:
            aa = tuple(-x for x in aa)
        g = tuple(c * x for x in aa)
    return (0,) * v + g if v else g


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------

class IntPoly:
    """Dense integer polynomial in R, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        coeffs = [c if type(c) is int else exact(c, "coefficient", "an int", int) for c in coeffs]
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: tuple) -> "IntPoly":
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls._raw(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls._raw((1,))

    @classmethod
    def variable(cls) -> "IntPoly":
        """The polynomial R itself."""
        return cls._raw((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def valuation(self) -> int:
        """Exponent of the largest power of R dividing self (0 for zero)."""
        return _valuation_c(self.coeffs)

    def content(self) -> int:
        """Gcd of the absolute coefficient values (0 for the zero poly)."""
        return math.gcd(*self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly._raw(_add_c(self.coeffs, other.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly._raw(_sub_c(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPoly":
        return IntPoly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, IntPoly):
            return IntPoly._raw(_mul_c(self.coeffs, other.coeffs))
        if isinstance(other, int):
            if other == 0:
                return IntPoly.zero()
            return IntPoly._raw(tuple(other * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by R^k (k >= 0)."""
        if at_least("k", k, 0) == 0 or self.is_zero:
            return self
        return IntPoly._raw((0,) * k + self.coeffs)

    def shift_down(self, k: int) -> "IntPoly":
        """Exact division by R^k (k >= 0)."""
        if at_least("k", k, 0) == 0 or self.is_zero:
            return self
        if any(self.coeffs[:k]):
            raise InexactDivision(f"not divisible by R^{k}")
        return IntPoly._raw(self.coeffs[k:])

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient; raises InexactDivision unless other divides self."""
        return IntPoly._raw(_divexact_c(self.coeffs, other.coeffs))

    def derivative(self) -> "IntPoly":
        """Formal d/dR."""
        return IntPoly._raw(_strip([k * c for k, c in enumerate(self.coeffs)][1:]))

    def __call__(self, x):
        """Horner evaluation, exactly, at an int or a Fraction x."""
        exact(x, "point")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive(self) -> "IntPoly":
        """Divide out the content, keeping the sign of the leading coefficient."""
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly._raw(tuple(x // c for x in self.coeffs))

    # -- comparison / hashing / display -------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)!r})"

    # -- serialization -------------------------------------------------------

    def coeff_strings(self) -> list:
        """JSON form: decimal strings, ascending powers."""
        return [str(c) for c in self.coeffs]


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[R] including integer content, positive leading coefficient."""
    return IntPoly._raw(_gcd_c(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def format_poly(p: IntPoly) -> str:
    """Render in descending powers, e.g. 'R^3 + 6R^2 + 12R + 6'."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}R" if k == 1 else f"{head}R^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced ratio of two integer polynomials.

    Canonical form: gcd(num, den) = 1 in Z[R] (integer contents included)
    and den has positive leading coefficient.  The zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            num, den = IntPoly.zero(), IntPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0 or g.leading != 1:
                num = num.divexact(g)
                den = den.divexact(g)
            if den.leading < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _raw(cls, num: IntPoly, den: IntPoly) -> "RatFunc":
        """num/den taken as given; the caller vouches for canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def derivative(self) -> "RatFunc":
        """Exact d/dR by the quotient rule, (a'b - ab') / b^2 for a/b, reduced."""
        a, b = self.num, self.den
        return RatFunc(a.derivative() * b - a * b.derivative(), b * b)

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDenominator(f"denominator vanishes at {x}")
        return Fraction(self.num(x)) / Fraction(d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num.coeffs == other.num.coeffs
            and self.den.coeffs == other.den.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)!r})"

    def as_dict(self) -> dict:
        """JSON form: {'num': [...], 'den': [...]} with decimal-string coeffs."""
        return {"num": self.num.coeff_strings(), "den": self.den.coeff_strings()}

    @classmethod
    def from_dict(cls, d: dict) -> "RatFunc":
        return cls(IntPoly(map(int, d["num"])), IntPoly(map(int, d["den"])))


def format_ratfunc(f: RatFunc) -> str:
    num = format_poly(f.num)
    if f.den == IntPoly.one():
        return num
    return f"({num}) / ({format_poly(f.den)})"
