"""Exact univariate polynomial and rational-function arithmetic over Z.

A polynomial is a dense tuple of arbitrary-precision integer coefficients in
ascending powers of R: index k holds the coefficient of R^k.  The zero
polynomial is the empty tuple; nonzero polynomials never carry a trailing
zero, so equal values always have equal representations.

A rational function is a reduced pair of such polynomials: the gcd (content
included) of numerator and denominator is 1 and the denominator has a
positive leading coefficient.  Reduction happens eagerly at construction so
that equality is plain tuple comparison.

Everything here is immutable and pure; scalars are Python ints and
fractions.Fraction.

Two performance notes, because the determinant kernels lean on this module:

* Multiplication switches to Kronecker substitution (pack the coefficients
  into one huge integer, multiply once, unpack) above a small size cutoff.
  CPython's big-integer multiply is subquadratic, which beats the schoolbook
  double loop by a wide margin on the dense high-degree operands produced by
  fraction-free elimination.
* The gcd first strips any common power of R, then tries to prove the
  remaining gcd trivial with a single Euclid run modulo a large prime (valid
  whenever the prime divides neither leading coefficient).  Only when that
  fails does it fall back to a primitive pseudo-remainder sequence.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import InexactDivision, ParseError, ZeroDenominator, at_least

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


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    bound = amax * bmax * min(len(a), len(b))
    width = bound.bit_length() // 8 + 2
    n = len(a) + len(b) - 1
    ap = [c if c > 0 else 0 for c in a]
    an = [-c if c < 0 else 0 for c in a]
    bp = [c if c > 0 else 0 for c in b]
    bn = [-c if c < 0 else 0 for c in b]
    app, anp = _pack(ap, width), _pack(an, width)
    bpp, bnp = _pack(bp, width), _pack(bn, width)
    pos1 = _unpack(app * bpp, width, n)
    pos2 = _unpack(anp * bnp, width, n)
    neg1 = _unpack(app * bnp, width, n)
    neg2 = _unpack(anp * bpp, width, n)
    return _strip([pos1[k] + pos2[k] - neg1[k] - neg2[k] for k in range(n)])


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


def _content_c(a: tuple) -> int:
    g = 0
    for c in a:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g


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


_GCD_PRIMES = (2305843009213693951, 2147483647)  # 2^61-1, 2^31-1


def _polymod_p(a: list, b: list, p: int) -> list:
    inv = pow(b[-1], -1, p)
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db:
        top = r[-1] * inv % p
        if top:
            shift = len(r) - 1 - db
            for j, bj in enumerate(b):
                r[shift + j] = (r[shift + j] - top * bj) % p
        del r[-1]
        while r and r[-1] == 0:
            del r[-1]
    return r


def _gcd_trivial_mod_p(a: tuple, b: tuple) -> bool:
    """True when gcd(a, b) is provably constant.

    Modulo a prime dividing neither leading coefficient, the degree of the
    gcd can only go up, so a constant image certifies a constant gcd.  A
    False answer proves nothing; callers must fall back to the exact PRS.
    """
    for p in _GCD_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        fa = [c % p for c in a]
        fb = [c % p for c in b]
        while fb:
            fa, fb = fb, _polymod_p(fa, fb, p)
        return len(fa) == 1
    return False


def _gcd_c(a: tuple, b: tuple) -> tuple:
    """Gcd in Z[R] (contents included), positive leading coefficient."""
    if not a:
        return b if (not b or b[-1] > 0) else tuple(-c for c in b)
    if not b:
        return a if a[-1] > 0 else tuple(-c for c in a)
    va, vb = _valuation_c(a), _valuation_c(b)
    v = min(va, vb)
    a, b = a[va:], b[vb:]  # strip R powers; common R^v restored at the end
    ca, cb = _content_c(a), _content_c(b)
    c = math.gcd(ca, cb)
    aa = tuple(x // ca for x in a)
    bb = tuple(x // cb for x in b)
    if len(aa) == 1 or len(bb) == 1 or _gcd_trivial_mod_p(aa, bb):
        g: tuple = (c,)
    else:
        if len(aa) < len(bb):
            aa, bb = bb, aa
        while bb:
            rem = _pseudo_rem_c(aa, bb)
            aa = bb
            if not rem:
                break
            cr = _content_c(rem)
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

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(c[:n]))

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
    def const(cls, c: int) -> "IntPoly":
        return cls._raw((c,) if c else ())

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
        return _content_c(self.coeffs)

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
        """Horner evaluation; exact for int or Fraction arguments."""
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

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "IntPoly":
        return cls(int(s) for s in strings)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[R] including integer content, positive leading coefficient."""
    return IntPoly._raw(_gcd_c(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# display / parsing
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


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced ratio of two integer polynomials.

    Canonical form: gcd(num, den) = 1 in Z[R] (integer contents included)
    and den has positive leading coefficient.  The zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly | None = None):
        if den is None:
            den = IntPoly.one()
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

    @classmethod
    def const(cls, c: int) -> "RatFunc":
        return cls(IntPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDenominator("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RatFunc":
        """Exact d/dR by the quotient rule, (a'b - ab') / b^2 for a/b,
        reduced through g = gcd(b, b') rather than a gcd with b^2.

        If q^e exactly divides b (q irreducible, e >= 1), then b = q^e c and
        a'b - ab' = q^(e-1) (a'qc - a(e q'c + qc')).  The bracket is
        -e a q' c mod q, nonzero since q divides none of a (a/b is
        reduced), q' (characteristic 0) and c; likewise q^(e-1) exactly
        divides b'.  So over Q[R] the gcd of a'b - ab' and b^2 is gcd(b,
        b'), and after dividing both by its primitive part g, checked
        exact, they are coprime over Q[R]: by Gauss's lemma only the gcd
        of their contents is left to cancel."""
        a, b = self.num, self.den
        num = a.derivative() * b - a * b.derivative()
        if num.is_zero:
            return RatFunc._raw(num, IntPoly.one())
        g = poly_gcd(b, b.derivative()).primitive()
        num, den = num.divexact(g), b.divexact(g) * b
        c = math.gcd(num.content(), den.content())
        if c > 1:
            num = IntPoly._raw(tuple(x // c for x in num.coeffs))
            den = IntPoly._raw(tuple(x // c for x in den.coeffs))
        return RatFunc._raw(num, den)

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
        return cls(IntPoly.from_strings(d["num"]), IntPoly.from_strings(d["den"]))


def format_ratfunc(f: RatFunc) -> str:
    num = format_poly(f.num)
    if f.den == IntPoly.one():
        return num
    return f"({num}) / ({format_poly(f.den)})"
