"""Exception types shared across the package, and the one check of each
kind of argument, for the library and the CLI alike: `odd_dimension` for
every n (odd and >= 1), `positive_radius` for every radius (a positive
rational, given as an int, a Fraction or the text P or P/Q; never a float),
`exact` for every evaluation point, coefficient and scale (an int or a
Fraction of any sign) and every exponent (an int), and `at_least` for every
other integer argument.  Each check takes the argument's name, which only
labels its message: the CLI passes its flag.
Every bad argument raises an `InputError`, which the CLI reports with exit 2;
every other `OddballError` is a failed check, which it reports with exit 1:
a campaign raises `Disagreement` when two routes differ (a failed
determinantal identity is the equality campaign's), `ConjectureFails` or
`ObservationFails`.  The checks live here, beside their errors, so that
every module can import them without an import cycle."""

import re
from fractions import Fraction


class OddballError(Exception):
    """Base class for every error raised by this package."""


class InputError(OddballError, ValueError):
    """A bad argument: base of every error that rejects input."""


class ZeroDenominator(InputError):
    """A rational (number or function) was built with a zero denominator."""


class InexactDivision(OddballError):
    """A division that must be remainder-free left a remainder.

    The point recurrences, the interpolation and fraction-free elimination
    divide only by provably-exact factors, so hitting this means the
    arithmetic itself is broken.  It is never an input error.
    """


class EvenDimension(InputError):
    """An operation restricted to odd ambient dimension got an even one."""


class NonpositiveRadius(InputError):
    """A radius (or evaluation point) that must be positive was not."""


class TableTooSmall(InputError):
    """A polynomial table does not cover the indices an operation needs."""


class SingularMatrix(OddballError):
    """A linear solve hit a zero determinant."""


class RouteMismatch(OddballError):
    """Two supposedly-equivalent computation routes disagreed."""


class WorkerDied(OddballError):
    """A forked helper of the table pass ended (killed, out of memory,
    exited) before it sent its points, so the pass has no result."""


class Disagreement(OddballError):
    """Two magnitude formulas produced different rational functions."""

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"magnitude formulas disagree at n={n}" + (f": {detail}" if detail else ""))


class ObservationFails(OddballError):
    """The numerator-proportionality observation failed for some n."""

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"observation fails at n={n}" + (f": {detail}" if detail else ""))


class ConjectureFails(OddballError):
    """The magnitude-derivative conjecture failed for some n."""

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        super().__init__(f"derivative conjecture fails at n={n}" + (f": {detail}" if detail else ""))


class GoldenMismatch(OddballError):
    """A reproduced table differs from its embedded fixture."""


class ParseError(InputError):
    """Malformed textual input (rational number or polynomial)."""


def exact(x, name: str, kinds: str = "an int or a Fraction", types=(int, Fraction)):
    """x, if it is one of types but not a bool (never a float or a Decimal);
    otherwise InputError naming the argument and the kinds it takes.  Zero
    and negative values pass: a point, coefficient or exponent may be either."""
    if isinstance(x, types) and not isinstance(x, bool):
        return x
    raise InputError(f"{name} must be {kinds}, got {x!r}")


def at_least(name: str, value: int, least: int) -> int:
    """value, if it is an int (not a bool) >= least; else InputError naming
    the argument."""
    if exact(value, name, "an integer", int) < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return value


def odd_dimension(n: int, name: str = "dimension") -> int:
    """p = (n - 1) / 2 for an odd int n >= 1, not a bool; EvenDimension
    naming the argument otherwise."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or n % 2 == 0:
        raise EvenDimension(f"{name} must be odd and >= 1, got {n!r}")
    return (n - 1) // 2


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def positive_radius(r, name: str = "radius") -> Fraction:
    """r as an exact Fraction, if it is an int (not a bool), a Fraction, or
    the text P or P/Q with blanks around it allowed; otherwise InputError
    naming the argument, and NonpositiveRadius unless r > 0.  A float is
    refused: its binary value is not the rational its digits spell."""
    if isinstance(r, str):
        text = r.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"{name} is not a rational number: {r!r}")
        try:
            r = Fraction(text)
        except ZeroDivisionError:
            raise ZeroDenominator(f"zero denominator in {name} {r!r}") from None
        except ValueError as exc:  # more digits than int() may convert
            raise ParseError(f"{name} is not a rational number: {r!r}") from exc
    else:
        r = Fraction(exact(r, name, "an int, a Fraction or P/Q text"))
    if r <= 0:
        raise NonpositiveRadius(f"{name} must be positive, got {r}")
    return r
