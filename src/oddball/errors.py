"""Exception types shared across the package, and the input checks that
raise them: every n must be odd and >= 1, every radius a positive rational,
every other integer argument at least its least value (`at_least`).  Every
bad argument raises an `InputError`, which the CLI reports with exit 2;
every other `OddballError` is a failed check.  The checks live here, beside
their errors, so that every module can import them without an import
cycle."""

from fractions import Fraction


class OddballError(Exception):
    """Base class for every error raised by this package."""


class InputError(OddballError, ValueError):
    """A bad argument: base of every error that rejects input."""


class ZeroDenominator(InputError):
    """A rational (number or function) was built with a zero denominator."""


class InexactDivision(OddballError):
    """A division that must be remainder-free left a remainder.

    Fraction-free elimination only ever divides by provably-exact factors,
    so hitting this means the arithmetic itself is broken.  It is never an
    input error.
    """


class EvenDimension(InputError):
    """An operation restricted to odd ambient dimension got an even one."""


class NonpositiveRadius(InputError):
    """A radius (or evaluation point) that must be positive was not."""


class NonpolynomialResidue(OddballError):
    """Clearing the exponential/Laurent factors left negative powers behind."""


class TableTooSmall(InputError):
    """A polynomial table does not cover the indices an operation needs."""


class DimensionTooLarge(OddballError):
    """Cost guard: the cofactor-expansion determinant refuses big matrices."""


class SingularMatrix(OddballError):
    """A linear solve hit a zero determinant."""


class IndexOutOfTriangle(InputError):
    """Coefficient request outside the valid (j, k) triangle."""


class RouteMismatch(OddballError):
    """Two supposedly-equivalent computation routes disagreed."""


class WorkerDied(OddballError):
    """A process-pool worker ended (killed, out of memory, exited) before it
    returned its points, so the table pass has no result."""


class QuadratureNonconvergence(OddballError):
    """Numerical integration failed to reach the requested accuracy."""


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


class IdentityFails(OddballError):
    """The bordered-vs-Hankel determinantal identity failed for some p."""

    def __init__(self, p: int, detail: str = ""):
        self.p = p
        super().__init__(f"determinantal identity fails at p={p}" + (f": {detail}" if detail else ""))


class GoldenMismatch(OddballError):
    """A reproduced table differs from its embedded fixture."""


class ParseError(InputError):
    """Malformed textual input (rational number or polynomial)."""


def at_least(name: str, value: int, least: int) -> int:
    """value, if it is an int (not a bool) >= least; else InputError naming
    the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return value


def odd_dimension(n: int) -> int:
    """p = (n - 1) / 2 for an odd int n >= 1, not a bool; EvenDimension
    otherwise."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or n % 2 == 0:
        raise EvenDimension(f"dimension must be odd and >= 1, got {n!r}")
    return (n - 1) // 2


def positive_radius(r) -> Fraction:
    """r as an exact Fraction: InputError unless r is rational, NonpositiveRadius unless r > 0."""
    try:
        r = Fraction(r)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"radius must be a rational number, got {r!r}") from exc
    if r <= 0:
        raise NonpositiveRadius(f"radius must be positive, got {r}")
    return r
