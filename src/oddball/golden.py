"""Reference fixtures: the known closed forms for low odd dimensions.

These tables pin the engine's output bit-for-bit.  Polynomials are stored as
ascending integer coefficient tuples, exactly as printed in the standard
references for these quantities; the one dimension whose numerator is too
long to print anywhere (the degree-10 polynomial shared by the magnitude in
dimension 7 and the leading solve coefficient in dimension 9) is recorded in
full here after being derived by two independent determinant routes, and its
leading and trailing printed terms are still asserted verbatim.

The reproduction command and the golden tests both consume these tables;
they must never be regenerated from the code they test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GoldenMismatch
from .hankel import unit_solution
from .magnitude import magnitude_det, magnitude_hankel
from .poly import IntPoly, RatFunc
from .potential import boundary_limit_derivative


def _rf(num_coeffs, den_coeffs=(1,)) -> RatFunc:
    f = RatFunc(IntPoly(num_coeffs), IntPoly(den_coeffs))
    # fixtures are stated in lowest terms; refuse any that silently reduce
    if f.num.coeffs != tuple(num_coeffs) or f.den.coeffs != tuple(den_coeffs):
        raise GoldenMismatch(f"fixture {num_coeffs} / {den_coeffs} is not in lowest terms")
    return f


def _scaled(scalar: int, coeffs) -> tuple:
    return tuple(scalar * c for c in coeffs)


def _square(coeffs) -> tuple:
    return (IntPoly(coeffs) * IntPoly(coeffs)).coeffs


# shared denominators (monic part only; factorial scale applied per table)
_DEN5 = (3, 1)                                # R + 3
_DEN7 = (60, 48, 12, 1)                       # R^3 + 12R^2 + 48R + 60
_DEN9 = (12600, 16920, 9000, 2475, 375, 30, 1)

# degree-10 numerator shared by |B^7| and the n=9 leading coefficient;
# middle coefficients derived (two agreeing determinant routes), ends printed
_NUM10 = (302400, 1209600, 1814400, 1467900, 730800, 238140, 52080, 7620, 720, 40, 1)
NUM10_TOP_DESC = (1, 40, 720)        # printed leading terms, descending
NUM10_LOW_ASC = (302400, 1209600, 1814400)  # printed trailing terms, ascending

_NUM5 = (360, 1080, 1080, 525, 135, 18, 1)
_NUM3 = (6, 12, 6, 1)

# last-coefficient numerators
_AP5 = (2, 1)                                 # R + 2
_AP7 = (24, 27, 9, 1)                         # R^3 + 9R^2 + 27R + 24 (sign applied below)
_AP9 = (2880, 5220, 3600, 1260, 240, 24, 1)


MAGNITUDE = {
    1: _rf((1, 1)),
    3: _rf(_NUM3, (math.factorial(3),)),
    5: _rf(_NUM5, _scaled(math.factorial(5), _DEN5)),
    7: _rf(_NUM10, _scaled(math.factorial(7), _DEN7)),
}

FIRST_COEFF = {
    1: _rf((1,)),
    3: _rf((1, 1)),
    5: _rf(_NUM3, _scaled(math.factorial(2), _DEN5)),
    7: _rf(_NUM5, _scaled(math.factorial(3), _DEN7)),
    9: _rf(_NUM10, _scaled(math.factorial(4), _DEN9)),
}

LAST_COEFF = {
    1: _rf((1,)),
    3: _rf((-1,)),
    5: _rf(_AP5, _scaled(math.factorial(2), _DEN5)),
    7: _rf(tuple(-c for c in _AP7), _scaled(math.factorial(3), _DEN7)),
    9: _rf(_AP9, _scaled(math.factorial(4), _DEN9)),
}

LIMIT_DERIVATIVE = {
    1: _rf((-1,)),
    3: _rf((-2, -1), (0, 1)),
    5: _rf(tuple(-c for c in _AP7), (0, 0) + _DEN5),
    7: _rf(tuple(-c for c in _AP9), (0, 0, 0) + _DEN7),
}

MAGNITUDE_DERIVATIVE = {
    1: _rf((1,)),
    3: _rf(_square((2, 1)), (math.factorial(2),)),
    5: _rf(_square(_AP7), _scaled(math.factorial(4), _square(_DEN5))),
    7: _rf(_square(_AP9), _scaled(math.factorial(6), _square(_DEN7))),
}


class GoldenResult(NamedTuple):
    table: str
    n: int
    ok: bool
    expected: dict
    got: dict


def check_all() -> list:
    """Recompute every fixture from the engine and diff, table by table.
    Each table names its routes: every one must reproduce the fixture, and
    the first one's value is reported."""
    tables = (
        ("magnitude", MAGNITUDE, (magnitude_det, magnitude_hankel)),
        ("first-coeff", FIRST_COEFF, (lambda n: unit_solution((n - 1) // 2)[0],)),
        ("last-coeff", LAST_COEFF, (lambda n: unit_solution((n - 1) // 2)[-1],)),
        ("limit-derivative", LIMIT_DERIVATIVE, (boundary_limit_derivative,)),
        ("magnitude-derivative", MAGNITUDE_DERIVATIVE, (lambda n: magnitude_hankel(n).derivative(),)),
    )
    results = []
    for table, fixtures, routes in tables:
        for n, want in sorted(fixtures.items()):
            got = [route(n) for route in routes]
            ok = all(g == want for g in got)
            results.append(GoldenResult(table, n, ok, want.as_dict(), got[0].as_dict()))

    # the printed ends of the long numerator are their own fixture
    top = tuple(reversed(_NUM10[-3:]))
    low = _NUM10[:3]
    ends_ok = top == NUM10_TOP_DESC and low == NUM10_LOW_ASC
    results.append(
        GoldenResult(
            "long-numerator-ends",
            7,
            ends_ok,
            {"top_desc": list(NUM10_TOP_DESC), "low_asc": list(NUM10_LOW_ASC)},
            {"top_desc": list(top), "low_asc": list(low)},
        )
    )
    return results
