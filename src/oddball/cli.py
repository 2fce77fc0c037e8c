"""Command-line interface.

Subcommands: chi, det, potential, magnitude, verify {equality, observation,
derivative, boundary, integral}, reproduce.  Output formats are canonical JSON
(deterministic: sorted keys, compact separators, polynomials as decimal
coefficient strings in ascending powers), CSV (one row per n; magnitude
and the equality, derivative and boundary campaigns only), or a pretty
rendering in descending powers.  Exit codes: 0 success, 1 verification
failure, 2 usage error (argparse's, or any InputError).

The CLI defines no check of its own: every argument goes through the
library's `errors.at_least`, `odd_dimension` or `positive_radius`, given the
flag's name for its message.  Radii are exact rationals written as P or
P/Q; there is no floating point radius path.  The quadrature check runs at
DEFAULT_PRECISION mantissa bits.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import os
import sys
import time
from fractions import Fraction

from . import golden
from .bessel import reverse_bessel
from .errors import (
    GoldenMismatch,
    InputError,
    OddballError,
    QuadratureNonconvergence,
    at_least,
    odd_dimension,
    positive_radius,
)
from .hankel import _usable_cpus, hankel_det
from .magnitude import (
    magnitude_boundary,
    magnitude_det,
    magnitude_hankel,
    verify_derivative_conjecture,
    verify_formula_equality,
    verify_integral_lemma,
    verify_observation,
    verify_triple_route,
)
from .poly import format_poly, format_ratfunc
from .potential import (
    build_potential,
    verify_annihilation,
    verify_boundary_conditions,
    verify_limit_derivative,
)

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _add_format_flags(parser, default="pretty", csv=False):
    """--json and --pretty, and --csv for the commands with a CSV rendering."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", dest="fmt", action="store_const", const="json")
    if csv:
        group.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    group.add_argument("--pretty", dest="fmt", action="store_const", const="pretty")
    parser.set_defaults(fmt=default)


def _emit_records(records, fmt) -> None:
    """records: list of dicts with keys n, route, func (a RatFunc), agree,
    millis, and optionally value."""
    if fmt == "json":
        canonical = []
        for r in records:
            rec = {
                "n": r["n"],
                "route": r["route"],
                **r["func"].as_dict(),
                "agree": r["agree"],
                "millis": None,  # dropped for byte-stable output
            }
            if "value" in r:
                rec["value"] = r["value"]
            canonical.append(rec)
        print(_dump(canonical))
    elif fmt == "csv":
        print("n,num,den")
        for r in records:
            d = r["func"].as_dict()
            print("{},{},{}".format(r["n"], " ".join(d["num"]), " ".join(d["den"])))
    else:
        for r in records:
            mark = "ok" if r["agree"] else "DISAGREE"
            print(f"n={r['n']:>3} [{r['route']}] {format_ratfunc(r['func'])}   ({mark}, {r['millis']:.1f} ms)")


def _record(n, route, func, millis, agree=True, **extra):
    return {"n": n, "route": route, "func": func, "agree": agree, "millis": millis, **extra}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_chi(args) -> int:
    table = reverse_bessel(at_least("--max", args.max_index, 0))
    if args.fmt == "json":
        print(_dump({"max_index": table.max_index,
                     "polys": [p.coeff_strings() for p in table.polys]}))
    else:
        for i, p in enumerate(table.polys):
            print(f"chi_{i} = {format_poly(p)}")
    return 0


def _cmd_det(args) -> int:
    d = hankel_det(at_least("--p", args.p, 0) + 1, at_least("--offset", args.offset, 0))
    if args.fmt == "json":
        print(_dump({"p": args.p, "offset": args.offset, "det": d.coeff_strings()}))
    else:
        print(format_poly(d))
    return 0


def _cmd_potential(args) -> int:
    radius = positive_radius(args.radius, "--radius")
    odd_dimension(args.n, "--n")
    pot = build_potential(args.n, radius)
    payload = {
        "n": args.n,
        "radius": str(radius),
        "coeffs": [f.as_dict() for f in pot.coeff_funcs],
        "coeff_values": [str(c) for c in pot.coeffs],
    }
    status = 0
    if args.verify:
        checks = {
            "boundary": verify_boundary_conditions(pot),
            "annihilation": verify_annihilation(pot),
            "limit_derivative": verify_limit_derivative(pot),
        }
        payload["checks"] = checks
        if not all(checks.values()):
            status = 1
    if args.fmt == "json":
        print(_dump(payload))
    else:
        for i, f in enumerate(pot.coeff_funcs):
            print(f"coeff_{i} = {format_ratfunc(f)} = {pot.coeffs[i]} at R={payload['radius']}")
        for name, ok in payload.get("checks", {}).items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return status


def _cmd_magnitude(args) -> int:
    radius = None if args.radius is None else positive_radius(args.radius, "--radius")
    odd_dimension(args.n, "--n")
    routes = ("det", "hankel", "boundary") if args.route == "all" else (args.route,)
    route_fns = {"det": magnitude_det, "hankel": magnitude_hankel, "boundary": magnitude_boundary}
    values, millis = {}, {}
    for route in routes:
        t0 = time.perf_counter()
        values[route] = route_fns[route](args.n)
        millis[route] = (time.perf_counter() - t0) * 1000.0
    agree = len(set(values.values())) == 1
    records = []
    for route in routes:
        extra = {} if radius is None else {"value": str(values[route](radius))}
        records.append(_record(args.n, route, values[route], millis[route], agree, **extra))
    _emit_records(records, args.fmt)
    if radius is not None and args.fmt == "pretty":
        print(f"value at R={radius}: {values[routes[0]](radius)}")
    return 0 if agree else 1


def _cmd_verify_sweep(args) -> int:
    """A route-comparison campaign; the parser sets its function, its route
    label and its default and --extended bounds."""
    if args.max_n is not None:
        max_n = args.max_n
    else:
        max_n = args.extended_max if args.extended else args.default_max
    kwargs = {"jobs": at_least("--jobs", args.jobs, 1)} if "jobs" in args else {}
    odd_dimension(max_n, "--max")
    report = args.campaign(max_n, **kwargs)
    records = [_record(e.n, args.route, e.value, e.millis) for e in report.entries]
    _emit_records(records, args.fmt)
    return 0


def _cmd_verify_observation(args) -> int:
    max_n = args.max_n if args.max_n is not None else 25
    odd_dimension(max_n, "--max")
    report = verify_observation(max_n)
    if args.fmt == "json":
        print(_dump([
            {"n": e.n, "route": "observation", "power": e.power_shift,
             "constant": str(e.constant), "agree": True, "millis": None}
            for e in report.entries
        ]))
    else:
        for e in report.entries:
            print(f"n={e.n:>3} numerators match: constant={e.constant} "
                  f"power-shift={e.power_shift} ({e.millis:.1f} ms)")
    return 0


def _integral_grid():
    radii = (Fraction(1), Fraction(3, 2), Fraction(3))
    for s in itertools.count():
        for i in range(s + 1):
            for radius in radii:
                yield i, s - i, radius


def _cmd_verify_integral(args) -> int:
    at_least("--samples", args.samples, 0)
    count = 0
    ok = True
    for i, b, radius in itertools.islice(_integral_grid(), args.samples):
        ok = verify_integral_lemma(i, b, radius)
        count += 1
        if args.fmt != "json":
            print(f"i={i} b={b} R={radius}: {'pass' if ok else 'FAIL'}")
        if not ok:
            break
    if args.fmt == "json":
        print(_dump({"samples": count, "agree": ok}))
    elif ok:
        print(f"{count} quadrature checks passed")
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    results = golden.check_all()
    bad = []
    for r in results:
        line = f"{r.table:22s} n={r.n}: {'pass' if r.ok else 'FAIL'}"
        print(line)
        if not r.ok:
            bad.append(r)
    if bad:
        for r in bad:
            want = _dump(r.expected)
            got = _dump(r.got)
            diff = "\n".join(difflib.unified_diff(
                want.splitlines(), got.splitlines(),
                fromfile=f"expected/{r.table}/n={r.n}", tofile=f"computed/{r.table}/n={r.n}",
                lineterm="",
            ))
            print(diff, file=sys.stderr)
        raise GoldenMismatch(f"{len(bad)} golden table entries differ")
    print(f"all {len(results)} golden entries reproduced")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oddball",
        description="Exact magnitude of odd-dimensional balls via Hankel determinants "
                    "of reverse Bessel polynomials, with verification campaigns.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    chi = sub.add_parser("chi", help="print reverse Bessel polynomials 0..N")
    chi.add_argument("--max", dest="max_index", type=int, required=True)
    _add_format_flags(chi, default="json")
    chi.set_defaults(func=_cmd_chi)

    det = sub.add_parser("det", help="Hankel determinant det[B_{i+j+offset}], i,j=0..p")
    det.add_argument("--p", type=int, required=True)
    det.add_argument("--offset", type=int, default=0)
    _add_format_flags(det, default="json")
    det.set_defaults(func=_cmd_det)

    pot = sub.add_parser("potential", help="potential-function coefficients at a rational radius")
    pot.add_argument("--n", type=int, required=True)
    pot.add_argument("--radius", type=str, required=True, metavar="P/Q")
    pot.add_argument("--verify", action="store_true",
                     help="also run boundary, annihilation and limit-derivative checks")
    _add_format_flags(pot, default="json")
    pot.set_defaults(func=_cmd_potential)

    mag = sub.add_parser("magnitude", help="magnitude of the n-ball as a rational function")
    mag.add_argument("--n", type=int, required=True)
    mag.add_argument("--radius", type=str, default=None, metavar="P/Q")
    mag.add_argument("--route", choices=("det", "hankel", "boundary", "all"), default="hankel")
    _add_format_flags(mag, csv=True)
    mag.set_defaults(func=_cmd_magnitude)

    ver = sub.add_parser("verify", help="verification campaigns")
    versub = ver.add_subparsers(dest="check", required=True)

    def _campaign(name, helptext, handler, with_jobs=True, **defaults):
        """defaults: for a route comparison, campaign, route, default_max
        and extended_max, which also add --extended and --csv."""
        c = versub.add_parser(name, help=helptext)
        c.add_argument("--max", dest="max_n", type=int, default=None)
        if with_jobs:
            c.add_argument("--jobs", type=int, default=_usable_cpus())
        if "extended_max" in defaults:
            c.add_argument("--extended", action="store_true")
        _add_format_flags(c, csv="extended_max" in defaults)
        c.set_defaults(func=handler, **defaults)
        return c

    _campaign("equality", "determinant route == Hankel route", _cmd_verify_sweep,
              campaign=verify_formula_equality, route="equality",
              default_max=25, extended_max=39)
    _campaign("observation", "magnitude numerator matches the coefficient two dimensions up",
              _cmd_verify_observation, with_jobs=False)
    _campaign("derivative", "derivative of the magnitude matches the Hankel form",
              _cmd_verify_sweep, campaign=verify_derivative_conjecture, route="derivative",
              default_max=33, extended_max=57)
    _campaign("boundary", "boundary-integral route agrees with both determinant routes",
              _cmd_verify_sweep, with_jobs=False, campaign=verify_triple_route,
              route="boundary", default_max=15, extended_max=33)

    integ = versub.add_parser("integral", help="quadrature check of the closed-form integral")
    integ.add_argument("--samples", type=int, default=60)
    _add_format_flags(integ)
    integ.set_defaults(func=_cmd_verify_integral)

    rep = sub.add_parser("reproduce", help="recompute every golden table and diff")
    rep.set_defaults(func=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); devnull keeps the final flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureNonconvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OddballError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
