"""Run one `oddball` command in-process with its layers instrumented.

    python3 perfbench/tracer.py [--driver-only] -- <oddball arguments>

The public functions of each `oddball` module are rebound, in every module
namespace that holds them and on `IntPoly`, `RatFunc` and `ExpLaurent`, to
wrappers that open a span or count a kernel call.  Nothing under `src/` is
edited.  The command's stdout is captured and digested, so the caller can
check that tracing left it byte-identical.  One JSON object with the raw
per-layer sums goes to the real stdout at the end.

`--driver-only` wraps just the campaign driver.  It is for runs with a
worker pool: forked workers inherit the wrappers but their spans never come
back, so the layer spans are taken from a `--jobs 1` run instead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import time
from collections import Counter

from spans import Recorder, totals_by_name

_clock = time.perf_counter


def _rebind(original, replacement) -> None:
    """Point every `oddball` module global that is `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "oddball" or modname.startswith("oddball."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _bits(coeffs) -> int:
    return sum(map(int.bit_length, coeffs))


class Instrumentation:
    def __init__(self):
        # Spans read a clock that stands still while an observer runs, so
        # the tracer's own bookkeeping is in no span's inclusive or self time.
        self._observer_s = 0.0
        self.rec = Recorder(lambda: _clock() - self._observer_s)
        self.kernel_calls: Counter = Counter()
        self.kernel_s: Counter = Counter()
        self._in_kernel = False
        self.mul = {"calls": 0, "kronecker": 0, "operand_bits": 0, "max_coeff_bits": 0}
        self.det_top = None  # (size, offset, seconds) of the largest determinant computed
        self.campaigns: list = []  # (span id, wall seconds, jobs, report)

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(sid)

        return wrapper

    def campaign(self, fn):
        """A span around a campaign that also keeps its report and its wall
        time on the real clock, which `CampaignEntry.millis` is measured on."""
        traced = self.span("driver.campaign", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.rec.spans)
            t0 = _clock()
            report = traced(*args, **kwargs)
            jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
            self.campaigns.append((sid, _clock() - t0, jobs, report))
            return report

        return wrapper

    def kernel(self, name, fn, observe=None, skip=None):
        """Count every call; time only the outermost kernel call, charging it
        to the innermost open span instead of recording a span.  Calls for
        which `skip(args)` is true are neither counted nor timed."""
        rec = self.rec
        calls = self.kernel_calls
        seconds = self.kernel_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            calls[name] += 1
            if self._in_kernel:
                return fn(*args, **kwargs)
            self._in_kernel = True
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._in_kernel = False
                seconds[name] += dt
                rec.add_kernel_time(dt)
            if observe is not None:
                t1 = _clock()
                observe(args, result)
                self._observer_s += _clock() - t1
            return result

        return wrapper

    # -- observers -----------------------------------------------------------

    def _scalar_mul(self, args) -> bool:
        """A scalar multiple is not a polynomial product: it is left out."""
        return not isinstance(args[1], self._intpoly)

    def _observe_mul(self, args, result):
        a, b = args
        m = self.mul
        m["calls"] += 1
        la, lb = len(a.coeffs), len(b.coeffs)
        if la > 1 and lb > 1 and la * lb > self._cutoff:
            m["kronecker"] += 1
        m["operand_bits"] += _bits(a.coeffs) + _bits(b.coeffs)
        top = max(map(int.bit_length, result.coeffs), default=0)
        if top > m["max_coeff_bits"]:
            m["max_coeff_bits"] = top

    # -- installation ------------------------------------------------------------

    def install(self, driver_only: bool) -> None:
        from oddball import bessel, golden, hankel, magnitude, poly, potential
        from oddball.explaurent import ExpLaurent
        from oddball.poly import IntPoly, RatFunc

        for fname in ("verify_formula_equality", "verify_derivative_conjecture",
                      "verify_triple_route", "verify_observation"):
            fn = getattr(magnitude, fname)
            _rebind(fn, self.campaign(fn))
        _rebind(magnitude._run_jobs, self.span("driver.run_jobs", magnitude._run_jobs))
        from_dict = RatFunc.__dict__["from_dict"].__func__
        RatFunc.from_dict = classmethod(self.span("driver.decode", from_dict))
        if driver_only:
            return

        self.hankel_cache = hankel.hankel_det
        self.bessel_cache = bessel.bessel_by_recurrence
        _rebind(hankel.hankel_det, self._traced_hankel_det(hankel.hankel_det))
        for name, fn in (("hankel.bareiss", hankel.det_bareiss),
                         ("hankel.solve", hankel.solve_unit_rhs),
                         ("bessel.table", bessel.reverse_bessel),
                         ("potential.build", potential.build_potential),
                         ("magnitude.det_route", magnitude.magnitude_det),
                         ("magnitude.bordered_det", magnitude._bordered_det),
                         ("magnitude.hankel_route", magnitude.magnitude_hankel),
                         ("magnitude.boundary_route", magnitude.magnitude_boundary),
                         ("magnitude.boundary_point", magnitude.boundary_value_at),
                         ("magnitude.conjecture_rhs", magnitude.derivative_conjecture_rhs),
                         ("magnitude.integral", magnitude.verify_integral_lemma),
                         ("golden.check", golden.check_all)):
            _rebind(fn, self.span(name, fn))

        self._intpoly, self._cutoff = IntPoly, poly._KRONECKER_CUTOFF
        mul = self.kernel("poly.mul", IntPoly.__mul__, self._observe_mul, self._scalar_mul)
        IntPoly.__mul__ = mul
        IntPoly.__rmul__ = mul
        IntPoly.divexact = self.kernel("poly.divexact", IntPoly.divexact)
        _rebind(poly.poly_gcd, self.kernel("poly.gcd", poly.poly_gcd))
        for meth in ("diff", "laplacian", "laurent_at", "mul_rpow", "scale",
                     "__add__", "__sub__", "__neg__"):
            setattr(ExpLaurent, meth, self.kernel(f"explaurent.{meth}", getattr(ExpLaurent, meth)))

    def _traced_hankel_det(self, cached):
        """Span every call; a call that misses the cache computed a
        determinant, and the largest one by (size, offset) is kept."""
        traced = self.span("hankel.det", cached)

        @functools.wraps(cached)
        def hankel_det(size, offset):
            misses = cached.cache_info().misses
            sid = len(self.rec.spans)
            result = traced(size, offset)
            if cached.cache_info().misses > misses:
                if self.det_top is None or (size, offset) > self.det_top[:2]:
                    self.det_top = (size, offset, self.rec.spans[sid].duration)
            return result

        return hankel_det

    # -- summary -------------------------------------------------------------------

    def summary(self) -> dict:
        spans = self.rec.spans
        driver = {"busy_s": 0.0, "idle_s": 0.0, "wall_s": 0.0, "slowest_s": 0.0,
                  "overhead_s": 0.0, "campaigns": 0}
        for sid, wall, jobs, report in self.campaigns:
            millis = [e.millis for e in report.entries]
            busy = sum(millis) / 1000.0
            workers = min(jobs, len(millis)) if jobs > 1 and len(millis) > 1 else 1
            in_jobs = sum(s.duration for s in spans if s.parent == sid and s.name == "driver.run_jobs")
            driver["busy_s"] += busy
            driver["idle_s"] += workers * wall - busy
            driver["wall_s"] += wall
            driver["slowest_s"] += max(millis, default=0.0) / 1000.0
            # campaigns that loop inline run their jobs outside _run_jobs
            driver["overhead_s"] += wall - (in_jobs if in_jobs else busy)
            driver["campaigns"] += 1
        totals = totals_by_name(spans)
        driver["decode_s"] = totals.get("driver.decode", [0, 0.0, 0.0])[1]
        out = {
            "spans": totals,
            "kernel_calls": dict(self.kernel_calls),
            "kernel_s": dict(self.kernel_s),
            "mul": self.mul,
            "det_top": self.det_top,
            "driver": driver,
        }
        for key in ("hankel_cache", "bessel_cache"):
            cached = getattr(self, key, None)
            if cached is not None:
                info = cached.cache_info()
                out[key] = [info.hits, info.misses]
        return out


def main(argv: list) -> int:
    driver_only = argv[:1] == ["--driver-only"]
    if driver_only:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        print("usage: tracer.py [--driver-only] -- <oddball arguments>", file=sys.stderr)
        return 2
    cli_argv = argv[1:]
    from oddball import cli

    inst = Instrumentation()
    inst.install(driver_only)
    buf = io.StringIO()
    t0 = _clock()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(cli_argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    main_s = _clock() - t0
    out = buf.getvalue().encode("utf-8")
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "bytes": len(out),
        "main_s": main_s,
        "layers": inst.summary(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
