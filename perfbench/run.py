"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; `oddball` is imported from its `src/`.
Every invocation is a fresh `oddball` process whose stdout digest and exit
code must match `expected.json`.

`--trace 0` measures the end-to-end metrics: the workload's unit of work (one
campaign process, or one `cold_cli` round) repeats until S seconds have
passed, and medians over the units are reported.  Times are scaled by the
calibration kernel, timed between the units (see `calibration.py`).
`--trace 1` runs the unit once untraced and once through `tracer.py`, and
reports the per-layer metrics.  `--smoke` shrinks the campaigns to
`--max 7`, for the benchmark's own tests.

Stdout ends with one JSON line: correct, attempted, failed and metrics.  The
line before it records the run environment and, with `--trace 0`, the
unscaled values.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time

import calibration
from proc import child_env, run_cli, run_process
from workloads import WORKLOADS, campaign, cold_rounds, pool_jobs, with_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 150.0  # one process
RUN_LIMIT_S = 170.0  # the whole run
SETUP_PER_UNIT = 2  # set-up samples taken before each unit of work

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
}

PER_LAYER = {
    "hankel.det_calls": "count",
    "hankel.det_cache_hit_ratio": "ratio",
    "hankel.det_s": "s",
    "hankel.det_self_s": "s",
    "hankel.det_top_s": "s",
    "hankel.bareiss_calls": "count",
    "hankel.bareiss_s": "s",
    "hankel.solve_calls": "count",
    "hankel.solve_s": "s",
    "poly.mul_calls": "count",
    "poly.mul_kronecker_share": "ratio",
    "poly.mul_s": "s",
    "poly.mul_operand_mbits": "Mbit",
    "poly.divexact_calls": "count",
    "poly.divexact_s": "s",
    "poly.gcd_calls": "count",
    "poly.gcd_s": "s",
    "poly.max_coeff_bits": "bit",
    "bessel.table_s": "s",
    "bessel.table_cache_hit_ratio": "ratio",
    "explaurent.diff_calls": "count",
    "explaurent.laplacian_calls": "count",
    "explaurent.s": "s",
    "potential.build_calls": "count",
    "potential.build_s": "s",
    "magnitude.det_route_s": "s",
    "magnitude.bordered_det_s": "s",
    "magnitude.hankel_route_s": "s",
    "magnitude.boundary_route_s": "s",
    "magnitude.boundary_points": "count",
    "magnitude.conjecture_rhs_s": "s",
    "magnitude.integral_calls": "count",
    "magnitude.integral_s": "s",
    "driver.job_busy_s": "s",
    "driver.worker_idle_s": "s",
    "driver.slowest_job_share": "ratio",
    "driver.decode_s": "s",
    "driver.overhead_s": "s",
    "golden.check_s": "s",
    "cli.main_s": "s",
    "cli.outside_s": "s",
    "cli.stdout_bytes": "B",
    "cli.query_p90_ms": "ms",
    "calibration_ms": "ms",
    "trace_overhead_ratio": "ratio",
    "trace.passes": "count",
}


class Checker:
    """Counts invocations and compares each against its recorded output."""

    def __init__(self):
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def timeout(self) -> float:
        """Time the next process may take so that the run ends in time."""
        return max(0.0, min(TIMEOUT_S, self.deadline - time.monotonic()))

    def check(self, argv, exit_code, sha256) -> None:
        self.attempted += 1
        key = " ".join(argv)
        want = self.expected.get(key)
        if want is None:
            problem = "no recorded output"
        elif exit_code != want["exit"]:
            problem = f"exit {exit_code}, expected {want['exit']}"
        elif sha256 != want["sha256"]:
            problem = "stdout differs from the recorded digest"
        else:
            return
        self.failed += 1
        print(f"FAILED oddball {key}: {problem}", file=sys.stderr)

    def cli(self, argv):
        inv = run_cli(argv, ROOT, self.timeout())
        self.check(argv, inv.exit_code, inv.sha256)
        if inv.exit_code != 0:
            sys.stderr.write(inv.stderr.decode("utf-8", "replace")[-2000:])
        return inv


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def environment() -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        with open("/proc/loadavg") as fh:
            loadavg = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        loadavg = None
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_start": loadavg,
        "src_lines": src_lines,
    }


def setup_once() -> float:
    """Time for a fresh interpreter to import `oddball.cli` and exit."""
    inv = run_process([sys.executable, "-c", "import oddball.cli"], child_env(ROOT), ROOT, TIMEOUT_S)
    if inv.exit_code != 0:
        raise SystemExit("importing oddball.cli failed:\n" + inv.stderr.decode("utf-8", "replace"))
    return inv.wall_s


def calibrate() -> float:
    """The calibration kernel's time, in a fresh process like the units'."""
    cmd = [sys.executable, "-S", os.path.join(HERE, "calibration.py")]
    inv = run_process(cmd, child_env(ROOT), ROOT, TIMEOUT_S)
    if inv.exit_code != 0:
        raise SystemExit("calibration failed:\n" + inv.stderr.decode("utf-8", "replace"))
    return float(inv.stdout)


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------

def units_of_work(workload: str, seed: int, smoke: bool):
    """The workload's repeating unit: a list of argv lists."""
    if workload == "cold_cli":
        yield from cold_rounds(seed)
    else:
        while True:
            yield [campaign(workload, smoke)]


def run_unit(checker: Checker, unit: list) -> dict:
    t0 = time.perf_counter()
    invs = [checker.cli(argv) for argv in unit]
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": sum(i.cpu_s for i in invs),
        "peak_rss_mb": max(i.peak_rss_mb for i in invs),
        "latencies": [i.wall_s for i in invs],
    }


def end_to_end(checker: Checker, workload: str, seed: int, seconds: float, smoke: bool):
    """(scaled metrics, unscaled metrics)."""
    setup_once()  # untimed: the first import may still be writing bytecode caches
    units = units_of_work(workload, seed, smoke)
    kernel = []
    setups = []
    reps = []
    t0 = time.perf_counter()
    # set-up and the calibration kernel are sampled around every unit, so
    # their medians span the whole run
    while not reps or time.perf_counter() - t0 < seconds:
        setups += [setup_once() for _ in range(SETUP_PER_UNIT)]
        kernel.append(calibrate())
        reps.append(run_unit(checker, next(units)))
        kernel.append(calibrate())

    latencies = [x for r in reps for x in r["latencies"]]
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "queries_per_s": len(latencies) / sum(r["wall_s"] for r in reps),
        "query_p50_ms": statistics.median(latencies) * 1000.0,
    }
    scale = calibration.NOMINAL_S / statistics.median(kernel)
    scaled = {name: value * scale for name, value in raw.items()}
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    scaled["queries_per_s"] = raw["queries_per_s"] / scale
    raw.update(calibration_ms=statistics.median(kernel) * 1000.0, units=len(reps))
    return scaled, raw


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def trace_passes(workload: str, seed: int, smoke: bool) -> list:
    """(commands, role) per traced pass.

    "all": the workload's own commands with every layer wrapped.
    "driver": a campaign with a worker pool, only the driver wrapped.  It
    gives the driver and cli metrics.  Spans recorded in pool workers never
    reach the parent, so a "layers" pass runs the same campaign with
    `--jobs 1` and every layer wrapped, and gives the layer spans.
    """
    if workload == "cold_cli":
        return [(next(cold_rounds(seed)), "all")]
    argv = campaign(workload, smoke)
    if pool_jobs(argv) > 1:
        return [([argv], "driver"), ([with_jobs(argv, 1)], "layers")]
    return [([argv], "all")]


def _merge(acc: dict, part: dict) -> dict:
    """Sum the layer aggregates of two tracer processes."""
    if not acc:
        return copy.deepcopy(part)
    for name, row in part["spans"].items():
        mine = acc["spans"].setdefault(name, [0, 0.0, 0.0])
        for k in range(3):
            mine[k] += row[k]
    for key in ("kernel_calls", "kernel_s", "driver"):
        for name, v in part[key].items():
            acc[key][name] = acc[key].get(name, 0) + v
    for name, v in part["mul"].items():
        acc["mul"][name] = max(acc["mul"][name], v) if name == "max_coeff_bits" else acc["mul"][name] + v
    if part["det_top"] and (not acc["det_top"] or part["det_top"][:2] > acc["det_top"][:2]):
        acc["det_top"] = part["det_top"]
    for key in ("hankel_cache", "bessel_cache"):
        if key in part:
            old = acc.get(key, [0, 0])
            acc[key] = [old[0] + part[key][0], old[1] + part[key][1]]
    return acc


def _hit_ratio(pair) -> float:
    hits, misses = pair or (0, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def _run_traced(checker: Checker, argv: list, driver_only: bool):
    """One command through tracer.py: (report or None, process wall)."""
    cmd = [sys.executable, os.path.join(HERE, "tracer.py")]
    cmd += (["--driver-only"] if driver_only else []) + ["--", *argv]
    inv = run_process(cmd, child_env(ROOT), ROOT, checker.timeout())
    if inv.exit_code != 0:
        checker.check(argv, None, None)
        sys.stderr.write(inv.stderr.decode("utf-8", "replace")[-2000:])
        return None, inv.wall_s
    report = json.loads(inv.stdout.decode().strip().splitlines()[-1])
    checker.check(argv, report["exit"], report["sha256"])
    return report, inv.wall_s


def traced(checker: Checker, workload: str, seed: int, smoke: bool) -> dict:
    passes = trace_passes(workload, seed, smoke)
    own = [argv for cmds, role in passes if role != "layers" for argv in cmds]
    kernel = [calibrate() for _ in range(3)]
    plain = run_unit(checker, own)  # untraced, for the overhead ratio
    layers: dict = {}
    driver_layers: dict = {}
    cli = {"main_s": 0.0, "traced_wall_s": 0.0, "stdout_bytes": 0}
    for cmds, role in passes:
        for argv in cmds:
            report, wall = _run_traced(checker, argv, role == "driver")
            if role != "layers":
                cli["traced_wall_s"] += wall
            if report is None:
                continue
            if role != "layers":
                cli["main_s"] += report["main_s"]
                cli["stdout_bytes"] += report["bytes"]
                driver_layers = _merge(driver_layers, report["layers"])
            if role != "driver":
                layers = _merge(layers, report["layers"])
    cli["outside_s"] = cli["traced_wall_s"] - cli["main_s"]
    cli["latencies"] = plain["latencies"]
    cli["calibration_ms"] = statistics.median(kernel) * 1000.0
    overhead = cli["traced_wall_s"] / plain["wall_s"]
    return per_layer(layers, driver_layers.get("driver"), cli, overhead, len(passes))


def per_layer(layers: dict, driver: dict, cli: dict, overhead: float, passes: int) -> dict:
    spans = layers.get("spans", {})
    kcalls = layers.get("kernel_calls", {})
    ksec = layers.get("kernel_s", {})
    mul = layers.get("mul", {})
    driver = driver or {}

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    wall = driver.get("wall_s", 0.0)
    lat = cli["latencies"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "hankel.det_calls": calls("hankel.det"),
        "hankel.det_cache_hit_ratio": _hit_ratio(layers.get("hankel_cache")),
        "hankel.det_s": incl("hankel.det"),
        "hankel.det_self_s": spans.get("hankel.det", [0, 0.0, 0.0])[2],
        "hankel.det_top_s": layers["det_top"][2] if layers.get("det_top") else 0.0,
        "hankel.bareiss_calls": calls("hankel.bareiss"),
        "hankel.bareiss_s": incl("hankel.bareiss"),
        "hankel.solve_calls": calls("hankel.solve"),
        "hankel.solve_s": incl("hankel.solve"),
        "poly.mul_calls": mul.get("calls", 0),
        "poly.mul_kronecker_share": mul["kronecker"] / mul["calls"] if mul.get("calls") else 0.0,
        "poly.mul_s": ksec.get("poly.mul", 0.0),
        "poly.mul_operand_mbits": mul.get("operand_bits", 0) / 1e6,
        "poly.divexact_calls": kcalls.get("poly.divexact", 0),
        "poly.divexact_s": ksec.get("poly.divexact", 0.0),
        "poly.gcd_calls": kcalls.get("poly.gcd", 0),
        "poly.gcd_s": ksec.get("poly.gcd", 0.0),
        "poly.max_coeff_bits": mul.get("max_coeff_bits", 0),
        "bessel.table_s": incl("bessel.table"),
        "bessel.table_cache_hit_ratio": _hit_ratio(layers.get("bessel_cache")),
        "explaurent.diff_calls": kcalls.get("explaurent.diff", 0),
        "explaurent.laplacian_calls": kcalls.get("explaurent.laplacian", 0),
        "explaurent.s": sum(v for k, v in ksec.items() if k.startswith("explaurent.")),
        "potential.build_calls": calls("potential.build"),
        "potential.build_s": incl("potential.build"),
        "magnitude.det_route_s": incl("magnitude.det_route"),
        "magnitude.bordered_det_s": incl("magnitude.bordered_det"),
        "magnitude.hankel_route_s": incl("magnitude.hankel_route"),
        "magnitude.boundary_route_s": incl("magnitude.boundary_route"),
        "magnitude.boundary_points": calls("magnitude.boundary_point"),
        "magnitude.conjecture_rhs_s": incl("magnitude.conjecture_rhs"),
        "magnitude.integral_calls": calls("magnitude.integral"),
        "magnitude.integral_s": incl("magnitude.integral"),
        "driver.job_busy_s": driver.get("busy_s", 0.0),
        "driver.worker_idle_s": driver.get("idle_s", 0.0),
        "driver.slowest_job_share": driver.get("slowest_s", 0.0) / wall if wall else 0.0,
        "driver.decode_s": driver.get("decode_s", 0.0),
        "driver.overhead_s": driver.get("overhead_s", 0.0),
        "golden.check_s": incl("golden.check"),
        "cli.main_s": cli["main_s"],
        "cli.outside_s": cli["outside_s"],
        "cli.stdout_bytes": cli["stdout_bytes"],
        "cli.query_p90_ms": p90 * 1000.0,
        "calibration_ms": cli["calibration_ms"],
        "trace_overhead_ratio": overhead,
        "trace.passes": passes,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oddball", "cli.py")):
        print(f"no oddball sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    info = {"env": environment(), "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke}
    checker = Checker()
    if args.trace:
        values, units = traced(checker, args.workload, args.seed, args.smoke), PER_LAYER
    else:
        values, info["unscaled"] = end_to_end(checker, args.workload, args.seed, args.seconds,
                                              args.smoke)
        units = END_TO_END
    print(json.dumps(info))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
