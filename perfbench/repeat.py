"""Run the benchmark several times per workload and report the spread.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--workloads a,b]
                                [--seconds 20] [--trace 1] [--out FILE]

Each run uses another seed.  For every metric it prints the median and the
distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), next to a third of the metric's bound
from BENCHMARK.json, and the spread the unscaled values (before the
calibration scaling of `calibration.py`) would have had.  With --out, every
run's result line and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])
            runs.append({"seed": seed, "env": info["env"], "unscaled": info.get("unscaled"),
                         "result": result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "unit": runs[0]["result"]["metrics"][name]["unit"]}
            if len(values) >= 2:
                row["iqr_share"] = spread(values)
                if runs[0]["unscaled"]:
                    row["unscaled_iqr_share"] = spread([r["unscaled"][name] for r in runs])
            summary[name] = row
            if name in bounds and "iqr_share" in row:
                flag = "ok" if row["iqr_share"] < bounds[name] / 3 else "WIDE"
                print(f"  {name:16s} median {row['median']:12.5g} {row['unit']:5s} "
                      f"iqr/median {row['iqr_share']:.4f}  bound/3 {bounds[name] / 3:.4f}  {flag}"
                      f"  (unscaled {row['unscaled_iqr_share']:.4f})")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
