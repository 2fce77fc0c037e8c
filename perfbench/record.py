"""Record the expected stdout digest and exit code of every benchmark command.

    python3 perfbench/record.py

Run from the repository root, on the commit whose outputs are the reference.
It writes `perfbench/expected.json`.  The benchmark counts any later
difference as a failed invocation, so this is re-run only when an output
change is intended.
"""

from __future__ import annotations

import json
import os
import sys

from proc import run_cli
from workloads import CAMPAIGNS, SMOKE_CAMPAIGNS, pool, pool_jobs, with_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def commands() -> list:
    out = []
    for argv in [*CAMPAIGNS.values(), *SMOKE_CAMPAIGNS.values()]:
        out.append(argv)
        if pool_jobs(argv) > 1:
            out.append(with_jobs(argv, 1))  # the traced layer pass
    return out + pool()


def main() -> int:
    root = os.path.dirname(HERE)
    expected = {}
    for argv in commands():
        inv = run_cli(argv, root, timeout_s=600)
        if inv.exit_code != 0:
            print(f"exit {inv.exit_code}: oddball {' '.join(argv)}\n{inv.stderr.decode()}",
                  file=sys.stderr)
            return 1
        expected[" ".join(argv)] = {"exit": inv.exit_code, "sha256": inv.sha256,
                                    "bytes": len(inv.stdout)}
        print(f"{inv.wall_s:7.2f} s  oddball {' '.join(argv)}", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
