"""The benchmark's workloads: which `oddball` commands each one runs.

Each sweep runs one verification campaign, one process per unit of work, on
fixed inputs; the seed does not touch them.  `cold_cli` draws its commands
from a finite pool whose outputs were recorded.  The pool has one class per
query line of the README's CLI section, so each line's command gets an equal
share of the queries.  A round runs every class once, in a seeded order,
each time with a seeded variant (radius, offset or output format), so every
seed does the same amount of work and differs only in its inputs.
"""

from __future__ import annotations

import random

# One unit of each sweep: one campaign process.  --jobs 2 is fixed rather
# than os.cpu_count() so the input does not depend on the machine; it is the
# core count of the reference box.
CAMPAIGNS = {
    "derivative_sweep": ["verify", "derivative", "--max", "27", "--jobs", "1", "--json"],
    "equality_sweep": ["verify", "equality", "--max", "27", "--jobs", "2", "--json"],
    "boundary_sweep": ["verify", "boundary", "--max", "15", "--json"],
}

SMOKE_CAMPAIGNS = {
    "derivative_sweep": ["verify", "derivative", "--max", "7", "--jobs", "1", "--json"],
    "equality_sweep": ["verify", "equality", "--max", "7", "--jobs", "2", "--json"],
    "boundary_sweep": ["verify", "boundary", "--max", "7", "--json"],
}

WORKLOADS = (*CAMPAIGNS, "cold_cli")

_RADII = ("1/2", "1", "3/2", "7/3", "5")
_FORMATS = ("--json", "--pretty")
# the pretty magnitude listing and every observation format but --json print
# per-entry timings, so only their byte-stable formats are used
_STABLE_FORMATS = ("--json", "--csv")


def _classes() -> list:
    """One class per README query line; each class is a list of argv variants
    that cost about the same.  The README's sizes are kept, except that
    `verify observation` (25 there) and `verify integral` (60 samples there)
    are cut to 15 and 5, so that every query is short."""
    return [
        [["chi", "--max", "6", f] for f in _FORMATS],
        [["det", "--p", "3", "--offset", str(s), f] for s in (0, 1, 2) for f in _FORMATS],
        [["potential", "--n", "7", "--radius", r, "--verify", f] for r in _RADII for f in _FORMATS],
        [["magnitude", "--n", "5", "--route", "all", f] for f in _STABLE_FORMATS],
        [["magnitude", "--n", "5", "--radius", r, f] for r in _RADII for f in _STABLE_FORMATS],
        [["verify", "observation", "--max", "15", "--json"]],
        [["verify", "integral", "--samples", "5", f] for f in _FORMATS],
        [["reproduce"]],
    ]


CLASSES = _classes()


def pool() -> list:
    """Every `cold_cli` command whose output is recorded."""
    return [argv for cls in CLASSES for argv in cls]


def cold_rounds(seed: int):
    """Endless seeded rounds; each round is one variant of every class."""
    rng = random.Random(seed)
    while True:
        picks = [rng.choice(cls) for cls in CLASSES]
        rng.shuffle(picks)
        yield picks


def campaign(workload: str, smoke: bool = False) -> list:
    return list((SMOKE_CAMPAIGNS if smoke else CAMPAIGNS)[workload])


def pool_jobs(argv: list) -> int:
    """The `--jobs` value of a campaign command, 1 when it takes none."""
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def with_jobs(argv: list, jobs: int) -> list:
    """The same campaign with another `--jobs` value (same output)."""
    out = list(argv)
    out[out.index("--jobs") + 1] = str(jobs)
    return out
