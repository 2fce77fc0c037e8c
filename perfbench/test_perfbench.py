"""Tests of the benchmark itself: span accounting and a smoke run.

    python3 -m pytest perfbench

The smoke run shrinks every workload (campaigns at --max 7, one
cold_cli round) and checks that every metric named in BENCHMARK.json is
emitted with its unit and that the recorded outputs still match.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from record import commands
from spans import Recorder, Span, self_times, totals_by_name
from workloads import CLASSES, WORKLOADS, cold_rounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1, kernel_s=0.5),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),      # overlaps a: [1, 6] is covered once
        Span("c", 8.0, 12.0, 0),     # runs past the parent: clipped to [8, 10]
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 5.0 - 2.0 - 0.5, 3.0 - 1.0, 1.0, 3.0, 4.0])


def test_totals_count_a_reentered_layer_once():
    spans = [
        Span("det", 0.0, 4.0, -1),
        Span("det", 1.0, 3.0, 0),
        Span("mul", 5.0, 6.0, -1),
    ]
    totals = totals_by_name(spans)
    assert totals["det"] == pytest.approx([2, 4.0, 4.0])
    assert totals["mul"] == pytest.approx([1, 1.0, 1.0])


def test_recorder_nests_and_charges_kernel_time_to_innermost_span():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.add_kernel_time(0.25)
    with pytest.raises(RuntimeError):
        rec.close(outer)
    rec.close(inner)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [-1, 0]
    assert rec.spans[1].kernel_s == 0.25 and rec.spans[0].kernel_s == 0.0
    assert self_times(rec.spans) == pytest.approx([2.0, 0.75])


# ---------------------------------------------------------------------------
# workloads and recorded outputs
# ---------------------------------------------------------------------------

def test_seed_changes_only_cold_cli_inputs():
    from run import trace_passes, units_of_work

    for workload in WORKLOADS:
        for smoke in (False, True):
            a = units_of_work(workload, 1, smoke)
            b = units_of_work(workload, 2, smoke)
            first_a, first_b = next(a), next(b)
            if workload == "cold_cli":
                assert first_a != first_b
                assert trace_passes(workload, 1, smoke) != trace_passes(workload, 2, smoke)
            else:
                assert first_a == first_b == next(a)
                assert trace_passes(workload, 1, smoke) == trace_passes(workload, 2, smoke)
                if smoke:
                    assert first_a[0][first_a[0].index("--max") + 1] == "7"
    # same seed, same inputs
    assert next(cold_rounds(7)) == next(cold_rounds(7))


def test_every_cold_round_runs_each_class_once():
    rnd = next(cold_rounds(3))
    assert len(rnd) == len(CLASSES)
    assert sorted(CLASSES.index(next(c for c in CLASSES if argv in c)) for argv in rnd) == \
        list(range(len(CLASSES)))


def test_checker_counts_a_wrong_digest_a_wrong_exit_and_a_timeout_as_failed():
    from run import Checker

    checker = Checker()
    key, want = next(iter(checker.expected.items()))
    argv = key.split()
    checker.check(argv, want["exit"], want["sha256"])
    checker.check(argv, want["exit"], "0" * 64)
    checker.check(argv, want["exit"] + 1, want["sha256"])
    checker.check(argv, None, None)  # killed on timeout
    checker.check(["chi", "--max", "999"], 0, want["sha256"])  # nothing recorded
    assert (checker.attempted, checker.failed) == (5, 4)


def test_every_command_has_a_recorded_output():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for argv in commands():
        assert expected[" ".join(argv)]["exit"] == 0


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "cold_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
