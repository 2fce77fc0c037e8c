"""Command-line surface: parsing, output formats, exit codes, determinism,
and the golden reproduction driver."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddball import cli, golden, hankel
from oddball.errors import (
    InputError,
    NonpositiveRadius,
    ParseError,
    QuadratureNonconvergence,
    RouteMismatch,
    ZeroDenominator,
    positive_radius,
)
from oddball.oracles import parse_poly
from oddball.poly import IntPoly, RatFunc, format_poly


class TestParseRational:
    # `--radius` text goes through the library's one radius check
    def test_basic(self):
        assert positive_radius("7/3") == Fraction(7, 3)
        assert positive_radius("4/2") == Fraction(2)
        assert positive_radius("+3/6") == Fraction(1, 2)
        assert positive_radius(" 12\n") == Fraction(12)

    def test_errors(self):
        with pytest.raises(ParseError):
            positive_radius("abc")
        with pytest.raises(ParseError):
            positive_radius("1.5")
        with pytest.raises(ZeroDenominator):
            positive_radius("3/0")
        with pytest.raises(NonpositiveRadius):
            positive_radius("0/5")
        with pytest.raises(NonpositiveRadius):
            positive_radius("-3/6")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() converts any number of digits")
    def test_more_digits_than_int_converts(self):
        with pytest.raises(ParseError):
            positive_radius("1/" + "1" * (sys.get_int_max_str_digits() + 1))

    @given(st.integers(min_value=1), st.integers(min_value=1), st.sampled_from(["", " ", "\t "]))
    def test_text_is_the_fraction(self, p, q, blank):
        assert positive_radius(f"{blank}{p}/{q}{blank}") == Fraction(p, q)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_chi_json(self, capsys):
        code, out, _ = _run(capsys, "chi", "--max", "3")
        assert code == 0
        data = json.loads(out)
        assert data["polys"][3] == ["0", "3", "3", "1"]

    def test_chi_pretty(self, capsys):
        code, out, _ = _run(capsys, "chi", "--max", "2", "--pretty")
        assert code == 0
        assert "chi_2 = R^2 + R" in out

    def test_det(self, capsys):
        code, out, _ = _run(capsys, "det", "--p", "2", "--offset", "0")
        assert code == 0
        assert json.loads(out)["det"] == ["0", "0", "6", "2"]

    def test_potential_verify_passes(self, capsys):
        code, out, _ = _run(capsys, "potential", "--n", "5", "--radius", "7/3", "--verify")
        assert code == 0
        data = json.loads(out)
        assert data["checks"] == {"boundary": True, "annihilation": True, "limit_derivative": True}
        assert len(data["coeffs"]) == 3

    def test_magnitude_json_schema(self, capsys):
        code, out, _ = _run(capsys, "magnitude", "--n", "3", "--route", "hankel", "--json")
        assert code == 0
        (rec,) = json.loads(out)
        assert set(rec) == {"n", "route", "num", "den", "agree", "millis"}
        assert rec["millis"] is None
        assert rec["num"] == ["6", "12", "6", "1"] and rec["den"] == ["6"]

    def test_magnitude_value_at_radius(self, capsys):
        code, out, _ = _run(capsys, "magnitude", "--n", "3", "--radius", "1", "--json")
        (rec,) = json.loads(out)
        assert code == 0 and rec["value"] == "25/6"

    def test_magnitude_pretty_prints_the_parsed_radius(self, capsys):
        code, out, _ = _run(capsys, "magnitude", "--n", "3", "--radius", "2/4", "--pretty")
        assert code == 0
        assert out.splitlines()[-1].startswith("value at R=1/2: ")

    def test_magnitude_all_routes(self, capsys):
        code, out, _ = _run(capsys, "magnitude", "--n", "5", "--route", "all", "--json")
        recs = json.loads(out)
        assert code == 0
        assert [r["route"] for r in recs] == ["det", "hankel", "boundary"]
        assert all(r["agree"] for r in recs)

    def test_magnitude_all_routes_disagree(self, capsys, monkeypatch):
        real = cli.magnitude_boundary

        def crooked(n):
            f = real(n)  # the real value plus one
            return RatFunc(f.num + f.den, f.den)

        monkeypatch.setattr(cli, "magnitude_boundary", crooked)
        code, out, _ = _run(capsys, "magnitude", "--n", "5", "--route", "all", "--json")
        recs = json.loads(out)
        assert code == 1
        assert [r["route"] for r in recs] == ["det", "hankel", "boundary"]
        assert not any(r["agree"] for r in recs)

    def test_magnitude_csv(self, capsys):
        code, out, _ = _run(capsys, "magnitude", "--n", "3", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,num,den"
        assert lines[1] == "3,6 12 6 1,6"

    def test_verify_equality_csv(self, capsys):
        code, out, _ = _run(capsys, "verify", "equality", "--max", "5", "--jobs", "1", "--csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,num,den"
        assert lines[1] == "1,1 1,1"
        assert lines[3] == "5,360 1080 1080 525 135 18 1,360 120"

    def test_verify_equality_json(self, capsys):
        code, out, _ = _run(capsys, "verify", "equality", "--max", "7", "--jobs", "1", "--json")
        assert code == 0
        recs = json.loads(out)
        assert [r["n"] for r in recs] == [1, 3, 5, 7]

    def test_verify_observation(self, capsys):
        code, out, _ = _run(capsys, "verify", "observation", "--max", "7", "--json")
        assert code == 0
        recs = json.loads(out)
        assert all(r["agree"] for r in recs)

    def test_verify_derivative(self, capsys):
        code, out, _ = _run(capsys, "verify", "derivative", "--max", "7", "--jobs", "1", "--json")
        assert code == 0

    def test_verify_boundary(self, capsys):
        code, out, _ = _run(capsys, "verify", "boundary", "--max", "5", "--json")
        assert code == 0

    def test_verify_boundary_extended_honours_max(self, capsys):
        code, out, _ = _run(capsys, "verify", "boundary", "--extended", "--max", "5", "--json")
        assert code == 0
        assert [r["n"] for r in json.loads(out)] == [1, 3, 5]

    def test_verify_integral(self, capsys):
        code, out, _ = _run(capsys, "verify", "integral", "--samples", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"agree": True, "samples": 4}

    def test_reproduce(self, capsys):
        code, out, _ = _run(capsys, "reproduce")
        assert code == 0
        assert "all 23 golden entries reproduced" in out

    def test_reproduce_detects_mismatch(self, capsys, monkeypatch):
        crooked = dict(golden.MAGNITUDE)
        crooked[3] = RatFunc(IntPoly([7, 12, 6, 1]), IntPoly([6]))
        monkeypatch.setattr(golden, "MAGNITUDE", crooked)
        code, out, err = _run(capsys, "reproduce")
        assert code == 1
        assert "FAIL" in out
        assert "expected/magnitude/n=3" in err

    def test_reproduce_checks_both_magnitude_routes(self, monkeypatch):
        # a wrong hankel route fails the row, which reports the det route's value
        real = golden.magnitude_hankel
        monkeypatch.setattr(golden, "magnitude_hankel",
                            lambda n: real(n).derivative() if n == 3 else real(n))
        (row,) = [r for r in golden.check_all() if (r.table, r.n) == ("magnitude", 3)]
        assert not row.ok and row.got == row.expected == golden.MAGNITUDE[3].as_dict()


class TestExitCodes:
    def test_usage_error_bad_radius(self, capsys):
        code, _, err = _run(capsys, "potential", "--n", "3", "--radius", "x")
        assert code == 2 and "error" in err

    def test_usage_error_even_dimension(self, capsys):
        code, _, err = _run(capsys, "magnitude", "--n", "4")
        assert code == 2

    def test_usage_error_nonpositive_radius(self, capsys):
        code, _, _ = _run(capsys, "potential", "--n", "3", "--radius", "0")
        assert code == 2

    @pytest.mark.parametrize("radius", ["-3", "0"])
    def test_magnitude_nonpositive_radius(self, capsys, radius):
        code, out, err = _run(capsys, "magnitude", "--n", "3", "--radius", radius)
        assert code == 2 and out == ""
        assert "radius must be positive" in err

    def test_integral_negative_samples(self, capsys):
        code, out, err = _run(capsys, "verify", "integral", "--samples", "-3")
        assert code == 2 and out == ""
        assert "--samples" in err and "islice" not in err

    def test_integral_failure_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_integral_lemma", lambda *a, **k: False)
        code, out, _ = _run(capsys, "verify", "integral", "--samples", "4", "--json")
        assert code == 1
        assert out == '{"agree":false,"samples":1}\n'

    def test_precision_is_not_read_from_the_environment(self, capsys, monkeypatch):
        argv = ("verify", "integral", "--samples", "1", "--json")
        monkeypatch.delenv("ODDBALL_PRECISION", raising=False)
        plain = _run(capsys, *argv)
        monkeypatch.setenv("ODDBALL_PRECISION", "63")
        assert _run(capsys, *argv) == plain == (0, '{"agree":true,"samples":1}\n', "")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("check", ["derivative", "equality"])
    def test_jobs_below_one(self, capsys, check, jobs):
        code, out, err = _run(capsys, "verify", check, "--max", "3", "--jobs", jobs, "--json")
        assert code == 2 and out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("check", ["derivative", "equality"])
    def test_jobs_default_counts_the_usable_cpus(self, monkeypatch, check):
        # a process pinned to 3 of a host's 64 CPUs starts at most 3 workers
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert cli._build_parser().parse_args(["verify", check]).jobs == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
        assert cli._build_parser().parse_args(["verify", check]).jobs == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._build_parser().parse_args(["verify", check]).jobs == 1

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["magnitude"])  # missing --n
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, name", [
        (["det", "--p", "-1"], "--p"),
        (["det", "--p", "2", "--offset", "-1"], "--offset"),
        (["chi", "--max", "-1"], "--max"),
        (["verify", "integral", "--samples", "-3"], "--samples"),
        (["verify", "equality", "--max", "3", "--jobs", "0"], "--jobs"),
        (["magnitude", "--n", "4"], "--n"),
        (["potential", "--n", "3", "--radius", "1/0"], "denominator"),
        (["verify", "equality", "--max", "4"], "--max"),
        (["potential", "--n", "4", "--radius", "1"], "--n"),
    ])
    def test_bad_argument_exits_two(self, capsys, argv, name):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("argv", [
        ["chi", "--max", "3"],
        ["det", "--p", "1"],
        ["potential", "--n", "3", "--radius", "1"],
        ["verify", "observation", "--max", "3"],
        ["verify", "integral", "--samples", "1"],
    ])
    def test_csv_only_where_rendered(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--csv"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--csv" in err

    @pytest.mark.parametrize("error, code, prefix", [
        (InputError("size must be >= 1, got 0"), 2, "error: "),
        (QuadratureNonconvergence("no convergence"), 1, "error: "),
        (RouteMismatch("routes differ"), 1, "verification failed: "),
    ])
    def test_error_classes_map_to_exit_codes(self, capsys, monkeypatch, error, code, prefix):
        def failing(size, offset):
            raise error

        monkeypatch.setattr(cli, "hankel_det", failing)
        got, out, err = _run(capsys, "det", "--p", "1")
        assert got == code and out == ""
        assert err == f"{prefix}{error}\n"

    def test_internal_value_error_is_not_bad_input(self, monkeypatch):
        def failing(size, offset):
            raise ValueError("an internal fault")

        monkeypatch.setattr(cli, "hankel_det", failing)
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["det", "--p", "1"])

    def test_closed_pipe_exits_one_without_traceback(self):
        # `oddball chi --max 300 --pretty | head -1`: its 12 MB outlast any pipe buffer
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "oddball.cli", "chi", "--max", "300", "--pretty"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.readline() == b"chi_0 = 1\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err, err.decode()


def test_package_runs_as_the_cli():
    # `python -m oddball` prints what `python -m oddball.cli` prints
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["verify", "equality", "--max", "7", "--json"]
    package, cli_module = (subprocess.run([sys.executable, "-m", module, *args], env=env,
                                          capture_output=True, timeout=120)
                           for module in ("oddball", "oddball.cli"))
    assert package.returncode == cli_module.returncode == 0
    assert package.stdout == cli_module.stdout and package.stdout.startswith(b"[{")


class PolynomialEliminationRan(Exception):
    """Not an OddballError, so cli.main lets it through."""


@pytest.mark.parametrize("command", [
    "reproduce",
    "potential --n 9 --radius 1/2 --verify",
    "magnitude --n 9 --route all",
    "verify boundary --max 9",
    "verify observation --max 9",
    "verify equality --max 9 --jobs 1",
    "verify derivative --max 9 --jobs 1",
])
def test_production_runs_no_polynomial_elimination(monkeypatch, capsys, command):
    # the polynomial elimination and its inputs are the tests' oracles only;
    # --jobs 1 keeps every computation in this process, where the patch holds
    def refuse(*args):
        raise PolynomialEliminationRan(command)

    for name in ("_eliminate", "solve_unit_rhs", "build_hankel"):
        monkeypatch.setattr(hankel, name, refuse)
    hankel.clear_hankel_cache()
    try:
        code, _, err = _run(capsys, *command.split())
    finally:
        hankel.clear_hankel_cache()
    assert code == 0, err


RECORDED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_recorded_command_output(capsys, command):
    # every benchmark command, in-process: its exit code and the SHA-256 of
    # its stdout as recorded.  No assert, so that the check still runs
    # under python -O.
    code, out, err = _run(capsys, *command.split())
    want = RECORDED[command]
    got = {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    if got != {"exit": want["exit"], "sha256": want["sha256"]}:
        pytest.fail(f"oddball {command}: {got}, recorded {want}\n{err}")


class TestDeterminism:
    def test_equality_json_byte_identical(self, capsys):
        _, first, _ = _run(capsys, "verify", "equality", "--max", "15", "--jobs", "1", "--json")
        _, second, _ = _run(capsys, "verify", "equality", "--max", "15", "--jobs", "1", "--json")
        assert first == second

    def test_magnitude_json_stable_keys(self, capsys):
        _, out, _ = _run(capsys, "magnitude", "--n", "5", "--json")
        assert out.index('"agree"') < out.index('"den"') < out.index('"millis"') < out.index('"n"')


class TestPrettyRoundTrip:
    def test_polynomials_round_trip_through_pretty(self, capsys):
        _, out, _ = _run(capsys, "chi", "--max", "5", "--pretty")
        _, js, _ = _run(capsys, "chi", "--max", "5")
        polys = json.loads(js)["polys"]
        for line, coeffs in zip(out.strip().splitlines(), polys):
            rendered = line.split(" = ", 1)[1]
            assert parse_poly(rendered) == IntPoly.from_strings(coeffs)

    def test_descending_power_style(self):
        assert format_poly(IntPoly([6, 12, 6, 1])) == "R^3 + 6R^2 + 12R + 6"
