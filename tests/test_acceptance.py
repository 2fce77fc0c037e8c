"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Default bounds are desk scale; set ODDBALL_EXTENDED=1 to run the extended
sweeps (equality to n=39, derivative conjecture to n=57, boundary route to
n=33).  With it the whole module took 67 s on 2 vCPUs with CPython 3.11.7:
18.0 s for the derivative sweep (12.7-14.3 s when run alone), under 2.2 s
for each other sweep, and 38.3 s for criterion 6's oracle pairs, which run
at every setting.
Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oddball import cli, golden
from oddball.bessel import reverse_bessel
from oddball.hankel import build_hankel, det_bareiss, hankel_det, solve_unit_rhs, unit_solution
from oddball.magnitude import (
    verify_derivative_conjecture,
    verify_formula_equality,
    verify_integral_lemma,
    verify_observation,
    verify_triple_route,
)
from oddball.oracles import (
    bessel_from_kernels,
    deriv_coeff,
    deriv_triangle,
    det_minor_expansion,
    kernel_table,
)
from oddball.potential import (
    build_potential,
    verify_annihilation,
    verify_boundary_conditions,
    verify_limit_derivative,
)

EXTENDED = os.environ.get("ODDBALL_EXTENDED", "") not in ("", "0")

EQUALITY_MAX = 39 if EXTENDED else 25
DERIVATIVE_MAX = 57 if EXTENDED else 33
TRIPLE_MAX = 33 if EXTENDED else 15
POTENTIAL_MAX = 25
POTENTIAL_RADII = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3))


@contextmanager
def _criterion(label):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        status = "FAIL" if failed else "PASS"
        print(f"[acceptance] {label}: {status} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_golden_reproduction():
    with _criterion("criterion 1 golden reproduction (five tables, exact)"):
        results = golden.check_all()
        bad = [r for r in results if not r.ok]
        assert not bad, bad


def test_criterion_2_formula_equality():
    with _criterion(f"criterion 2 det == hankel for odd n <= {EQUALITY_MAX}"):
        report = verify_formula_equality(EQUALITY_MAX)  # raises Disagreement on failure
        assert len(report.entries) == (EQUALITY_MAX + 1) // 2


def test_criterion_3_derivative_conjecture():
    with _criterion(f"criterion 3 derivative conjecture for odd n <= {DERIVATIVE_MAX}"):
        report = verify_derivative_conjecture(DERIVATIVE_MAX)  # raises ConjectureFails
        assert len(report.entries) == (DERIVATIVE_MAX + 1) // 2


def test_criterion_4_triple_route():
    with _criterion(f"criterion 4 boundary route == det route for odd n <= {TRIPLE_MAX}"):
        report = verify_triple_route(TRIPLE_MAX)  # raises Disagreement on failure
        assert len(report.entries) == (TRIPLE_MAX + 1) // 2


def test_criterion_5_potential_verification():
    with _criterion(
        f"criterion 5 potential checks for odd n <= {POTENTIAL_MAX}, four radii"
    ):
        for n in range(1, POTENTIAL_MAX + 1, 2):
            for radius in POTENTIAL_RADII:
                pot = build_potential(n, radius)
                assert verify_boundary_conditions(pot), (n, radius)
                assert verify_annihilation(pot), (n, radius)
                assert verify_limit_derivative(pot), (n, radius)


def test_criterion_6_oracle_pairs():
    with _criterion("criterion 6 oracle pairs (generation, triangle, dets, residuals)"):
        assert bessel_from_kernels(kernel_table(40)).polys == reverse_bessel(40).polys
        tri = deriv_triangle(40)
        for j in range(1, 41):
            for k in range(1, j + 1):
                assert tri.value(j, k) == deriv_coeff(j, k)
        tb = reverse_bessel(40)
        for p in range(13):
            for offset in (0, 1, 2):
                m = build_hankel(p + 1, offset, tb)
                oracle = det_minor_expansion(m)
                assert oracle == det_bareiss(m), (p, offset)
                assert hankel_det(p + 1, offset) == oracle, (p, offset)
        for p in range(16):
            # both check the symbolic residual internally
            assert unit_solution(p) == solve_unit_rhs(build_hankel(p + 1, 0, tb)), p


def test_criterion_7_integral_lemma():
    with _criterion("criterion 7 integral identity vs quadrature (60 cases, 1e-30)"):
        for i in range(5):
            for b in range(4):
                for radius in (Fraction(1), Fraction(3, 2), Fraction(3)):
                    assert verify_integral_lemma(i, b, radius), (i, b, radius)


def test_criterion_8_observation():
    with _criterion("criterion 8 numerator proportionality for odd n <= 25"):
        report = verify_observation(25)  # raises ObservationFails on failure
        assert len(report.entries) == 13


def test_criterion_9_determinism(capsys):
    with _criterion("criterion 9 byte-identical repeated JSON output"):
        assert cli.main(["verify", "equality", "--max", "15", "--jobs", "1", "--json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["verify", "equality", "--max", "15", "--jobs", "1", "--json"]) == 0
        second = capsys.readouterr().out
        assert first and first == second


@pytest.mark.skipif(not EXTENDED, reason="extended determinantal identity sweep")
def test_extended_identity_sweep():
    # the equality campaign raises Disagreement unless (-1)^p det(bordered)
    # = det[B_{i+j+2}] for every p <= 19
    with _criterion("extended determinantal identity p <= 19"):
        report = verify_formula_equality(39)
        assert len(report.entries) == 20
