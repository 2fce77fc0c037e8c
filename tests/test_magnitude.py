"""Magnitude routes, their cross-checks, the bordered-determinant engine
against a Bareiss of the built matrix, the campaign pool, the observation
and derivative campaigns, the determinantal identity through the equality
campaign, and the exact integral-lemma check against its quadrature
oracle."""

import concurrent.futures
import itertools
import math
import multiprocessing
import os
import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddball.magnitude as mag
from oddball import cli, hankel, oracles
from oddball.bessel import reverse_bessel
from oddball.errors import (
    EvenDimension,
    InexactDivision,
    NonpositiveRadius,
    ObservationFails,
    WorkerDied,
)
from oddball.explaurent import ExpLaurent
from oddball.golden import MAGNITUDE, MAGNITUDE_DERIVATIVE, NUM10_LOW_ASC, NUM10_TOP_DESC
from oddball.hankel import PolyMatrix, clear_hankel_cache, det_bareiss
from oddball.magnitude import (
    boundary_value_at,
    derivative_conjecture_rhs,
    magnitude_boundary,
    magnitude_det,
    magnitude_hankel,
    verify_derivative_conjecture,
    verify_formula_equality,
    verify_integral_lemma,
    verify_observation,
    verify_triple_route,
)
from oddball.oracles import border_polys, kernel_table, magnitude_explicit
from oddball.poly import IntPoly, RatFunc
from oddball.potential import boundary_limit_derivative


@pytest.fixture
def pooled(monkeypatch):
    """Every table pass with jobs > 1 starts a pool, however few its points
    and however few CPUs this process may use, so that a small campaign
    reaches the pool of two workers on a one-CPU host too."""
    monkeypatch.setattr(hankel, "_POOL_MIN_POINTS", 1)
    monkeypatch.setattr(hankel, "_usable_cpus", lambda: 2)


def _bordered_oracle(p):
    """The bordered determinant as a Bareiss of the built matrix."""
    table = reverse_bessel(2 * p + 1)
    rows = [[table.poly(i + j + 1) for j in range(p + 1)] for i in range(p)]
    rows.append(list(border_polys(p)))
    return det_bareiss(PolyMatrix(rows))


class TestBorderRow:
    def test_printed_row_p1(self):
        br = border_polys(1)
        assert br[0] == IntPoly([0, 6, 6, 3, 1])       # R^4+3R^3+6R^2+6R
        assert br[1] == IntPoly([0, 0, 0, 3, 3, 1])    # R^5+3R^4+3R^3

    def test_printed_row_p2(self):
        br = border_polys(2)
        tb = [IntPoly([1]), IntPoly([0, 1]), IntPoly([0, 1, 1]), IntPoly([0, 3, 3, 1])]
        want0 = tb[0].shift(6) + (5 * tb[1]).shift(4) + (20 * tb[2]).shift(2) + 40 * tb[3]
        want1 = tb[1].shift(6) + (5 * tb[2]).shift(4) + (10 * tb[3]).shift(2)
        assert br[0] == want0
        assert br[1] == want1

    def test_integer_coefficients_large_p(self):
        br = border_polys(9)
        assert all(isinstance(c, int) for xi in br for c in xi.coeffs)


class TestBorderedEngine:
    """_bordered_det, by evaluation and interpolation, against a Bareiss of
    the built bordered matrix, its oracle."""

    MAX_P = 12

    @pytest.fixture(scope="class")
    def reference(self):
        return [_bordered_oracle(p) for p in range(self.MAX_P + 1)]

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        clear_hankel_cache()
        yield
        clear_hankel_cache()

    @pytest.mark.parametrize("order", ["ascending", "descending", "largest-first"])
    def test_matches_oracle_in_any_order(self, reference, order):
        ps = list(range(self.MAX_P + 1))
        if order == "descending":
            ps.reverse()
        elif order == "largest-first":
            rest = ps[:-1]
            random.Random(5).shuffle(rest)
            ps = [self.MAX_P] + rest
        for p in ps:
            assert mag._bordered_det(p) == reference[p], (order, p)

    def test_points_cover_degree_and_valuation(self, reference):
        # F_p = R^p sum_i xi_{p,i} Q_p[i], with deg xi_{p,i} = 2p + 2 + i and
        # deg Q_p[i] <= p(p+1)/2 - i (the hankel docstring's Heine bound)
        for p, det in enumerate(reference):
            v, count = hankel._valuation_and_points("bordered", p)
            assert v == p + 1 and count == (p + 1) * (p + 4) // 2
            assert det.degree <= (p + 1) + count - 1 == (p * p + 7 * p + 4) // 2
            assert det.valuation() >= p + 1

    def test_border_values_match_polys(self):
        # the border sum is linear in q, and against the unit vector e_i it
        # is the border value xi_{p,i}(x) / x
        for p in range(8):
            polys = border_polys(p)
            for x in (1, 2, 7):
                theta = hankel._theta_values(x, p)
                squares = [x ** (2 * k) for k in range(p + 1)]
                got = [hankel._border_sum(x, p, theta, [int(i == j) for j in range(p + 1)], squares)
                       for i in range(p + 1)]
                assert got == [xi(x) // x for xi in polys], (p, x)

    @pytest.mark.parametrize("column", [0, -1])
    def test_corrupted_border_value_is_fatal(self, monkeypatch, column):
        real = hankel._border_sum

        def corrupted(x, p, theta, q, squares):
            value = real(x, p, theta, q, squares)
            # the sum with border value `column` one larger
            return value + q[column] if p == 5 and x == 9 else value

        monkeypatch.setattr(hankel, "_border_sum", corrupted)
        # a border with one changed integer still gives an integer value
        # against Q_5, and only Newton's checked divisions catch it
        with pytest.raises(InexactDivision):
            mag._bordered_det(6)

    def test_no_polynomial_product_or_division(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("__mul__", "__rmul__", "divexact"):
            monkeypatch.setattr(IntPoly, name, counting(name, getattr(IntPoly, name)))
        mag._bordered_det(10)
        assert calls == []

    def test_each_border_at_its_own_points(self, monkeypatch):
        # border p is summed at x = 1..N_p only, and q_p interpolated from them
        reduced, interpolated = [], []
        real_border, real_interpolate = hankel._border_sum, hankel._interpolate

        def border(x, p, *rest):
            reduced.append((p, x))
            return real_border(x, p, *rest)

        def interpolate(values, v, content):
            interpolated.append(len(values))
            return real_interpolate(values, v, content)

        monkeypatch.setattr(hankel, "_border_sum", border)
        monkeypatch.setattr(hankel, "_interpolate", interpolate)
        hankel._hold(("bordered",), 8)
        points = [hankel._valuation_and_points("bordered", p)[1] for p in range(8)]
        assert sorted(reduced) == [(p, x) for p in range(8) for x in range(1, points[p] + 1)]
        assert interpolated == points

    def test_cleared_store_recomputes(self, reference, monkeypatch):
        mag._bordered_det(4)
        clear_hankel_cache()
        calls = []
        real = hankel._point_values

        def recording(points, factors, x):
            calls.append((tuple(points), len(factors), x))
            return real(points, factors, x)

        monkeypatch.setattr(hankel, "_point_values", recording)
        assert mag._bordered_det(4) == reference[4]
        points = hankel._valuation_and_points("bordered", 4)[1]
        assert calls == [(("bordered",), 5, x) for x in range(1, points + 1)]


class TestMagnitudeRoutes:
    def test_det_route_matches_golden(self):
        for n, want in MAGNITUDE.items():
            assert magnitude_det(n) == want

    def test_hankel_route_matches_golden(self):
        for n, want in MAGNITUDE.items():
            assert magnitude_hankel(n) == want

    def test_seven_ball_printed_ends(self):
        num = magnitude_hankel(7).num
        assert tuple(reversed(num.coeffs[-3:])) == NUM10_TOP_DESC
        assert num.coeffs[:3] == NUM10_LOW_ASC

    def test_even_dimension(self):
        for fn in (magnitude_det, magnitude_hankel, magnitude_boundary, derivative_conjecture_rhs):
            with pytest.raises(EvenDimension):
                fn(4)

    def test_explicit_values(self):
        assert magnitude_explicit(3, 1) == Fraction(25, 6)
        assert magnitude_explicit(1, 1) == 2
        # oracle: evaluate the printed degree-six formula at R = 2
        printed = MAGNITUDE[5]
        assert magnitude_explicit(5, 2) == printed(Fraction(2)) == Fraction(346, 15)
        with pytest.raises(NonpositiveRadius):
            magnitude_explicit(3, 0)

    def test_explicit_matches_det_at_random_points(self):
        rng = random.Random(2024)
        for n in range(1, 16, 2):
            f = magnitude_det(n)
            hits = 0
            while hits < 10:
                q = Fraction(rng.randint(1, 60), rng.randint(1, 12))
                assert magnitude_explicit(n, q) == f(q)
                hits += 1

    def test_boundary_route_small(self):
        for n, want in MAGNITUDE.items():
            assert magnitude_boundary(n) == want

    def test_boundary_route_matches_pointwise_oracle(self):
        rng = random.Random(4051)
        for n in range(1, 16, 2):
            f = magnitude_boundary(n)
            for _ in range(3):
                q = Fraction(rng.randint(1, 60), rng.randint(1, 12))
                assert f(q) == boundary_value_at(n, q)

    def test_boundary_value_pointwise(self):
        assert boundary_value_at(1, 1) == 2
        assert boundary_value_at(3, 1) == Fraction(25, 6)
        assert boundary_value_at(5, Fraction(3, 2)) == MAGNITUDE[5](Fraction(3, 2))

    def test_triple_route_campaign(self):
        report = verify_triple_route(7)
        assert [e.n for e in report.entries] == [1, 3, 5, 7]
        assert report.entries[3].value == MAGNITUDE[7]

    def test_triple_route_desk_scale(self):
        # the heavy sweep: boundary == det == hankel at every odd n to 25
        report = verify_triple_route(25)
        assert len(report.entries) == 13


class TestEqualityCampaign:
    def test_small_sweep_matches_golden(self):
        report = verify_formula_equality(7)
        values = {e.n: e.value for e in report.entries}
        assert values == MAGNITUDE

    def test_single(self):
        report = verify_formula_equality(1)
        assert report.entries[0].value == RatFunc(IntPoly([1, 1]), IntPoly.one())

    @pytest.mark.usefixtures("pooled")
    def test_parallel_jobs_match_sequential(self):
        seq = verify_formula_equality(9, jobs=1)
        par = verify_formula_equality(9, jobs=2)
        assert [e.value for e in seq.entries] == [e.value for e in par.entries]


class TestCampaignOrder:
    def test_ascending_each_n_once(self, monkeypatch):
        import oddball.magnitude as mag
        seen = []
        real = mag._derivative_job
        monkeypatch.setattr(mag, "_derivative_job", lambda n: seen.append(n) or real(n))
        report = mag.verify_derivative_conjecture(9, jobs=1)
        assert seen == [1, 3, 5, 7, 9]
        assert [e.n for e in report.entries] == [1, 3, 5, 7, 9]

    @pytest.mark.usefixtures("pooled")
    def test_pool_campaign_runs_ascending_each_n_once(self, monkeypatch):
        import oddball.magnitude as mag
        submitted, seen = [], []
        real_run, real_job = mag._run_jobs, mag._equality_job

        def recording(worker, ns):
            submitted.append(list(ns))
            return real_run(worker, ns)

        monkeypatch.setattr(mag, "_run_jobs", recording)
        monkeypatch.setattr(mag, "_equality_job", lambda n: seen.append(n) or real_job(n))
        report = mag.verify_formula_equality(9, jobs=2)
        assert submitted == [[1, 3, 5, 7, 9]] and seen == [1, 3, 5, 7, 9]
        assert [e.n for e in report.entries] == [1, 3, 5, 7, 9]


class TestCampaignPool:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        clear_hankel_cache()
        yield
        clear_hankel_cache()

    @pytest.mark.parametrize("campaign, kinds", [
        (verify_formula_equality, ("bordered", 2, 0)),
        (verify_derivative_conjecture, (2, 1, 0)),
    ])
    @pytest.mark.usefixtures("pooled")
    def test_parent_holds_every_table(self, campaign, kinds):
        campaign(9, jobs=2)
        pooled = {kind: hankel._TABLES[kind] for kind in kinds}
        clear_hankel_cache()
        hankel._hold(kinds, 5)
        for kind in kinds:
            assert len(pooled[kind]) >= 5, kind
            assert pooled[kind][:5] == hankel._TABLES[kind][:5], kind

    @pytest.mark.parametrize("campaign, fills", [
        (verify_formula_equality, ("bordered", 2, 0)),
        (verify_derivative_conjecture, (2, 1, 0)),
        (verify_triple_route, ("bordered", "unit", 2, 0)),
    ])
    def test_tables_filled_up_front_in_one_pass(self, monkeypatch, campaign, fills):
        # each campaign fills every table it names before its first job, in
        # one pass over the points, and no job fills one lazily: the unit
        # numerators too
        calls = []
        real = hankel._point_values

        def recording(points, factors, x):
            calls.append((tuple(points), len(factors), x))
            return real(points, factors, x)

        monkeypatch.setattr(hankel, "_point_values", recording)
        campaign(9)
        points = max(hankel._valuation_and_points(kind, 4)[1] for kind in fills)
        assert calls == [(fills, 5, x) for x in range(1, points + 1)]

    @pytest.mark.parametrize("campaign, kinds", [
        (verify_formula_equality, ("bordered", 2, 0)),
        (verify_derivative_conjecture, (2, 1, 0)),
    ])
    @pytest.mark.usefixtures("pooled")
    def test_pool_maps_the_integer_points(self, monkeypatch, campaign, kinds):
        # the pool gets the per-point function and the points, and its
        # workers start with nothing: no initializer, no tables
        maps, pools = [], []
        real_map, real_pool = hankel._pool_map, concurrent.futures.ProcessPoolExecutor

        def mapping(fn, items, jobs):
            maps.append((fn.func, tuple(fn.args[0]), len(fn.args[1]), list(items), jobs))
            return real_map(fn, items, jobs)

        def pool(*args, **kwargs):
            pools.append((args, kwargs))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(hankel, "_pool_map", mapping)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        campaign(9, jobs=2)
        points = max(hankel._valuation_and_points(kind, 4)[1] for kind in kinds)
        assert maps == [(hankel._point_values, kinds, 5, list(range(1, points + 1)), 2)]
        assert pools == [((), {"max_workers": 2})]

    @pytest.mark.parametrize("campaign, kinds", [
        (verify_derivative_conjecture, (2, 1, 0)),
        (verify_formula_equality, ("bordered", 2, 0)),
        (verify_triple_route, ("bordered", "unit", 2, 0)),
    ])
    def test_derivative_campaign_runs_one_pass(self, monkeypatch, campaign, kinds):
        # every table of a campaign shares one theta column per point, x =
        # 1..N for the entry with the most points, where a pass per kind
        # or per offset takes one each
        points = []
        real = hankel._theta_values

        def theta(x, top):
            points.append(x)
            return real(x, top)

        monkeypatch.setattr(hankel, "_theta_values", theta)
        campaign(9)
        assert points == list(range(1, max(hankel._valuation_and_points(kind, 4)[1]
                                           for kind in kinds) + 1))

    def test_held_tables_fill_nothing(self, monkeypatch):
        hankel._hold(("bordered", 2, 0), 5)

        def refuse(*args, **kwargs):
            raise AssertionError(f"a held table was filled again: {args} {kwargs}")

        monkeypatch.setattr(hankel, "_point_values", refuse)
        hankel._hold(("bordered", 0, 2), 5)
        hankel._hold((2,), 3)

    @pytest.mark.usefixtures("pooled")
    @pytest.mark.parametrize("campaign", [verify_formula_equality, verify_derivative_conjecture])
    def test_jobs_run_in_the_calling_process(self, monkeypatch, campaign):
        # a pool computes only the points: the per-n jobs read the held
        # tables, a few reductions each, here
        job = {verify_formula_equality: "_equality_job",
               verify_derivative_conjecture: "_derivative_job"}[campaign]
        pids = []
        real = getattr(mag, job)
        monkeypatch.setattr(mag, job, lambda n: pids.append(os.getpid()) or real(n))
        campaign(9, jobs=2)
        assert pids == [os.getpid()] * 5

    @pytest.mark.usefixtures("pooled")
    @pytest.mark.parametrize("campaign", [verify_formula_equality, verify_derivative_conjecture])
    def test_no_process_pool_runs_here(self, monkeypatch, campaign):
        # ProcessPoolExecutor raises NotImplementedError on a platform
        # without named semaphores
        want = [(e.n, e.value) for e in campaign(9, jobs=1).entries]
        clear_hankel_cache()

        def no_pool(*args, **kwargs):
            raise NotImplementedError("no named semaphores")

        # `_pool_map` imports the pool class when it asks for a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert [(e.n, e.value) for e in campaign(9, jobs=2).entries] == want

    @pytest.mark.usefixtures("pooled")
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker inherits the patched recurrence")
    def test_route_mismatch_in_a_pool_worker_is_fatal(self, monkeypatch, capsys):
        parent = os.getpid()
        real = hankel._theta_values

        def corrupted(x, top):
            values = real(x, top)
            if x == 3 and os.getpid() != parent:
                values[1] = 0  # B_2(3) = 3 theta_1 becomes 0, and H_2(3) = -9
            return values

        monkeypatch.setattr(hankel, "_theta_values", corrupted)
        code = cli.main(["verify", "equality", "--max", "9", "--jobs", "2", "--json"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("verification failed:") and "Traceback" not in err

    @pytest.mark.usefixtures("pooled")
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker inherits the patched recurrence")
    def test_dead_pool_worker_is_fatal(self, monkeypatch, capsys):
        # a worker that ends without returning its points (killed, out of
        # memory) is a typed failure: exit 1, one line, no traceback, and
        # nothing is computed again in the calling process
        parent = os.getpid()
        real = hankel._theta_values

        def dying(x, top):
            if x == 3 and os.getpid() != parent:
                os._exit(1)
            return real(x, top)

        monkeypatch.setattr(hankel, "_theta_values", dying)
        with pytest.raises(WorkerDied):
            points = {s: tuple(hankel._valuation_and_points(s, k)[1] for k in range(5)) for s in (2, 0)}
            factors = hankel._content_factors(hankel._superfactorials(5))
            hankel._pool_map(partial(hankel._point_values, points, factors), range(1, 17), 2)
        code = cli.main(["verify", "equality", "--max", "15", "--jobs", "2", "--json"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("verification failed: a pool worker died")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.fixture
    def pools(self, monkeypatch):
        """The keyword arguments of every pool that `_pool_map` starts, each
        a recording pool that starts no process and maps here, in a process
        that may use two CPUs."""
        pools = []
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 2)

        class Recording:
            def __init__(self, **kwargs):
                pools.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return pools

    @pytest.mark.parametrize("points, started", [(-1, []), (0, [{"max_workers": 2}])])
    def test_pool_starts_at_the_threshold(self, pools, points, started):
        # a pass one point short of _POOL_MIN_POINTS runs here; one of that
        # many starts a pool of all the jobs
        items = range(hankel._POOL_MIN_POINTS + points)
        assert hankel._pool_map(abs, items, 2) == list(items)
        assert pools == started
        assert hankel._pool_map(abs, items, 1) == list(items)
        assert pools == started

    def test_pool_starts_at_most_one_worker_per_cpu(self, monkeypatch, pools):
        # a million jobs start one worker per usable CPU, and a process
        # that may use one CPU runs the pass itself
        items = range(hankel._POOL_MIN_POINTS)
        assert hankel._pool_map(abs, items, 10 ** 6) == list(items)
        assert pools == [{"max_workers": hankel._usable_cpus()}]
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 1)
        assert hankel._pool_map(abs, items, 10 ** 6) == list(items)
        assert len(pools) == 1

    def test_threshold_splits_the_small_and_extended_passes(self):
        # the benchmark's `verify equality --max 27` (119 points) and the
        # README's default --max 25 (104) run in process; both --extended
        # passes, equality (n <= 39, 230 points) and derivative (n <= 57,
        # 436 points), pool
        def points(kinds, max_n):
            return max(hankel._valuation_and_points(kind, max_n // 2)[1] for kind in kinds)

        equality, derivative = ("bordered", 2, 0), (2, 1, 0)
        assert [points(equality, 27), points(equality, 25)] == [119, 104]
        assert [points(equality, 39), points(derivative, 57)] == [230, 436]
        assert 119 < hankel._POOL_MIN_POINTS <= 230


class TestObservation:
    def test_holds_up_to_nine(self):
        report = verify_observation(9)
        for entry in report.entries:
            assert entry.constant == 1
            assert entry.power_shift == 0

    def test_fills_in_one_pass(self, monkeypatch):
        # offsets 0 and 2 share one theta column per point, x = 1..N for
        # offset 2's entry p + 1, p at n = max_n + 2; two passes, one per
        # offset, would run the points of each
        points = []
        real = hankel._theta_values

        def theta(x, top):
            points.append(x)
            return real(x, top)

        clear_hankel_cache()
        monkeypatch.setattr(hankel, "_theta_values", theta)
        verify_observation(9)
        assert points == list(range(1, hankel._valuation_and_points(2, 5)[1] + 1))

    def test_printed_cases(self):
        # numerator of |B^n| equals numerator of the leading coefficient at n+2
        from oddball.hankel import unit_solution
        for n in (1, 3, 5, 7):
            assert magnitude_hankel(n).num == unit_solution((n + 1) // 2)[0].num

    def test_failure_is_detected(self, monkeypatch):
        import oddball.magnitude as mag
        real = mag.magnitude_hankel

        def crooked(n):
            f = real(n)
            return RatFunc(f.num + IntPoly.one(), f.den)

        monkeypatch.setattr(mag, "magnitude_hankel", crooked)
        with pytest.raises(ObservationFails):
            mag.verify_observation(3)


class TestDerivativeConjecture:
    def test_printed_rhs(self):
        assert derivative_conjecture_rhs(1) == RatFunc(IntPoly.one(), IntPoly.one())
        assert derivative_conjecture_rhs(3) == RatFunc(IntPoly([4, 4, 1]), IntPoly([2]))
        assert derivative_conjecture_rhs(7) == MAGNITUDE_DERIVATIVE[7]

    @pytest.mark.usefixtures("pooled")
    def test_parallel_jobs_match_sequential(self):
        seq = verify_derivative_conjecture(9, jobs=1)
        par = verify_derivative_conjecture(9, jobs=2)
        assert [(e.n, e.value) for e in seq.entries] == [(e.n, e.value) for e in par.entries]

    def test_derivative_equals_rhs_small(self, monkeypatch):
        # each job confirms the conjecture by its identity on primitive
        # parts: one gcd, and no quotient-rule derivative, per n
        import oddball.poly as poly
        calls = []
        real_job, real_gcd, real_derivative = mag._derivative_job, poly.poly_gcd, RatFunc.derivative

        def job(n):
            calls.append({"gcd": 0, "derivative": 0})
            return real_job(n)

        def gcd(a, b):
            calls[-1]["gcd"] += 1
            return real_gcd(a, b)

        def derivative(self):
            calls[-1]["derivative"] += 1
            return real_derivative(self)

        monkeypatch.setattr(mag, "_derivative_job", job)
        monkeypatch.setattr(poly, "poly_gcd", gcd)
        monkeypatch.setattr(RatFunc, "derivative", derivative)
        report = verify_derivative_conjecture(25)
        monkeypatch.undo()
        assert calls == [{"gcd": 1, "derivative": 0}] * 13
        for entry in report.entries:
            assert magnitude_hankel(entry.n).derivative() == entry.value, entry.n

    def test_both_rhs_forms_agree(self):
        # the squared-determinant form versus R^(n-1)/(n-1)! times the
        # squared limit derivative, by plain IntPoly arithmetic
        for n in range(1, 16, 2):
            limit = boundary_limit_derivative(n)
            want = RatFunc(limit.num.shift(n - 1) * limit.num,
                           math.factorial(n - 1) * (limit.den * limit.den))
            assert derivative_conjecture_rhs(n) == want, n


_small_polys = st.lists(st.integers(-50, 50), min_size=1, max_size=8).map(IntPoly)


class TestSquareTimes:
    @settings(max_examples=150, deadline=None, database=None)
    @given(_small_polys, _small_polys.filter(lambda b: not b.is_zero),
           st.integers(0, 12), st.integers(1, 10 ** 6))
    def test_matches_full_reduction(self, a, b, v, divisor):
        f = RatFunc(a, b.shift(v))
        want = RatFunc(f.num * f.num, divisor * (f.den * f.den))
        assert mag._square_times(f, divisor) == want

    def test_derivative_rhs_forms_match_reference(self):
        for n in range(1, 14, 2):
            p = n // 2
            h1, h0 = mag.hankel_det(p + 1, 1), mag.hankel_det(p + 1, 0)
            want = RatFunc(h1 * h1, (math.factorial(2 * p) * (h0 * h0)).shift(2))
            assert derivative_conjecture_rhs(n) == want


class TestStripPoly:
    @settings(max_examples=150, deadline=None, database=None)
    @given(_small_polys.filter(lambda a: not a.is_zero), st.integers(0, 12))
    def test_factors_a_nonzero_poly(self, a, v):
        poly = a.shift(v)
        prim, valuation, c = mag._strip_poly(poly)
        assert c * prim.shift(valuation) == poly
        assert prim.content() == 1 and prim.leading > 0 and prim.coeffs[0] != 0


class TestDeterminantalIdentity:
    # (-1)^p det(bordered) = det[B_{i+j+2}] for every p' <= p, as the
    # equality campaign checks it up to n = 2p + 1
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 10])
    def test_holds(self, p):
        report = verify_formula_equality(2 * p + 1)
        assert [e.n for e in report.entries] == list(range(1, 2 * p + 2, 2))


class TestDisagreementPath:
    def test_boundary_mismatch_is_fatal(self, monkeypatch):
        import oddball.magnitude as mag
        from oddball.errors import Disagreement

        real = mag.unit_numerators

        def crooked(p):
            nums = real(p)
            return (nums[0] + IntPoly.one(),) + nums[1:]

        monkeypatch.setattr(mag, "unit_numerators", crooked)
        with pytest.raises(Disagreement):
            mag.verify_triple_route(3)

    def test_equality_mismatch_is_fatal(self, monkeypatch):
        import oddball.magnitude as mag
        from oddball.errors import Disagreement

        real = mag._bordered_det
        monkeypatch.setattr(mag, "_bordered_det", lambda p: real(p) + IntPoly.one())
        with pytest.raises(Disagreement) as exc:
            mag.verify_formula_equality(3, jobs=1)
        assert exc.value.n == 1
        # the message names each route's reduced value
        det = RatFunc(real(0) + IntPoly.one(), IntPoly([0, 1]))
        assert str(exc.value).endswith(f"det={det.as_dict()} hankel={magnitude_hankel(1).as_dict()}")

    def test_derivative_mismatch_is_fatal(self, monkeypatch):
        import oddball.magnitude as mag
        from oddball.errors import ConjectureFails

        # one coefficient of each H^(2)_k entry, the d/dR side, changed, the
        # coefficient of R^(k+1): its valuation R^k is kept
        real = mag.hankel_det
        monkeypatch.setattr(mag, "hankel_det",
                            lambda k, s: real(k, s) + IntPoly.one().shift(k + 1) if s == 2 else real(k, s))
        with pytest.raises(ConjectureFails) as exc:
            mag.verify_derivative_conjecture(3, jobs=1)
        assert exc.value.n == 1
        # the message names both reduced values, d/dR by the quotient rule
        lhs = RatFunc(real(1, 2) + IntPoly.one().shift(2), mag._route_den(0)).derivative()
        assert str(exc.value).endswith(f"rhs={derivative_conjecture_rhs(1).as_dict()} "
                                       f"d/dR={lhs.as_dict()}")


class TestBoundaryClosedForm:
    """The closed form of the boundary route against the ExpLaurent calculus
    of the pointwise oracle, at every n the extended boundary campaign
    reaches (n <= 33)."""

    def test_laplacian_steps_down_the_kernels(self):
        kernels = kernel_table(18).funcs
        for p in range(17):
            for m in range(p + 2):
                want = kernels[m] - kernels[m + 1].scale(2 * (p - m))
                assert kernels[m].laplacian(2 * p + 1) == want, (p, m)

    def test_boundary_sums_match_the_laplacian_chains(self):
        kernels = kernel_table(16).funcs
        for n in range(1, 34, 2):
            p = n // 2
            tb = reverse_bessel(p + 1)
            sigma = [sum((-1) ** j * math.comb(p + 1, j) * math.comb(j - 1, t)
                         for j in range(p + 2) if 2 * j > p + 1) for t in range(p + 1)]
            for i in range(p + 1):
                lam = IntPoly.zero()
                for t in range(p - i + 1):
                    theta = tb.poly(i + t + 1).shift_down(1)
                    lam = lam - ((-2) ** t * math.perm(p - i, t) * sigma[t] * theta).shift(2 * (p - t))
                chain = mag._boundary_sum(kernels[i], n).mul_rpow(2 * i + n - 1)
                assert chain == ExpLaurent(dict(enumerate(lam.coeffs))), (n, i)

    def test_route_runs_no_laplacian(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the boundary route ran the ExpLaurent calculus")

        monkeypatch.setattr(ExpLaurent, "laplacian", refuse)
        monkeypatch.setattr(ExpLaurent, "diff", refuse)
        for n in range(1, 16, 2):
            assert magnitude_boundary(n) == magnitude_hankel(n), n


class TestIntegralLemma:
    def test_elementary_case(self):
        # integral of e^-r over [1, inf) equals e^-1 on both sides
        assert verify_integral_lemma(0, 0)
        assert oracles.quadrature_lemma(0, 0, 1)

    def test_linear_case(self):
        # integral of r e^-r over [1, inf) is 2/e; closed form gives B_2(1) e^-1
        assert verify_integral_lemma(1, 0)
        assert oracles.quadrature_lemma(1, 0, 1)

    def test_general_case(self):
        assert verify_integral_lemma(2, 1)
        assert oracles.quadrature_lemma(2, 1, Fraction(3, 2))

    def test_bad_inputs(self):
        with pytest.raises(NonpositiveRadius):
            oracles.quadrature_lemma(0, 0, 0)
        with pytest.raises(ValueError):
            verify_integral_lemma(-1, 0)
        with pytest.raises(ValueError):
            oracles.quadrature_lemma(-1, 0, 1)

    # degree 4: B_2(r) r^2 on [3/2, inf)
    CASE = (2, 1, Fraction(3, 2))

    @staticmethod
    def _change_closed_form(monkeypatch, change):
        """Make the check and its oracle read change(tail) for the
        closed-form polynomial."""
        tail = mag._lemma_tail
        monkeypatch.setattr(mag, "_lemma_tail", lambda i, b: change(tail(i, b)))
        monkeypatch.setattr(oracles, "_lemma_tail", lambda i, b: change(tail(i, b)))

    @pytest.mark.parametrize("scale, agree", [
        (Fraction(10 ** 28 + 1, 10 ** 28), False),
        (Fraction(10 ** 32 + 1, 10 ** 32), True),
    ], ids=["1e-28", "1e-32"])
    def test_scaled_closed_form(self, monkeypatch, scale, agree):
        # the oracle's tolerance is 1e-30: a closed form off by 1e-28 fails,
        # one off by 1e-32 passes; the exact identity fails both
        self._change_closed_form(
            monkeypatch, lambda tail: IntPoly._raw(tuple(scale * c for c in tail.coeffs)))
        assert oracles.quadrature_lemma(*self.CASE) is agree
        assert verify_integral_lemma(*self.CASE[:2]) is False

    def test_changed_coefficient_fails(self, monkeypatch):
        def bump(tail):
            c = list(tail.coeffs)
            c[1] += 1
            return IntPoly(c)

        self._change_closed_form(monkeypatch, bump)
        assert verify_integral_lemma(*self.CASE[:2]) is False
        assert oracles.quadrature_lemma(*self.CASE) is False

    def test_identity_holds_far_past_the_campaign(self):
        # the 600 identities of i < 30, b < 20, each proving the lemma at
        # every radius
        assert all(verify_integral_lemma(i, b) for i in range(30) for b in range(20))

    @pytest.mark.parametrize("i, b, radius", [
        (0, 0, Fraction(1)), (2, 1, Fraction(3, 2)), (4, 3, Fraction(3)),
    ])
    def test_moment_sum_matches_direct_quadrature(self, i, b, radius):
        # the oracle: one quadrature of e^(-r) B_i(r) r^(2b) over
        # [R, R + 180], at the check's precision; (4, 3, 3) has criterion
        # 7's highest degree, 10
        coeffs = reverse_bessel(i).poly(i).shift(2 * b).coeffs[::-1]
        with mpmath.workprec(oracles._QUAD_PREC):
            rv = mpmath.mpf(radius.numerator) / radius.denominator
            direct = mpmath.quad(lambda r: mpmath.exp(-r) * mpmath.polyval(coeffs, r),
                                 [rv, rv + 2, rv + 8, rv + 24, rv + 64, rv + 180])
            assembled, _ = oracles._lemma_integral(i, b, radius)
            assert abs(direct * mpmath.exp(rv) - assembled) <= mpmath.mpf(10) ** (-30) * assembled

    def test_moments_keep_their_precision(self, monkeypatch):
        # moments first computed under a 53-bit context are still exact
        # enough to catch a 1e-28 fault, and no call leaves its precision
        monkeypatch.setattr(oracles, "_node_terms", {})
        oracles._moment.cache_clear()
        prec = mpmath.mp.prec
        with mpmath.workprec(53):
            for j in range(5):
                oracles._moment(j)
            assert mpmath.mp.prec == 53
        assert mpmath.mp.prec == prec
        assert oracles.quadrature_lemma(*self.CASE)
        scale = Fraction(10 ** 28 + 1, 10 ** 28)
        self._change_closed_form(monkeypatch, lambda tail: lambda r: scale * tail(r))
        assert oracles.quadrature_lemma(*self.CASE) is False
        assert mpmath.mp.prec == prec

    def test_degree_36_sample(self):
        # sample 514 of `verify integral`, B_0 r^36 on [1, inf): its high
        # moments need more than the first width of 180
        assert next(itertools.islice(cli._integral_grid(), 513, None)) == (0, 18, 1)
        assert oracles.quadrature_lemma(0, 18, 1)
        assert verify_integral_lemma(0, 18)


class TestStructuralFacts:
    def test_numerator_degrees_and_positivity(self):
        # degrees implied by the Hankel determinant shapes, plus positivity
        for n in range(1, 16, 2):
            p = (n - 1) // 2
            f = magnitude_hankel(n)
            assert f.num.degree == (p + 1) * (p + 2) // 2
            assert f.den.degree == p * (p - 1) // 2
            assert f.num.degree - f.den.degree == n
            assert all(c >= 0 for c in f.num.coeffs)
            assert all(c >= 0 for c in f.den.coeffs)

