"""Hankel matrix construction; det_bareiss against the cofactor expansion;
hankel_det, by evaluation and interpolation, against det_bareiss; the
Heine pass's bordered and unit tables against det_bareiss and
solve_unit_rhs; unit-RHS solves and their first and last components as
Hankel-determinant ratios; the unit residual's one-evaluation certificate
against the symbolic residual, its oracle."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddball import cli, hankel, magnitude
from oddball.bessel import reverse_bessel
from oddball.errors import (
    InexactDivision,
    InputError,
    OddballError,
    RouteMismatch,
    SingularMatrix,
    TableTooSmall,
)
from oddball.golden import FIRST_COEFF, LAST_COEFF
from oddball.hankel import (
    PolyMatrix,
    build_hankel,
    clear_hankel_cache,
    det_bareiss,
    hankel_det,
    solve_unit_rhs,
    unit_solution,
)
from oddball.magnitude import verify_triple_route
from oddball.oracles import DimensionTooLarge, border_polys, det_minor_expansion
from oddball.poly import IntPoly, RatFunc
from oddball.potential import build_potential

TB = reverse_bessel(40)


class TestBuild:
    def test_two_by_two(self):
        m = build_hankel(2, 0, TB)
        assert m.rows == (
            (IntPoly([1]), IntPoly([0, 1])),
            (IntPoly([0, 1]), IntPoly([0, 1, 1])),
        )

    def test_one_by_one(self):
        assert build_hankel(1, 0, TB).rows == ((IntPoly([1]),),)

    def test_offset_two(self):
        m = build_hankel(2, 2, TB)
        assert m.rows == (
            (IntPoly([0, 1, 1]), IntPoly([0, 3, 3, 1])),
            (IntPoly([0, 3, 3, 1]), IntPoly([0, 15, 15, 6, 1])),
        )

    def test_table_too_small(self):
        with pytest.raises(TableTooSmall):
            build_hankel(4, 0, reverse_bessel(3))

    @pytest.mark.parametrize("size, offset, name", [(0, 0, "size"), (2, -1, "offset")])
    def test_bad_size_or_offset(self, size, offset, name):
        with pytest.raises(InputError, match=name):
            build_hankel(size, offset, TB)

    def test_hankel_det_checks_offset_even_at_size_zero(self):
        assert hankel_det(0, 0) == IntPoly.one()
        for size, offset, name in ((-1, 0, "size"), (0, -1, "offset"), (2, -1, "offset")):
            with pytest.raises(InputError, match=name):
                hankel_det(size, offset)


class TestDeterminants:
    def test_printed_values(self):
        assert det_bareiss(build_hankel(2, 0, TB)) == IntPoly([0, 1])
        assert det_bareiss(build_hankel(1, 0, TB)) == IntPoly.one()
        # 2 R^2 (R + 3)
        assert det_bareiss(build_hankel(3, 0, TB)) == IntPoly([0, 0, 6, 2])

    def test_diagonal(self):
        m = PolyMatrix([[IntPoly([0, 1]), IntPoly.zero()], [IntPoly.zero(), IntPoly([0, 1])]])
        assert det_bareiss(m) == IntPoly([0, 0, 1])
        assert det_minor_expansion(m) == IntPoly([0, 0, 1])

    def test_zero_determinant(self):
        r = IntPoly([0, 1])
        m = PolyMatrix([[r, r], [r, r]])
        assert det_bareiss(m).is_zero

    def test_pivot_swap(self):
        m = PolyMatrix([[IntPoly.zero(), IntPoly([0, 1])], [IntPoly.one(), IntPoly.zero()]])
        assert det_bareiss(m) == IntPoly([0, -1])

    def test_minor_matches_bareiss_on_hankel(self):
        for size in range(1, 7):
            for offset in (0, 1, 2):
                m = build_hankel(size, offset, TB)
                assert det_minor_expansion(m) == det_bareiss(m)

    def test_minor_matches_bareiss_random(self):
        rng = random.Random(12345)
        for _ in range(5):
            dim = rng.randrange(2, 5)
            m = PolyMatrix([
                [IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 4))])
                 for _ in range(dim)]
                for _ in range(dim)
            ])
            assert det_minor_expansion(m) == det_bareiss(m)

    def test_dimension_guard(self):
        big = PolyMatrix([[IntPoly.one()] * 14 for _ in range(14)])
        with pytest.raises(DimensionTooLarge):
            det_minor_expansion(big)

    def test_transpose_invariance(self):
        rng = random.Random(3)
        m = PolyMatrix([
            [IntPoly([rng.randint(-5, 5) for _ in range(3)]) for _ in range(4)]
            for _ in range(4)
        ])
        assert det_bareiss(PolyMatrix(zip(*m.rows))) == det_bareiss(m)

    def test_hankel_det_cache_and_empty(self):
        assert hankel_det(0, 0) == IntPoly.one()
        assert hankel_det(2, 0) == IntPoly([0, 1])
        assert hankel_det(2, 0) is hankel_det(2, 0)

    def test_hankel_det_nonzero_up_to_31(self):
        # nonzero at R=1 certifies the polynomial itself is nonzero
        for p in range(32):
            size = p + 1
            values = [TB.poly(i)(1) if i <= 40 else reverse_bessel(2 * p).poly(i)(1)
                      for i in range(2 * size - 1)]
            m = PolyMatrix([
                [IntPoly([values[i + j]]) for j in range(size)]
                for i in range(size)
            ])
            assert not det_bareiss(m).is_zero, p


class TestEvaluationInterpolation:
    """hankel_det against det_bareiss of the built matrix, its oracle."""

    MAX_SIZE = 14
    OFFSETS = range(4)
    MAX_P = 12

    @pytest.fixture(scope="class")
    def reference(self):
        return {
            (k, s): det_bareiss(build_hankel(k, s, TB))
            for k in range(1, self.MAX_SIZE + 1)
            for s in self.OFFSETS
        }

    @pytest.fixture(scope="class")
    def heine_reference(self):
        """The bordered determinants, by a Bareiss of the built matrix, and
        the unit numerators y_0 .. y_p, by the oracle solve, for p <= MAX_P."""
        bordered, units = [], []
        for p in range(self.MAX_P + 1):
            rows = [[TB.poly(i + j + 1) for j in range(p + 1)] for i in range(p)]
            bordered.append(det_bareiss(PolyMatrix(rows + [list(border_polys(p))])))
            m = build_hankel(p + 1, 0, TB)
            d = det_bareiss(m)
            units.append(tuple((y.num * d).divexact(y.den) for y in solve_unit_rhs(m)))
        return {"bordered": bordered, "unit": units}

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_hankel_cache()
        yield
        clear_hankel_cache()

    def test_degree(self, reference):
        # deg H^(s)_k = k(k-1)/2 + ks (proof in the hankel docstring), the
        # bound the engine takes its points from, is attained
        for k, s in sorted(reference, reverse=True):
            det = hankel_det(k, s)
            assert det == reference[k, s]
            assert det.degree == k * (k - 1) // 2 + k * s, (k, s)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_bareiss_in_any_order(self, reference, order):
        keys = sorted(reference)
        if order == "descending":
            keys.reverse()
        elif order == "shuffled":
            random.Random(11).shuffle(keys)
        for key in keys:
            assert hankel_det(*key) == reference[key], (order, key)

    @pytest.mark.parametrize("order", ["ascending", "descending", "largest-first"])
    def test_matches_bareiss_by_offset(self, reference, order):
        # sizes taken one offset at a time, so each offset's fill is reused or redone
        sizes = range(1, self.MAX_SIZE + 1)
        if order == "ascending":
            keys = [(k, s) for s in self.OFFSETS for k in sizes]
        elif order == "descending":
            keys = [(k, s) for s in self.OFFSETS for k in reversed(sizes)]
        else:
            rest = [(k, s) for s in self.OFFSETS for k in sizes if k < self.MAX_SIZE]
            random.Random(7).shuffle(rest)
            keys = [(self.MAX_SIZE, s) for s in self.OFFSETS] + rest
        for key in keys:
            assert hankel_det(*key) == reference[key], (order, key)

    def test_no_polynomial_product_or_division(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("__mul__", "__rmul__", "divexact"):
            monkeypatch.setattr(IntPoly, name, counting(name, getattr(IntPoly, name)))
        for s in range(3):
            hankel_det(10, s)
        assert calls == []

    def test_desnanot_jacobi(self):
        # the engine's own recurrence restated on the polynomials: a
        # consistency check, not an oracle (det_bareiss is the oracle)
        for s in self.OFFSETS:
            for k in range(2, self.MAX_SIZE + 1):
                lhs = hankel_det(k, s) * hankel_det(k - 2, s + 2)
                mid = hankel_det(k - 1, s + 1)
                rhs = hankel_det(k - 1, s) * hankel_det(k - 1, s + 2) - mid * mid
                assert lhs == rhs, (k, s)

    def test_points_cover_the_degree_bound(self, reference):
        # deg H^(s)_k <= k(k-1)/2 + ks, proved in the hankel docstring
        for (k, s), det in reference.items():
            v, count = hankel._valuation_and_points(s, k - 1)
            assert v + count - 1 == k * (k - 1) // 2 + k * s
            assert v == (k - 1 if s == 0 else k)
            assert det.valuation() >= v and det.degree <= v + count - 1

    @pytest.mark.parametrize("kind", [(0, 1, 2, 3), (2, 3)], ids=["from-0", "from-2"])
    def test_point_values_are_the_determinants_over_x_to_the_valuation(self, reference, kind):
        # the theta column's entries, G_k at offset 0 and Theta^(s)_k above,
        # are H(x) / (x^v sf(k+1)), v from `_valuation_and_points` alone and
        # sf from `_superfactorials`, and each x gives the entries it is a
        # point of
        count = 10
        contents = hankel._superfactorials(count)
        factors = hankel._content_factors(contents)
        points = {s: tuple(hankel._valuation_and_points(s, k)[1] for k in range(count))
                  for s in kind}
        for s in kind:
            for k in range(count):
                v, n = hankel._valuation_and_points(s, k)
                for x in sorted({1, 2, 7, n}):
                    if x > n:
                        continue
                    at = hankel._point_values(points, factors, x)[s]
                    assert len(at) == sum(m >= x for m in points[s]), (s, x)
                    value = reference[k + 1, s](x)
                    assert value % (x ** v * contents[k + 1]) == 0
                    assert at[k - (count - len(at))] == value // (x ** v * contents[k + 1]), (s, k, x)

    def test_every_entry_has_its_superfactorial_content(self):
        # the contents the point pass divides out, held once: H^(s)_k has
        # sf(k) = 0! 1! .. (k-1)!, "unit" entry p (the gcd over its
        # components) sf(p) and "bordered" entry p sf(p+1)
        sf = hankel._superfactorials(16)
        assert sf[:6] == [1, 1, 1, 2, 12, 288]
        hankel._hold(self.OFFSETS, 16)
        hankel._hold(("bordered", "unit"), 14)
        for s in self.OFFSETS:
            assert [det.content() for det in hankel._TABLES[s]] == sf[1:17], s
        assert [math.gcd(*(y.content() for y in ys)) for ys in hankel._TABLES["unit"]] == sf[:14]
        assert [f.content() for f in hankel._TABLES["bordered"]] == sf[1:15]

    @pytest.mark.parametrize("wrong", [
        lambda sf, count: sf(count + 1)[1:],  # sf(k+1) for sf(k): each step k+1, not k
        lambda sf, count: [c * (1 + (k == 5)) for k, c in enumerate(sf(count))],  # sf(5) doubled
    ], ids=["off-by-one", "one-doubled"])
    @pytest.mark.parametrize("fill", [
        lambda: hankel_det(6, 0),
        lambda: hankel._hold(("bordered", "unit"), 8),
    ], ids=["offset", "heine"])
    def test_wrong_content_is_fatal(self, monkeypatch, wrong, fill):
        # the contents are observed, not proven: a wrong one raises, and
        # no table is held
        real = hankel._superfactorials
        monkeypatch.setattr(hankel, "_superfactorials", lambda count: wrong(real, count))
        with pytest.raises(InexactDivision):
            fill()
        assert hankel._TABLES == {}

    def test_unit_points_cover_the_oracle(self):
        # entry p of "unit" holds y_0 .. y_p, det H times the oracle's
        # reduced components, and deg y_i <= p + p(p+1)/2 - i
        for p in range(9):
            m = build_hankel(p + 1, 0, TB)
            d = det_bareiss(m)
            v, count = hankel._valuation_and_points("unit", p)
            assert v == p and count == p * (p + 1) // 2 + 1
            for i, y in enumerate(solve_unit_rhs(m)):
                num = (y.num * d).divexact(y.den)
                assert num.valuation() >= v and num.degree <= v + count - 1 - i, (p, i)

    def test_heine_degree_bounds(self):
        # Q_p[i] and F_p interpolated at the row and column degree bounds,
        # p^2 - i and p^2 + 3p + 2, which hold for any such entries: the
        # Heine bounds of the hankel docstring are below them, deg Q_p[i] =
        # p(p+1)/2 - i is attained, and deg F_p <= (p^2 + 7p + 4)/2
        top = 15
        count = top + 1
        units = [[[] for _ in range(p + 1)] for p in range(count)]
        borders = [[] for _ in range(count)]
        factors = hankel._content_factors(hankel._superfactorials(count))
        for x in range(1, top * top + 2 * top + 3):
            theta = hankel._theta_values(x, 2 * count - 2)
            squares = [x ** (2 * k) for k in range(count)]
            for p, q in enumerate(hankel._heine_polys(x, theta, factors)):
                if x <= p * p + 1:
                    for column, c in zip(units[p], q):
                        column.append(c)
                if x <= p * p + 2 * p + 2:
                    borders[p].append(hankel._border_sum(x, p, theta, q, squares))
        for p in range(count):
            assert [hankel._interpolate(column, 0, 1).degree for column in units[p]] == [
                p * (p + 1) // 2 - i for i in range(p + 1)], p
            assert hankel._interpolate(borders[p], p + 1, 1).degree <= (p * p + 7 * p + 4) // 2, p

    def test_heine_pass_matches_the_oracles(self, heine_reference):
        hankel._hold(("bordered", "unit"), self.MAX_P + 1)
        for key, want in heine_reference.items():
            assert list(hankel._TABLES[key]) == want, key

    def test_runs_no_elimination(self, reference, heine_reference, monkeypatch):
        # every offset comes from the Desnanot-Jacobi recurrence, one at a
        # time or all in one pass, and the bordered and unit tables from
        # the Heine recurrence: no table eliminates
        count = 10

        def refuse(*args):
            raise AssertionError("a table must not eliminate")

        monkeypatch.setattr(hankel, "_eliminate", refuse)
        monkeypatch.setattr(hankel, "det_bareiss", refuse)
        for s in self.OFFSETS:
            for k in range(count, 0, -1):
                assert hankel_det(k, s) == reference[k, s], (k, s)
        clear_hankel_cache()
        hankel._hold(self.OFFSETS, count)
        for s in self.OFFSETS:
            for k in range(1, count + 1):
                assert hankel._TABLES[s][k - 1] == reference[k, s], (k, s)
        hankel._hold(("bordered", "unit"), count)
        for key, want in heine_reference.items():
            assert list(hankel._TABLES[key]) == want[:count], key

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_each_size_at_its_own_points(self, monkeypatch, s):
        interpolated = []
        real = hankel._interpolate

        def interpolate(values, v, content):
            interpolated.append((len(values), v))
            return real(values, v, content)

        monkeypatch.setattr(hankel, "_interpolate", interpolate)
        hankel_det(8, s)  # a lone offset: the one-offset pass, interpolating only offset s
        assert interpolated == [hankel._valuation_and_points(s, k)[::-1] for k in range(8)]

    def test_one_pass_at_the_points_of_the_largest_offset(self, monkeypatch):
        # offsets 0 and 2 share one theta column per point, x = 1..N for
        # offset 2's largest entry; offset 1 runs in the recurrence but is
        # not interpolated, and each entry is interpolated from its own points
        points, interpolated = [], []
        real_theta, real_interpolate = hankel._theta_values, hankel._interpolate

        def theta(x, top):
            points.append(x)
            return real_theta(x, top)

        def interpolate(values, v, content):
            interpolated.append((len(values), v))
            return real_interpolate(values, v, content)

        monkeypatch.setattr(hankel, "_theta_values", theta)
        monkeypatch.setattr(hankel, "_interpolate", interpolate)
        hankel._hold((0, 2), 8)
        assert sorted(hankel._TABLES) == [0, 2]
        assert points == list(range(1, hankel._valuation_and_points(2, 7)[1] + 1))
        assert interpolated == [hankel._valuation_and_points(s, k)[::-1]
                                for s in (0, 2) for k in range(8)]

    def test_heine_pass_at_the_bordered_points(self, monkeypatch):
        # "bordered" and "unit" share one theta column per point, x = 1..N
        # of the bordered entry 7, and each entry, each component of a unit
        # entry, is interpolated from its own points
        points, interpolated = [], []
        real_theta, real_interpolate = hankel._theta_values, hankel._interpolate

        def theta(x, top):
            points.append(x)
            return real_theta(x, top)

        def interpolate(values, v, content):
            interpolated.append((len(values), v))
            return real_interpolate(values, v, content)

        monkeypatch.setattr(hankel, "_theta_values", theta)
        monkeypatch.setattr(hankel, "_interpolate", interpolate)
        hankel._hold(("bordered", "unit"), 8)
        assert points == list(range(1, hankel._valuation_and_points("bordered", 7)[1] + 1))
        per_entry = {key: [hankel._valuation_and_points(key, p)[::-1] for p in range(8)]
                     for key in ("bordered", "unit")}
        assert interpolated == per_entry["bordered"] + [
            need for p, need in enumerate(per_entry["unit"]) for _ in range(p + 1)]
        assert [len(y) for y in hankel._TABLES["unit"]] == list(range(1, 9))

    def test_nonpositive_heine_determinant_is_fatal(self, monkeypatch):
        real = hankel._theta_values

        def corrupted(x, top):
            values = real(x, top)
            if x == 3:
                values[2] = 0  # D_2 = theta_0 theta_2 - theta_1^2 becomes -16
            return values

        monkeypatch.setattr(hankel, "_theta_values", corrupted)
        with pytest.raises(RouteMismatch):
            unit_solution(3)

    def test_nonpositive_pivot_is_fatal(self, monkeypatch):
        real = hankel._theta_values

        def corrupted(x, top):
            values = real(x, top)
            if x == 3:
                values[1] = 0  # B_2(3) = 3 theta_1 becomes 0, and H_2(3) = -9
            return values

        monkeypatch.setattr(hankel, "_theta_values", corrupted)
        with pytest.raises(RouteMismatch):
            hankel_det(4, 0)


@st.composite
def _valued_polys(draw):
    """(f, v, N): f = R^v q with deg f <= 60, and N >= deg q + 1 points."""
    v = draw(st.integers(0, 8))
    q = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=61 - v))
    spare = draw(st.integers(0, 3))  # points beyond the degree, as under a loose bound
    return IntPoly(q).shift(v), v, len(q) + spare


class TestInterpolation:
    @settings(max_examples=100, deadline=None, database=None)
    @given(_valued_polys())
    def test_round_trip(self, case):
        f, v, count = case
        values = [f(x) // x ** v for x in range(1, count + 1)]
        assert hankel._interpolate(values, v, 1) == f

    # Below four points a single changed value can still come from an integer
    # polynomial; from four on, only the checked divisions can notice it.
    @settings(max_examples=100, deadline=None, database=None)
    @given(_valued_polys(), st.integers(0, 60), st.sampled_from((-1, 1)))
    @example((IntPoly([5, -2, 7]), 0, 4), 2, 1)
    def test_value_off_by_one_is_fatal(self, case, index, delta):
        f, v, count = case
        count = max(count, 4)
        values = [f(x) // x ** v for x in range(1, count + 1)]
        values[index % count] += delta
        with pytest.raises(OddballError):
            hankel._interpolate(values, v, 1)


class TestSolve:
    def test_printed_solutions(self):
        assert unit_solution(0) == (RatFunc(IntPoly.one(), IntPoly.one()),)
        sol = unit_solution(1)
        assert sol[0] == RatFunc(IntPoly([1, 1]), IntPoly.one())
        assert sol[1] == RatFunc(IntPoly([-1]), IntPoly.one())
        sol = unit_solution(2)
        assert sol[0] == RatFunc(IntPoly([6, 12, 6, 1]), IntPoly([6, 2]))

    def test_singular(self):
        r = IntPoly([0, 1])
        with pytest.raises(SingularMatrix):
            solve_unit_rhs(PolyMatrix([[r, r], [r, r]]))

    def test_clear_forgets_unit_solutions(self):
        unit_solution(3)
        assert "unit" in hankel._TABLES
        clear_hankel_cache()
        assert "unit" not in hankel._TABLES

    @pytest.mark.parametrize("run", [lambda: verify_triple_route(15),
                                     lambda: build_potential(9, Fraction(1, 2))],
                                    ids=["triple-route", "potential"])
    def test_each_unit_entry_read_once(self, monkeypatch, run):
        # unit_numerators keeps no memo (the "unit" table is held), and each
        # read checks the residual again: no command may read one p twice
        real, reads = hankel.unit_numerators, Counter()

        def counted(p):
            reads[p] += 1
            return real(p)

        monkeypatch.setattr(hankel, "unit_numerators", counted)
        monkeypatch.setattr(magnitude, "unit_numerators", counted)
        run()
        assert reads and max(reads.values()) == 1

    def test_corrupted_unit_value_is_fatal(self, monkeypatch):
        # a wrong numerator that is still a polynomial passes the
        # interpolation; only unit_solution's residual check can catch it
        real = hankel._point_values

        def corrupted(points, factors, x):
            # y_0 / sf(3) of entry 3 one larger at each of its points: 2 R^3 more
            values = real(points, factors, x)
            units = values.get("unit", [])
            index = 3 - (len(factors) - len(units))  # the values start at entry count - len
            if 0 <= index < len(units):
                units[index] = [units[index][0] + 1] + units[index][1:]
            return values

        monkeypatch.setattr(hankel, "_point_values", corrupted)
        clear_hankel_cache()
        with pytest.raises(RouteMismatch):
            unit_solution(3)
        clear_hankel_cache()  # the corrupted table stays held

    def test_residual_is_symbolically_checked(self):
        # fresh solve (not the cached path) exercises the residual assertion
        m = build_hankel(4, 0, TB)
        sol = solve_unit_rhs(m)
        assert len(sol) == 4

    def test_zero_leading_pivot_swaps_rows(self):
        r = IntPoly([0, 1])
        sol = solve_unit_rhs(PolyMatrix([[IntPoly.zero(), r], [r, IntPoly.one()]]))
        assert sol == (RatFunc(IntPoly([-1]), IntPoly([0, 0, 1])), RatFunc(IntPoly.one(), r))

    def test_matches_cramer_on_general_matrices(self):
        rng = random.Random(2024)
        for dim in range(1, 6):
            m = PolyMatrix([
                [IntPoly([rng.randint(-6, 6) for _ in range(rng.randrange(1, 4))])
                 for _ in range(dim)]
                for _ in range(dim)
            ])
            d = det_minor_expansion(m)
            assert not d.is_zero
            cramer = []
            for i in range(dim):
                replaced = PolyMatrix(
                    [IntPoly([int(r == 0)]) if j == i else m.rows[r][j]
                     for j in range(dim)]
                    for r in range(dim)
                )
                cramer.append(RatFunc(det_minor_expansion(replaced), d))
            assert solve_unit_rhs(m) == tuple(cramer), dim

    def test_closed_forms_match_solve(self):
        # component 0 is H^(2)_p / H^(0)_{p+1}; component p is (-1)^p H^(1)_p / H^(0)_{p+1}
        for p in range(8):
            sol = unit_solution(p)
            den = hankel_det(p + 1, 0)
            assert sol[0] == RatFunc(hankel_det(p, 2), den)
            assert sol[p] == RatFunc((-1) ** p * hankel_det(p, 1), den)

    def test_golden_first_coefficients(self):
        for n, want in FIRST_COEFF.items():
            assert unit_solution((n - 1) // 2)[0] == want

    def test_golden_last_coefficients(self):
        for n, want in LAST_COEFF.items():
            p = (n - 1) // 2
            assert unit_solution(p)[p] == want


def _with(nums, j, y):
    """nums with entry j replaced by y."""
    return nums[:j] + [y] + nums[j + 1:]


# each corruption of (y^(p), H^(0)_{p+1}), given X_0, the point the true
# inputs select
_CORRUPTIONS = {
    "y-coefficient": lambda nums, d, x0, p: (
        _with(nums, p // 2, nums[p // 2] + IntPoly([0, 1])), d),
    "held-determinant": lambda nums, d, x0, p: (nums, d + IntPoly.one()),
    # 3 (R - X_0) R^2 added to y_p vanishes at X_0 itself
    "vanishing-at-the-point": lambda nums, d, x0, p: (
        _with(nums, p, nums[p] + IntPoly([0, 0, -3 * x0, 3])), d),
    "zero-numerator": lambda nums, d, x0, p: (_with(nums, p // 2, IntPoly.zero()), d),
}


class TestUnitCertificate:
    """`unit_numerators`' residual certificate, one exact evaluation at
    X = 2^(8w), against the symbolic `_check_unit_residual`, its oracle."""

    MAX_P = 10

    @pytest.fixture(autouse=True)
    def held(self):
        clear_hankel_cache()
        hankel._hold(("unit", 0), self.MAX_P + 1)
        yield
        clear_hankel_cache()

    @staticmethod
    def _inputs(p):
        """B_0 .. B_2p, the held y^(p) and the held H^(0)_{p+1}."""
        return reverse_bessel(2 * p).polys, list(hankel._TABLES["unit"][p]), hankel._TABLES[0][p]

    @staticmethod
    def _point(monkeypatch, b, nums, d):
        """X_0 = 2^(8w), read from the width that the certificate packs at."""
        widths, real = set(), hankel._value_at_power_of_two

        def spy(coeffs, width):
            widths.add(width)
            return real(coeffs, width)

        with monkeypatch.context() as m:
            m.setattr(hankel, "_value_at_power_of_two", spy)
            hankel._check_unit_residual_at_point(b, nums, d)
        (width,) = widths
        return 1 << 8 * width

    def _corrupt_held(self, monkeypatch, p, corruption):
        """Hold the corruption of entry p in place of the true tables."""
        b, nums, d = self._inputs(p)
        nums, d = _CORRUPTIONS[corruption](nums, d, self._point(monkeypatch, b, nums, d), p)
        units, dets = list(hankel._TABLES["unit"]), list(hankel._TABLES[0])
        units[p], dets[p] = tuple(nums), d
        monkeypatch.setitem(hankel._TABLES, "unit", tuple(units))
        monkeypatch.setitem(hankel._TABLES, 0, tuple(dets))

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_both_certificates_accept_the_tables_and_reject_each_corruption_is_fatal(
            self, monkeypatch, corruption):
        for p in range(self.MAX_P + 1):
            b, nums, d = self._inputs(p)
            rows = [b[i:i + p + 1] for i in range(p + 1)]
            hankel._check_unit_residual(rows, nums, d)
            hankel._check_unit_residual_at_point(b, nums, d)
            bad, bad_d = _CORRUPTIONS[corruption](nums, d, self._point(monkeypatch, b, nums, d), p)
            with pytest.raises(RouteMismatch, match="row"):
                hankel._check_unit_residual(rows, bad, bad_d)
            with pytest.raises(RouteMismatch, match="row"):
                hankel._check_unit_residual_at_point(b, bad, bad_d)

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    @pytest.mark.parametrize("p", [0, 3, 7])
    def test_corrupted_held_table_is_fatal(self, monkeypatch, corruption, p):
        self._corrupt_held(monkeypatch, p, corruption)
        with pytest.raises(RouteMismatch, match="unit-RHS residual check failed in row"):
            hankel.unit_numerators(p)

    def test_corruption_vanishing_at_the_true_point_is_fatal(self, monkeypatch):
        # the corrupted inputs pick a larger point: r_i(X_0) = 0 for every
        # row, yet the residual is not 0
        p = 5
        b, nums, d = self._inputs(p)
        x0 = self._point(monkeypatch, b, nums, d)
        bad, _ = _CORRUPTIONS["vanishing-at-the-point"](nums, d, x0, p)
        assert [sum(b[i + j](x0) * y(x0) for j, y in enumerate(bad)) for i in range(p + 1)] == [
            d(x0)] + [0] * p
        with pytest.raises(RouteMismatch):
            hankel._check_unit_residual_at_point(b, bad, d)

    def test_zero_polynomials_and_p_zero(self):
        assert hankel.unit_numerators(0) == (IntPoly.one(),)
        # zero entries in the matrix, the numerators and the right-hand side
        two, zero, quad = IntPoly([2]), IntPoly.zero(), IntPoly([3, 0, 1])
        for b, nums, d in [((two, zero, quad), (IntPoly([5]), zero), IntPoly([10])),
                           ((two, zero, quad), (zero, zero), zero),
                           ((zero,), (zero,), zero)]:
            hankel._check_unit_residual_at_point(b, nums, d)
            hankel._check_unit_residual([b[i:i + len(nums)] for i in range(len(nums))], nums, d)

    def test_zero_numerator_is_fatal(self):
        two, zero, quad = IntPoly([2]), IntPoly.zero(), IntPoly([3, 0, 1])
        with pytest.raises(RouteMismatch, match="row 0"):
            hankel._check_unit_residual_at_point((two, zero, quad), (zero, zero), IntPoly([10]))
        with pytest.raises(RouteMismatch, match="row 1"):
            hankel._check_unit_residual_at_point((two, IntPoly([1]), quad), (IntPoly([5]), zero), IntPoly([10]))

    def test_no_polynomial_product(self, monkeypatch):
        for p in range(self.MAX_P + 1):
            reverse_bessel(2 * p)  # the Bessel table builds by scalar products
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("__mul__", "__rmul__", "divexact"):
            monkeypatch.setattr(IntPoly, name, counting(name, getattr(IntPoly, name)))
        for p in range(self.MAX_P + 1):
            hankel.unit_numerators(p)
        assert calls == []

    def test_corrupted_unit_table_fails_verify_boundary_is_fatal(self, monkeypatch, capsys):
        hankel._hold(("bordered", "unit", 2, 0), 8)  # what `verify boundary --max 15` holds
        self._corrupt_held(monkeypatch, 3, "y-coefficient")
        code = cli.main(["verify", "boundary", "--max", "15"])
        got = (code, *capsys.readouterr())
        want = (1, "", "verification failed: unit-RHS residual check failed in row 0\n")
        if got != want:  # no assert, so that the check still runs under python -O
            pytest.fail(f"got {got}, want {want}")
