"""Hankel matrices of reverse Bessel polynomials, the bordered determinants
of the det route, and exact linear algebra.

Every determinant table is filled by kind, and held in one store,
`_TABLES`, keyed by offset, "bordered" or "unit":

* a set of offsets, one table per offset s: H_1 .. H_K, with H_k =
  det [B_{i+j+s}]_{i,j<k} over Z[R], read through `hankel_det(k, s)`; a
  lone `hankel_det` fills the one-offset set;
* "bordered": F_0 .. F_{K-1}, with F_p the determinant of the rows
  B_{i+j+1} (i < p, j <= p) over the border row xi_{p,j} of the det route
  (`oracles.border_polys`), read through `magnitude._bordered_det(p)`;
* "unit": y^(0) .. y^(K-1), with y^(p) = (y_0 .. y_p) the numerators of
  [B_{i+j}]_{i,j<=p} y = e_0 by Cramer's rule, read through
  `unit_numerators(p)`, and through `unit_solution(p)` over
  hankel_det(p+1, 0).

Every table is computed by evaluation at integer points and interpolation,
with no polynomial product or division.  Entry k is R^v c q with c its
content (the content bullet) and deg q < N (`_valuation_and_points`), so
the values q(x) at x = 1..N give q, Newton interpolation, each
Delta^j / j! checked exact, rebuilds it, and c times it is the entry.
`_hold` is the one way to fill the store: given the keys a caller reads
and a count, it fills every table held shorter, entries 0..count-1, in
one pass over the points, whose counts N it works out once.
`_entry` is the one way to read it, so no other module knows its layout.
At each x, `_point_values` computes theta(x) once and runs the two
recurrences below on it, Desnanot-Jacobi for the offsets and Heine for
"bordered" and "unit".  The points are independent, so a pool of workers
that hold nothing can share them (`_pool_map`): up to `jobs` workers, at
most one per usable CPU, once a pass has `_POOL_MIN_POINTS` points.  A
smaller pass gains nothing from a second process, so it runs in the caller
and never imports the pool module.  The interpolation runs in the caller.

* Hankel degree.  deg H^(s)_k <= k(k-1)/2 + ks, the bound used.  With u = 2t
  and mu the positive measure e^(-R^2 t) g(t) dt of the positivity bullet
  (s = 0), B_m(R) = e^R R^(2m) int u^m dmu(u), and Heine's formula gives
  H^(s)_k = e^(kR) R^(2ks + 2k(k-1)) (1/k!) int Delta(u)^2 prod_i u_i^s dmu^k.
  Put u_i = v_i + 1/R; Delta does not change under the shift.  Expanding
  prod_i (v_i + 1/R)^s Delta(v)^2 gives terms R^(e-ks) prod_i v_i^(a_i)
  with 0 <= e <= ks and sum_i a_i = k(k-1) + e, and int v^a dmu =
  e^(-R) R^(-2a) M_a(R), M_a(R) = sum_l C(a,l) (-1)^(a-l) R^(a-l) B_l(R).
  So each term of H^(s)_k is a constant times R^(ks-e) prod_i M_(a_i)(R).
  The coefficient of R^(l-q) in B_l is (l-q)(l-q+1)..(l+q-1) / (q! 2^q)
  for every l >= 0 (it vanishes for l <= q when q >= 1), a polynomial of
  degree 2q in l.  So the coefficient of R^(a-q) in M_a, an a-th
  difference of it, vanishes unless 2q >= a, and deg M_a <= floor(a/2)
  (checked for a <= 40).  Each term therefore has degree at
  most ks - e + (k(k-1) + e)/2 <= k(k-1)/2 + ks.  tests/test_hankel.py shows
  the bound attained for k <= 14 and s <= 3.
* Hankel valuation v.  B_m = R theta_{m-1} for m >= 1.  At s >= 1 every
  entry has the factor R, so v = k.  At s = 0, the Schur complement of the
  corner B_0 = 1 is [B_{i+j} - B_i B_j], all divisible by R, so v = k - 1.
  The point pass computes H(x) / x^v itself (next bullet), so only
  `_valuation_and_points` names v, and no value is divided by x^v.
* Hankel values.  At each x, the Desnanot-Jacobi identity on the offset-s
  matrix of size k+1, whose corner minors of size k are H^(s)_k, H^(s+2)_k
  and twice H^(s+1)_k and whose interior is H^(s+2)_(k-1), gives
  H^(s)_(k+1) H^(s+2)_(k-1) = H^(s)_k H^(s+2)_k - (H^(s+1)_k)^2.  The pass
  runs it on the theta column, each level divided by its content sf(k)
  (the content bullet).  For s >= 1 every row of [B_{i+j+s}(x)] is x
  times a row of [theta_{i+j+s-1}], so Theta^(s)_k = det
  [theta_{i+j+s-1}]_{i,j<k} / sf(k) = H^(s)_k(x) / (x^k sf(k)); dividing
  the identity by x^(2k) sf(k)^2, with sf(k+1) sf(k-1) / sf(k)^2 = k,
  leaves Theta^(s)_(k+1) = (Theta^(s)_k Theta^(s+2)_k - (Theta^(s+1)_k)^2)
  / (k Theta^(s+2)_(k-1)).  At s = 0, G_k = H^(0)_k(x) / (x^(k-1) sf(k)),
  and dividing by x^(2k-1) sf(k)^2 gives G_(k+1) = (G_k Theta^(2)_k - x
  (Theta^(1)_k)^2) / (k Theta^(2)_(k-1)).  Every level-0 entry is 1, and
  at level 1 G_1 = B_0 = 1 and Theta^(s)_1 = theta_(s-1), since sf(0) =
  sf(1) = 1.  So the column theta_(lo-1)(x) .. theta_(hi+2K-3)(x), headed
  by G_1 when lo = 0, gives, at level k, H^(s)_k(x) / (x^v sf(k)) for
  every s from lo up to hi + 2(K-k), in O(K (K + hi - lo)) operations:
  one pass per point serves every offset of a set from lo to hi.  Each
  offset's entries are recorded only at their own points, and the column
  starts at the least offset that still needs the point; offsets between
  those named run in the recurrence but are not interpolated.  Every
  quotient is a determinant of theta's or G_k (R^(k-1) divides H^(0)_k)
  over its content, an integer where the content bullet's observation
  holds, and its divisor k Theta^(s+2)_(k-1) is positive by the next
  bullet; every division is checked (InexactDivision) and every level
  value <= 0 raises RouteMismatch, with no fallback.
* Positivity.  B_m(x) = e^x x^(2m) k_m(x), k_0 = e^(-r), k_{m+1} =
  -(1/r) k_m', so k_m(r) = int_0^inf (2t)^m e^(-r^2 t) g(t) dt with
  g(t) = e^(-1/(4t)) / sqrt(4 pi t^3) > 0.  Thus [B_{i+j+s}(x)] =
  e^x x^(2s) D M D with D = diag(x^(2i)) and M the moment matrix of
  dmu = (2t)^s e^(-x^2 t) g(t) dt, positive definite since u^T M u =
  int (sum_i u_i (2t)^i)^2 dmu > 0 for u != 0.  So for x > 0 and every
  s >= 0, every H^(s)_k(x) is positive; one <= 0 raises RouteMismatch,
  with no fallback.
* Heine pass.  At x, put c_m = theta_m(x), so [B_{i+j+1}(x)] = x [c_{i+j}],
  and Q_p(t) = det [c_{i+j} (i < p, j <= p); 1 t .. t^p], Heine's
  orthogonal polynomial for L(t^m) = c_m.  Its lead is D_p = det
  [c_{i+j}]_{i,j<p} = H^(1)_p(x) / x^p > 0, L(t^k Q_p) = 0 for k < p,
  D_{p+1} = L(t^p Q_p) = sum_j Q_p[j] c_{j+p}, and put E_p = L(t^(p+1) Q_p)
  = sum_j Q_p[j] c_{j+p+1}.  The monic P_p = Q_p / D_p satisfy P_{p+1} =
  (t - alpha_p) P_p - beta_p P_{p-1}, with beta_p = L(P_p^2) / L(P_{p-1}^2)
  = D_{p+1} D_{p-1} / D_p^2 and alpha_p = L(t P_p^2) / L(P_p^2) = (D_p E_p
  + Q_p[p-1] D_{p+1}) / (D_p D_{p+1}), since L(P_p^2) = D_{p+1} / D_p.
  Times D_{p+1} D_p^2, from Q_{-1} = 0, Q_0 = 1 and D_0 = 1:
      D_p^2 Q_{p+1} = D_{p+1} D_p t Q_p - (D_p E_p + Q_p[p-1] D_{p+1}) Q_p
                      - D_{p+1}^2 Q_{p-1},
  O(p) integer operations per level.  The pass runs it on q_p = Q_p /
  sf(p) and d_p = D_p / sf(p) (the content bullet): with sf(p+1) / sf(p)
  = p!, d_{p+1} = (sum_j q_p[j] c_{j+p}) / p!, alpha = d_p sum_j q_p[j]
  c_{j+p+1} + p! q_p[p-1] d_{p+1} and
      p! d_p^2 q_{p+1} = p! d_{p+1} d_p t q_p - alpha q_p
                         - p p! d_{p+1}^2 q_{p-1}.
  Every coefficient of Q_{p+1} is a minor of the c's, an integer, and
  every q_{p+1}[i] one where the content bullet's observation holds; every
  division is checked (InexactDivision), and every d_{p+1} <= 0 raises
  RouteMismatch, with no fallback.  Expanding F_p along its border row
  gives F_p(x) = x^p sum_i xi_{p,i}(x) Q_p[i].  The cofactor (0, i) of
  [B_{i+j}]_{i,j<=p}, with rows 1..p the offset-1 rows, is y_i = (-1)^p
  x^p Q_p[i] (p transpositions move row 0 below them), so entry p of
  "unit" is (-1)^p Q_p, and the pass gives (-1)^p q_p.  The border row
  sums in O(p) (`_border_sum`), against q_p; over p! it is F_p(x) /
  (x^(p+1) sf(p+1)).  By the integral lemma (`magnitude._lemma_tail`),
  xi_{p,i}(x) / x = x^(2p+1) B_i(x) + n sum_j 2^j (p-i)!/(p-i-j)!
  x^(2(p-j)) theta_{i+j}(x) over j <= p - i; with
  m = i + j and T_m = sum_{i<=m} 2^(m-i) (p-i)!/(p-m)! x^(2i) Q_p[i],
      sum_i (xi_{p,i}(x) / x) Q_p[i] = x^(2p+1) (Q_p[0] + x sum_{i>=1}
                  Q_p[i] theta_{i-1}) + n sum_{m<=p} theta_m x^(2(p-m)) T_m,
  and T_0 = Q_p[0], T_m = 2(p-m+1) T_{m-1} + Q_p[m] x^(2m), all integers.
* Content.  The content of every held entry, the gcd of its
  coefficients, is a superfactorial sf(k) = 0! 1! .. (k-1)!
  (`_superfactorials`): sf(k) for H^(s)_k, sf(p) for "unit" entry p (the
  gcd over its components) and sf(p+1) for F_p.  This is observed, not
  proven: for s <= 3 and k <= 24, and for p <= 13; tests/test_hankel.py
  checks every entry for s <= 3 and k <= 16, and for p <= 13.  The
  recurrences start from H_0 = Q_0 = 1 and H_1 = B_s, monic, as they are,
  so sf(0) = sf(1) = 1 is required, and both recurrences divide by the
  contents' steps, sf(k+1) / sf(k) = k!, and the ratio of two steps, k
  (`_content_factors`, which refuses a non-integer step or a first
  content other than 1).  `_hold` multiplies each interpolated entry back
  by its content.  Each value the
  pass computes is the exact rational value of the entry at x over the
  content it takes; every division is checked, so either one leaves a
  remainder and raises InexactDivision, or each value is that integer,
  and the entry interpolated and multiplied back is the true one.  So a
  wrong content, one whose steps are not integers included, raises and
  never gives a wrong table.
* Unit degree.  deg Q_p[i] <= p(p+1)/2 - i, the Hankel degree bullet's
  argument on Heine's polynomials.  With u and mu as there, c_m =
  B_{m+1}/R = e^R R^(2m+1) int u^(m+1) dmu: the moments of u dmu, row i
  scaled by e^R R^(2i+1) and column j by R^(2j).  So Heine's formula,
  Q_p(t) = (e^R R)^p R^(2p^2) (1/p!) int Delta(u)^2 prod_r u_r (t/R^2 - u_r)
  dmu^p, gives Q_p[i] = +-(e^R R)^p R^(2(p^2-i)) (1/p!) int Delta(u)^2
  prod_r u_r e_{p-i}(u) dmu^p, an integrand of degree p^2 + p - i.  The
  shift u_r = v_r + 1/R leaves Delta alone and turns prod_r u_r e_{p-i}(u)
  into terms R^(-e) times monomials in v of degree p^2 + p - i - e, with
  0 <= e <= 2p - i; each integrates to e^(-pR) R^(-2(p^2+p-i-e)) times a
  product of M_(a_r)(R).  So each term of Q_p[i] is a constant times
  R^(e-p) prod_r M_(a_r)(R), of degree at most e - p + (p^2 + p - i - e)/2
  <= p(p+1)/2 - i; tests/test_hankel.py shows the bound attained for
  p <= 15.  Q_p[i] is an integer polynomial, a minor of the theta's, so
  entry p of "unit" is R^p times polynomials of degree <= p(p+1)/2, and
  x = 1 .. p(p+1)/2 + 1 give it.
* Unit residual.  `unit_numerators` proves r_i = sum_j B_{i+j} y_j -
  [i=0] H^(0)_{p+1} = 0 for every row i <= p, with the B from the reverse
  Bessel recurrence, y from the Heine table and H^(0)_{p+1} from the
  Desnanot-Jacobi table: three independent sources, so a fault in the
  Heine pass it shares with the det route raises RouteMismatch rather
  than making two routes agree.  A coefficient of B_{i+j} y_j is a sum of
  products of one coefficient of each, so every coefficient of r_i is at
  most M = ||H^(0)_{p+1}||_inf + max_i sum_j ||B_{i+j}||_1 ||y_j||_inf in
  absolute value.  Take X = 2^(8w) > 2M, and above every coefficient of
  the inputs, so that each value at X is its packed sign halves
  (`poly._value_at_power_of_two`).  Then the coefficients of r_i are the
  balanced base-X digits of r_i(X): if c_t is the top nonzero one,
  |sum_{l<t} c_l X^l| <= M (X^t - 1)/(X - 1) < X^t <= |c_t X^t|, so r_i(X)
  != 0.  Hence r_i(X) = sum_j B_{i+j}(X) y_j(X) - [i=0] H^(0)_{p+1}(X) = 0,
  for each i, proves r_i = 0: each polynomial is evaluated once, and each
  row costs p + 1 integer products, not p + 1 polynomial products.  X is
  picked from the inputs as given, so no wrong input can be made to
  vanish there.  The symbolic `_check_unit_residual` stays as the oracle,
  which `solve_unit_rhs` runs.
* Bordered degree and valuation.  F_p = R^p sum_i xi_{p,i} Q_p[i] with
  deg xi_{p,i} = 2p + 2 + i (its R^(2p+2) B_i term leads; the lemma terms
  have degree 2p + 1 + i - j), so the unit bound gives deg F_p <= p + 2p
  + 2 + p(p+1)/2 = (p^2 + 7p + 4)/2.  Every border entry has the factor R,
  since its terms are R^(2p+2) B_j and multiples of B_m with m >= 1, so
  v = p + 1, and q_p needs N_p = (p+1)(p+4)/2 points.  The offset-2 table,
  which the equality campaign compares with F_p, comes from the
  Desnanot-Jacobi recurrence, a different algorithm; the two share only
  theta_m(x) and the interpolation.  The bound does not use deg H^(2)_{p+1}
  = (p+1)(p+4)/2, p lower, which would assume the identity checked.

Production eliminates nothing: its two point recurrences are
Desnanot-Jacobi's and Heine's.  `_eliminate`, checked fraction-free
elimination with row swaps over Z[R], is the one polynomial elimination,
and only the tests' oracles run it: `det_bareiss`, for `hankel_det` and
the bordered determinants, and `solve_unit_rhs`, for `unit_solution`,
which eliminates [m | e_0] and back-substitutes in O(dim^3).
`PolyMatrix` and `build_hankel` build their input.  The block waits here
for ROADMAP item 1, as the `oracles` docstring says.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import lru_cache, partial
from operator import mul

from .bessel import BesselTable, reverse_bessel
from .errors import (
    InexactDivision,
    InputError,
    RouteMismatch,
    SingularMatrix,
    TableTooSmall,
    WorkerDied,
    at_least,
)
from .poly import IntPoly, RatFunc, _value_at_power_of_two


class PolyMatrix:
    """Immutable square matrix of integer polynomials."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise InputError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)


def build_hankel(size: int, offset: int, table: BesselTable) -> PolyMatrix:
    """The size x size matrix [B_{i+j+offset}], from the table's polynomials."""
    at_least("size", size, 1)
    top = 2 * (size - 1) + at_least("offset", offset, 0)
    if table.max_index < top:
        raise TableTooSmall(f"need polynomials up to index {top}, table stops at {table.max_index}")
    return PolyMatrix([table.polys[i + offset:i + offset + size] for i in range(size)])


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _eliminate(a: list, width: int) -> int:
    """Fraction-free elimination, in place, of the square part of the n rows
    a; the columns from n up to `width` are carried along.  A zero pivot
    swaps in a lower row.  Returns the sign of the row permutation, so that
    sign * a[n-1][n-1] is the determinant, or 0 when a column has no pivot.

    Every intermediate entry is itself a minor of the input, so coefficient
    growth stays polynomial and each division by the previous pivot is exact
    (checked; failure raises InexactDivision).
    """
    n = len(a)
    sign = 1
    prev = IntPoly.one()
    for k in range(n):
        if a[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        base = a[k]
        for i in range(k + 1, n):
            row = a[i]
            fac = row[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - fac * base[j]).divexact(prev)
        prev = pivot
    return sign


def det_bareiss(m: PolyMatrix) -> IntPoly:
    """Exact determinant by fraction-free elimination with row swaps."""
    a = [list(row) for row in m.rows]
    sign = _eliminate(a, m.dim)
    return sign * a[-1][-1]  # zero when a column had no pivot


# ---------------------------------------------------------------------------
# the evaluation-interpolation engine
# ---------------------------------------------------------------------------

def _theta_values(x: int, top: int) -> list:
    """theta_m(x) = B_{m+1}(x) / x for m = 0..top, by the three-term
    recurrence of B: theta_0 = 1, theta_1 = 1 + x and
    theta_{m+1} = (2m+1) theta_m + x^2 theta_{m-1}."""
    values = [1, 1 + x]
    xx = x * x
    for m in range(1, top):
        values.append((2 * m + 1) * values[m] + xx * values[m - 1])
    return values[:top + 1]


def _exact(a: int, b: int, x: int) -> int:
    """a / b, from the values at x; InexactDivision unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivision(f"division by {b} at x={x} is inexact")
    return q


def _valuation_and_points(key, k: int) -> tuple:
    """(v, N): entry k of the table `key`, H_{k+1} at an offset, F_k when
    "bordered" or the numerators y^(k) when "unit", is R^v times
    polynomials of degree below N."""
    if key == "bordered":
        v, degree = k + 1, (k * k + 7 * k + 4) // 2
    elif key == "unit":
        v, degree = k, k * (k + 3) // 2
    else:
        v, degree = (k if key == 0 else k + 1), (k + 1) * (k + 2 * key) // 2
    return v, degree - v + 1


def _superfactorials(count: int) -> list:
    """sf(0) .. sf(count), sf(k) = 0! 1! .. (k-1)!: the contents of the held
    entries (the content bullet), for the point pass and `_hold` alike."""
    sf, factorial = [1], 1
    for k in range(count):
        sf.append(sf[-1] * factorial)
        factorial *= k + 1
    return sf


def _interpolate(values, valuation: int, content: int) -> IntPoly:
    """R^valuation content q, q the integer polynomial of degree <
    len(values) with q(x) = values[x - 1]: q = sum_j (Delta^j q(1) / j!)
    (x-1)...(x-j), by Horner in that basis."""
    diffs, newton, fact = values, [], 1
    for j in range(len(values)):
        newton.append(_exact(diffs[0], fact, 1))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        fact *= j + 1
    coeffs = [newton[-1]]
    for j in range(len(newton) - 2, -1, -1):
        # coeffs <- coeffs * (x - (j + 1)) + newton[j]
        m = j + 1
        coeffs = [newton[j] - m * coeffs[0]] + [
            c - m * d for c, d in zip(coeffs, coeffs[1:] + [0])]
    return IntPoly([content * c for c in coeffs]).shift(valuation)


def _border_sum(x: int, p: int, theta: list, q: list, squares: list) -> int:
    """sum_i (xi_{p,i}(x) / x) q[i], the border row of F_p against q, in O(p)
    from theta[m] = theta_m(x) and squares[k] = x^(2k), by the Heine bullet's
    prefix recurrence T_m = 2(p-m+1) T_{m-1} + q[m] x^(2m)."""
    t = tail = 0
    for m in range(p + 1):
        t = 2 * (p - m + 1) * t + q[m] * squares[m]
        tail += theta[m] * squares[p - m] * t
    return x * squares[p] * (q[0] + x * sum(map(mul, q[1:], theta))) + (2 * p + 1) * tail


def _content_factors(contents: list) -> list:
    """[(f_k, r_k)] for k < len(contents) - 1: f_k = contents[k+1] /
    contents[k] and r_k = f_k / f_(k-1) (r_0 = f_0), k! and k for the
    superfactorials, the divisors of the point pass.  The pass starts from
    H_0 = Q_0 = 1 and H_1 = B_s as they are, so contents 0 and 1 must be 1.
    InexactDivision otherwise, or when a division leaves a remainder: so a
    wrong content is fatal, here or in the pass (the content bullet)."""
    if contents[:2] != [1, 1]:
        raise InexactDivision(f"contents {contents[:2]} of H_0 and H_1 are not [1, 1]")
    factors, prev = [], 1
    for a, b in zip(contents, contents[1:]):
        f, rest = divmod(b, a)
        r, rest_r = divmod(f, prev)
        if rest or rest_r:
            raise InexactDivision(f"content {b} after {a} is not an integer step")
        factors.append((f, r))
        prev = f
    return factors


def _heine_polys(x: int, c: list, factors: list) -> list:
    """The coefficient lists of q_p = Q_p / sf(p) at x, p = 0 ..
    len(factors) - 1, for the moments c[m] = theta_m(x), by the three-term
    recurrence of the Heine bullet with (f, r) = factors[p]
    (`_content_factors`)."""
    q_prev, q, d = [], [1], 1
    polys = [q]
    for p in range(len(factors) - 1):
        f, r = factors[p]
        d_next = _exact(sum(map(mul, q, c[p:])), f, x)
        if d_next <= 0:
            raise RouteMismatch(f"Hankel determinant {p + 1} at offset 1 is {d_next} at x={x}")
        alpha = d * sum(map(mul, q, c[p + 1:])) + (f * q[p - 1] * d_next if p else 0)
        fd = f * d_next
        a, b, dd = fd * d, r * fd * d_next, f * d * d
        q_prev, q = q, [_exact(a * up - alpha * mid - b * low, dd, x)
                        for up, mid, low in zip([0] + q, q + [0], q_prev + [0, 0])]
        polys.append(q)
        d = d_next
    return polys


def _point_values(points: dict, factors: list, x: int) -> dict:
    """{key: entries low .. count-1 of the table `key` at x, each divided by
    its R^v and its content}, for each table that x is a point of: points
    maps each key of the pass to the point counts N_0 .. N_{count-1} of its
    entries (`_valuation_and_points`), entry k is evaluated at x = 1 .. N_k
    only, so low is the number of entries with N_k < x, and factors[k] =
    (k!, k) (`_content_factors`).  theta(x) is computed once; the offsets
    share one Desnanot-Jacobi recurrence, whose level k holds H^(s)_k(x) /
    (x^v sf(k)) for every s from the least offset that needs x up, and
    "bordered" and "unit" one Heine recurrence: the border sums against
    q_p = Q_p / sf(p) over p!, and (-1)^p q_p, a "unit" entry being the
    list of its components.  Module level, so that pool workers, forked
    or spawned, need only its arguments."""
    count = len(factors)
    lows = {}
    for key, need in points.items():
        low = bisect_left(need, x)
        if low < count:
            lows[key] = low
    offsets = {s: low for s, low in lows.items() if isinstance(s, int)}
    top = max(offsets, default=0) + 2 * count - 2
    theta = _theta_values(x, top)
    values = {s: [] for s in offsets}
    if offsets:
        lo = min(offsets)
        g = int(lo == 0)  # the column heads with G_k, the offset-0 entry
        cur = ([1] + theta)[lo:top + 1]  # level 1: G_1 = 1, Theta^(s)_1 = theta_(s-1)
        prev = [1] * len(cur)
        for k in range(1, count + 1):
            if k > 1:
                r = factors[k - 1][1]
                step = [_exact(a * c - b * b, r * d, x)
                        for a, b, c, d in zip(cur[g:], cur[g + 1:], cur[g + 2:], prev[g + 2:])]
                if g:
                    step.insert(0, _exact(cur[0] * cur[2] - x * cur[1] * cur[1], r * prev[2], x))
                prev, cur = cur, step
            if min(cur) <= 0:
                raise RouteMismatch(f"a size-{k} Hankel determinant is {min(cur)} at x={x}")
            for s, low in offsets.items():
                if k > low:
                    values[s].append(cur[s - lo])
    if "unit" in lows or "bordered" in lows:
        polys = _heine_polys(x, theta, factors)
        if "unit" in lows:
            values["unit"] = [[-a for a in q] if p % 2 else q
                              for p, q in enumerate(polys) if p >= lows["unit"]]
        if "bordered" in lows:
            squares = [x ** (2 * k) for k in range(count)]
            values["bordered"] = [_exact(_border_sum(x, p, theta, polys[p], squares), factors[p][0], x)
                                  for p in range(lows["bordered"], count)]
    return values


# The least table pass that starts a pool.  Importing the pool module and
# starting two workers costs 33-48 ms, about a third of a 119-point pass.
# Two workers against one process, on 2 vCPUs with CPython 3.11.7, in
# interleaved fresh-process pairs: `verify equality` lost at 135 and 152
# points (--max 29 and 31), tied at 170 and 189, and won from 209 (--max 37)
# on; `verify derivative`, whose points carry no Heine recurrence, lost or
# tied up to 232 (--max 41).
_POOL_MIN_POINTS = 200


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says, else the
    host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], by a pool of up to `jobs` workers, at
    most one per usable CPU, when that is two or more and there are at
    least `_POOL_MIN_POINTS` items; else, or when no pool starts, here.
    Each worker is sent fn and about four chunks of the items, nothing
    else, so fn must be module level and need only its arguments.  A worker
    that dies raises WorkerDied: nothing is computed again here."""
    workers = min(jobs, len(items), _usable_cpus())
    if workers > 1 and len(items) >= _POOL_MIN_POINTS:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
        except BrokenExecutor as exc:
            raise WorkerDied(f"a pool worker died in the table pass ({exc})") from exc
        except (OSError, NotImplementedError):  # no pool on this platform
            pass
    return list(map(fn, items))


# key, an offset, "bordered" or "unit" -> entries 0..K-1 of that table, for
# the largest K computed
_TABLES: dict = {}


def _hold(keys, count: int, jobs: int = 1) -> None:
    """Hold the tables `keys` names, each an offset, "bordered" or "unit",
    with at least `count` entries.  Those held shorter are filled together:
    `_point_values` is mapped over every point x = 1 .. N that one of their
    entries needs, by `_pool_map` with up to `jobs` workers, and each entry
    is interpolated here from the values at its own points and multiplied
    back by its content: sf(k+1) for entry k of an offset, sf(p) for each
    component of "unit" entry p and sf(p+1) for "bordered" entry p."""
    kind = tuple(key for key in keys if len(_TABLES.get(key, ())) < count)
    if not kind:
        return
    needs = {key: [_valuation_and_points(key, k) for k in range(count)] for key in kind}
    points = {key: tuple(n for _, n in need) for key, need in needs.items()}
    contents = _superfactorials(count)
    values = {key: [[] for _ in range(count)] for key in kind}
    xs = range(1, max(n[-1] for n in points.values()) + 1)
    for at in _pool_map(partial(_point_values, points, _content_factors(contents)), xs, jobs):
        for key, entries in at.items():
            for vals, value in zip(values[key][count - len(entries):], entries):
                vals.append(value)
    for key, need in needs.items():
        _TABLES[key] = tuple(
            tuple(_interpolate(col, v, contents[k]) for col in zip(*vals)) if key == "unit"
            else _interpolate(vals, v, contents[k + 1])
            for k, ((v, _), vals) in enumerate(zip(need, values[key])))


def _entry(key, k: int):
    """Entry k of the table `key`, held first (`_hold`): the one way to read
    an entry of the store."""
    _hold((key,), k + 1)
    return _TABLES[key][k]


@lru_cache(maxsize=None, typed=True)  # typed: hankel_det(2.0, 0) must miss, and be refused
def hankel_det(size: int, offset: int) -> IntPoly:
    """det [B_{i+j+offset}] over i, j = 0..size-1; size 0 means the empty
    determinant, which is 1 by convention.  A miss that the held table does
    not cover computes every size up to this one at the offset, by the
    one-offset pass; a caller that reads several offsets or sizes holds
    them first with `_hold`."""
    at_least("offset", offset, 0)
    if at_least("size", size, 0) == 0:
        return IntPoly.one()
    return _entry(offset, size - 1)


def clear_hankel_cache() -> None:
    """Forget every held table, of every kind, unit numerators included, and
    `hankel_det`'s cache."""
    hankel_det.cache_clear()
    _TABLES.clear()


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def _check_unit_residual(rows, nums, d: IntPoly) -> None:
    """RouteMismatch unless the rows times the numerators are d e_0,
    recomputed symbolically; the oracle for `_check_unit_residual_at_point`."""
    for r, row in enumerate(rows):
        acc = IntPoly.zero()
        for a, y in zip(row, nums):
            acc = acc + a * y
        if acc != (d if r == 0 else IntPoly.zero()):
            raise RouteMismatch(f"unit-RHS residual check failed in row {r}")


def solve_unit_rhs(m: PolyMatrix) -> tuple:
    """Solve m x = (1, 0, ..., 0)^T exactly; the oracle for `unit_solution`.

    Fraction-free elimination of [m | e_0] with row swaps leaves an upper
    triangular system whose last pivot d is the determinant of the permuted
    matrix.  Back-substitution then gives the integer numerators y = d x
    through y_i = (d b_i - sum_{j>i} u_ij y_j) / u_ii, each division exact.
    The residual m y = d e_0 is recomputed symbolically before returning.
    """
    n = m.dim
    a = [list(row) + [IntPoly.one() if i == 0 else IntPoly.zero()]
         for i, row in enumerate(m.rows)]
    if not _eliminate(a, n + 1):
        raise SingularMatrix("unit-RHS solve on a singular matrix")
    d = a[n - 1][n - 1]
    nums = [IntPoly.zero()] * n
    for i in range(n - 1, -1, -1):
        acc = d * a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * nums[j]
        nums[i] = acc.divexact(a[i][i])
    _check_unit_residual(m.rows, nums, d)
    return tuple(RatFunc(num, d) for num in nums)


def _check_unit_residual_at_point(b, nums, d: IntPoly) -> None:
    """RouteMismatch unless sum_j b[i+j] nums[j] is d for row i = 0 and 0
    for every other row, proven by one exact evaluation at X = 2^(8 width)
    (the unit residual bullet of the module docstring): each polynomial is
    evaluated once, and each row is a sum of integer products."""
    norms = [sum(map(abs, a.coeffs)) for a in b]
    tops = [max(map(abs, y.coeffs), default=0) for y in nums]
    bound = max(map(abs, d.coeffs), default=0) + max(
        sum(map(mul, norms[i:], tops)) for i in range(len(nums)))
    width = max(2 * bound, *norms).bit_length() // 8 + 1
    at = [_value_at_power_of_two(a.coeffs, width) for a in b]
    ys = [_value_at_power_of_two(y.coeffs, width) for y in nums]
    for r in range(len(nums)):
        if sum(map(mul, at[r:], ys)) != (_value_at_power_of_two(d.coeffs, width) if r == 0 else 0):
            raise RouteMismatch(f"unit-RHS residual check failed in row {r}")


def unit_numerators(p: int) -> tuple:
    """The numerators y^(p) of [B_{i+j}]_{i,j<=p} y = H^(0)_{p+1} e_0 by
    Cramer's rule, entry p of the held "unit" table, with the residual
    proven zero against the reverse Bessel polynomials and the held
    H^(0)_{p+1} by one exact evaluation (`_check_unit_residual_at_point`)."""
    nums = _entry("unit", at_least("p", p, 0))
    _check_unit_residual_at_point(reverse_bessel(2 * p).polys, nums, hankel_det(p + 1, 0))
    return nums


def unit_solution(p: int) -> tuple:
    """The solution of [B_{i+j}]_{i,j<=p} y = e_0: the certified
    `unit_numerators(p)` over hankel_det(p+1, 0), each reduced."""
    nums = unit_numerators(p)
    d = hankel_det(p + 1, 0)
    return tuple(RatFunc(num, d) for num in nums)
