"""Magnitude of odd-dimensional balls: three exact routes and the
verification campaigns that hold them against each other.

Routes to |B^n_R| as a reduced rational function of the radius:

* det route: a bordered determinant (Hankel rows over an integer border
  row) divided by the plain Hankel determinant, scaled by (-1)^p / (n! R).
  `hankel` computes the bordered determinants by evaluation at integers
  and interpolation, each value a cofactor expansion along the border row
  against Heine's polynomials (their degree, valuation and recurrence are
  in its docstring); a Bareiss of the built matrix is only the tests'
  oracle.
* hankel route: the offset-2 Hankel determinant over n! R times the
  offset-0 one;
* boundary route: volume plus boundary integrals of Laplacian powers of the
  potential function.  The Laplacian acts on the decaying kernels by a
  two-term recurrence, so each kernel's boundary sum is a fixed integer
  combination of reverse Bessel polynomials; weighted by the unit-RHS
  solution over its common Hankel denominator, they sum to one exact
  rational function, reduced once.  boundary_value_at runs the Laplacian
  chains symbolically on the potential built at one radius: the oracle.

The det = hankel, boundary = det = hankel and derivative campaigns share one
comparison loop: a job per odd n computes the values that must be equal, and
the loop compares them.  First `hankel._hold` computes the determinant
tables the jobs read once, held by the calling process, in one pass over
the integer points: each point gives every offset the campaign names by one
Desnanot-Jacobi recurrence, and the bordered determinants and unit-RHS
numerators it names by one Heine recurrence.  With `jobs` above 1 and a
pass of at least `_POOL_MIN_POINTS` points, a pool of up to `jobs` workers
that start with nothing shares the points; a smaller pass gains nothing
from a second process, so it runs here and never imports the pool module.
The interpolation and the jobs run in the calling process.  The equality
and triple-route jobs put every route over n! R H^(0)_{p+1}, the boundary
route's numerator times R, so they compare numerators and reduce once, the
value kept.  No table is computed twice.
The observation campaign checks the numerator proportionality
between |B^n| and the leading solve coefficient two dimensions up.  Each is
exact; the only numerical check in the package is the quadrature cross-check
of the closed-form integral lemma, done at 128-bit precision, and it checks
the very polynomial the det route's border row is built from.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import potential
from .bessel import reverse_bessel
from .errors import (
    ConjectureFails,
    Disagreement,
    IdentityFails,
    ObservationFails,
    QuadratureNonconvergence,
    WorkerDied,
    at_least,
    odd_dimension,
    positive_radius,
)
from .explaurent import DEFAULT_PRECISION, ExpLaurent
from .hankel import _TABLES, _hold, hankel_det, unit_numerators, unit_solution
from .poly import IntPoly, RatFunc


# ---------------------------------------------------------------------------
# border row and determinant routes
# ---------------------------------------------------------------------------

def _lemma_tail(i: int, b: int) -> IntPoly:
    """sum_{j=0}^{b} 2^j b!/(b-j)! R^(2(b-j)) B_{i+j+1}, the polynomial of the
    integral lemma: int_R^inf e^(-r) B_i(r) r^(2b) dr = e^(-R) tail(R) / R.
    The border row, the explicit formula and the quadrature check share it."""
    tb = reverse_bessel(i + b + 1)
    tail, w = IntPoly.zero(), 1
    for j in range(b + 1):
        tail = tail + (w * tb.poly(i + j + 1)).shift(2 * (b - j))
        w *= 2 * (b - j)
    return tail


def border_polys(p: int) -> tuple:
    """Border-row polynomials xi_{p,0..p}, with n = 2p + 1:
    xi_{p,i} = R^(2p+2) B_i + n R^(2i) _lemma_tail(i, p-i); every coefficient
    is an integer by construction."""
    tb = reverse_bessel(at_least("p", p, 0) + 1)
    return tuple(tb.poly(i).shift(2 * p + 2) + ((2 * p + 1) * _lemma_tail(i, p - i)).shift(2 * i)
                 for i in range(p + 1))


def _bordered_det(p: int) -> IntPoly:
    """Determinant of the offset-1 Hankel rows stacked on the border row.  A
    miss computes every p' <= p."""
    _hold(("bordered",), at_least("p", p, 0) + 1)
    return _TABLES["bordered"][p]


def _det_numerator(p: int) -> IntPoly:
    """(-1)^p times the bordered determinant: the det route's numerator."""
    num = _bordered_det(p)
    return num if p % 2 == 0 else -num


def _route_den(p: int) -> IntPoly:
    """n! R H^(0)_{p+1}, n = 2p + 1: the det and hankel routes' denominator."""
    return (math.factorial(2 * p + 1) * hankel_det(p + 1, 0)).shift(1)


def magnitude_det(n: int) -> RatFunc:
    """|B^n_R| via the bordered-determinant route, reduced."""
    p = odd_dimension(n)
    return RatFunc(_det_numerator(p), _route_den(p))


def magnitude_hankel(n: int) -> RatFunc:
    """|B^n_R| via the ratio of offset-2 and offset-0 Hankel determinants."""
    p = odd_dimension(n)
    return RatFunc(hankel_det(p + 1, 2), _route_den(p))


def magnitude_explicit(n: int, radius) -> Fraction:
    """|B^n_R| at one rational radius, from the solved coefficients directly:
    (1/n!) { R^n + n sum_i a_i R^(2i-1) _lemma_tail(i, p-i)(R) }, where a_i
    solve the unit-RHS Hankel system at this radius.  The power R^(2i-1) is
    R^-1 at i = 0; exact rationals handle it.
    """
    p = odd_dimension(n)
    radius = positive_radius(radius)
    total = radius ** n
    for i, a in enumerate(unit_solution(p)):
        total += n * a(radius) * radius ** (2 * i - 1) * _lemma_tail(i, p - i)(radius)
    return total / math.factorial(n)


# ---------------------------------------------------------------------------
# boundary-integral route
# ---------------------------------------------------------------------------

def _boundary_sum(f: ExpLaurent, n: int) -> ExpLaurent:
    """The pointwise oracle's chain: sum over (p+1)/2 < j <= p+1 of (-1)^j
    C(p+1, j) (L^(j-1) f)', with L the radial Laplacian in dimension
    n = 2p + 1, run as p symbolic Laplacians."""
    p = n // 2
    acc = ExpLaurent.zero()
    for j in range(1, p + 2):
        if j > (p + 1) // 2:
            acc = acc + f.diff().scale((-1) ** j * math.comb(p + 1, j))
        if j <= p:
            f = f.laplacian(n)
    return acc


def boundary_value_at(n: int, radius) -> Fraction:
    """Pointwise oracle for the boundary route: |B^n_R| at one rational radius.

    R^n/n! plus R^(n-1)/(n-1)! times the alternating binomial sum of
    (Laplacian^(j-1) h)'(R) over (p+1)/2 < j <= p+1, with h the potential
    built at this radius, everything exact.  The surface-to-volume constant
    enters only as the ratio n, which is how the dimensional constants cancel.
    """
    radius = positive_radius(radius)
    pot = potential.build_potential(n, radius)
    acc = _boundary_sum(pot.exterior, n).laurent_at(radius)
    return Fraction(radius ** n, math.factorial(n)) + radius ** (n - 1) / math.factorial(n - 1) * acc


def magnitude_boundary(n: int) -> RatFunc:
    """|B^n_R| via the boundary route, as one exact rational function: see
    `_boundary_numerator`."""
    p = odd_dimension(n)
    return RatFunc(_boundary_numerator(n), math.factorial(n) * hankel_det(p + 1, 0))


def _boundary_numerator(n: int) -> IntPoly:
    """The boundary route's numerator over n! H^(0)_{p+1}, unreduced.

    The exterior potential is sum_i a_i R^(2i) k_i, with k_i = e^(-r)
    r^(-2i) B_i(r) and a_i the unit-RHS solution.  The boundary sum is
    linear and has a closed form on each kernel.  k_m' = -r k_{m+1}, and
    B_{m+2} = (2m+1) B_{m+1} + R^2 B_m times e^(-r) r^(-2m-4) gives
    r^2 k_{m+2} = (2m+1) k_{m+1} + k_m.  So k_m'' = 2m k_{m+1} + k_m and,
    in dimension n = 2p + 1, L k_m = k_m - 2(p-m) k_{m+1}: L = I - 2N with
    N k_m = (p-m) k_{m+1}.  I and N commute, so L^j k_i = sum_t C(j,t)
    (-2)^t (p-i)!/(p-i-t)! k_{i+t}, ending at t = p-i.  With sigma_t =
    sum_{(p+1)/2 < j <= p+1} (-1)^j C(p+1,j) C(j-1,t) and the integer
    polynomials theta_m = B_{m+1}/R, the Laurent part of the boundary sum
    of k_i times R^(2i+n-1) is the integer polynomial

        Lambda_i = -sum_{t <= p-i} (-2)^t (p-i)!/(p-i-t)! sigma_t R^(2(p-t)) theta_{i+t}

    and no Laplacian runs.  Over H_0 = hankel_det(p+1, 0), a_i H_0 = y_i,
    the certified Cramer numerators `unit_numerators(p)`, and |B| =
    (R^n H_0 + n sum_i y_i Lambda_i) / (n! H_0); this returns the numerator.
    """
    p = odd_dimension(n)
    sigma = [sum((-1) ** j * math.comb(p + 1, j) * math.comb(j - 1, t)
                 for j in range((p + 1) // 2 + 1, p + 2)) for t in range(p + 1)]
    theta = [b.shift_down(1) for b in reverse_bessel(p + 1).polys[1:]]
    h0 = hankel_det(p + 1, 0)
    total = IntPoly.zero()
    for i, y in enumerate(unit_numerators(p)):
        lam = IntPoly.zero()
        for t in range(p - i + 1):
            lam = lam - ((-2) ** t * math.perm(p - i, t) * sigma[t] * theta[i + t]).shift(2 * (p - t))
        total = total + y * lam
    return h0.shift(n) + n * total


# ---------------------------------------------------------------------------
# derivative conjecture
# ---------------------------------------------------------------------------

def _square_times(f: RatFunc, divisor: int) -> RatFunc:
    """f^2 / divisor, reduced, for a reduced f and divisor > 0, without a
    polynomial gcd.  Coprime a, b in Z[R] have coprime squares (Gauss's
    lemma), so only an integer can cancel, from the content of a^2."""
    if f.is_zero:
        return f
    num = f.num * f.num
    g = math.gcd(num.content(), divisor)
    return RatFunc._raw(IntPoly._raw(tuple(c // g for c in num.coeffs)),
                        (divisor // g) * (f.den * f.den))


def derivative_conjecture_rhs(n: int) -> RatFunc:
    """Conjectured d|B^n_R|/dR: squared offset-1 Hankel determinant over
    (2p)! R^2 times the squared offset-0 one, squared from the reduced
    H^(1) / (R H^(0)) by `_square_times`, so one gcd per n.  It equals
    R^(n-1)/(n-1)! times the squared boundary limit derivative, which reads
    the same two determinants; tests/test_magnitude.py checks that form.
    """
    p = odd_dimension(n)
    return _square_times(RatFunc(hankel_det(p + 1, 1), hankel_det(p + 1, 0).shift(1)),
                         math.factorial(2 * p))


# ---------------------------------------------------------------------------
# campaign reports
# ---------------------------------------------------------------------------

class CampaignEntry(NamedTuple):
    n: int
    value: RatFunc
    millis: float


class CampaignReport(NamedTuple):
    """A campaign's per-n entries; a failed campaign raises instead."""

    entries: tuple


def _reduced(n: int, nums: dict) -> dict:
    """{route: |B^n_R|} from the routes' numerators over their shared
    denominator D = n! R H^(0)_{p+1}.  a/D = b/D iff a = b, so when the
    numerators are equal only the hankel route's value is reduced, under the
    first route's name; otherwise every route's value is, and they differ."""
    first, *rest = nums.values()
    if any(v != first for v in rest):
        den = _route_den(odd_dimension(n))
        return {name: RatFunc(v, den) for name, v in nums.items()}
    return {next(iter(nums)): magnitude_hankel(n)}


def _equality_job(n: int) -> tuple:
    """(n, {det, hankel}, millis), the routes compared by numerator."""
    t0 = time.perf_counter()
    p = odd_dimension(n)
    values = _reduced(n, {"det": _det_numerator(p), "hankel": hankel_det(p + 1, 2)})
    return n, values, (time.perf_counter() - t0) * 1000.0


def _derivative_job(n: int) -> tuple:
    """(n, {conjectured right-hand side, d/dR of the hankel route}, millis)."""
    t0 = time.perf_counter()
    lhs = magnitude_hankel(n).derivative()
    values = {"rhs": derivative_conjecture_rhs(n), "d/dR": lhs}
    return n, values, (time.perf_counter() - t0) * 1000.0


def _triple_job(n: int) -> tuple:
    """(n, {boundary, det, hankel}, millis), the routes compared by
    numerator, the boundary route's times R."""
    t0 = time.perf_counter()
    p = odd_dimension(n)
    values = _reduced(n, {"boundary": _boundary_numerator(n).shift(1),
                          "det": _det_numerator(p), "hankel": hankel_det(p + 1, 2)})
    return n, values, (time.perf_counter() - t0) * 1000.0


# The least table pass that starts a pool.  Importing the pool module and
# starting two workers costs 33-48 ms, about a third of a 119-point pass.
# Two workers against one process, on 2 vCPUs with CPython 3.11.7, in
# interleaved fresh-process pairs: `verify equality` lost at 135 and 152
# points (--max 29 and 31), tied at 170 and 189, and won from 209 (--max 37)
# on; `verify derivative`, whose points carry no Heine recurrence, lost or
# tied up to 232 (--max 41).
_POOL_MIN_POINTS = 200


def _pool_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], by a pool of up to `jobs` workers when
    jobs > 1 and there are at least `_POOL_MIN_POINTS` items, else (or when
    no pool starts) here.  The items go to the workers in about four chunks
    each.  The workers are given nothing else, so fn must be module level
    and need only its arguments.  A worker that dies raises WorkerDied:
    nothing is computed again here.  The pool module (with
    `multiprocessing`) is imported only when a pool starts, so a smaller
    pass, like a `--jobs 1` process, never loads it."""
    if jobs > 1 and len(items) >= _POOL_MIN_POINTS:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        workers = min(jobs, len(items))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
        except BrokenExecutor as exc:
            raise WorkerDied(f"a pool worker died in the table pass ({exc})") from exc
        except (OSError, NotImplementedError):  # no pool on this platform
            pass
    return list(map(fn, items))


def _run_jobs(worker, ns) -> list:
    """worker(n) for every n, in the order given, in this process; the
    records sorted by n."""
    return sorted(map(worker, ns), key=lambda rec: rec[0])


def _sweep(max_n: int, job, failure, jobs: int = 1, tables: tuple = ()) -> CampaignReport:
    """Run job on every odd n <= max_n and raise failure(n, ...) unless all
    the values it returns are equal; each entry keeps the first value.
    First `hankel._hold` fills the determinant tables that the jobs read,
    named by key (an offset, "bordered" or "unit"), in one pass over the
    integer points, which `_pool_map` splits among `jobs` workers when the
    pass has enough points to pay for a pool.  The jobs then read the held
    tables, a reduction or two each, in this process, largest n first."""
    p = odd_dimension(max_n)
    ns = list(range(max_n, 0, -2))
    _hold(tables, p + 1, partial(_pool_map, jobs=jobs))
    entries = []
    for n, values, millis in _run_jobs(job, ns):
        first, *rest = values.values()
        if any(v != first for v in rest):
            raise failure(n, " ".join(f"{name}={v.as_dict()}" for name, v in values.items()))
        entries.append(CampaignEntry(n, first, millis))
    return CampaignReport(tuple(entries))


def verify_formula_equality(max_n: int, jobs: int = 1) -> CampaignReport:
    """Check det route == hankel route for every odd n <= max_n; up to
    `jobs` workers share the points of the table pass, when it has at least
    `_POOL_MIN_POINTS` (from --max 37 on)."""
    return _sweep(max_n, _equality_job, Disagreement, jobs, ("bordered", 2, 0))


def verify_derivative_conjecture(max_n: int, jobs: int = 1) -> CampaignReport:
    """Check d/dR of the hankel-route magnitude equals the conjectured form
    for every odd n <= max_n; up to `jobs` workers share the points of the
    table pass, when it has at least `_POOL_MIN_POINTS` (from --max 39 on)."""
    return _sweep(max_n, _derivative_job, ConjectureFails, jobs, (2, 1, 0))


def verify_triple_route(max_n: int) -> CampaignReport:
    """Check boundary route == det route == hankel route, as rational
    functions, for every odd n <= max_n."""
    return _sweep(max_n, _triple_job, Disagreement, 1, ("bordered", "unit", 2, 0))


# ---------------------------------------------------------------------------
# numerator proportionality observation
# ---------------------------------------------------------------------------

def _strip_poly(poly: IntPoly) -> tuple:
    """Factor poly as content * R^v * primitive-with-positive-lead."""
    v = poly.valuation()
    shifted = poly.shift_down(v)
    c = shifted.content()
    prim = shifted.primitive()
    if prim.leading < 0:
        return -prim, v, -c
    return prim, v, c


class ObservationEntry(NamedTuple):
    """num(|B^n|) = constant * R^power_shift * num(first coeff at n+2)."""

    n: int
    power_shift: int
    constant: Fraction
    millis: float


def verify_observation(max_n: int) -> CampaignReport:
    """Check that the magnitude numerator at n matches the numerator of the
    zeroth solve coefficient at n + 2, up to integer content and a power of
    R; the extracted factors are reported, not assumed.  The offset-0 and
    offset-2 tables it reads, up to p + 1 at n = max_n + 2, are held first
    in one pass."""
    p_top = odd_dimension(max_n) + 1  # p at n = max_n + 2
    _hold((0, 2), p_top + 1)
    entries = []
    for n in range(1, max_n + 1, 2):
        t0 = time.perf_counter()
        p_up = odd_dimension(n + 2)
        mag_num = magnitude_hankel(n).num
        coeff_num = RatFunc(hankel_det(p_up, 2), hankel_det(p_up + 1, 0)).num
        prim_m, v_m, c_m = _strip_poly(mag_num)
        prim_a, v_a, c_a = _strip_poly(coeff_num)
        if prim_m != prim_a:
            raise ObservationFails(n, "primitive numerator parts differ")
        entries.append(
            ObservationEntry(n, v_m - v_a, Fraction(c_m, c_a), (time.perf_counter() - t0) * 1000.0)
        )
    return CampaignReport(tuple(entries))


# ---------------------------------------------------------------------------
# determinantal identity
# ---------------------------------------------------------------------------

def determinantal_identity_check(p: int) -> bool:
    """(-1)^p det(bordered) == det(offset-2 Hankel), checked exactly."""
    if _det_numerator(p) != hankel_det(p + 1, 2):
        raise IdentityFails(p)
    return True


# ---------------------------------------------------------------------------
# closed-form integral identity, quadrature cross-check
# ---------------------------------------------------------------------------

def verify_integral_lemma(i: int, b: int, radius) -> bool:
    """Check int_R^inf e^(-r) B_i(r) r^(2b) dr against its closed form.

    Left side: adaptive quadrature on [R, R + 180] at DEFAULT_PRECISION bits
    and a guard; the discarded tail is bounded analytically and must be
    negligible.
    Right side: e^(-R) _lemma_tail(i, b)(R) / R, the rational part
    evaluated exactly and converted once.
    It imports mpmath on its first call, so that no other command loads it.
    """
    import mpmath

    at_least("i", i, 0)
    at_least("b", b, 0)
    radius = positive_radius(radius)
    rhs_rational = _lemma_tail(i, b)(radius) / radius

    integrand_coeffs = reverse_bessel(i).poly(i).shift(2 * b).coeffs  # all nonnegative
    guard = 64
    with mpmath.workprec(DEFAULT_PRECISION + guard):
        rv = mpmath.mpf(radius.numerator) / radius.denominator
        rhs = mpmath.exp(-rv) * mpmath.mpf(rhs_rational.numerator) / rhs_rational.denominator

        def integrand(r):
            acc = mpmath.mpf(0)
            for c in reversed(integrand_coeffs):
                acc = acc * r + c
            return mpmath.exp(-r) * acc

        cutoff = rv + 180
        # analytic bound on the discarded tail: sum_m a_m e^(-T) sum_{k<=m} m!/k! T^k
        tail = mpmath.mpf(0)
        for m, a in enumerate(integrand_coeffs):
            if a:
                s = mpmath.mpf(0)
                for k in range(m + 1):
                    s += mpmath.mpf(math.factorial(m) // math.factorial(k)) * cutoff ** k
                tail += a * s
        tail *= mpmath.exp(-cutoff)
        if tail > rhs * mpmath.mpf(10) ** (-40):
            raise QuadratureNonconvergence("truncation tail too large for the tolerance")

        points = [rv, rv + 2, rv + 8, rv + 24, rv + 64, cutoff]
        val, err = mpmath.quad(integrand, points, error=True)
        if err > abs(val) * mpmath.mpf(10) ** (-34):
            val, err = mpmath.quad(integrand, points, error=True, maxdegree=10)
            if err > abs(val) * mpmath.mpf(10) ** (-34):
                raise QuadratureNonconvergence(f"estimated error {err} too large")

        return abs(val - rhs) <= mpmath.mpf(10) ** (-30) * abs(rhs)

