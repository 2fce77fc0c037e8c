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
  chains symbolically on the potential built at one radius: the oracle,
  which waits here for ROADMAP item 1; the others are in `oracles`.

The det = hankel, boundary = det = hankel and derivative campaigns are each
one table pass and one timed loop (`_sweep`).  `hankel._hold` computes the
tables the jobs read once, in one pass over the integer points, held by the
calling process.  Then `_run_jobs`, the one timer of per-n work, the
observation's too, runs a job per odd n, ascending, in this process; each
returns its checked value or raises its own failure.
Every route's numerator is over `_route_den(p)` = n! R H^(0)_{p+1}, so the
equality and triple-route jobs compare numerators and reduce once, the
value kept.  The derivative job reduces once too.  With H^(s)_{p+1} =
c_s R^(v_s) h_s, c_s the content, h_s primitive and the valuations v_0 = p
and v_1 = v_2 = p + 1, |B| = c_2 h_2 / (n! c_0 h_0) and the conjectured
derivative is c_1^2 h_1^2 / ((2p)! c_0^2 h_0^2).  The job reduces
H^(1) / (R H^(0)) and squares it into the printed U/V; once the reduced
denominator's primitive part is h_0, V = lambda h_0^2 with lambda V's
content, and U n! c_0 = lambda c_2 (h_0 h_2' - h_2 h_0') is the conjecture
(`_derivative_job`).  Only if that identity fails is d/dR of the hankel
route computed, by the quotient rule, and compared.
No table is computed twice.
The observation campaign checks the numerator proportionality
between |B^n| and the leading solve coefficient two dimensions up.  Each is
exact; the only numerical check in the package is the quadrature cross-check
of the closed-form integral lemma, done at 128-bit precision, on `_lemma_tail`,
from which `oracles.border_polys` builds the border row; the tests hold that
row equal to the det route's sum at points (`hankel._border_sum`).  Times e^R
and with r = R + u, the lemma's integral is int_0^inf e^(-u) P(u) du for a
polynomial P whose coefficients c_j are exact nonnegative rationals, so by
linearity it is sum_j c_j M_j over the moments M_j = int_0^inf e^(-u) u^j
du.  Each moment is integrated by quadrature once per process, with its
own truncation width, its tail at most 1e-40 of it and its error estimate
at most 1e-34; with no c_j negative, the sum keeps both bounds.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import potential
from .bessel import reverse_bessel
from .errors import (
    ConjectureFails,
    Disagreement,
    ObservationFails,
    QuadratureNonconvergence,
    at_least,
    odd_dimension,
    positive_radius,
)
from .explaurent import DEFAULT_PRECISION, ExpLaurent
from .hankel import _entry, _hold, hankel_det, unit_numerators
from .poly import IntPoly, RatFunc


# ---------------------------------------------------------------------------
# the integral lemma's polynomial and the determinant routes
# ---------------------------------------------------------------------------

def _lemma_tail(i: int, b: int) -> IntPoly:
    """sum_{j=0}^{b} 2^j b!/(b-j)! R^(2(b-j)) B_{i+j+1}, the polynomial of the
    integral lemma: int_R^inf e^(-r) B_i(r) r^(2b) dr = e^(-R) tail(R) / R.
    The quadrature check reads it, and so do the oracles `border_polys` and
    `magnitude_explicit`."""
    tb = reverse_bessel(i + b + 1)
    tail, w = IntPoly.zero(), 1
    for j in range(b + 1):
        tail = tail + (w * tb.poly(i + j + 1)).shift(2 * (b - j))
        w *= 2 * (b - j)
    return tail


def _bordered_det(p: int) -> IntPoly:
    """Determinant of the offset-1 Hankel rows stacked on the border row.  A
    miss computes every p' <= p."""
    return _entry("bordered", at_least("p", p, 0))


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
    return RatFunc(_boundary_numerator(n), _route_den(odd_dimension(n)))


def _boundary_numerator(n: int) -> IntPoly:
    """The boundary route's numerator over `_route_den(p)` = n! R H^(0)_{p+1},
    unreduced.

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
    R (R^n H_0 + n sum_i y_i Lambda_i) / (n! R H_0); this returns the
    numerator.
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
    return (h0.shift(n) + n * total).shift(1)


# ---------------------------------------------------------------------------
# derivative conjecture
# ---------------------------------------------------------------------------

def _strip_poly(poly: IntPoly) -> tuple:
    """Factor a nonzero poly as c * R^v * prim, prim primitive with a
    positive lead and c its content, signed: one content scan."""
    v = poly.valuation()
    shifted = poly.shift_down(v)
    c = shifted.content()
    if shifted.leading < 0:
        c = -c
    return (shifted if c == 1 else IntPoly._raw(tuple(x // c for x in shifted.coeffs))), v, c


def _square_times(f: RatFunc, divisor: int) -> RatFunc:
    """f^2 / divisor, reduced, for a reduced f and divisor > 0, without a
    polynomial gcd.  Coprime a, b in Z[R] have coprime squares (Gauss's
    lemma), so only an integer can cancel, from the content of a^2."""
    num = f.num * f.num
    g = math.gcd(num.content(), divisor)
    return RatFunc._raw(IntPoly._raw(tuple(c // g for c in num.coeffs)),
                        (divisor // g) * (f.den * f.den))


def _conjecture_rhs(p: int) -> tuple:
    """(H^(1)_{p+1} / (R H^(0)_{p+1}) reduced, its square over (2p)! by
    `_square_times`): the root and value of `derivative_conjecture_rhs`."""
    root = RatFunc(hankel_det(p + 1, 1), hankel_det(p + 1, 0).shift(1))
    return root, _square_times(root, math.factorial(2 * p))


def derivative_conjecture_rhs(n: int) -> RatFunc:
    """Conjectured d|B^n_R|/dR: squared offset-1 Hankel determinant over
    (2p)! R^2 times the squared offset-0 one, squared from the reduced
    H^(1) / (R H^(0)) by `_square_times`, so one gcd per n.  It equals
    R^(n-1)/(n-1)! times the squared boundary limit derivative, which reads
    the same two determinants; tests/test_magnitude.py checks that form.
    """
    return _conjecture_rhs(odd_dimension(n))[1]


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


def _failure(error, n: int, values: dict):
    """error(n, ...) naming each of `values`, reduced, by name."""
    return error(n, " ".join(f"{name}={v.as_dict()}" for name, v in values.items()))


def _reduced(n: int, nums: dict) -> RatFunc:
    """|B^n_R| from the routes' numerators over their shared denominator
    D = n! R H^(0)_{p+1}.  a/D = b/D iff a = b, so when the numerators are
    equal only the hankel route's value is reduced; otherwise Disagreement
    names every route's reduced value."""
    first, *rest = nums.values()
    if any(v != first for v in rest):
        den = _route_den(odd_dimension(n))
        raise _failure(Disagreement, n, {name: RatFunc(v, den) for name, v in nums.items()})
    return magnitude_hankel(n)


def _equality_job(n: int) -> RatFunc:
    """|B^n_R|, the det and hankel routes compared by numerator."""
    p = odd_dimension(n)
    return _reduced(n, {"det": _det_numerator(p), "hankel": hankel_det(p + 1, 2)})


def _derivative_job(n: int) -> RatFunc:
    """The conjectured right-hand side, checked against d/dR of the hankel
    route by one polynomial identity on primitive parts.  Only when that
    identity fails is d/dR taken by `RatFunc.derivative`, and if the two
    reduced values then differ, ConjectureFails names both.

    Write H_s = H^(s)_{p+1} = c_s R^(v_s) h_s, with h_s primitive with a
    positive lead and c_s the content, signed (`_strip_poly`).  When
    v_2 = v_0 + 1, as for the valuations v_0 = p and v_1 = v_2 = p + 1 of
    the `hankel` docstring, the hankel route is
    |B| = H_2 / (n! R H_0) = c_2 h_2 / (n! c_0 h_0), so

        d|B|/dR = c_2 (h_0 h_2' - h_2 h_0') / (n! c_0 h_0^2).

    The printed value U/V = f^2 / (2p)!, reduced, squares the reduced
    f = H_1 / (R H_0) = a/b (`_conjecture_rhs`), so V = m b^2 for an
    integer m.  If b's primitive part is h_0, b = beta h_0 and V = m beta^2
    h_0^2 = lambda h_0^2, lambda the content of V (h_0^2 is primitive by
    Gauss's lemma).  Then U/V = d|B|/dR if and only if

        U n! c_0 = lambda c_2 (h_0 h_2' - h_2 h_0'),

    and U/V is reduced, so it is then the reduced d|B|/dR, coefficient for
    coefficient: one gcd (f's) and four products (a^2, b^2, h_0 h_2' and
    h_2 h_0') per n.
    """
    p = odd_dimension(n)
    h0, v0, c0 = _strip_poly(hankel_det(p + 1, 0))
    h2, v2, c2 = _strip_poly(hankel_det(p + 1, 2))
    root, rhs = _conjecture_rhs(p)
    if (v2 == v0 + 1 and root.den.primitive() == h0
            and rhs.num * (math.factorial(n) * c0)
            == rhs.den.content() * c2 * (h0 * h2.derivative() - h2 * h0.derivative())):
        return rhs
    lhs = magnitude_hankel(n).derivative()
    if lhs != rhs:
        raise _failure(ConjectureFails, n, {"rhs": rhs, "d/dR": lhs})
    return rhs


def _triple_job(n: int) -> RatFunc:
    """|B^n_R|, the boundary, det and hankel routes compared by numerator."""
    p = odd_dimension(n)
    return _reduced(n, {"boundary": _boundary_numerator(n),
                        "det": _det_numerator(p), "hankel": hankel_det(p + 1, 2)})


def _run_jobs(worker, ns) -> list:
    """(n, worker(n), millis) for every n, in the order given, in this
    process: the one place that times per-n work."""
    records = []
    for n in ns:
        t0 = time.perf_counter()
        value = worker(n)
        records.append((n, value, (time.perf_counter() - t0) * 1000.0))
    return records


def _sweep(max_n: int, job, jobs: int, tables: tuple) -> CampaignReport:
    """Run job on every odd n <= max_n, ascending; each job returns its
    checked value or raises its own failure.  The determinant tables the
    jobs read, named by key (an offset, "bordered" or "unit"), are held
    first, in one pass (`hankel._hold`) that up to `jobs` workers share."""
    at_least("jobs", jobs, 1)
    _hold(tables, odd_dimension(max_n) + 1, jobs)
    return CampaignReport(tuple(CampaignEntry(*r) for r in _run_jobs(job, range(1, max_n + 1, 2))))


def verify_formula_equality(max_n: int, jobs: int = 1) -> CampaignReport:
    """Check det route == hankel route for every odd n <= max_n; up to
    `jobs` workers share the table pass from --max 37 on
    (`hankel._POOL_MIN_POINTS`)."""
    return _sweep(max_n, _equality_job, jobs, ("bordered", 2, 0))


def verify_derivative_conjecture(max_n: int, jobs: int = 1) -> CampaignReport:
    """Check d/dR of the hankel-route magnitude equals the conjectured form
    for every odd n <= max_n; up to `jobs` workers share the table pass
    from --max 39 on (`hankel._POOL_MIN_POINTS`)."""
    return _sweep(max_n, _derivative_job, jobs, (2, 1, 0))


def verify_triple_route(max_n: int) -> CampaignReport:
    """Check boundary route == det route == hankel route, as rational
    functions, for every odd n <= max_n."""
    return _sweep(max_n, _triple_job, 1, ("bordered", "unit", 2, 0))


# ---------------------------------------------------------------------------
# numerator proportionality observation
# ---------------------------------------------------------------------------

class ObservationEntry(NamedTuple):
    """num(|B^n|) = constant * R^power_shift * num(first coeff at n+2)."""

    n: int
    power_shift: int
    constant: Fraction
    millis: float


def _observation_job(n: int) -> tuple:
    """(power_shift, constant) of n's observation entry."""
    p_up = odd_dimension(n + 2)
    prim_m, v_m, c_m = _strip_poly(magnitude_hankel(n).num)
    prim_a, v_a, c_a = _strip_poly(RatFunc(hankel_det(p_up, 2), hankel_det(p_up + 1, 0)).num)
    if prim_m != prim_a:
        raise ObservationFails(n, "primitive numerator parts differ")
    return v_m - v_a, Fraction(c_m, c_a)


def verify_observation(max_n: int) -> CampaignReport:
    """Check that the magnitude numerator at n matches the numerator of the
    zeroth solve coefficient at n + 2, up to integer content and a power of
    R; the extracted factors are reported, not assumed.  The offset-0 and
    offset-2 tables it reads, up to p + 1 at n = max_n + 2, are held first
    in one pass."""
    p_top = odd_dimension(max_n) + 1  # p at n = max_n + 2
    _hold((0, 2), p_top + 1)
    return CampaignReport(tuple(ObservationEntry(n, *found, millis) for n, found, millis
                                in _run_jobs(_observation_job, range(1, max_n + 1, 2))))


# ---------------------------------------------------------------------------
# closed-form integral identity, quadrature cross-check
# ---------------------------------------------------------------------------

_QUAD_PREC = DEFAULT_PRECISION + 64  # 64 guard bits
# a tanh-sinh node u, by its mpf tuple -> (k, e^(-u) u^k) for the last
# moment k integrated there, at _QUAD_PREC
_node_terms: dict = {}


@lru_cache(maxsize=None)
def _moment(j: int) -> tuple:
    """(M_j, its error estimate): M_j = int_0^W e^(-u) u^j du by tanh-sinh
    quadrature on [0, 2, 8, 24, 64, W] at _QUAD_PREC bits, whatever the
    caller's precision, once per j per process.  The moments share the
    nodes below W: each node's e^(-u) u^k is kept, so e^(-u) is computed
    once per node while the moments run in ascending j, and moment j
    multiplies the last term by u^(j-k).

    W doubles from 180 until W >= j + 1 and the discarded tail
    int_W^inf e^(-u) u^j du = e^(-W) sum_{k<=j} j!/k! W^k is at most 1e-40
    of e^(-j-1) j^j <= int_j^(j+1) e^(-u) u^j du <= M_j.  The error
    estimate must be at most 1e-34 of M_j, retried once at maxdegree=10.
    """
    import mpmath

    with mpmath.workprec(_QUAD_PREC):
        low = mpmath.mpf(j ** j) * mpmath.exp(-(j + 1))
        width = 180
        while width < j + 1 or (mpmath.exp(-width) * sum(math.perm(j, j - k) * width ** k
                                                         for k in range(j + 1))
                                > mpmath.mpf(10) ** (-40) * low):
            width *= 2

        def integrand(u):
            k, term = _node_terms.get(u._mpf_, (None, None))
            if k is None or k > j:
                k, term = 0, mpmath.exp(-u)
            if k < j:
                term *= u ** (j - k)
            _node_terms[u._mpf_] = (j, term)
            return term

        points = [0, 2, 8, 24, 64, width]
        val, err = mpmath.quad(integrand, points, error=True)
        if err > val * mpmath.mpf(10) ** (-34):
            val, err = mpmath.quad(integrand, points, error=True, maxdegree=10)
            if err > val * mpmath.mpf(10) ** (-34):
                raise QuadratureNonconvergence(f"moment {j}: estimated error {err} too large")
        return val, err


def _lemma_integral(i: int, b: int, radius: Fraction) -> tuple:
    """(e^R int_R^inf e^(-r) B_i(r) r^(2b) dr, its error estimate) at
    _QUAD_PREC: sum_j c_j M_j, with B_i(R + u) (R + u)^(2b) = sum_j c_j u^j
    expanded exactly and the moments M_j from `_moment`.  B_i has
    nonnegative coefficients, so every c_j >= 0."""
    import mpmath

    a = reverse_bessel(i).poly(i).shift(2 * b).coeffs
    with mpmath.workprec(_QUAD_PREC):
        val = err = mpmath.mpf(0)
        for j in range(len(a)):
            c = sum(a[m] * math.comb(m, j) * radius ** (m - j) for m in range(j, len(a)))
            c = mpmath.mpf(c.numerator) / c.denominator
            moment, moment_err = _moment(j)
            val += c * moment
            err += c * moment_err
    return val, err


def verify_integral_lemma(i: int, b: int, radius) -> bool:
    """Check int_R^inf e^(-r) B_i(r) r^(2b) dr against its closed form
    e^(-R) _lemma_tail(i, b)(R) / R, both sides times e^R, so that no
    rounded e^(-R) enters.

    Left side: r = R + u turns e^R times the integral into
    int_0^inf e^(-u) P(u) du with P(u) = B_i(R + u) (R + u)^(2b) =
    sum_j c_j u^j, each c_j an exact nonnegative rational; by linearity it
    is sum_j c_j M_j, with the moments M_j = int_0^inf e^(-u) u^j du
    (`_lemma_integral`).  Each moment is integrated by quadrature once per
    process (`_moment`), never taken from a closed form; its truncation
    tail is at most 1e-40 of it and its error estimate at most 1e-34.  No
    c_j is negative, so nothing cancels and the sum's tail and error
    estimate are within the same bounds of the sum; the error estimate is
    checked again there.
    Right side: _lemma_tail(i, b)(R) / R, exact, converted once.
    They must agree to 1e-30, relative, at DEFAULT_PRECISION bits and a
    64-bit guard.  It imports mpmath on its first call, so that no other
    command loads it.
    """
    import mpmath

    at_least("i", i, 0)
    at_least("b", b, 0)
    radius = positive_radius(radius)
    closed = _lemma_tail(i, b)(radius) / radius
    with mpmath.workprec(_QUAD_PREC):
        val, err = _lemma_integral(i, b, radius)
        if err > val * mpmath.mpf(10) ** (-34):
            raise QuadratureNonconvergence(f"estimated error {err} too large")
        rhs = mpmath.mpf(closed.numerator) / closed.denominator
        return abs(val - rhs) <= mpmath.mpf(10) ** (-30) * abs(rhs)
