"""Hankel matrices of reverse Bessel polynomials and exact linear algebra.

Determinants are computed over Z[R] with fraction-free (Bareiss) elimination:
each step cross-multiplies rows (division-free) and then divides by the
previous pivot, a division that is provably remainder-free.  Any remainder
would mean broken arithmetic, so it raises InexactDivision instead of being
silently discarded.  A memoized cofactor expansion serves as an independent
oracle on small matrices.

Without row swaps the pivots of that elimination are the leading principal
minors, and a leading principal minor of a Hankel matrix is again a Hankel
determinant at the same offset.  So `hankel_det` keeps one elimination per
offset and grows it by bordering: the new column is pushed through the stored
pivot columns with the same updates Bareiss would apply, and by symmetry the
new row is that column again.  The pivot at position k is the size-(k+1)
determinant, so a sweep over sizes pays for one elimination of the largest
size, about half of a plain Bareiss.  A zero pivot (a vanishing leading
minor) stops the growth; that size and every larger one at the offset go to
`det_bareiss`, which swaps rows.

Linear solves against the unit right-hand side (1, 0, ..., 0) run the same
fraction-free elimination, with row swaps, on the augmented matrix, and a
fraction-free back-substitution: O(dim^3) products instead of the O(dim^4) of
one Cramer determinant per component.  The numerators share the determinant
as denominator, each component is reduced to canonical form, and the
residual of the whole system is re-checked symbolically before anything is
returned.

Hankel determinants are cached by (size, offset) since the downstream
magnitude formulas keep asking for the same handful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bessel import BesselTable, reverse_bessel
from .errors import DimensionTooLarge, RouteMismatch, SingularMatrix, TableTooSmall
from .poly import IntPoly, RatFunc

_MINOR_EXPANSION_LIMIT = 13


@dataclass(frozen=True)
class HankelSpec:
    """size x size matrix with entry (i, j) = B_{i+j+offset}."""

    size: int
    offset: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")

    @property
    def top_index(self) -> int:
        return 2 * (self.size - 1) + self.offset


class PolyMatrix:
    """Immutable square matrix of integer polynomials."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(zip(*self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


def build_hankel(spec: HankelSpec, table: BesselTable) -> PolyMatrix:
    """Assemble the matrix and double-check the constant anti-diagonals."""
    if table.max_index < spec.top_index:
        raise TableTooSmall(
            f"need polynomials up to index {spec.top_index}, table stops at {table.max_index}"
        )
    rows = [
        [table.polys[i + j + spec.offset] for j in range(spec.size)]
        for i in range(spec.size)
    ]
    m = PolyMatrix(rows)
    for i in range(spec.size - 1):
        for j in range(1, spec.size):
            if m.rows[i][j] != m.rows[i + 1][j - 1]:
                raise RouteMismatch(f"anti-diagonal broken at ({i}, {j})")
    return m


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


def det_minor_expansion(m: PolyMatrix) -> IntPoly:
    """Cofactor expansion with column-mask memoization; oracle for Bareiss.

    Cost grows as 2^dim, hence the hard dimension guard.
    """
    n = m.dim
    if n > _MINOR_EXPANSION_LIMIT:
        raise DimensionTooLarge(f"cofactor expansion capped at {_MINOR_EXPANSION_LIMIT}, got {n}")
    rows = m.rows
    memo = {0: IntPoly.one()}

    # minors are built over the leading rows so that the heavily shared
    # small minors carry the lowest-degree entries
    def minor_det(mask: int) -> IntPoly:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        k = mask.bit_count()
        row = rows[k - 1]
        acc = IntPoly.zero()
        sign = 1 if k % 2 == 1 else -1  # cofactor sign at (k-1, first column)
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            term = row[j] * minor_det(mask ^ low)
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return minor_det((1 << n) - 1)


class HankelElimination:
    """Fraction-free elimination of the Hankel matrix [a_{i+j}], grown one
    border at a time.

    `columns[k]` holds the stage-k pivot column: entry i - k is the value
    Bareiss holds at (i, k) after k steps, for k <= i < size.  Its head is
    the pivot, the leading principal minor of size k + 1.  The matrix is
    symmetric, so the stage-k pivot row is the same list.
    """

    def __init__(self):
        self.columns: list = []
        self.stalled = False  # a zero pivot was reached; growth has stopped

    @property
    def size(self) -> int:
        return len(self.columns)

    def grow(self, entries) -> None:
        """Border by one row and column; entries[k] = a_k, k <= 2 * size.

        The new column runs through every stored step; its value at stage k
        and row k is also the new row's entry in pivot column k.
        """
        t = self.size
        col = [entries[i + t] for i in range(t + 1)]
        prev = IntPoly.one()
        for k, ck in enumerate(self.columns):
            top = col[k]
            ck.append(top)
            pivot = ck[0]
            for i in range(k + 1, t + 1):
                col[i] = (pivot * col[i] - ck[i - k] * top).divexact(prev)
            prev = pivot
        if col[t].is_zero:
            self.stalled = True
        else:
            self.columns.append([col[t]])

    def det(self, size: int, entries) -> IntPoly:
        """det [a_{i+j}] over i, j < size; from the grown pivots, or by
        Bareiss with row swaps once a zero pivot has stopped the growth."""
        while self.size < size and not self.stalled:
            self.grow(entries)
        if size <= self.size:
            return self.columns[size - 1][0]
        return det_bareiss(PolyMatrix(
            [entries[i + j] for j in range(size)] for i in range(size)
        ))


# offset -> its grown elimination; process-wide like hankel_det's own cache
_ELIMINATIONS: dict = {}


@lru_cache(maxsize=None)
def hankel_det(size: int, offset: int) -> IntPoly:
    """det [B_{i+j+offset}] over i, j = 0..size-1; size 0 means the empty
    determinant, which is 1 by convention."""
    if size == 0:
        return IntPoly.one()
    spec = HankelSpec(size, offset)
    entries = reverse_bessel(spec.top_index).polys[offset:]
    return _ELIMINATIONS.setdefault(offset, HankelElimination()).det(size, entries)


def clear_hankel_cache() -> None:
    """Forget every cached Hankel determinant and grown elimination."""
    hankel_det.cache_clear()
    _ELIMINATIONS.clear()


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def solve_unit_rhs(m: PolyMatrix) -> tuple:
    """Solve m x = (1, 0, ..., 0)^T exactly.

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
    for r in range(n):
        acc = IntPoly.zero()
        for j in range(n):
            acc = acc + m.rows[r][j] * nums[j]
        if acc != (d if r == 0 else IntPoly.zero()):
            raise RouteMismatch(f"unit-RHS residual check failed in row {r}")
    return tuple(RatFunc(num, d) for num in nums)


@lru_cache(maxsize=None)
def unit_solution(p: int) -> tuple:
    """Cached coefficients for the size p+1, offset 0 Hankel system."""
    spec = HankelSpec(p + 1, 0)
    return solve_unit_rhs(build_hankel(spec, reverse_bessel(spec.top_index)))


def first_coeff_formula(p: int, table: BesselTable) -> RatFunc:
    """Closed form for component 0 of the unit-RHS solve:
    det of the offset-2 Hankel block over the full offset-0 determinant."""
    if p == 0:
        return RatFunc(IntPoly.one(), table.poly(0))
    num = det_bareiss(build_hankel(HankelSpec(p, 2), table))
    den = det_bareiss(build_hankel(HankelSpec(p + 1, 0), table))
    return RatFunc(num, den)


def last_coeff_formula(p: int, table: BesselTable) -> RatFunc:
    """Closed form for component p of the unit-RHS solve:
    (-1)^p times the offset-1 block determinant over the full one."""
    if p == 0:
        return RatFunc(IntPoly.one(), table.poly(0))
    num = det_bareiss(build_hankel(HankelSpec(p, 1), table))
    den = det_bareiss(build_hankel(HankelSpec(p + 1, 0), table))
    return RatFunc(num if p % 2 == 0 else -num, den)
