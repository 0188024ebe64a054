"""Exact linear algebra: rank, null spaces, unique solutions, inverses.

Everything is exact; there is deliberately no floating-point path anywhere
in the package.  Two elimination kernels, one per number type:

* `_pivot`, a Gauss-Jordan step over `Fraction`, is behind `_rref` (and so
  `rank`, `nullspace` and `inverse`) and the simplex tableau in `lp`.
* `kernel_line`, one fraction-free elimination over the integers in the
  manner of Bareiss, returns the primitive integer vector spanning a
  one-dimensional kernel.  It is behind the pivot walk of
  `polyhedron.enumerate_vertices_pivoting` and `solve_linear_system`.
  `common_denominator` brings rational data to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise InputError("dimension mismatch in dot product")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _as_row_list(a) -> list[list[Fraction]]:
    """Fresh rows of Fractions; entries that already are Fractions are kept,
    which saves the constructor call on the solver's hot path."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in a]


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) as an integer numerator vector over one
    positive denominator, the lcm of theirs.  For entries in lowest terms
    the pair is reduced: no prime divides the denominator and every
    numerator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def kernel_line(rows: Sequence[Sequence[int]], ncols: int) -> Optional[tuple[int, ...]]:
    """The primitive integer vector spanning the kernel of an integer matrix
    with ncols columns, or None unless the matrix has rank ncols - 1.

    One fraction-free elimination (Bareiss, Math. Comp. 22, 1968): each
    update divides exactly by the previous pivot, so every entry stays an
    integer minor of the input, and the last pivot D is the minor on the
    pivot columns.  By Cramer's rule the kernel vector with D in the free
    column has integer entries, so back substitution divides exactly too.
    The sign of the result is not normalized.
    """
    m = [list(row) for row in rows]
    pivot_cols: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivot_cols)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            if col + 1 - r > 1:  # a second free column: the kernel is larger
                return None
            continue
        m[r], m[p] = m[p], m[r]
        pivot_row = m[r]
        piv = pivot_row[col]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = piv
        pivot_cols.append(col)
    if len(pivot_cols) != ncols - 1:
        return None
    v = [0] * ncols
    v[next(c for c in range(ncols) if c not in pivot_cols)] = prev
    for row, col in zip(reversed(m[:len(pivot_cols)]), reversed(pivot_cols)):
        v[col] = -sum(map(mul, row[col + 1:], v[col + 1:])) // row[col]
    g = gcd(*v)
    return tuple(x // g for x in v)


def _pivot(rows: list[list[Fraction]], r: int, col: int) -> None:
    """Scale row r to a 1 in `col` and clear `col` from every other row."""
    inv = ONE / rows[r][col]
    pivot_row = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = [x - f * y for x, y in zip(row, pivot_row)]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column indices).

    The pivot columns are the first columns, in order, that are independent
    of the columns before them.
    """
    if not rows:
        return rows, []
    pivots: list[int] = []
    r = 0
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        _pivot(rows, r, col)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a) -> int:
    rows = _as_row_list(a)
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def solve_linear_system(a: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """The unique exact solution of A x = b, or None when there is none:
    when A has rank below its column count or the system is inconsistent.
    Entries are ints or Fractions.

    The solution is the kernel of [A | -b] scaled to a last entry of 1; it
    exists exactly when that kernel is one-dimensional and its last entry
    is nonzero."""
    if len(a) != len(b):
        raise InputError("A and b row counts differ")
    if not a:
        return ()
    n = len(a[0])
    v = kernel_line([common_denominator([*row, -bi])[0] for row, bi in zip(a, b)], n + 1)
    if v is None or not v[n]:
        return None
    return tuple(Fraction(x, v[n]) for x in v[:n])


def inverse(a) -> list[Vector]:
    """Exact inverse of a square matrix, from one elimination of [A | I]."""
    rows = _as_row_list(a)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("only a square matrix has an inverse")
    aug = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    # A is invertible iff the rref of [A | I] is [I | A^-1]
    aug, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise InputError("singular matrix has no inverse")
    return [tuple(row[n:]) for row in aug]


def nullspace(a) -> list[Vector]:
    """Basis of the null space of A (possibly empty)."""
    rows = _as_row_list(a)
    if not rows:
        return []
    ncols = len(rows[0])
    rows, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, col in enumerate(pivots):
            v[col] = -rows[r][f]
        basis.append(tuple(v))
    return basis
