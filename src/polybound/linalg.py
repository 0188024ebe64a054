"""Exact linear algebra kernel: rank, null spaces, unique solutions, inverses.

Everything works over `Fraction`; there is deliberately no floating-point
path anywhere in the package.  `_pivot` is the package's only row
elimination step: `_rref` (behind `rank` and `nullspace`), the square
driver `_eliminate` (behind `solve_linear_system` and `inverse`) and the
simplex tableau in `lp` all call it.
"""

from __future__ import annotations

from fractions import Fraction
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


def _eliminate(rows: list[list[Fraction]], n: int) -> bool:
    """Reduce the leading n columns of rows to the identity on rows[:n].

    Stops and returns False at the first column with no pivot, that is as
    soon as those columns are known to have rank below n.
    """
    for col in range(n):
        pivot_row = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            return False
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        _pivot(rows, col, col)
    return True


def rank(a) -> int:
    rows = _as_row_list(a)
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def solve_linear_system(a, b: Sequence) -> Optional[Vector]:
    """The unique exact solution of A x = b, or None when there is none:
    when A has rank below its column count or the system is inconsistent."""
    rows = _as_row_list(a)
    rhs = [Fraction(x) for x in b]
    if len(rows) != len(rhs):
        raise InputError("A and b row counts differ")
    if not rows:
        return ()
    n = len(rows[0])
    aug = [row + [bi] for row, bi in zip(rows, rhs)]
    if not _eliminate(aug, n) or any(row[n] != 0 for row in aug[n:]):
        return None
    return tuple(row[n] for row in aug[:n])


def inverse(a) -> list[Vector]:
    """Exact inverse of a square matrix, from one elimination of [A | I]."""
    rows = _as_row_list(a)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("only a square matrix has an inverse")
    aug = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    if not _eliminate(aug, n):
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
