"""Exact linear algebra: rank, null spaces, inverses, kernel lines, ratio tests.

Everything is exact; there is deliberately no floating-point path anywhere
in the package.  There is one elimination kernel, `_pivot`, the
integer-preserving Gauss-Jordan step of Edmonds ("Systems of distinct
representatives and linear algebra", J. Res. NBS 71B, 1967), which is the
Gauss-Jordan form of Bareiss's fraction-free elimination (Math. Comp. 22,
1968): rows hold integers over one common divisor det, and every pivot
entry equals det.  A unit pivot, one equal to det already, rewrites only
the rows it eliminates and only where the pivot row is nonzero, which
saves work on the sparse simplex tableau.  `_echelon` drives
it over the columns in order for `rank`, `nullspace`, `kernel_vector`
(and so `kernel_line`), `scaled_inverse` and the start vertex of
`polyhedron`; the compact simplex tableau in `lp` pivots with it
directly, and `exchange` runs it on the columns of the pivot walk's
dictionary.  Rational rows, those of H-reps
and of the LP, reach it through `integer_row` or `common_denominator`, a
positive scaling, which leaves the rref unchanged; points need no such
step, since they are integer vectors over one denominator throughout.

`scaled_inverse` reads delta*B^-1 off one elimination of [B | I].  It is
the closure transform's inverse, and it gives the edges of a simple
vertex in reverse search, one column per active row; at a degenerate
vertex of the walk it gives the rays of the simplicial cone that double
description starts from.  The pivot walk inverts once where it starts
and carries the result as lrs's dictionary, each step to a neighbour one
`exchange`, the same step as `_pivot` on the dictionary's columns.
`kernel_line` is behind brute force, which reads a candidate vertex off
the kernel of d rows [a, -b] and a candidate ray off that of d-1
coefficient rows a; the walk does not use it.

`ratio_step` is the ratio test along a direction: it moves a point held
as an integer vector over one denominator (a `polyhedron.Point`) along an
integer direction, comparing slack/(a.v) by cross-multiplying.  Reverse
search, the LP's vertex purification and the pivot walk at vertices that
hold no dictionary step with it; a dictionary's edge reads its ratio test
off its own column instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) as an integer numerator vector over one
    positive denominator, the lcm of theirs.  For entries in lowest terms
    the pair is reduced: no prime divides the denominator and every
    numerator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def integer_row(values: Sequence) -> list[int]:
    """A rational row scaled by a positive factor to coprime integers: its
    denominators cleared and the result divided by the gcd.  It preserves
    an inequality a.x <= b given as [a..., b], and the rref of a matrix."""
    ints, _ = common_denominator(values)
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _pivot(rows: list, r: int, col: int, det: int) -> int:
    """One integer-preserving Gauss-Jordan step on rows[r][col]; returns the
    new common divisor, the pivot p.

    Every other row i becomes (p*row_i - f*row_r) // det with f = row_i[col];
    the division is exact because every entry is, up to sign, a minor of
    the rows the elimination started from.  Row r is kept.  Rows are
    replaced, never mutated, so callers may pass rows they share.

    A unit pivot, p == det, leaves the divisor as it is: rows with f = 0
    stay, and row i becomes row_i - f*row_r // det, which changes it only
    where row r is nonzero.
    """
    pivot_row = rows[r]
    p = pivot_row[col]
    if p == det:
        support = [(k, y) for k, y in enumerate(pivot_row) if y]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                row = rows[i] = list(row)
                for k, y in support:
                    row[k] -= f * y // det
        return p
    for i, row in enumerate(rows):
        f = row[col]
        if not f:
            rows[i] = [p * x // det for x in row]
        elif i != r:
            rows[i] = [(p * x - f * y) // det for x, y in zip(row, pivot_row)]
    return p


def exchange(cols: list, j: int, r: int, det: int) -> tuple[list, int]:
    """The exchange form of `_pivot`, for a dictionary held as columns over
    a divisor det > 0 (lrs's, Avis 2000): (new columns, new divisor).

    Row r's slack takes the place of column j's among the nonbasic
    variables, at the pivot p = cols[j][r] < 0.  It is `_pivot` on the columns laid out as rows, at (j, r), over
    -det: every other column k becomes (cols[k][r]*cols[j] - p*cols[k]) //
    det, exact for the same reason, and column j is kept, here negated, so
    that the new divisor -p is positive.  The columns passed in are left
    as they are.
    """
    cols = list(cols)
    p = _pivot(cols, j, r, -det)
    cols[j] = [-x for x in cols[j]]
    return cols, -p


def _echelon(rows: list) -> tuple[list, list[int], int]:
    """Integer Gauss-Jordan elimination of `rows` in place, over the columns
    in order; returns (rows, pivot columns, det).

    The pivot columns are the first columns, in order, that are independent
    of the columns before them.  Row r (r < rank) divided by det is row r
    of the reduced row echelon form; the remaining rows are zero.  det is
    the minor on the pivot rows and columns, up to sign.
    """
    pivots: list[int] = []
    det = 1
    m = len(rows)
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        for p in range(r, m):
            if rows[p][col]:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        det = _pivot(rows, r, col, det)
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots, det


def kernel_vector(rows: Sequence[Sequence[int]],
                  ncols: int) -> tuple[Optional[tuple[int, ...]], int]:
    """(v, nullity) for an integer matrix with ncols columns.

    v is the first basis vector of its null space, as `nullspace` orders
    them (1 in the first free column of the rref, 0 in the other free
    ones), scaled by a positive factor to a primitive integer vector: det
    in that column, minus its row's entry in each pivot column, divided by
    the gcd with the sign of det.  v is None when the null space is 0.
    """
    ech, pivots, det = _echelon(list(rows))
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None, 0
    v = [0] * ncols
    v[free] = det
    for row, col in zip(ech, pivots):
        v[col] = -row[free]
    g = gcd(*v) if det > 0 else -gcd(*v)
    return tuple(x // g for x in v), ncols - len(pivots)


def kernel_line(rows: Sequence[Sequence[int]], ncols: int) -> Optional[tuple[int, ...]]:
    """The primitive integer vector spanning the kernel of an integer matrix
    with ncols columns, or None unless the matrix has rank ncols - 1."""
    v, nullity = kernel_vector(rows, ncols)
    return v if nullity == 1 else None


def scaled_inverse(rows: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(M, delta) with M = delta * B^-1 and delta > 0 for an invertible
    integer d x d matrix B, or None when B is singular.

    The elimination of [B | I] ends in [det*I | det*B^-1] exactly when its
    first d pivot columns are those of B; both blocks are negated when
    det < 0, so that column j of M is a positive multiple of the vector
    that row j of B maps to 1 and the other rows to 0.
    """
    d = len(rows)
    aug, pivots, delta = _echelon([[*row, *(int(i == j) for j in range(d))]
                                   for i, row in enumerate(rows)])
    if pivots and pivots[-1] >= d:
        return None
    if delta < 0:
        return [[-x for x in row[d:]] for row in aug], -delta
    return [row[d:] for row in aug], delta


def ratio_step(rows: Sequence[Sequence[int]], slack: Sequence[int],
               point: tuple[tuple[int, ...], int],
               v: Sequence[int]) -> tuple[Optional[tuple[tuple[int, ...], int]], int]:
    """The ratio test from a point along x + t*v, t >= 0, inside
    {x : a.x <= b}, all in integers.

    `point` is (num, den), the point num/den with den > 0; `slack[i]` is
    b_i*den - a_i.num for the integer row (a_i, b_i).  The step stops at
    the least slack/(a.v) over the rows with a.v > 0, compared by
    cross-multiplying, and lands on (num*(a.v) + slack*v) / (den*(a.v)),
    reduced by the gcd.  Returns (that point, the number of rows blocking
    there); (None, 0) when no row blocks, i.e. v is a recession direction.
    Rows with zero slack are skipped: every caller moves along a direction
    with a.v <= 0 on them.
    """
    best_slack, best_av, ties = 0, 0, 0
    for a, s in zip(rows, slack):
        if s:
            av = sum(map(mul, a, v))
            if av > 0:
                if not best_av:
                    best_slack, best_av, ties = s, av, 1
                    continue
                diff = s * best_av - best_slack * av
                if diff < 0:
                    best_slack, best_av, ties = s, av, 1
                elif not diff:
                    ties += 1
    if not best_av:
        return None, 0
    num, den = point
    y = [n * best_av + best_slack * c for n, c in zip(num, v)]
    y_den = den * best_av
    g = gcd(y_den, *y)
    return (tuple(n // g for n in y), y_den // g), ties


def rank(a) -> int:
    return len(_echelon([integer_row(row) for row in a])[1])


def nullspace(a) -> list[Vector]:
    """Basis of the null space of A (possibly empty), one vector per free
    column of the rref: 1 there, 0 in the other free columns."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots, det = _echelon([integer_row(row) for row in a])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, col in zip(rows, pivots):
            v[col] = Fraction(-row[f], det)
        basis.append(tuple(v))
    return basis
