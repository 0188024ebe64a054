"""Exact linear programming over the rationals.

`lp_solve` maximizes c.x over {x : A x <= b} with x free, using a
two-phase tableau simplex with Bland's anti-cycling rule, so it terminates
without any numerical tolerances.  The tableau holds integers over one
positive divisor det and is pivoted by `linalg._pivot`; reduced costs are
scaled by det and the ratio test cross-multiplies, so every pivot is the
one the same tableau over the rationals would make.

The tableau is compact: of the columns of x = u - w, the slacks and the
phase I artificials, it stores only u and the slacks, beside the
right-hand side.  Each w column is minus its u column, and each
artificial minus the slack column of its own (negated) row, from the
start and so after every pivot; pricing and the ratio test read them off
the stored columns with a sign, so Bland's rule picks the pivots of the
full tableau, and a pivot on a negated column is `_pivot` with the pivot
row negated before and after.  Expelling artificials pivots on u or
slack columns only.

Optimal points are post-processed ("purified") onto a vertex whenever the
feasible region is pointed, on the same integer rows: it steps along
primitive integer kernel vectors with `linalg.ratio_step`, so the point
becomes Fractions only in the returned `LpOutcome`.  With a zero
objective this is the vertex finder of the projective closure and of the
vertex enumerators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import InputError, InternalError
from .linalg import Vector, _pivot, common_denominator, kernel_vector, ratio_step
from .linalg import nullspace  # noqa: F401  (perfbench's tracer wraps lp.nullspace)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: Optional[Vector] = None
    objective: Optional[Fraction] = None


def _simplex(tableau, basis, costs, det, cols):
    """Run Bland-rule simplex on the given integer tableau in place; returns
    ("optimal" or "unbounded", det).

    tableau rows are already expressed in the current basis, each with its
    right-hand side as the last entry, all over the common divisor det > 0,
    so signs and ratio order are those of the tableau divided by det.
    Variable j's column is cols[j] = (s, sign): sign times stored column s.
    A pivot on a negated column is `_pivot` on s with the pivot row negated
    before and after, the same step as on the column itself.
    """
    m = len(tableau)
    while True:
        # reduced costs det * r_j = det * c_j - c_B . T[:,j]
        basic_costs = [(costs[var], row) for var, row in zip(basis, tableau) if costs[var]]
        entering = -1
        for j, cj in enumerate(costs):
            s, sign = cols[j]
            if cj * det - sign * sum(cb * row[s] for cb, row in basic_costs) > 0:
                entering = j
                break
        if entering < 0:
            return "optimal", det
        # ratio test by cross-multiplying; ties broken by smallest basic
        # variable index (Bland)
        s, sign = cols[entering]
        leave = -1
        for i in range(m):
            a = sign * tableau[i][s]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tableau[i][-1] * sign * tableau[leave][s]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded", det
        if sign < 0:
            tableau[leave] = [-x for x in tableau[leave]]
        det = _pivot(tableau, leave, s, det)
        if sign < 0:
            tableau[leave] = [-x for x in tableau[leave]]
        basis[leave] = entering


def purify_to_vertex(rows, b, c, point):
    """Slide an optimal point along the optimal face until it is a vertex.

    rows, b and c are integers, and point is (num, den), the point num/den
    with den > 0.  Each step moves along `kernel_vector` of the active rows
    (and c, keeping c.x fixed), forward when a row blocks that way and
    backward otherwise, until a new row blocks; each step raises the active
    rank, so at most d steps happen.  Returns the last point, a vertex
    unless a full line through it lies in the optimal face, i.e. the region
    is not pointed.
    """
    d = len(point[0])
    objective = [c] if any(c) else []
    while True:
        num, den = point
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(rows, b)]
        v, _ = kernel_vector([a for a, s in zip(rows, slack) if not s] + objective, d)
        if v is None:
            return point
        for w in (v, [-x for x in v]):
            nxt, _ = ratio_step(rows, slack, point, w)
            if nxt is not None:
                point = nxt
                break
        else:
            return point  # line through the point: not pointed


def lp_solve(a, b: Sequence, c: Sequence) -> LpOutcome:
    """Exact simplex for max c.x subject to A x <= b (x free).

    With c = 0 this is the feasibility test.  When the region is pointed,
    an Optimal outcome carries a vertex of the region.  Entries are ints or
    Fractions.
    """
    m = len(a)
    if m != len(b):
        raise InputError("A and b row counts differ")
    d = len(a[0]) if m else 0
    if any(len(row) != d for row in a):
        raise InputError("ragged constraint matrix")
    if len(c) != d:
        raise InputError("objective length does not match variable count")

    # one common denominator for the whole system: scaling rows one by one
    # would reweight the phase I objective and change Bland's pivots
    nums, _ = common_denominator([x for row, bi in zip(a, b) for x in (*row, bi)])
    a_int = [nums[i * (d + 1):(i + 1) * (d + 1) - 1] for i in range(m)]
    b_int = nums[d::d + 1]
    # variables: x = u - w split (2d), slacks (m), then one artificial per
    # row whose right side is negative (the row gets negated, so its slack
    # cannot be basic).  Stored columns: u, the slacks and the right-hand
    # side; w is -u, and an artificial is minus its row's slack column.
    base_cols = 2 * d + m
    tableau = []
    basis = []
    art_rows = []
    for i, (a_i, b_i) in enumerate(zip(a_int, b_int)):
        row = a_i + [0] * m + [b_i]
        row[d + i] = 1
        if b_i < 0:
            row = [-x for x in row]
            basis.append(base_cols + len(art_rows))
            art_rows.append(d + i)
        else:
            basis.append(2 * d + i)
        tableau.append(row)
    cols = ([(j, 1) for j in range(d)] + [(j, -1) for j in range(d)]
            + [(d + i, 1) for i in range(m)] + [(s, -1) for s in art_rows])

    det = 1
    if art_rows:
        costs1 = [0] * base_cols + [-1] * len(art_rows)
        status, det = _simplex(tableau, basis, costs1, det, cols)
        if status != "optimal":
            raise InternalError("phase I cannot be unbounded")
        if any(row[-1] != 0 for row, var in zip(tableau, basis) if var >= base_cols):
            return LpOutcome(LpStatus.INFEASIBLE)
        det = _expel_artificials(tableau, basis, base_cols, d, det)

    obj_int, obj_den = common_denominator(c)
    costs2 = obj_int + [-x for x in obj_int] + [0] * m
    status, det = _simplex(tableau, basis, costs2, det, cols)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    x = [0] * d
    for row, var in zip(tableau, basis):
        if var < d:
            x[var] += row[-1]
        elif var < 2 * d:
            x[var - d] -= row[-1]
    x, det = purify_to_vertex(a_int, b_int, obj_int, (tuple(x), det))
    point = tuple(Fraction(xi, det) for xi in x)
    return LpOutcome(LpStatus.OPTIMAL, point, Fraction(sum(map(mul, obj_int, x)), obj_den * det))


def _expel_artificials(tableau, basis, base_cols, d, det):
    """Pivot basic artificials (the variables from base_cols on) out and
    drop rows that turn out redundant; returns the new det.

    The entering variable is the first u or slack variable nonzero in the
    row: w = -u is nonzero only where u is, so it never comes first, and
    every pivot is on a stored column.  The pivot entry may be negative,
    and then the whole tableau and its det are negated, so det stays
    positive."""
    i = 0
    while i < len(tableau):
        if basis[i] >= base_cols:
            row = tableau[i]
            col = next((s for s in range(len(row) - 1) if row[s]), None)
            if col is None:
                del tableau[i], basis[i]
                continue
            det = _pivot(tableau, i, col, det)
            if det < 0:
                tableau[:] = [[-x for x in row] for row in tableau]
                det = -det
            basis[i] = col if col < d else col + d
        i += 1
    return det
