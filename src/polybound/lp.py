"""Exact linear programming over the rationals.

`lp_solve` maximizes c.x over {x : A x <= b} with x free, using a
two-phase tableau simplex with Bland's anti-cycling rule, so it terminates
without any numerical tolerances.  The tableau holds integers over one
positive divisor det and is pivoted by `linalg._pivot`; reduced costs are
scaled by det and the ratio test cross-multiplies, so every pivot is the
one the same tableau over the rationals would make.  Optimal points are
post-processed ("purified") onto a vertex whenever the feasible region is
pointed, on the same integer rows: it steps along primitive integer kernel
vectors with `linalg.ratio_step`, so the point becomes Fractions only in
the returned `LpOutcome`.  With a zero objective this is the vertex finder
of the projective closure and of the vertex enumerators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import InputError, InternalError
from .linalg import (Vector, _pivot, as_vector, common_denominator, dot, kernel_vector,
                     ratio_step)
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


def _simplex(tableau, basis, costs, det):
    """Run Bland-rule simplex on the given integer tableau in place; returns
    ("optimal" or "unbounded", det).

    tableau rows are already expressed in the current basis, each with its
    right-hand side as the last entry, all over the common divisor det > 0,
    so signs and ratio order are those of the tableau divided by det.
    """
    m = len(tableau)
    while True:
        # reduced costs det * r_j = det * c_j - c_B . T[:,j]
        basic_costs = [(costs[var], row) for var, row in zip(basis, tableau) if costs[var]]
        entering = -1
        for j, cj in enumerate(costs):
            if cj * det - sum(cb * row[j] for cb, row in basic_costs) > 0:
                entering = j
                break
        if entering < 0:
            return "optimal", det
        # ratio test by cross-multiplying; ties broken by smallest basic
        # variable index (Bland)
        leave = -1
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tableau[i][-1] * tableau[leave][entering]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded", det
        det = _pivot(tableau, leave, entering, det)
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
    an Optimal outcome carries a vertex of the region.
    """
    rows = [as_vector(row) for row in a]
    rhs_in = as_vector(b)
    obj = as_vector(c)
    if len(rows) != len(rhs_in):
        raise InputError("A and b row counts differ")
    d = len(rows[0]) if rows else 0
    if any(len(r) != d for r in rows):
        raise InputError("ragged constraint matrix")
    if len(obj) != d:
        raise InputError("objective length does not match variable count")

    m = len(rows)
    # one common denominator for the whole system: scaling rows one by one
    # would reweight the phase I objective and change Bland's pivots
    nums, _ = common_denominator([x for row, bi in zip(rows, rhs_in) for x in (*row, bi)])
    a_int = [nums[i * (d + 1):(i + 1) * (d + 1) - 1] for i in range(m)]
    b_int = nums[d::d + 1]
    # columns: x = u - w split (2d), slacks (m), one artificial per row whose
    # right side is negative (it gets negated, so its slack cannot be basic),
    # then the right-hand side
    base_cols = 2 * d + m
    ncols = base_cols + sum(1 for ri in rhs_in if ri < 0)
    tableau = []
    basis = []
    art_cols = []
    for i, (a_i, b_i) in enumerate(zip(a_int, b_int)):
        row = a_i + [-x for x in a_i] + [0] * (ncols - 2 * d) + [b_i]
        row[2 * d + i] = 1
        if b_i < 0:
            row = [-x for x in row]
            col = base_cols + len(art_cols)
            art_cols.append(col)
            row[col] = 1
            basis.append(col)
        else:
            basis.append(2 * d + i)
        tableau.append(row)

    det = 1
    if art_cols:
        costs1 = [0] * ncols
        for col in art_cols:
            costs1[col] = -1
        status, det = _simplex(tableau, basis, costs1, det)
        if status != "optimal":
            raise InternalError("phase I cannot be unbounded")
        if any(row[-1] != 0 for row, var in zip(tableau, basis) if var in art_cols):
            return LpOutcome(LpStatus.INFEASIBLE)
        det = _expel_artificials(tableau, basis, base_cols, set(art_cols), det)

    obj_int, _ = common_denominator(obj)
    costs2 = obj_int + [-x for x in obj_int] + [0] * m
    for i, row in enumerate(tableau):
        tableau[i] = row[:base_cols] + row[-1:]
    status, det = _simplex(tableau, basis, costs2, det)
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
    return LpOutcome(LpStatus.OPTIMAL, point, dot(obj, point))


def _expel_artificials(tableau, basis, base_cols, art_cols, det):
    """Pivot basic artificials out and drop rows that turn out redundant;
    returns the new det.  The pivot entry may be negative, and then the
    whole tableau and its det are negated, so det stays positive."""
    i = 0
    while i < len(tableau):
        if basis[i] in art_cols:
            col = next((j for j in range(base_cols) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i], basis[i]
                continue
            det = _pivot(tableau, i, col, det)
            if det < 0:
                tableau[:] = [[-x for x in row] for row in tableau]
                det = -det
            basis[i] = col
        i += 1
    return det
