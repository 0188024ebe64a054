"""Exact linear programming over the rationals.

`lp_solve` maximizes c.x over {x : A x <= b} with x free, using a
two-phase tableau simplex with Bland's anti-cycling rule, so it terminates
without any numerical tolerances.  The tableau holds integers over one
positive divisor det and is pivoted by `linalg._pivot`; reduced costs are
scaled by det and the ratio test cross-multiplies, so every pivot is the
one the same tableau over the rationals would make.  Optimal points are
post-processed ("purified") onto a vertex whenever the feasible region is
pointed; the same purification doubles as the vertex finder used by the
projective closure construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, InternalError
from .linalg import ZERO, Vector, _pivot, as_vector, common_denominator, dot, nullspace


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


def purify_to_vertex(rows, b, c, x):
    """Slide an optimal point along the optimal face until it is a vertex.

    Repeatedly moves along a null direction of the active constraints
    (keeping c.x fixed) until a new constraint blocks; each step raises the
    active rank, so at most d steps happen.  Returns (point, is_vertex);
    is_vertex is False exactly when a full line inside the optimal face was
    found, i.e. the region is not pointed.
    """
    d = len(x)
    x = list(x)
    while True:
        active = [list(a) for a, bi in zip(rows, b) if dot(a, x) == bi]
        stack = active + ([list(c)] if any(ci != 0 for ci in c) else [])
        if not stack:
            stack = [[ZERO] * d]
        kernel = nullspace(stack)
        if not kernel:
            return tuple(x), True
        v = kernel[0]
        t_fwd, _ = ray_step(rows, b, x, v)
        if t_fwd is not None:
            x = [xi + t_fwd * vi for xi, vi in zip(x, v)]
            continue
        t_bwd, _ = ray_step(rows, b, x, [-vi for vi in v])
        if t_bwd is not None:
            x = [xi - t_bwd * vi for xi, vi in zip(x, v)]
            continue
        return tuple(x), False  # line through x: not pointed


def ray_step(rows, b, x, v) -> tuple[Optional[Fraction], list[int]]:
    """Ratio test along the ray x + t v, t >= 0, inside {A x <= b}.

    Returns the largest feasible step t and the indices of the rows that
    block it, in row order; (None, []) when no row blocks, i.e. v is a
    recession direction.
    """
    best = None
    blockers: list[int] = []
    for i, (a, bi) in enumerate(zip(rows, b)):
        av = dot(a, v)
        if av > 0:
            t = (bi - dot(a, x)) / av
            if best is None or t < best:
                best, blockers = t, [i]
            elif t == best:
                blockers.append(i)
    return best, blockers


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
    # columns: x = u - w split (2d), slacks (m), one artificial per row whose
    # right side is negative (it gets negated, so its slack cannot be basic),
    # then the right-hand side
    base_cols = 2 * d + m
    ncols = base_cols + sum(1 for ri in rhs_in if ri < 0)
    tableau = []
    basis = []
    art_cols = []
    for i in range(m):
        *a_i, b_i = nums[i * (d + 1):(i + 1) * (d + 1)]
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
    point = tuple(Fraction(xi, det) for xi in x)
    if d:
        point, _ = purify_to_vertex(rows, rhs_in, obj, point)
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
