"""Exact linear programming over the rationals.

`lp_solve` maximizes (or minimizes) c.x over {x : A x <= b} with x free,
using a two-phase tableau simplex with Bland's anti-cycling rule, so it
terminates without any numerical tolerances.  Optimal points are
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
from .linalg import ZERO, ONE, Vector, _as_row_list, _pivot, dot, nullspace

MAX = "max"
MIN = "min"


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: Optional[Vector] = None
    objective: Optional[Fraction] = None


def _simplex(tableau, basis, costs):
    """Run Bland-rule simplex on the given tableau in place.

    tableau rows are already expressed in the current basis, each with its
    right-hand side as the last entry.  Returns "optimal" or "unbounded".
    """
    m = len(tableau)
    while True:
        # reduced costs r_j = c_j - c_B . T[:,j]
        entering = -1
        for j, rj in enumerate(costs):
            for i in range(m):
                cb = costs[basis[i]]
                if cb:
                    rj -= cb * tableau[i][j]
            if rj > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties broken by smallest basic variable index (Bland)
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, leave, entering)
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


def lp_solve(a, b: Sequence, c: Sequence, sense: str = MAX, purify: bool = True) -> LpOutcome:
    """Exact simplex for max/min c.x subject to A x <= b (x free).

    With c = 0 this is the feasibility test.  When the region is pointed,
    an Optimal outcome carries a vertex of the region.
    """
    rows = _as_row_list(a)
    rhs_in = [Fraction(x) for x in b]
    obj = [Fraction(x) for x in c]
    if len(rows) != len(rhs_in):
        raise InputError("A and b row counts differ")
    d = len(rows[0]) if rows else 0
    if any(len(r) != d for r in rows):
        raise InputError("ragged constraint matrix")
    if len(obj) != d:
        raise InputError("objective length does not match variable count")
    if sense not in (MAX, MIN):
        raise InputError(f"unknown sense {sense!r}")
    if sense == MIN:
        flipped = lp_solve(rows, rhs_in, [-x for x in obj], MAX, purify=purify)
        if flipped.status is LpStatus.OPTIMAL:
            return LpOutcome(LpStatus.OPTIMAL, flipped.point, -flipped.objective)
        return flipped

    m = len(rows)
    # columns: x = u - w split (2d), slacks (m), one artificial per row whose
    # right side is negative (it gets negated, so its slack cannot be basic),
    # then the right-hand side
    base_cols = 2 * d + m
    ncols = base_cols + sum(1 for ri in rhs_in if ri < 0)
    tableau = []
    basis = []
    art_cols = []
    for i in range(m):
        row = [ZERO] * (ncols + 1)
        for j in range(d):
            row[j] = rows[i][j]
            row[d + j] = -rows[i][j]
        row[2 * d + i] = ONE
        row[-1] = rhs_in[i]
        if rhs_in[i] < 0:
            row = [-x for x in row]
            col = base_cols + len(art_cols)
            art_cols.append(col)
            row[col] = ONE
            basis.append(col)
        else:
            basis.append(2 * d + i)
        tableau.append(row)

    if art_cols:
        costs1 = [ZERO] * ncols
        for col in art_cols:
            costs1[col] = Fraction(-1)
        status = _simplex(tableau, basis, costs1)
        if status != "optimal":
            raise InternalError("phase I cannot be unbounded")
        if any(row[-1] != 0 for row, var in zip(tableau, basis) if var in art_cols):
            return LpOutcome(LpStatus.INFEASIBLE)
        _expel_artificials(tableau, basis, base_cols, set(art_cols))

    costs2 = [ZERO] * base_cols
    for j in range(d):
        costs2[j] = obj[j]
        costs2[d + j] = -obj[j]
    for i, row in enumerate(tableau):
        tableau[i] = row[:base_cols] + row[-1:]
    status = _simplex(tableau, basis, costs2)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    x = [ZERO] * d
    for row, var in zip(tableau, basis):
        if var < d:
            x[var] += row[-1]
        elif var < 2 * d:
            x[var - d] -= row[-1]
    point = tuple(x)
    if purify and d:
        point, _ = purify_to_vertex(rows, rhs_in, obj, point)
    return LpOutcome(LpStatus.OPTIMAL, point, dot(obj, point))


def _expel_artificials(tableau, basis, base_cols, art_cols):
    """Pivot basic artificials out; drop rows that turn out redundant."""
    i = 0
    while i < len(tableau):
        if basis[i] in art_cols:
            col = next((j for j in range(base_cols) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i], basis[i]
                continue
            _pivot(tableau, i, col)
            basis[i] = col
        i += 1
