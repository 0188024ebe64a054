"""Polyhedron representations and vertex enumeration.

An `HRep` is a system of inequalities a.x <= b with `Fraction` entries,
and `HRep.integer_rows` is their one integer form, computed once and read
by every step below that works in integers; a `VRep` lists vertices and
(normalized) extreme ray directions, each held as lrs holds a point (Avis
2000): an integer numerator vector over one positive denominator, a
`Point`.  `projective_closure` turns a pointed
unbounded polyhedron into a projectively equivalent polytope inside the
standard simplex, with the directions of unboundedness realized on the
hyperplane sum(x) = 1; its transform, its rows and its point and ray maps
are computed in integers, and the maps take and return `Point`s.  The
closure's integer rows are the ones it is built from.

Three enumerators are provided:

* `enumerate_vertices_bruteforce` reads a candidate vertex off the kernel
  of every d-subset of rows and a candidate ray off that of every
  (d-1)-subset; it is the independent oracle for everything else.
* `enumerate_vertices_pivoting` walks the vertex-edge graph with one edge
  rule: a vertex's edges are the extreme rays of its tangent cone.  A
  simple vertex reads its d of them off lrs's integer dictionary over its
  active rows, carried from its parent by one exchange step; a degenerate
  one starts from the simplicial cone on d independent active rows and
  adds the others by double description, so the walk is exact on
  degenerate (non-simple) polyhedra such as tropical ones as well.
* `reverse_search_vertices` is the classic reverse search for simple
  polyhedra, ordered by one fixed lexicographic objective (the sum of the
  rows, ties broken by x_1, ..., x_d); an edge whose ratio test never
  blocks is a ray.

The walk and reverse search run in integers: integer rows, `Point`s,
edges read off one Bareiss elimination (`linalg.scaled_inverse`) and
combined in integers at a degenerate vertex, and the ratio test
`linalg.ratio_step`.  The walk carries the elimination from a simple
vertex to its simple neighbours by fraction-free exchange steps
(`linalg.exchange`), so it inverts only where it starts or meets ties.
All three enumerators build their `VRep` from integer points and
directions; only its `vertices` and `rays` views are `Fraction`s.

`projective_closure` and all three enumerators find a first vertex (or
refuse empty and non-pointed input) through `_start_vertex`, one
feasibility LP; brute force uses it only for that refusal, and the
pipeline hands the closure's vertex on to the pivot walk, so each solves
that LP once.  All three enumerators charge the one budget: brute force
checks its subset count up front, and the walk and reverse search charge
a running `meter` as they go, as the face search does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetExceededError, InputError, InternalError
from .linalg import (Vector, _echelon, as_vector, common_denominator, exchange, integer_row,
                     kernel_line, ratio_step, scaled_inverse)
# perfbench's tracer wraps polyhedron.rank and polyhedron.nullspace
from .linalg import nullspace, rank  # noqa: F401
from .lp import LpStatus, lp_solve

DEFAULT_BUDGET = 10**7

#: a point num/den: an integer numerator vector over a denominator den > 0
Point = tuple[tuple[int, ...], int]


def meter(budget: int, what: str) -> Callable[[int], None]:
    """A running budget: charge(units) adds units to the work done and
    raises BudgetExceededError, naming `what`, once it exceeds `budget`."""
    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > budget:
            raise BudgetExceededError(f"instance too large for {what} (budget {budget})")

    return charge


@dataclass(frozen=True)
class HRep:
    """Inequality description: rows (a, b) each meaning a.x <= b."""

    dim: int
    rows: tuple[tuple[Vector, Fraction], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if not self.rows:
            raise InputError("an H-representation needs at least one row")
        for a, _ in self.rows:
            if len(a) != self.dim:
                raise InputError("row length does not match dimension")

    @classmethod
    def from_rows(cls, dim: int, rows: Sequence[tuple[Sequence, object]]) -> "HRep":
        return cls(dim, tuple((as_vector(a), Fraction(b)) for a, b in rows))

    def coefficient_rows(self) -> list[Vector]:
        return [a for a, _ in self.rows]

    def rhs(self) -> list[Fraction]:
        return [b for _, b in self.rows]

    @cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row as `integer_row([*a, b])`: coprime integers, a positive
        multiple of the row.  Computed once, and read by every integer
        consumer of the rows."""
        return tuple(tuple(integer_row([*a, b])) for a, b in self.rows)


def numerators_over_lcm(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Each point's numerators over the lcm of all the denominators, which
    compare as the points' coordinates do."""
    big = lcm(*(den for _, den in points))
    return [tuple(n * (big // den) for n in num) for num, den in points]


def _ordered(points: Iterable[Point]) -> tuple[Point, ...]:
    points = list(set(points))
    return tuple(p for _, p in sorted(zip(numerators_over_lcm(points), points)))


def _reduced(num: Sequence[int], den: int) -> Point:
    g = gcd(*num, den) if den > 0 else -gcd(*num, den)
    return tuple(n // g for n in num), den // g


def _fractions(points: Iterable[Point]) -> tuple[Vector, ...]:
    return tuple(tuple(Fraction(n, den) for n in num) for num, den in points)


@dataclass(frozen=True)
class VRep:
    """Vertex/ray description in integers, each list duplicate-free and in
    lexicographic order.  `points` are the vertices as reduced `Point`s;
    `directions` are the rays, each over |its first nonzero numerator| so
    that, as rationals, that entry is +-1.  `vertices` and `rays` are
    their views as `Fraction` tuples."""

    dim: int
    points: tuple[Point, ...]
    directions: tuple[Point, ...]

    @classmethod
    def from_integers(cls, dim: int, points: Iterable[tuple[Sequence[int], int]],
                      rays: Iterable[Sequence[int]]) -> "VRep":
        """From vertices num/den in any terms and integer ray directions,
        each of length dim."""
        vertices = []
        for num, den in points:
            if len(num) != dim:
                raise InputError(f"point of length {len(num)} in a V-rep of dimension {dim}")
            vertices.append(_reduced(num, den))
        directions = []
        for r in rays:
            if len(r) != dim:
                raise InputError(f"ray of length {len(r)} in a V-rep of dimension {dim}")
            lead = next((x for x in r if x), 0)
            if not lead:
                raise InputError("zero vector is not a ray direction")
            directions.append(_reduced(r, abs(lead)))
        return cls(dim, _ordered(vertices), _ordered(directions))

    @classmethod
    def build(cls, dim: int, vertices: Iterable[Sequence], rays: Iterable[Sequence]) -> "VRep":
        """From rational (int or Fraction) vertices and ray directions."""
        return cls.from_integers(dim, map(common_denominator, vertices),
                                 (common_denominator(r)[0] for r in rays))

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return _fractions(self.points)

    @property
    def rays(self) -> tuple[Vector, ...]:
        return _fractions(self.directions)


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of `projective_closure`.

    `closure` is the polytope inside the standard simplex.  The transform
    is x -> y / (1 + sum(y)) with y = rho (x - translation); rho is held
    as the integer matrix `rho` over the positive denominator `rho_den`.
    The closure's last row is the far one, sum(x) <= 1.
    """

    closure: HRep
    translation: Point
    rho: tuple[tuple[int, ...], ...]
    rho_den: int

    def map_point(self, x: Point) -> Point:
        """Image in the closure of an ordinary point of the polyhedron.

        With x = X/s and translation V/t, the image is R.(tX - sV) over
        D*s*t + sum(R.(tX - sV)) for rho = R/D, reduced."""
        num, s = x
        shift, t = self.translation
        xv = [t * n - s * w for n, w in zip(num, shift)]
        y = [sum(map(mul, row, xv)) for row in self.rho]
        denom = self.rho_den * s * t + sum(y)
        if denom <= 0:
            raise InternalError("point maps outside the affine chart")
        return _reduced(y, denom)

    def map_ray(self, direction: Point) -> Point:
        """Far-face vertex of the closure corresponding to a recession
        direction r: R.r / sum(R.r), reduced; r's denominator is not read."""
        y = [sum(map(mul, row, direction[0])) for row in self.rho]
        total = sum(y)
        if total <= 0:
            raise InputError("not a recession direction of the polyhedron")
        return _reduced(y, total)


def projective_closure(h: HRep) -> ClosureResult:
    """Bounded polytope projectively equivalent to the pointed polyhedron h.

    The construction finds one vertex v, translates it to the origin, maps
    a rank-d set W of its active constraints onto the coordinate
    hyperplanes by rho = -W, and then pushes the hyperplane at infinity
    onto sum(x) = 1.  Errors: "empty polyhedron" when infeasible, "not
    pointed" otherwise when no vertex exists.

    It runs in integers: rho = R/D over one denominator D, and
    `scaled_inverse` gives M = delta*R^-1 with delta > 0.  A row a.x <= b
    becomes (a rho^-1 + beta) . y <= beta with beta = b - a.v, which for
    the integer row (a, b) and v = V/t is, scaled by t*delta,
    (t*D*a.M + delta*beta') . y <= delta*beta' with beta' = t*b - a.V,
    reduced by `integer_row`.
    """
    d = h.dim
    v, basis = _start_vertex(h)
    nums, rho_den = common_denominator([-x for a in basis for x in a])  # R = -W * D
    rho = tuple(tuple(nums[i * d:(i + 1) * d]) for i in range(d))
    inv, delta = scaled_inverse(rho)  # R is invertible: W is a basis
    inv_cols = list(zip(*inv))
    shift, t = v
    new_rows = []
    for *a_int, b_int in h.integer_rows:
        beta = delta * (t * b_int - sum(map(mul, a_int, shift)))
        row = [t * rho_den * sum(map(mul, a_int, col)) + beta for col in inv_cols]
        new_rows.append(tuple(integer_row([*row, beta])))
    new_rows.append((1,) * (d + 1))
    closure = HRep.from_rows(d, [(row[:-1], row[-1]) for row in new_rows])
    # new_rows are already `integer_row`'s form of the closure's rows
    vars(closure)["integer_rows"] = tuple(new_rows)
    return ClosureResult(closure, v, rho, rho_den)


def _start_vertex(h: HRep) -> tuple[Point, list[Vector]]:
    """A vertex of h, found by one feasibility LP, as a reduced `Point`,
    and a dual basis there: the first rows active at the vertex, in input
    order, that are independent of the rows before them, read off integer
    slacks of h's `integer_rows` at the `Point`.  Errors: "empty
    polyhedron" when infeasible, "not pointed" when the feasible point
    found lies on fewer than d independent rows (h then contains a line
    and has no vertex)."""
    out = lp_solve(h.coefficient_rows(), h.rhs(), [0] * h.dim)
    if out.status is LpStatus.INFEASIBLE:
        raise InputError("empty polyhedron")
    num, den = common_denominator(out.point)
    rows = h.integer_rows
    active = [i for i, (*a, b) in enumerate(rows) if b * den == sum(map(mul, a, num))]
    # the independent rows are the pivot columns of the active rows laid
    # out as columns
    _, pivots, _ = _echelon([list(col) for col in zip(*(rows[i][:-1] for i in active))])
    if len(pivots) < h.dim:
        raise InputError("not pointed")
    return (tuple(num), den), [h.rows[active[j]][0] for j in pivots]


def enumerate_vertices_bruteforce(h: HRep, budget: int = DEFAULT_BUDGET) -> VRep:
    """Oracle enumeration: try every row subset that can pin a vertex or
    an extreme ray, keep those that satisfy every row.

    A d-subset of the integer rows [a, -b] pins the point v[:d]/v[d] when
    its `kernel_line` v has v[d] != 0.  A (d-1)-subset of the rows a pins
    the line of its `kernel_line` r, and r or -r is an extreme ray when
    a.r <= 0 on every row, i.e. when it lies in the recession cone, which
    is pointed.  That is C(m, d) + C(m, d-1) = C(m+1, d) subsets, checked
    against the budget up front.  Empty and non-pointed input is refused
    first by `_start_vertex`, as by the other enumerators.
    """
    d = h.dim
    m = len(h.rows)
    _start_vertex(h)
    if comb(m + 1, d) > budget:
        raise BudgetExceededError(
            f"instance too large for brute force: C({m + 1},{d}) subsets exceed budget {budget}")
    eqs = [(*row[:-1], -row[-1]) for row in h.integer_rows]
    a_rows = [eq[:-1] for eq in eqs]
    points = set()
    for subset in itertools.combinations(eqs, d):
        v = kernel_line(subset, d + 1)
        # v is a nonzero multiple v[d] of (x, 1): a.x <= b reads (eq.v)*v[d] <= 0
        if v is not None and v[d] and all(sum(map(mul, eq, v)) * v[d] <= 0 for eq in eqs):
            points.add((v[:d], v[d]))
    rays = set()
    for subset in itertools.combinations(a_rows, d - 1):
        r = kernel_line(subset, d)
        for w in ((r, tuple(-x for x in r)) if r else ()):
            if all(sum(map(mul, a, w)) <= 0 for a in a_rows):
                rays.add(w)
    return VRep.from_integers(d, points, rays)


def enumerate_vertices_pivoting(h: HRep, budget: int = DEFAULT_BUDGET,
                                start: Optional[Point] = None) -> VRep:
    """Exact vertex/ray enumeration by walking the bounded vertex-edge graph.

    At each vertex the incident edge directions are the extreme rays of its
    tangent cone {v : a_i.v <= 0 for every active row i}.  A simple vertex
    (exactly d active rows) holds lrs's integer dictionary over those rows
    (Avis 2000), `_dictionary`: its d edges are its columns, and each
    edge's ratio test is one pass over its column.  A degenerate vertex
    starts from the simplicial cone on d independent active rows and adds
    the others by double description, `_cone_edges`, so degenerate vertices
    are handled without perturbation.  The budget is charged d per vertex
    plus one per ray pair tested for adjacency.  `start` is a vertex of h
    to walk from, a `Point` in any terms, and a point that is none is
    refused; without it one is found by LP.

    The walk runs in integers: rows are scaled to integers once, a point is
    a reduced `Point`, and an edge direction is a primitive integer vector.
    A neighbour of a simple vertex blocked by one row is simple too and
    gets its dictionary from its parent's by one fraction-free exchange
    step, `linalg.exchange`.  Any other vertex (the start, those reached
    with ties) gets one integer slack vector b*den - a.num, which gives its
    active rows and, when they are d independent ones, its dictionary by
    one `scaled_inverse`; otherwise `ratio_step` steps along each of its
    `_cone_edges`.
    """
    d = h.dim
    if start is None:
        start, _ = _start_vertex(h)
    rows = h.integer_rows
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    m = len(rows)
    point = _reduced(*start)
    charge = meter(budget, "pivot enumeration")
    visited = {point}
    # each entry is a vertex and the exchange step that gives its
    # dictionary from its parent's, or None when it has to be found afresh
    stack: list[tuple[Point, Optional[tuple]]] = [(point, None)]
    rays: set[tuple[int, ...]] = set()
    while stack:
        point, step = stack.pop()
        charge(d)
        if step is not None:
            cols, delta = exchange(*step)
        else:
            num, den = point
            slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
            # only the start can violate a row: the others are reached by ratio tests
            if min(slack) < 0:
                raise InputError("start point is not a vertex")
            act = [i for i, s in enumerate(slack) if not s]
            found = _dictionary(a_rows, slack, point, act) if len(act) == d else None
            if found is None:
                for v in _cone_edges(a_rows, act, charge):
                    nxt, _ = ratio_step(a_rows, slack, point, v)
                    if nxt is None:
                        rays.add(v)
                    elif nxt not in visited:
                        visited.add(nxt)
                        stack.append((nxt, None))
                continue
            cols, delta = found
        rhs = cols[0]
        coords = rhs[m:]
        for j in range(1, d + 1):
            col = cols[j]
            edge = col[m:]
            r, ties = _column_ratio(rhs, col, m)
            if r is None:
                g = gcd(*edge)
                rays.add(tuple(x // g for x in edge))
                continue
            # the other end, (p*X + S_r*C_j) / delta over p = -T_j[r]
            p, s = -col[r], rhs[r]
            nxt = _reduced([(p * x + s * c) // delta for x, c in zip(coords, edge)], p)
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, (cols, j, r, delta) if ties == 1 else None))
    return VRep.from_integers(d, visited, rays)


def _dictionary(a_rows: Sequence[Sequence[int]], slack: Sequence[int], point: Point,
                act: Sequence[int]) -> Optional[tuple[list[list[int]], int]]:
    """lrs's integer dictionary at a vertex whose d active rows `act` are
    independent, as (columns, delta); None when they are not.

    With B the active rows and M = delta*B^-1 (delta > 0), column 0 holds
    delta times the slacks b_i - a_i.x of the m rows, then delta*x; column
    k (k = 1..d) holds a_i.M_k for each row i, then -M_k, the edge that
    relaxes row act[k-1] and keeps the others tight.  Along that edge,
    delta*slack_i grows by a_i.M_k and delta*x by -M_k per unit of row
    act[k-1]'s slack, so a row blocks it where a_i.M_k < 0.  `slack` is
    the vertex's integer slack vector over its denominator; as delta*x is
    integral, that denominator divides delta.
    """
    inv = scaled_inverse([a_rows[i] for i in act])
    if inv is None:
        return None
    inverse, delta = inv
    num, den = point
    scale = delta // den
    cols = [[s * scale for s in slack] + [n * scale for n in num]]
    for col in zip(*inverse):
        cols.append([sum(map(mul, a, col)) for a in a_rows] + [-x for x in col])
    return cols, delta


def _column_ratio(rhs: Sequence[int], col: Sequence[int], m: int) -> tuple[Optional[int], int]:
    """The ratio test of a dictionary's edge column over its m rows: the
    first row r to block it, least rhs[r]/-col[r] over the rows with
    col[r] < 0, compared by cross-multiplying, and the number of rows that
    tie with it; (None, 0) when no row blocks.  The rows with zero slack
    are the basis, on which col is delta or 0, so none of them blocks.
    The search starts from the ratio 1/0, which every row beats."""
    best, best_s, best_t, ties = None, 1, 0, 0
    for i in range(m):
        t = col[i]
        if t < 0:
            diff = best_s * t - rhs[i] * best_t
            if diff < 0:
                best, best_s, best_t, ties = i, rhs[i], t, 1
            elif not diff:
                ties += 1
    return best, ties


def _simple_edges(a_rows: Sequence[Sequence[int]],
                  act: Sequence[int]) -> Optional[list[tuple[int, ...]]]:
    """The edge directions at a vertex whose d active rows `act` are
    independent, or None when they are not.

    With B the active rows and M = delta*B^-1 (delta > 0), direction j is
    -column j of M made primitive: a_{act[i]}.v is -delta/g for i = j and
    0 otherwise, so it is the edge that relaxes row act[j] and keeps the
    others tight, and it points into the polyhedron without a sign test.
    """
    inv = scaled_inverse([a_rows[i] for i in act])
    if inv is None:
        return None
    edges = []
    for col in zip(*inv[0]):
        g = gcd(*col)
        edges.append(tuple(-x // g for x in col))
    return edges


def _cone_edges(a_rows: Sequence[Sequence[int]], act: Sequence[int],
                charge: Callable[[int], None]) -> list[tuple[int, ...]]:
    """The extreme rays of {v : a_i.v <= 0 for i in act}, by double
    description (Motzkin et al. 1953; Fukuda & Prodon 1996).

    The first d independent rows of `act` make a simplicial cone whose rays
    are their `_simple_edges`.  Each other row a is then added: the rays
    with a.r > 0 go, and each pair (p, n) with a.p > 0 > a.n that is
    adjacent gives the primitive ray (a.p)*n - (a.n)*p, on which a is
    tight.  p and n are adjacent when no third ray is tight on every row
    tight at both, tested on bitmasks over positions in `act`, after the
    necessary count of at least d-2 such rows.  `charge` is called with
    the number of pairs before they are tested.  Active rows of rank below
    d mean the point is no vertex: InputError.
    """
    d = len(a_rows[0])
    _, pivots, _ = _echelon([list(col) for col in zip(*(a_rows[i] for i in act))])
    if len(pivots) < d:
        raise InputError("start point is not a vertex")
    basis = sum(1 << j for j in pivots)
    cone = [(v, basis ^ 1 << j)
            for v, j in zip(_simple_edges(a_rows, [act[j] for j in pivots]), pivots)]
    for k in range(len(act)):
        if basis >> k & 1:
            continue
        a = a_rows[act[k]]
        signs = [sum(map(mul, a, v)) for v, _ in cone]
        plus = [(ray, s) for ray, s in zip(cone, signs) if s > 0]
        minus = [(ray, s) for ray, s in zip(cone, signs) if s < 0]
        charge(len(plus) * len(minus))
        masks = [mask for _, mask in cone]
        bit = 1 << k
        new = [(v, mask | bit if not s else mask)
               for (v, mask), s in zip(cone, signs) if s <= 0]
        for (p, p_mask), sp in plus:
            for (n, n_mask), sn in minus:
                common = p_mask & n_mask
                if (common.bit_count() >= d - 2
                        and sum(common & mask == common for mask in masks) == 2):
                    v = [sp * x - sn * y for x, y in zip(n, p)]
                    g = gcd(*v)
                    new.append((tuple(x // g for x in v), common | bit))
        cone = new
    return [v for v, _ in cone]


def reverse_search_vertices(h: HRep, budget: int = DEFAULT_BUDGET) -> VRep:
    """Vertices and rays of a simple pointed polyhedron by reverse search
    (Avis & Fukuda 1992).

    An edge direction whose ratio test never blocks is a ray.  Raises "not
    simple" when a visited vertex lies on more than d facets.

    The order is fixed: an edge direction v goes up when (c.v, v_1, ...,
    v_d) > 0 lexicographically, with c the sum of h's integer rows.  It is
    the order of c.x + eps*x_1 + ... + eps^d*x_d for small eps > 0, so no
    two vertices tie, and c.r < 0 on every ray r of a pointed polyhedron,
    so every ray goes down and one vertex, the sink, is on top.  The search
    climbs from `_start_vertex` to the sink along the first up edge at each
    vertex (Bland's rule), then walks the tree of those steps down from it:
    y is a child of x when the edge x -> y goes down and y's first up edge
    leads back to x.  The budget is charged d per vertex stepped on, the
    climb included, as the pivot walk charges.

    It runs in integers, as the pivot walk does: a point is a `Point`, the
    edges relaxing its d active rows are read off one inverse of them,
    `_simple_edges`, and `ratio_step` finds each edge's other end.
    """
    d = h.dim
    rows = h.integer_rows
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    c = [sum(col) for col in zip(*a_rows)]
    level = (0,) * (d + 1)
    charge = meter(budget, "reverse search")

    def up(v) -> bool:
        return (sum(map(mul, c, v)), *v) > level

    def edges_at(point) -> tuple[list[int], list[tuple[int, ...]]]:
        """The slacks of a vertex and the edges relaxing each of its
        active rows, in row order: there must be d independent ones."""
        num, den = point
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
        act = [i for i, s in enumerate(slack) if not s]
        directions = _simple_edges(a_rows, act) if len(act) == d else None
        if directions is None:
            raise InputError("not simple")
        return slack, directions

    def step(point, slack, v):
        """The other end of edge v, or None when v is a ray."""
        y, blocking = ratio_step(a_rows, slack, point, v)
        if blocking > 1:
            raise InputError("not simple")
        return y

    def ascent_neighbor(point):
        """The other end of the first up edge; None at the sink."""
        slack, directions = edges_at(point)
        v = next((v for v in directions if up(v)), None)
        return None if v is None else step(point, slack, v)

    root, _ = _start_vertex(h)
    charge(d)
    while (higher := ascent_neighbor(root)) is not None:
        root = higher
        charge(d)

    vertices = []
    rays = set()
    stack = [root]
    while stack:
        x = stack.pop()
        charge(d)
        vertices.append(x)
        slack, directions = edges_at(x)
        for v in directions:
            y = step(x, slack, v)
            if y is None:
                rays.add(v)
            elif not up(v) and ascent_neighbor(y) == x:
                stack.append(y)
    return VRep.from_integers(d, vertices, rays)
