"""Polyhedron representations and vertex enumeration.

An `HRep` is a system of inequalities a.x <= b; a `VRep` lists vertices and
(normalized) extreme ray directions.  `projective_closure` turns a pointed
unbounded polyhedron into a projectively equivalent polytope inside the
standard simplex, with the directions of unboundedness realized on the
hyperplane sum(x) = 1.

Three enumerators are provided:

* `enumerate_vertices_bruteforce` solves every d-subset of rows; it is the
  independent oracle for everything else and is budget-guarded.
* `enumerate_vertices_pivoting` walks the vertex-edge graph, enumerating
  edge directions at each vertex from (d-1)-subsets of its active rows; it
  is exact on degenerate (non-simple) polyhedra as well, and runs in
  integers (integer rows, points over one denominator, Bareiss kernels).
* `reverse_search_vertices` is the classic reverse search for simple
  polyhedra under a generic objective, with a ratio test that flags
  unbounded edges.

`projective_closure`, the pivot walk and `reverse_search_with_retries`
find a first vertex (or refuse empty and non-pointed input) through
`_start_vertex`, one feasibility LP; brute force takes it from the
closure, and the pipeline hands the closure's vertex on to the pivot walk,
so each solves that LP once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Optional, Sequence

from .errors import BudgetExceededError, InputError, InternalError, ObjectiveError
from .linalg import (ZERO, ONE, Vector, _echelon, as_vector, common_denominator, dot,
                     integer_row, inverse, kernel_line, rank, solve_linear_system)
from .linalg import nullspace  # noqa: F401  (perfbench's tracer wraps polyhedron.nullspace)
from .lp import LpStatus, lp_solve, ray_step

DEFAULT_BUDGET = 10**7


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


def normalize_ray(direction: Sequence[Fraction]) -> Vector:
    """Scale by a positive factor so the first nonzero entry has absolute value 1."""
    lead = next((x for x in direction if x != 0), None)
    if lead is None:
        raise InputError("zero vector is not a ray direction")
    scale = ONE / abs(lead)
    return tuple(x * scale for x in direction)


@dataclass(frozen=True)
class VRep:
    """Vertex/ray description.  Vertices are duplicate-free and sorted;
    rays are normalized (first nonzero entry +-1), duplicate-free, sorted."""

    dim: int
    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...]

    @classmethod
    def build(cls, dim: int, vertices, rays) -> "VRep":
        vs = sorted(set(tuple(v) for v in vertices))
        rs = sorted(set(normalize_ray(r) for r in rays))
        return cls(dim, tuple(vs), tuple(rs))


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertex indices; optionally with the pivot directions
    that were found unbounded, as (vertex index, ray index) pairs."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    unbounded_edges: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of `projective_closure`.

    `closure` is the polytope inside the standard simplex.  `translation`
    and `rho` (with its exact inverse `rho_inv`) are the affine pieces of
    the transform; `far_inequality` indexes the closure row realizing
    sum(x) <= 1.
    """

    closure: HRep
    translation: Vector
    rho: tuple[Vector, ...]
    rho_inv: tuple[Vector, ...]
    far_inequality: int

    def map_point(self, x: Sequence[Fraction]) -> Vector:
        """Image in the closure of an ordinary point of the polyhedron."""
        y = _mat_vec(self.rho, [xi - vi for xi, vi in zip(x, self.translation)])
        denom = ONE + sum(y, ZERO)
        if denom <= 0:
            raise InternalError("point maps outside the affine chart")
        return tuple(yi / denom for yi in y)

    def map_ray(self, direction: Sequence[Fraction]) -> Vector:
        """Far-face vertex of the closure corresponding to a recession direction."""
        y = _mat_vec(self.rho, direction)
        total = sum(y, ZERO)
        if total <= 0:
            raise InputError("not a recession direction of the polyhedron")
        return tuple(yi / total for yi in y)

    def unmap_point(self, z: Sequence[Fraction]) -> Vector:
        """Preimage of a closure point below the far hyperplane."""
        s = sum(z, ZERO)
        if s >= 1:
            raise InputError("far-face points have no ordinary preimage")
        y = [zi / (ONE - s) for zi in z]
        x = _mat_vec(self.rho_inv, y)
        return tuple(xi + vi for xi, vi in zip(x, self.translation))

    def unmap_far_vertex(self, z: Sequence[Fraction]) -> Vector:
        """Recession direction of the polyhedron behind a far-face vertex."""
        return normalize_ray(_mat_vec(self.rho_inv, z))


def _mat_vec(rows: Sequence[Vector], v: Sequence[Fraction]) -> list[Fraction]:
    return [dot(r, v) for r in rows]


def _canonical_row(a: Sequence[Fraction], b: Fraction) -> tuple[Vector, Fraction]:
    """The row (a, b) by `integer_row`, as Fractions."""
    ints = integer_row([*a, b])
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def projective_closure(h: HRep) -> ClosureResult:
    """Bounded polytope projectively equivalent to the pointed polyhedron h.

    The construction finds one vertex, translates it to the origin, maps a
    rank-d set of its active constraints onto the coordinate hyperplanes,
    and then pushes the hyperplane at infinity onto sum(x) = 1.  Errors:
    "empty polyhedron" when infeasible, "not pointed" otherwise when no
    vertex exists.
    """
    d = h.dim
    v, basis = _start_vertex(h)
    rho = tuple(tuple(-x for x in a) for a in basis)  # R = -W
    rho_inv = tuple(inverse(rho))

    new_rows = []
    for a, bi in h.rows:
        beta = bi - dot(a, v)
        a_prime = tuple(dot(a, tuple(rho_inv[i][j] for i in range(d))) for j in range(d))
        mapped = tuple(x + beta for x in a_prime)
        new_rows.append(_canonical_row(mapped, beta))
    new_rows.append((tuple(ONE for _ in range(d)), ONE))
    closure = HRep(d, tuple(new_rows))
    return ClosureResult(closure, tuple(v), rho, rho_inv, len(new_rows) - 1)


def _start_vertex(h: HRep) -> tuple[Vector, list[Vector]]:
    """A vertex of h, found by one feasibility LP, and a dual basis there:
    the first rows active at the vertex, in input order, that are
    independent of the rows before them.  Errors: "empty polyhedron" when
    infeasible, "not pointed" when the feasible point found lies on fewer
    than d independent rows (h then contains a line and has no vertex)."""
    out = lp_solve(h.coefficient_rows(), h.rhs(), [ZERO] * h.dim)
    if out.status is LpStatus.INFEASIBLE:
        raise InputError("empty polyhedron")
    start = out.point
    active = [a for a, bi in h.rows if dot(a, start) == bi]
    # the independent rows are the pivot columns of the active rows laid
    # out as columns
    _, pivots, _ = _echelon([integer_row(col) for col in zip(*active)])
    if len(pivots) < h.dim:
        raise InputError("not pointed")
    return start, [active[j] for j in pivots]


def enumerate_vertices_bruteforce(h: HRep, budget: int = DEFAULT_BUDGET) -> VRep:
    """Oracle enumeration: solve every d-subset of rows, keep feasible solutions.

    Rays are recovered by running the same procedure on the projective
    closure and pulling the far-face vertices back as directions.  Empty
    and non-pointed input is refused up front by the closure's start
    vertex, as by the other enumerators.
    """
    closure = projective_closure(h)
    vertices = _bruteforce_points(h, budget)
    rays: list[Vector] = []
    far_candidates = _bruteforce_points(closure.closure, budget)
    for z in far_candidates:
        if sum(z, ZERO) == 1:
            rays.append(closure.unmap_far_vertex(z))
    return VRep.build(h.dim, vertices, rays)


def _bruteforce_points(h: HRep, budget: int) -> list[Vector]:
    m = len(h.rows)
    d = h.dim
    if comb(m, d) > budget:
        raise BudgetExceededError(
            f"instance too large for brute force: C({m},{d}) subsets exceed budget {budget}")
    rows = [integer_row([*a, b]) for a, b in h.rows]
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    seen = set()
    for subset in itertools.combinations(range(m), d):
        point = solve_linear_system([a_rows[i] for i in subset], [b[i] for i in subset])
        if point is None or point in seen:
            continue
        num, den = common_denominator(point)
        if all(bi * den >= sum(map(mul, a, num)) for a, bi in zip(a_rows, b)):
            seen.add(point)
    return sorted(seen)


def enumerate_vertices_pivoting(h: HRep, budget: int = DEFAULT_BUDGET,
                                start: Optional[Sequence[Fraction]] = None) -> VRep:
    """Exact vertex/ray enumeration by walking the bounded vertex-edge graph.

    At each vertex the incident edge directions are the one-dimensional
    kernels of (d-1)-subsets of its active rows that point into the
    polyhedron, so degenerate vertices are handled without perturbation.
    The budget bounds the total number of subsets inspected.  `start` is a
    vertex of h to walk from; without it one is found by LP.

    The walk runs in integers, as lrs does (Avis, 2000): rows are scaled
    to integers once, a point is an integer numerator vector over a
    positive denominator reduced by their gcd, and an edge direction is
    the primitive integer vector `kernel_line` returns.  Each vertex gets
    one integer slack vector b*den - a.num, which gives its active rows
    and the ratio test; the step to the row blocking first (the least
    slack/(a.v), compared by cross-multiplying) lands on
    (num*(a.v) + slack*v) / (den*(a.v)).  Points become Fractions only
    for the returned VRep.
    """
    d = h.dim
    if start is None:
        start, _ = _start_vertex(h)
    rows = [integer_row([*a, b]) for a, b in h.rows]
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    nums, den = common_denominator(start)
    point = (tuple(nums), den)
    work = 0
    visited = {point}
    stack = [point]
    rays: set[tuple[int, ...]] = set()
    while stack:
        num, den = stack.pop()
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
        act = [i for i, s in enumerate(slack) if not s]
        work += comb(len(act), d - 1)
        if work > budget:
            raise BudgetExceededError(
                f"instance too large for pivot enumeration (budget {budget})")
        directions: set[tuple[int, ...]] = set()
        for subset in itertools.combinations(act, d - 1):
            v = kernel_line([a_rows[i] for i in subset], d)
            if v is None:
                continue
            signs = [sum(map(mul, a_rows[i], v)) for i in act]
            if all(s <= 0 for s in signs):
                directions.add(v)
            elif all(s >= 0 for s in signs):
                directions.add(tuple(-c for c in v))
        # only rows with positive slack can block: a.v <= 0 on active rows
        loose = [(a_rows[i], s) for i, s in enumerate(slack) if s]
        for v in directions:
            best_slack, best_av = 0, 0
            for a, s in loose:
                av = sum(map(mul, a, v))
                if av > 0 and (not best_av or s * best_av < best_slack * av):
                    best_slack, best_av = s, av
            if not best_av:
                rays.add(v)
                continue
            y = [n * best_av + best_slack * c for n, c in zip(num, v)]
            y_den = den * best_av
            g = gcd(y_den, *y)
            nxt = (tuple(n // g for n in y), y_den // g)
            if nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
    vertices = [tuple(Fraction(n, den) for n in num) for num, den in visited]
    return VRep.build(d, vertices, rays)


def bounded_generic_objective(h: HRep, attempt: int = 0, seed: int = 0) -> Vector:
    """Objective bounded above on a pointed h, with a seeded perturbation.

    The coefficient sum of all rows strictly decreases along every nonzero
    recession direction of a pointed region, so it is bounded above; the
    perturbation (shrunk on every retry attempt) breaks ties between
    vertices.  Genericity is verified by the caller.
    """
    d = h.dim
    base = [sum((a[j] for a, _ in h.rows), ZERO) for j in range(d)]
    rng = random.Random(f"objective:{seed}:{attempt}")
    scale = Fraction(1, 2 ** (16 + 8 * attempt))
    return tuple(base[j] + scale * rng.randrange(1, 2**12) for j in range(d))


def reverse_search_with_retries(h: HRep, seed: int = 0,
                                attempts: int = 64) -> tuple[VRep, Graph]:
    """Reverse search under automatically chosen objectives, retrying with a
    fresh perturbation whenever genericity or boundedness fails.  Empty and
    non-pointed input is refused up front: no objective can succeed there."""
    _start_vertex(h)
    last = None
    for attempt in range(attempts):
        try:
            return reverse_search_vertices(h, bounded_generic_objective(h, attempt, seed))
        except ObjectiveError as exc:
            last = exc
    raise InputError(f"no generic objective found after {attempts} attempts: {last}")


def reverse_search_vertices(h: HRep, objective: Sequence[Fraction]) -> tuple[VRep, Graph]:
    """Reverse search over a simple pointed polyhedron with a generic objective.

    Returns all vertices plus the bounded vertex-edge graph; pivot
    directions whose ratio test never blocks are reported as rays and
    flagged in `Graph.unbounded_edges`.  Raises "not simple" when a visited
    vertex lies on more than d facets, and "objective not generic" when two
    vertices share an objective value.
    """
    d = h.dim
    a_rows = h.coefficient_rows()
    b = h.rhs()
    c = as_vector(objective)
    if len(c) != d:
        raise InputError("objective length does not match dimension")
    out = lp_solve(a_rows, b, list(c))
    if out.status is LpStatus.INFEASIBLE:
        raise InputError("empty polyhedron")
    if out.status is LpStatus.UNBOUNDED:
        raise ObjectiveError("objective unbounded on polyhedron")
    root = out.point

    def active_basis(x: Vector) -> list[int]:
        act = [i for i in range(len(a_rows)) if dot(a_rows[i], x) == b[i]]
        if len(act) != d or rank([a_rows[i] for i in act]) != d:
            raise InputError("not simple")
        return act

    def pivot(x: Vector, act: list[int], k: int):
        """Direction relaxing row k; returns ('ray', v) or ('vertex', y, v)."""
        # v solves: a_i . v = 0 for i in act - {k}, a_k . v = -1
        mat = [a_rows[i] for i in act if i != k] + [a_rows[k]]
        rhs = [ZERO] * (d - 1) + [Fraction(-1)]
        v = solve_linear_system(mat, rhs)
        if v is None:
            raise InputError("not simple")
        t_best, blockers = ray_step(a_rows, b, x, v)
        if t_best is None:
            return ("ray", normalize_ray(v))
        if t_best == 0 or len(blockers) > 1:
            raise InputError("not simple")
        y = tuple(xi + t_best * vi for xi, vi in zip(x, v))
        return ("vertex", y, v)

    def ascent_neighbor(x: Vector, act: list[int]) -> Optional[Vector]:
        """Smallest-index improving pivot (Bland); None at the optimum."""
        for k in act:
            res = pivot(x, act, k)
            if res[0] == "ray":
                continue
            _, y, v = res
            if dot(c, v) > 0:
                return y
        return None

    vertices: list[Vector] = []
    edges: set[tuple[Vector, Vector]] = set()
    ray_flags: list[tuple[Vector, Vector]] = []
    seen = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        vertices.append(x)
        act = active_basis(x)
        for k in act:
            res = pivot(x, act, k)
            if res[0] == "ray":
                ray_flags.append((x, res[1]))
                continue
            _, y, _ = res
            vx, vy = dot(c, x), dot(c, y)
            if vx == vy:
                raise ObjectiveError("objective not generic")
            edges.add((min(x, y), max(x, y)))
            if vy < vx:
                # y is a child iff its Bland ascent pivot leads back to x
                y_act = active_basis(y)
                if ascent_neighbor(y, y_act) == x:
                    stack.append(y)
    values = [dot(c, x) for x in vertices]
    if len(set(values)) != len(values):
        raise ObjectiveError("objective not generic")

    vrep = VRep.build(d, vertices, [r for _, r in ray_flags])
    index = {v: i for i, v in enumerate(vrep.vertices)}
    ray_index = {r: i for i, r in enumerate(vrep.rays)}
    edge_list = sorted((index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
                       for u, v in edges)
    unbounded = sorted((index[x], ray_index[normalize_ray(r)]) for x, r in ray_flags)
    return vrep, Graph(len(vrep.vertices), tuple(edge_list), tuple(unbounded))
