"""Independent reference implementations that the tests compare the library
against.

The `Fraction` oracles are the rational forms of what the library computes
in integers: a reduced row echelon form, the projective closure with its
point and ray maps, the LP's vertex purification with its ratio test, and
reverse search.  They share with the library only the start vertex, the
LP that finds a first point and the normalization of their output
(`integer_row`, `VRep.build`).  That LP and that start vertex have their
`Fraction` forms too: `reference_lp_solve` pivots the full two-phase
tableau, a column for every variable, where `lp_solve` stores only the
columns that are no other column's negation, and `reference_start_vertex`
finds the active rows with `Fraction` dot products.  The V-rep's own order and ray
normalization have their `Fraction` form here too, `reference_vrep`:
the library holds points as integer numerator vectors over one
denominator and sorts them by an integer key.  Reverse search here runs
under a given objective, from the LP optimum; `bounded_generic_objective`
gives seeded ones, and an objective that ties two vertices or is unbounded
raises `ObjectiveError`.  The library instead orders every polyhedron by
one fixed lexicographic objective, so it has neither.  The integer pivot
walk is kept as it ran before it carried lrs's dictionary,
`reference_integer_walk`: one inverse and one full ratio test per edge
at every vertex, where the library exchanges one dictionary for the
next.  The closure operator on vertex sets, `closure`, is the meet of
the facets holding a set; the library's cover search reads meets off
facet keys instead, and reads each vertex's edges off its covers with
two vertices, where `reference_polytope_edges` closes every vertex pair.
The tropical vertices are found combinatorially, by propagating w
through every labeled spanning tree (Prufer sequences) with every choice
of one row per edge; the library walks the tropical H-rep instead.  The vertex poset is
the whole poset of vertex sets of faces with its Moebius numbers, the
plain recursion that `moebius_generation` interleaves with its search;
within that search, the numbers are also found by walking each face's
down-set along covers, where the library ANDs bitsets of facets.
The simple polyhedron's face numbers are counted again along a seeded
random objective, found by retries, in place of the library's fixed
order.
"""

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from polybound.bounded import covers, facet_set
from polybound.errors import BudgetExceededError, InputError, InternalError
from polybound.incidence import IncidenceMatrix, indices_from_mask
from polybound.linalg import ONE, ZERO, as_vector, common_denominator, integer_row, ratio_step
from polybound.lp import LpOutcome, LpStatus, lp_solve
from polybound.polyhedron import (DEFAULT_BUDGET, HRep, VRep, _cone_edges, _reduced,
                                  _simple_edges, _start_vertex, meter)


# -- linear algebra over Fractions ------------------------------------------
def dot(a, b):
    """The dot product of two rational vectors of one length."""
    assert len(a) == len(b), "dimension mismatch in dot product"
    return sum((x * y for x, y in zip(a, b)), ZERO)


def reference_rref(a):
    """Reduced row echelon form over Fractions, one row operation at a
    time: (rows, pivot columns).  The oracle for the integer elimination."""
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def reference_nullspace(a, ncols):
    """One kernel vector per free column of the rref: 1 there, 0 in the
    other free columns."""
    rows, pivots = reference_rref(a)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(int(c == f)) for c in range(ncols)]
            for row, col in zip(rows, pivots):
                v[col] = -row[f]
            basis.append(tuple(v))
    return basis


def reference_inverse(a):
    """The right block of the rref of [A | I]; A must be invertible."""
    n = len(a)
    rows, pivots = reference_rref([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(a)])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [tuple(row[n:]) for row in rows]


def reference_solve(a, b):
    """The unique solution of A x = b over Fractions, or None."""
    n = len(a[0])
    rows, pivots = reference_rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in rows[:n])


# -- points ---------------------------------------------------------------------
def as_fractions(point):
    """A point (numerators, denominator) as a Fraction tuple."""
    num, den = point
    return tuple(Fraction(n, den) for n in num)


def normalize_ray(direction):
    """Scale by a positive factor so the first nonzero entry has absolute value 1."""
    lead = next((x for x in direction if x != 0), None)
    if lead is None:
        raise InputError("zero vector is not a ray direction")
    return tuple(Fraction(x) / abs(lead) for x in direction)


def reference_vrep(vertices, rays):
    """(vertices, rays) as `VRep` orders them, over Fractions: distinct
    vertices and distinct normalized rays, each sorted lexicographically."""
    return (tuple(sorted({tuple(map(Fraction, v)) for v in vertices})),
            tuple(sorted({normalize_ray(r) for r in rays})))


# -- projective closure -------------------------------------------------------
def _mat_vec(rows, v):
    return [dot(r, v) for r in rows]


@dataclass(frozen=True)
class ReferenceClosure:
    """The closure with rho = -W and its inverse held as Fraction matrices."""

    closure: HRep
    translation: tuple
    rho: tuple
    rho_inv: tuple

    def map_point(self, x):
        y = _mat_vec(self.rho, [xi - vi for xi, vi in zip(x, self.translation)])
        denom = ONE + sum(y, ZERO)
        if denom <= 0:
            raise InternalError("point maps outside the affine chart")
        return tuple(yi / denom for yi in y)

    def map_ray(self, direction):
        y = _mat_vec(self.rho, direction)
        total = sum(y, ZERO)
        if total <= 0:
            raise InputError("not a recession direction of the polyhedron")
        return tuple(yi / total for yi in y)

    def unmap_point(self, z):
        s = sum(z, ZERO)
        if s >= 1:
            raise InputError("far-face points have no ordinary preimage")
        x = _mat_vec(self.rho_inv, [zi / (ONE - s) for zi in z])
        return tuple(xi + vi for xi, vi in zip(x, self.translation))


def reference_closure(h):
    """`projective_closure` over Fractions: each row a.x <= b becomes
    (a rho^-1 + beta) . y <= beta with beta = b - a.v, scaled by
    `integer_row`."""
    d = h.dim
    start, basis = _start_vertex(h)
    v = as_fractions(start)
    rho = tuple(tuple(-x for x in a) for a in basis)
    rho_inv = tuple(reference_inverse(rho))
    new_rows = []
    for a, bi in h.rows:
        beta = bi - dot(a, v)
        a_prime = [dot(a, [rho_inv[i][j] for i in range(d)]) for j in range(d)]
        ints = integer_row([*(x + beta for x in a_prime), beta])
        new_rows.append((as_vector(ints[:-1]), Fraction(ints[-1])))
    new_rows.append((tuple(ONE for _ in range(d)), ONE))
    return ReferenceClosure(HRep(d, tuple(new_rows)), v, rho, rho_inv)


# -- ratio test and purification ----------------------------------------------
def ray_step(rows, b, x, v):
    """Ratio test along the ray x + t v, t >= 0, inside {A x <= b}: the
    largest feasible step t and the rows that block it, in row order;
    (None, []) when no row blocks."""
    best = None
    blockers = []
    for i, (a, bi) in enumerate(zip(rows, b)):
        av = dot(a, v)
        if av > 0:
            t = (bi - dot(a, x)) / av
            if best is None or t < best:
                best, blockers = t, [i]
            elif t == best:
                blockers.append(i)
    return best, blockers


def purify_to_vertex(rows, b, c, x):
    """Slide a point along the first null-space vector of its active rows
    (and c) until a new row blocks, forward first, then backward; stops at
    a vertex, or on a line through x."""
    d = len(x)
    x = list(x)
    while True:
        active = [list(a) for a, bi in zip(rows, b) if dot(a, x) == bi]
        stack = active + ([list(c)] if any(ci != 0 for ci in c) else [])
        kernel = reference_nullspace(stack, d)
        if not kernel:
            return tuple(x)
        v = kernel[0]
        t_fwd, _ = ray_step(rows, b, x, v)
        if t_fwd is not None:
            x = [xi + t_fwd * vi for xi, vi in zip(x, v)]
            continue
        t_bwd, _ = ray_step(rows, b, x, [-vi for vi in v])
        if t_bwd is not None:
            x = [xi - t_bwd * vi for xi, vi in zip(x, v)]
            continue
        return tuple(x)


# -- the start-vertex LP ----------------------------------------------------------
def _fraction_pivot(rows, r, col, leaving):
    """Scale row r to a 1 in `col` and clear `col` from every other row."""
    leaving.append(r)
    inv = 1 / rows[r][col]
    pivot_row = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = [x - f * y for x, y in zip(row, pivot_row)]


def _fraction_simplex(tableau, basis, costs, leaving):
    while True:
        entering = next((j for j, cj in enumerate(costs)
                         if cj - sum(costs[var] * row[j] for var, row in zip(basis, tableau)) > 0),
                        -1)
        if entering < 0:
            return "optimal"
        leave, best = -1, None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return "unbounded"
        _fraction_pivot(tableau, leave, entering, leaving)
        basis[leave] = entering


def reference_lp_solve(a, b, c, leaving=None):
    """The two-phase Bland simplex over Fractions on the full tableau: a
    column for each of u and w in x = u - w, for each slack and for each
    artificial, where `lp_solve` stores only u and the slacks, in integers,
    and reads w and the artificials off them with a sign.  Then the
    Fraction purification with its `ray_step` ratio test.  `leaving`, when
    given, gets the tableau row of each pivot appended, in order, those
    that expel artificials included."""
    leaving = [] if leaving is None else leaving
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    obj = [Fraction(x) for x in c]
    m, d = len(rows), len(obj)
    base_cols = 2 * d + m
    art_cols = []
    ncols = base_cols + sum(1 for bi in rhs if bi < 0)
    tableau, basis = [], []
    for i, (row, bi) in enumerate(zip(rows, rhs)):
        t = row + [-x for x in row] + [Fraction(int(i == j)) for j in range(m)]
        t += [Fraction(0)] * (ncols - base_cols) + [bi]
        if bi < 0:
            t = [-x for x in t]
            art_cols.append(base_cols + len(art_cols))
            t[art_cols[-1]] = Fraction(1)
            basis.append(art_cols[-1])
        else:
            basis.append(2 * d + i)
        tableau.append(t)
    if art_cols:
        _fraction_simplex(tableau, basis, [Fraction(-(j in art_cols)) for j in range(ncols)],
                          leaving)
        if any(row[-1] for row, var in zip(tableau, basis) if var in art_cols):
            return LpOutcome(LpStatus.INFEASIBLE)
        i = 0
        while i < len(tableau):
            if basis[i] in art_cols:
                col = next((j for j in range(base_cols) if tableau[i][j]), None)
                if col is None:
                    del tableau[i], basis[i]
                    continue
                _fraction_pivot(tableau, i, col, leaving)
                basis[i] = col
            i += 1
    tableau = [row[:base_cols] + row[-1:] for row in tableau]
    if _fraction_simplex(tableau, basis, obj + [-x for x in obj] + [Fraction(0)] * m,
                         leaving) == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)
    x = [Fraction(0)] * d
    for row, var in zip(tableau, basis):
        if var < d:
            x[var] += row[-1]
        elif var < 2 * d:
            x[var - d] -= row[-1]
    point = tuple(x)
    if d:
        point = purify_to_vertex(rows, rhs, obj, point)
    return LpOutcome(LpStatus.OPTIMAL, point, dot(obj, point))


def reference_start_vertex(h: HRep):
    """`polyhedron._start_vertex` over Fractions: the vertex that
    `reference_lp_solve` finds, as a reduced `Point`, and the first rows
    active there that are independent of the rows before them, found from
    `Fraction` dot products."""
    out = reference_lp_solve(h.coefficient_rows(), h.rhs(), [ZERO] * h.dim)
    if out.status is LpStatus.INFEASIBLE:
        raise InputError("empty polyhedron")
    start = out.point
    active = [a for a, bi in h.rows if dot(a, start) == bi]
    _, pivots = reference_rref([list(col) for col in zip(*active)])
    if len(pivots) < h.dim:
        raise InputError("not pointed")
    return _reduced(*common_denominator(start)), [active[j] for j in pivots]


# -- the pivot walk --------------------------------------------------------------
def reference_integer_walk(h: HRep, budget: int = DEFAULT_BUDGET,
                           start=None) -> VRep:
    """The integer pivot walk before it carried a dictionary: at every
    vertex one slack vector, the edges of a simple vertex off one
    `scaled_inverse` of its active rows (`_simple_edges`), those of a
    degenerate one by double description (`_cone_edges`), and one full
    `ratio_step` per edge.  It charges the budget as the library's walk
    does: d per vertex plus one per ray pair."""
    d = h.dim
    if start is None:
        start, _ = _start_vertex(h)
    rows = [integer_row([*a, b]) for a, b in h.rows]
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    point = _reduced(*start)
    charge = meter(budget, "pivot enumeration")
    visited = {point}
    stack = [point]
    rays: set[tuple[int, ...]] = set()
    while stack:
        point = stack.pop()
        num, den = point
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
        act = [i for i, s in enumerate(slack) if not s]
        charge(d)
        directions = _simple_edges(a_rows, act) if len(act) == d else None
        if directions is None:
            directions = _cone_edges(a_rows, act, charge)
        for v in directions:
            nxt, _ = ratio_step(a_rows, slack, point, v)
            if nxt is None:
                rays.add(v)
            elif nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
    return VRep.from_integers(d, visited, rays)


# -- reverse search -----------------------------------------------------------
class ObjectiveError(InputError):
    """An objective is unbounded or not generic on the input; another
    objective may succeed."""


def bounded_generic_objective(h: HRep, attempt: int = 0, seed: int = 0):
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


def reference_reverse_search(h, objective):
    """`reverse_search_vertices` over Fractions: each pivot solves
    a_i.v = 0 (i active, i != k), a_k.v = -1 and steps by `ray_step`."""
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

    def active_basis(x):
        act = [i for i in range(len(a_rows)) if dot(a_rows[i], x) == b[i]]
        if len(act) != d or len(reference_rref([a_rows[i] for i in act])[1]) != d:
            raise InputError("not simple")
        return act

    def pivot(x, act, k):
        mat = [a_rows[i] for i in act if i != k] + [a_rows[k]]
        v = reference_solve(mat, [ZERO] * (d - 1) + [Fraction(-1)])
        if v is None:
            raise InputError("not simple")
        t_best, blockers = ray_step(a_rows, b, x, v)
        if t_best is None:
            return ("ray", normalize_ray(v))
        if t_best == 0 or len(blockers) > 1:
            raise InputError("not simple")
        return ("vertex", tuple(xi + t_best * vi for xi, vi in zip(x, v)), v)

    def ascent_neighbor(x, act):
        for k in act:
            res = pivot(x, act, k)
            if res[0] == "vertex" and dot(c, res[2]) > 0:
                return res[1]
        return None

    vertices, rays, seen = [], [], set()
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
                rays.append(res[1])
                continue
            y = res[1]
            vx, vy = dot(c, x), dot(c, y)
            if vx == vy:
                raise ObjectiveError("objective not generic")
            if vy < vx and ascent_neighbor(y, active_basis(y)) == x:
                stack.append(y)
    values = [dot(c, x) for x in vertices]
    if len(set(values)) != len(values):
        raise ObjectiveError("objective not generic")
    return VRep.build(d, vertices, rays)


# -- tropical vertices ---------------------------------------------------------
def prufer_trees(t):
    """All labeled spanning trees on t nodes, as edge lists, one per Prufer
    sequence."""
    if t == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(t), repeat=t - 2):
        degree = [1] * t
        for x in seq:
            degree[x] += 1
        leaves = [i for i in range(t) if degree[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
        yield edges


def reference_tropical_candidates(matrix):
    """Every w pinned by a labeled spanning tree with one row per edge:
    t^(t-2) * s^(t-1) propagations from the pinned node t-1."""
    s, t = matrix.s, matrix.t
    v = matrix.values
    candidates = set()
    for tree in prufer_trees(t):
        for labels in itertools.product(range(s), repeat=t - 1):
            w = [None] * t
            w[t - 1] = ZERO
            adj = {}
            for (k, l), i in zip(tree, labels):
                adj.setdefault(k, []).append((l, i))
                adj.setdefault(l, []).append((k, i))
            stack = [t - 1]
            while stack:
                k = stack.pop()
                for l, i in adj.get(k, ()):
                    if w[l] is None:
                        # u_i + w_k = v_ik and u_i + w_l = v_il
                        w[l] = w[k] + v[i][l] - v[i][k]
                        stack.append(l)
            candidates.add(tuple(w))
    return candidates


def reference_tropical_vertices(matrix, candidates):
    """The `reference_tropical_candidates` whose active graph
    (u_i + w_k = v_ik) spans and connects all s + t nodes, over Fractions,
    with the closed-form rays."""
    s, t = matrix.s, matrix.t
    v = matrix.values
    vertices = []
    for w in candidates:
        u = [min(v[i][k] - w[k] for k in range(t)) for i in range(s)]
        comp = list(range(s + t))

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        covered = [False] * t
        for i in range(s):
            for k in range(t):
                if u[i] + w[k] == v[i][k]:
                    covered[k] = True
                    comp[find(i)] = find(s + k)
        if all(covered) and len({find(x) for x in range(s + t)}) == 1:
            vertices.append(tuple(u) + tuple(w[:t - 1]))
    d = s + t - 1
    rays = [tuple(-ONE if j == i else ZERO for j in range(d)) for i in range(d)]
    rays.append(tuple([-ONE] * s + [ONE] * (t - 1)))
    return VRep.build(d, vertices, rays)


# -- the closure operator -----------------------------------------------------
#: Distinguished "improper face" result of the closure operator.
WHOLE = None


def closure(mask: int, inc: IncidenceMatrix):
    """Intersection of the facet rows containing `mask`, the meet of
    F(mask); WHOLE (None) when no facet contains it."""
    facets = facet_set(mask, inc)
    return inc.meet(facets) if facets else WHOLE


def reference_polytope_edges(inc: IncidenceMatrix):
    """Every edge of a polytope by the pair scan: {u,v} is an edge iff its
    closure is {u,v}, one closure per vertex pair where the library reads
    each vertex's edges off one `covers` call."""
    return [(u, v) for u in range(inc.n) for v in range(u + 1, inc.n)
            if closure(1 << u | 1 << v, inc) == 1 << u | 1 << v]


# -- the vertex poset ---------------------------------------------------------
@dataclass(frozen=True)
class VertexPoset:
    """All vertex sets of proper faces (bitmasks, including 0 for the empty
    face) ordered by containment, with their Moebius numbers; `mu_top` is
    the number of the artificial top element."""

    n: int
    elements: tuple
    mu: dict
    mu_top: int

    @property
    def size(self) -> int:
        return len(self.elements)


def vertex_poset(inc: IncidenceMatrix, budget: int = 10**6) -> VertexPoset:
    """Poset of all nonempty intersections of incidence rows, plus the empty
    set, with Moebius numbers computed by the plain recursion."""
    if inc.far_face is not None:
        raise InputError("expected incidences without far-face data")
    rows = inc.row_masks
    elements = set(rows)
    frontier = set(rows)
    while frontier:
        fresh = set()
        for s in frontier:
            for r in rows:
                t = s & r
                if t and t not in elements:
                    elements.add(t)
                    fresh.add(t)
            if len(elements) > budget:
                raise BudgetExceededError(f"vertex poset exceeds element budget {budget}")
        frontier = fresh
    elements.add(0)
    ordered = sorted(elements, key=lambda s: (s.bit_count(), indices_from_mask(s)))
    mu = {}
    for s in ordered:
        mu[s] = 1 if s == 0 else -sum(m for t, m in mu.items() if t != s and t & ~s == 0)
    return VertexPoset(inc.n, tuple(ordered), mu, -sum(mu.values()))


class ReferenceMoebiusWalk:
    """`keep` for the library's face search: the Moebius number of each
    popped face by walking the down-set from the empty face, where the
    library ANDs per-facet bitsets.  Each bounded element's covers are
    found again here, and only those inside the face are followed, so the
    walk reaches every bounded element strictly below it.  `numbers` maps
    each popped face to its number, zero ones included."""

    def __init__(self, inc: IncidenceMatrix):
        self.inc = inc
        self.ups = {}  # bounded element -> its covers
        self.numbers = {}

    def __call__(self, face: int) -> bool:
        number = 1
        if face:
            outside = ~face
            seen = {0}
            stack = [0]
            while stack:
                for up in self.ups[stack.pop()]:
                    if up not in seen and not up & outside and up in self.ups:
                        seen.add(up)
                        stack.append(up)
            number = -sum(map(self.numbers.__getitem__, seen))
        self.numbers[face] = number
        if number:
            self.ups[face] = covers(face, self.inc)
        return number != 0


def moebius_oracle_filter(vp: VertexPoset) -> set:
    """Vertex sets of bounded faces: the elements with nonzero Moebius number."""
    return {s for s in vp.elements if vp.mu[s] != 0}


def vertex_sets(hd) -> set:
    return set(hd.masks)


def faces(hd) -> set:
    """The (rank, vertex mask) pairs of a Hasse diagram's nodes."""
    return set(zip(hd.ranks, hd.masks))



# -- face numbers of a simple polyhedron along a seeded objective ------------
def generic_ray_objective(v: VRep, far, seed: int = 0):
    """Objective for closure coordinates: exact, pairwise-distinct values on
    all vertices, with every far-face value above every ordinary value.

    Starts from the all-ones vector (the far face lies on sum(x) = 1, all
    other vertices below it) and adds a seeded rational perturbation that
    shrinks on every retry; both conditions are verified exactly."""
    far = set(far)
    for attempt in range(64):
        rng = random.Random(f"ray-objective:{seed}:{attempt}")
        eps = Fraction(1, 2 ** (4 + 2 * attempt))
        c = tuple(ONE + eps * Fraction(rng.randrange(1, 2**20), 2**20)
                  for _ in range(v.dim))
        values = [dot(c, p) for p in v.vertices]
        if len(set(values)) != len(values):
            continue
        far_vals = [val for i, val in enumerate(values) if i in far]
        near_vals = [val for i, val in enumerate(values) if i not in far]
        if far_vals and near_vals and min(far_vals) <= max(near_vals):
            continue
        return c
    raise InputError("could not find a generic far-dominant objective")


def seeded_f_vector(inc: IncidenceMatrix, v: VRep, seed: int = 0):
    """(f_bounded, f_all, h, h_inf) as tuples, with every edge of the
    closure pointing up along `generic_ray_objective`: each face of the
    polyhedron is counted at its lowest vertex, each bounded face at its
    highest, both ordinary."""
    far = set(indices_from_mask(inc.far_face))
    c = generic_ray_objective(v, far, seed)
    values = [dot(c, p) for p in v.vertices]
    up = [0] * inc.n
    down = [0] * inc.n
    for a, b in reference_polytope_edges(inc):
        lo, hi = sorted((a, b), key=values.__getitem__)
        up[lo] += 1
        down[hi] += 1
    d = v.dim
    near = [i for i in range(inc.n) if i not in far]
    f_all = tuple(sum(comb(up[i], k) for i in near) for k in range(d + 1))
    f_bounded = tuple(sum(comb(down[i], k) for i in near) for k in range(d + 1))
    h = tuple(sum(up[i] == k for i in near) for k in range(d + 1))
    width = max([d] + up + down) + 1
    h_inf = tuple(sum(down[i] == k for i in far) for k in range(width))
    return f_bounded, f_all, h, h_inf
