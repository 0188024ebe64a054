"""Exact constructors for the benchmark families.

Five families: dwarfed cubes (polytope plus its unbounded reversal),
tight spans of thrackle and of random metrics, tropical cyclic polytopes
and tropical permutohedra.  All data is rational and reproducible; random
metrics use a splitmix64 stream with a fixed denominator of 2^20, so the
same seed yields bit-identical instances everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Sequence

from .errors import BudgetExceededError, InputError, InternalError
from .linalg import ONE, ZERO, Vector, common_denominator
from .polyhedron import DEFAULT_BUDGET, HRep, VRep

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


@dataclass(frozen=True)
class Metric:
    """Finite metric on points 1..d; entries stored for i < j."""

    d: int
    entries: dict[tuple[int, int], Fraction]

    def dist(self, i: int, j: int) -> Fraction:
        if i == j:
            return ZERO
        key = (i, j) if i < j else (j, i)
        return self.entries[key]

    def check_triangle(self) -> bool:
        pts = range(1, self.d + 1)
        return all(self.dist(i, j) <= self.dist(i, k) + self.dist(k, j)
                   for i in pts for j in pts for k in pts)

    def scaled(self, factor: Fraction) -> "Metric":
        if factor <= 0:
            raise InputError("scale factor must be positive")
        return Metric(self.d, {k: v * factor for k, v in self.entries.items()})


@dataclass(frozen=True)
class TropicalMatrix:
    s: int
    t: int
    values: tuple[Vector, ...]  # s rows of length t

    def __post_init__(self):
        if self.s < 2 or self.t < 2:
            raise InputError("tropical matrices need s, t >= 2")
        if len(self.values) != self.s or any(len(r) != self.t for r in self.values):
            raise InputError("matrix shape mismatch")


def dwarfed_cube(d: int) -> tuple[HRep, HRep]:
    """The dwarfed d-cube polytope and its unbounded reversal.

    Polytope: 0 <= x_i <= 1 with sum(x) <= 3/2 (2d+1 rows).  The reversal
    pushes the dwarfing facet to infinity through the explicit projective
    substitution x = (3/2) y / (1 + sum(y)), giving the 2d rows
    3 y_i - 2 sum(y) <= 2 and y_i >= 0.
    """
    if d < 2:
        raise InputError("dwarfed cubes need d >= 2")
    rows = []
    for i in range(d):
        e = [ZERO] * d
        e[i] = ONE
        rows.append((tuple(e), ONE))
    for i in range(d):
        e = [ZERO] * d
        e[i] = -ONE
        rows.append((tuple(e), ZERO))
    rows.append((tuple(ONE for _ in range(d)), THREE_HALVES))
    polytope = HRep(d, tuple(rows))

    rev_rows = []
    for i in range(d):
        a = [Fraction(-2)] * d
        a[i] = ONE  # 3 y_i - 2 sum(y)
        rev_rows.append((tuple(a), Fraction(2)))
    for i in range(d):
        e = [ZERO] * d
        e[i] = -ONE
        rev_rows.append((tuple(e), ZERO))
    reversal = HRep(d, tuple(rev_rows))
    return polytope, reversal


def thrackle_metric(d: int) -> Metric:
    """Metric of the maximal circular split system: the distance between i
    and j depends only on u = |i - j| and equals u (d - u)."""
    if d < 3:
        raise InputError("thrackle metrics need d >= 3")
    entries = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            u = j - i
            entries[(i, j)] = Fraction(u * (d - u))
    metric = Metric(d, entries)
    if not metric.check_triangle():
        raise InternalError("thrackle metric violates the triangle inequality")
    return metric


_SM_MASK = (1 << 64) - 1
RANDOM_METRIC_DENOMINATOR = 2**20


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream; documented so instances are reproducible
    bit-exactly across implementations."""
    state = seed & _SM_MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _SM_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SM_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SM_MASK
        yield z ^ (z >> 31)


def random_metric(d: int, seed: int) -> Metric:
    """Entries 1 + k/2^20 with k drawn uniformly from {0, ..., 2^20} in
    row-major pair order; always a metric since values lie in [1, 2]."""
    if d < 3:
        raise InputError("random metrics need d >= 3")
    stream = splitmix64(seed)
    entries = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            k = next(stream) % (RANDOM_METRIC_DENOMINATOR + 1)
            entries[(i, j)] = 1 + Fraction(k, RANDOM_METRIC_DENOMINATOR)
    return Metric(d, entries)


def tight_span_hrep(metric: Metric) -> HRep:
    """Rows -x_i - x_j <= -M(i,j) for all 1 <= i <= j <= d; the diagonal
    rows i = j are x_i >= 0 since M(i,i) = 0."""
    d = metric.d
    rows = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            a = [ZERO] * d
            a[i - 1] += -ONE
            a[j - 1] += -ONE
            rows.append((tuple(a), -metric.dist(i, j)))
    return HRep(d, tuple(rows))


def tropical_hrep(matrix: TropicalMatrix) -> HRep:
    """Inequalities u_i + w_k <= v_ik in the chart w_t = 0, i.e. in the
    variables (u_1..u_s, w_1..w_{t-1}); the ambient dimension is s+t-1."""
    s, t = matrix.s, matrix.t
    d = s + t - 1
    rows = []
    for i in range(s):
        for k in range(t):
            a = [ZERO] * d
            a[i] = ONE
            if k < t - 1:
                a[s + k] = ONE
            rows.append((tuple(a), matrix.values[i][k]))
    return HRep(d, tuple(rows))


def cyclic_matrix(s: int, t: int) -> TropicalMatrix:
    """v_ik = i * k with 1-based indices."""
    values = tuple(tuple(Fraction(i * k) for k in range(1, t + 1))
                   for i in range(1, s + 1))
    return TropicalMatrix(s, t, values)


def permutohedron_matrix(t: int, budget: int = DEFAULT_BUDGET) -> TropicalMatrix:
    """One row per permutation of (0, ..., t-1), in lexicographic order."""
    if t < 2:
        raise InputError("permutohedra need t >= 2")
    if factorial(t) > budget:
        raise BudgetExceededError(f"{t}! rows exceed budget {budget}")
    values = tuple(tuple(Fraction(x) for x in perm)
                   for perm in itertools.permutations(range(t)))
    return TropicalMatrix(factorial(t), t, values)


def _prufer_trees(t: int) -> Iterator[list[tuple[int, int]]]:
    """All labeled spanning trees on t nodes via Prufer sequences."""
    import heapq

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


def _tropical_candidates(v: Sequence[Sequence], budget: int = DEFAULT_BUDGET) -> set[tuple]:
    """Every w (with w_{t-1} = 0) pinned by a labeled spanning tree on the t
    column nodes of the s x t matrix v, one row i per tree edge {k, l}:
    u_i + w_k = v_ik and u_i + w_l = v_il, so w_l = w_k + v_il - v_ik.

    The row enters only through that difference, so each tree edge takes
    the product over its distinct differences rather than over all s rows.
    Each tree charges the size of that product to `budget` before it
    propagates those candidates, and the running sum may not pass it.
    Entries may be ints or Fractions; w has the same type.
    """
    s, t = len(v), len(v[0])
    candidates: set[tuple] = set()
    charged = 0
    for tree in _prufer_trees(t):
        # orient the tree away from the pinned node t-1
        adj: dict[int, list[int]] = {}
        for k, l in tree:
            adj.setdefault(k, []).append(l)
            adj.setdefault(l, []).append(k)
        steps = []
        seen = {t - 1}
        stack = [t - 1]
        while stack:
            k = stack.pop()
            for l in adj[k]:
                if l not in seen:
                    seen.add(l)
                    steps.append((k, l))
                    stack.append(l)
        differences = [{v[i][l] - v[i][k] for i in range(s)} for k, l in steps]
        charged += prod(map(len, differences))
        if charged > budget:
            raise BudgetExceededError(
                f"tropical candidate count {charged} exceeds budget {budget}")
        for choice in itertools.product(*differences):
            w: list = [None] * t
            w[t - 1] = 0
            for (k, l), delta in zip(steps, choice):
                w[l] = w[k] + delta
            candidates.add(tuple(w))
    return candidates


def tropical_vertices(matrix: TropicalMatrix, budget: int = DEFAULT_BUDGET) -> VRep:
    """Vertices and rays of the tropical polyhedron, from its combinatorics.

    At a vertex the active rows form a connected bipartite graph spanning
    all s+t row/column nodes, so the w-part is pinned by a spanning tree of
    column differences; `_tropical_candidates` produces every candidate w,
    which is then kept when its active graph is spanning and connected.
    The budget bounds the candidates that search propagates, at most
    t^(t-2) * s^(t-1).  The recession cone does not depend on the matrix
    and its extreme rays are written down in closed form.
    """
    s, t = matrix.s, matrix.t
    d = s + t - 1
    # the matrix over one denominator: the search runs in integers
    nums, den = common_denominator([x for row in matrix.values for x in row])
    v = [nums[i * t:(i + 1) * t] for i in range(s)]
    vertices = []
    for w in _tropical_candidates(v, budget):
        u = [min(v[i][k] - w[k] for k in range(t)) for i in range(s)]
        comp = list(range(s + t))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        covered = [False] * t
        for i in range(s):
            for k in range(t):
                if u[i] + w[k] == v[i][k]:
                    covered[k] = True
                    ri, rk = find(i), find(s + k)
                    if ri != rk:
                        comp[ri] = rk
        if not all(covered):
            continue
        root = find(0)
        if any(find(x) != root for x in range(s + t)):
            continue
        vertices.append(tuple(Fraction(x, den) for x in (*u, *w[:t - 1])))

    rays = []
    for i in range(s):
        r = [ZERO] * d
        r[i] = -ONE
        rays.append(tuple(r))
    for k in range(t - 1):
        r = [ZERO] * d
        r[s + k] = -ONE
        rays.append(tuple(r))
    rays.append(tuple([-ONE] * s + [ONE] * (t - 1)))
    return VRep.build(d, vertices, rays)
