"""Exact constructors for the benchmark families.

Five families: dwarfed cubes (polytope plus its unbounded reversal),
tight spans of thrackle and of random metrics, tropical cyclic polytopes
and tropical permutohedra.  All data is rational and reproducible; random
metrics use a splitmix64 stream with a fixed denominator of 2^20, so the
same seed yields bit-identical instances everywhere.  Their vertices come
from the one pivot walk; `tropical_vertices` is that walk on a tropical
H-rep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import BudgetExceededError, InputError, InternalError
from .linalg import ONE, ZERO, Vector
from .polyhedron import DEFAULT_BUDGET, HRep, VRep, enumerate_vertices_pivoting

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
        """d(i, j) <= d(i, k) + d(k, j) for all i, j, k.  It holds when any
        two of them are equal, and d is symmetric, so each pair i < j is
        tested against each other k once."""
        pts = range(1, self.d + 1)
        dist = self.dist
        return all(dist(i, j) <= dist(i, k) + dist(k, j)
                   for i, j in itertools.combinations(pts, 2) for k in pts if k != i and k != j)


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


def tropical_vertices(matrix: TropicalMatrix, budget: int = DEFAULT_BUDGET) -> VRep:
    """Vertices and rays of the tropical polyhedron of `matrix`: the pivot
    walk on `tropical_hrep(matrix)`, whose degenerate vertices take their
    edges by double description."""
    return enumerate_vertices_pivoting(tropical_hrep(matrix), budget)
