"""Bounded subcomplex from the incidences of the unbounded polyhedron alone.

When no far-face information is available, boundedness of a face is read
off the Moebius function of the poset of vertex sets of faces (all
intersections of incidence rows, plus the empty set): an element is the
vertex set of a bounded face exactly when its Moebius number is nonzero.

`moebius_generation` interleaves the poset search with the Moebius
recursion.  The work queue is ordered by vertex-set cardinality, a linear
extension of containment, so when an element is popped every element
strictly below it has been processed.  Its Moebius number is then minus
the sum over its down-set of bounded elements (unbounded elements
contribute zero and need not be stored), and that down-set is walked from
the empty face along the recorded covers: every face of a bounded face is
bounded, so each bounded element below is reached through bounded ones.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .errors import BudgetExceededError, InputError, InternalError
from .bounded import HasseDiagram, covers
from .incidence import IncidenceMatrix
from .polyhedron import DEFAULT_BUDGET


class BoundedRegistry:
    """Bounded poset elements popped so far, with their Moebius numbers and
    covers.

    The stored elements are exactly the nonzero-Moebius ones, so for any
    element H whose strict subsets have all been processed,
    `mu_hat(H)` is its exact Moebius number.
    """

    __slots__ = ("_mu", "_covers")

    def __init__(self):
        self._mu: dict[int, int] = {}
        self._covers: dict[int, list[int]] = {}

    def add(self, mask: int, mu: int, ups: list[int]) -> None:
        """Store a bounded element with the covers it was expanded into
        (none when it was not expanded)."""
        if mu == 0:
            raise InternalError("registry stores bounded elements only")
        self._mu[mask] = mu
        self._covers[mask] = ups

    def below(self, mask: int) -> list[tuple[int, int]]:
        """The (mask, mu) pairs strictly below `mask`, reached from the
        empty face through stored elements inside `mask`."""
        if mask == 0:
            return []
        seen = {0}
        stack = [0]
        while stack:
            for up in self._covers[stack.pop()]:
                if up not in seen and up != mask and up & ~mask == 0 and up in self._mu:
                    seen.add(up)
                    stack.append(up)
        return [(s, self._mu[s]) for s in seen]

    def mu_hat(self, mask: int) -> int:
        if mask == 0:
            return 1
        return -sum(m for _, m in self.below(mask))


def moebius_generation(inc: IncidenceMatrix, max_dim: Optional[int] = None,
                       budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Hasse diagram of the bounded faces from the incidences of the
    unbounded polyhedron, without any far-face data.

    Elements are popped in order of cardinality, a linear extension of
    containment.  With `max_dim`, faces above that rank are not emitted.
    More than `budget` faces to expand raise BudgetExceededError.
    """
    if inc.far_face is not None:
        raise InputError("far-face data present; restrict to near vertices first")

    registry = BoundedRegistry()
    node_rank: dict[int, int] = {0: -1}     # mask -> rank, set at creation
    emitted: dict[int, int] = {}            # mask -> final node index
    masks, ranks = [], []                   # the emitted nodes, in pop order
    pending_arcs: list[tuple[int, int]] = []  # (parent mask, child mask)
    heap = [(0, 0, 0)]  # (cardinality, push sequence, mask)
    expanded = 0
    while heap:
        face = heapq.heappop(heap)[2]
        mu = registry.mu_hat(face)
        if mu == 0:
            continue  # unbounded face: not emitted, not expanded
        rank = node_rank[face]
        emitted[face] = len(masks)
        masks.append(face)
        ranks.append(rank)
        ups = []
        if max_dim is None or rank < max_dim:
            expanded += 1
            if expanded > budget:
                raise BudgetExceededError(
                    f"instance too large for moebius generation (budget {budget})")
            ups = covers(face, inc)
        registry.add(face, mu, ups)
        for cover in ups:
            if cover not in node_rank:
                node_rank[cover] = rank + 1
                heapq.heappush(heap, (cover.bit_count(), len(node_rank), cover))
            pending_arcs.append((face, cover))

    arcs = []
    for parent, child in pending_arcs:
        if child in emitted:
            if node_rank[child] != node_rank[parent] + 1:
                raise InternalError("cover arcs must raise rank by one")
            arcs.append((emitted[parent], emitted[child]))
    arcs.sort()
    return HasseDiagram(inc.n, masks, ranks, arcs)
