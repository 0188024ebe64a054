"""Closure operator, cover generation, and the bounded-subcomplex
algorithms that work on a closure's incidence matrix.

The face poset is explored bottom-up from the empty face.  Covers of a
closed vertex set H are generated as Kaibel & Pfetsch do ("Computing the
face lattice of a polytope from its vertex-facet incidences", Comput.
Geom. 23, 2002): the facets through H + {v} are F(H) & col(v), vertices
with equal facet sets share one closure, and a closure G covers H exactly
when |G \\ H| vertices lead to it.  The closure of a facet set is its
meet, the AND of its rows, read from the incidence matrix's byte table of
precomputed row ANDs (`IncidenceMatrix.row_ands`): one lookup per 8 rows.
A face of the closure polytope is bounded exactly when its vertex set
avoids the far face, so the main algorithm simply refuses to step onto
far-meeting faces and thereby runs in time proportional to the bounded
part alone.  One search, `_cover_search`, serves the main algorithm
(given the far face), the full face lattice (given far = 0) and, with
the Moebius number as its test of boundedness, `moebius_generation`.  It
pops faces from a heap in order of cardinality, a linear extension of
containment, so a face's rank is known when it is popped, and lists them
in that order.  Its budget counts the faces expanded, one `covers` call
each; under `max_dim` these are not a prefix of the list, since a face
of rank max_dim can pop before a face of lower rank.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import and_, getitem
from typing import Callable, Optional

from .errors import BudgetExceededError, InputError, InternalError
from .incidence import IncidenceMatrix, indices_from_mask, mask_from_indices
from .incidence import closure_mask  # noqa: F401  (perfbench's tracer wraps bounded.closure_mask)
from .polyhedron import DEFAULT_BUDGET


def facet_set(mask: int, inc: IncidenceMatrix) -> int:
    """F(mask): the row-set mask of the facets containing `mask`."""
    return reduce(and_, map(inc.column_masks.__getitem__, indices_from_mask(mask)),
                  (1 << inc.m) - 1)


def covers(mask: int, inc: IncidenceMatrix) -> list[int]:
    """Faces covering the closed set `mask`: the inclusion-minimal closures
    cl(mask + {v}) over vertices v outside mask, in the order their facet
    sets first occur over the vertices.

    Each v contributes the facet set F(mask) & col(v); a closure G is
    minimal exactly when all |G \\ mask| of its new vertices share its
    facet set, since any other one would generate a smaller closure.  The
    facet sets are counted over all vertices at once; the |mask| vertices
    inside have facet set F(mask) and are taken back out of its count.
    Each distinct facet set is closed by its meet, one `row_ands` lookup
    per byte, and that closure always contains mask."""
    row_ands, inside = inc.row_ands, mask.bit_count()
    nbytes = len(row_ands)
    facets = facet_set(mask, inc)
    counts = Counter(map(facets.__and__, inc.column_masks))
    counts[facets] -= inside
    del counts[0]  # no facet holds mask + {v}: its closure is the whole polytope
    minimal = []
    for key, count in counts.items():
        if count:  # a closed mask leaves its own facet set with none
            # inc.meet(key) inlined: a call per key cost (24,4) selective ~15 %
            face = reduce(and_, map(getitem, row_ands, key.to_bytes(nbytes, "little")))
            if face.bit_count() - inside == count:
                minimal.append(face)
    return minimal


@dataclass
class HasseDiagram:
    """Ranked DAG of faces, held as parallel lists: node i is the face with
    vertex set masks[i] at rank ranks[i], and node 0 is the empty face at
    rank -1.  Arcs are (lower, upper) node index pairs."""

    n: int
    masks: list[int]
    ranks: list[int]
    arcs: list[tuple[int, int]]
    far_face: Optional[int] = None

    def node_count(self) -> int:
        return len(self.masks)

    def f_vector(self) -> list[int]:
        """Face counts by rank, rank 0 upward (the empty face is excluded)."""
        hist = [0] * (max(self.ranks, default=-1) + 1)
        for rank in self.ranks:
            if rank >= 0:
                hist[rank] += 1
        return hist

    def canonical(self):
        """The one canonical order of the diagram: faces as sorted (rank,
        vertex tuple) pairs, arcs as sorted index pairs into that order.
        Two diagrams are isomorphic as ranked DAGs iff their canonical forms
        are equal (vertex sets are unique per face)."""
        keys = [(rank, indices_from_mask(mask)) for rank, mask in zip(self.ranks, self.masks)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        position = [0] * len(order)
        for new, old in enumerate(order):
            position[old] = new
        arcs = sorted((position[lo], position[hi]) for lo, hi in self.arcs)
        return tuple(keys[i] for i in order), tuple(arcs)


def _cover_search(inc: IncidenceMatrix, far: int, max_dim: Optional[int] = None,
                  budget: int = DEFAULT_BUDGET,
                  keep: Optional[Callable[[int, dict], bool]] = None) -> HasseDiagram:
    """Search of the faces from the empty one along covers, in order of
    cardinality, never pushing a cover that meets `far`.  A popped face is
    emitted only when keep(face, ups) holds (always, without `keep`), ups
    mapping each face emitted so far to the covers it admitted; it is then
    expanded unless its rank is max_dim or more.  Expanding a (budget+1)-th
    face raises BudgetExceededError.  Nodes are listed in pop order, and
    the arcs are read off the admitted covers at the end."""
    rank_of = {0: -1}
    heap = [(0, 0, 0)]  # (cardinality, discovery order, mask)
    ups: dict[int, list[int]] = {}
    expanded = 0
    while heap:
        face = heappop(heap)[2]
        if keep is not None and not keep(face, ups):
            continue
        ups[face] = admitted = []
        rank = rank_of[face]
        if max_dim is not None and rank >= max_dim:
            continue
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(
                f"instance too large for the face search (budget {budget})")
        # `covers` is read through the module, so perfbench's tracer counts each call
        for cover in covers(face, inc):
            if not cover & far:
                if cover not in rank_of:
                    rank_of[cover] = rank + 1
                    heappush(heap, (cover.bit_count(), len(rank_of), cover))
                admitted.append(cover)
    ranks = [rank_of[face] for face in ups]
    del rank_of  # freed before the index and arcs are built, which set the peak memory
    index = {face: i for i, face in enumerate(ups)}
    arcs = [(index[lo], index[hi]) for lo, his in ups.items() for hi in his if hi in index]
    if any(ranks[hi] != ranks[lo] + 1 for lo, hi in arcs):
        raise InternalError("cover arcs must raise rank by one")
    return HasseDiagram(inc.n, list(ups), ranks, arcs, inc.far_face)


def selective_generation(inc: IncidenceMatrix, max_dim: Optional[int] = None,
                         budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Hasse diagram of the bounded faces, generated without ever visiting
    an unbounded one.

    Needs far-face data on `inc`; a cover is expanded only when its vertex
    set misses the far face.  With `max_dim` set, only faces of rank up to
    max_dim are emitted (the skeleton cutoff).  More than `budget` faces to
    expand raise BudgetExceededError.
    """
    if inc.far_face is None:
        raise InputError("far face required for selective generation")
    return _cover_search(inc, inc.far_face, max_dim, budget)


def full_face_lattice(inc: IncidenceMatrix, budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Complete face lattice of a polytope, including the improper top face
    (whose node carries the full vertex set) above the faces with no
    cover, the facets.  Ignores far-face data.  More than `budget` faces
    to expand raise BudgetExceededError."""
    hd = _cover_search(inc, 0, None, budget)
    expanded = {lo for lo, _ in hd.arcs}
    coatoms = [i for i in range(hd.node_count()) if i not in expanded]
    ranks = {hd.ranks[i] for i in coatoms}
    if len(ranks) != 1:
        raise InternalError("facets of a polytope must share one rank")
    top = hd.node_count()
    hd.masks.append(inc.all_mask)
    hd.ranks.append(ranks.pop() + 1)
    hd.arcs += [(i, top) for i in coatoms]
    return hd


def filter_bounded(hd: HasseDiagram, far: int, max_dim: Optional[int] = None) -> HasseDiagram:
    """Bounded subdiagram of a full face lattice: drops the improper top
    node (the one holding all n vertices), every face meeting `far` and,
    with `max_dim` set, every face of rank above it, with incident arcs."""
    top = (1 << hd.n) - 1
    kept = [i for i, (mask, rank) in enumerate(zip(hd.masks, hd.ranks))
            if mask != top and not mask & far and (max_dim is None or rank <= max_dim)]
    position = [None] * hd.node_count()
    for new, old in enumerate(kept):
        position[old] = new
    arcs = sorted((position[lo], position[hi]) for lo, hi in hd.arcs
                  if position[lo] is not None and position[hi] is not None)
    return HasseDiagram(hd.n, [hd.masks[i] for i in kept], [hd.ranks[i] for i in kept],
                        arcs, far)


def relabel_vertices(hd: HasseDiagram, index_map: dict[int, int], n: int,
                     far_face: Optional[int] = None) -> HasseDiagram:
    """Re-express all vertex sets through index_map (old index -> new index)."""
    masks = [mask_from_indices(index_map[i] for i in indices_from_mask(mask))
             for mask in hd.masks]
    return HasseDiagram(n, masks, list(hd.ranks), list(hd.arcs), far_face)
