"""Closure operator, cover generation, and the bounded-subcomplex
algorithms that work on a closure's incidence matrix.

The face poset is explored bottom-up from the empty face.  Covers of a
closed vertex set H are generated as Kaibel & Pfetsch do ("Computing the
face lattice of a polytope from its vertex-facet incidences", Comput.
Geom. 23, 2002): the facets through H + {v} are F(H) & col(v), v's key,
and the closure of a key covers H exactly when no other key strictly
contains it.  The keys one facet short of F(H) are read off prefix and
suffix ANDs of F(H)'s rows, as Kaibel & Pfetsch drop one facet at a
vertex; the other covers off the vertices that lie on every facet those
drop, grouped by key.  So the work per face grows with |F(H)| and those
vertices, not with all n.  The first suffix AND, over all of F(H)'s
rows, is the meet of F(H), and checks that H itself is closed.  A
vertex's edges are its covers with two vertices.
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

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate, compress
from operator import and_
from typing import Callable, Optional

from .errors import InputError, InternalError
from .incidence import IncidenceMatrix, bit_flags, indices_from_mask, mask_from_indices
from .incidence import closure_mask  # noqa: F401  (perfbench's tracer wraps bounded.closure_mask)
from .polyhedron import DEFAULT_BUDGET, meter


def facet_set(mask: int, inc: IncidenceMatrix) -> int:
    """F(mask): the row-set mask of the facets containing `mask`."""
    return reduce(and_, map(inc.column_masks.__getitem__, indices_from_mask(mask)),
                  (1 << inc.m) - 1)


def covers(mask: int, inc: IncidenceMatrix) -> list[int]:
    """Faces covering the set `mask`: the inclusion-minimal closures
    cl(mask + {v}) over vertices v outside mask, by decreasing key size,
    then by lowest new vertex.

    A set that is not closed has one cover, its closure meet(F(mask)),
    the AND of F(mask)'s rows and so the first of their suffix ANDs.
    Else v outside mask has the key F(mask) & col(v), and v is in meet(K)
    iff v's key contains K.  A closure is minimal iff all its new vertices
    share its key, so iff that key K is maximal: in no other key.  The
    keys one facet short of F(mask) are maximal: for each facet i of F,
    meet(F - {i}), read off prefix and suffix ANDs of F's rows, is a cover
    with key F - {i} unless it is mask itself.  With D the facets that
    give one, a key lies in a one-drop key iff it misses a facet of D, so
    every other maximal key holds D, and only the vertices of meet(D) can
    have one.  Only those are grouped by key: a maximal K's closure is
    mask | groups[K], as only K's own vertices hold K.  Their keys are
    sorted by size, largest first, and kept unless they lie in a key kept
    before; keys of one size never do.  A key of 0 (the whole polytope)
    is none, so with fewer than two facets there is no cover."""
    facets = facet_set(mask, inc)
    rows = list(compress(inc.row_masks, bit_flags(facets)))
    # meet(F - {i}) is the AND of the rows before i and of the rows after it
    suffix = list(accumulate(reversed(rows), and_, initial=inc.all_mask))[::-1]
    closed = suffix[0]  # meet(F), all_mask when F is 0
    if closed != mask:
        return [closed] if facets else []
    if len(rows) < 2:
        return []
    drops = list(map(and_, accumulate(rows, and_, initial=inc.all_mask), suffix[1:]))
    gave = list(map(mask.__ne__, drops))  # per facet of F: is it in D
    # g - mask holds g's new vertices, and x & -x is x's lowest bit
    found = sorted(compress(drops, gave), key=lambda g: (g - mask) & (mask - g))
    if len(found) == len(rows):  # D = F: every other key misses a facet of D
        return found
    on_dropped = reduce(and_, compress(rows, gave), inc.all_mask) & ~mask  # meet(D) - mask
    cols = inc.column_masks
    groups: dict[int, int] = {}  # key -> its vertices, in first-occurrence order
    for v in compress(range(inc.n), bit_flags(on_dropped)):
        key = facets & cols[v]
        groups[key] = groups.get(key, 0) | 1 << v
    groups.pop(0, None)
    keys = sorted(groups, key=int.bit_count, reverse=True)
    while keys and keys[-1].bit_count() < keys[0].bit_count():
        key = keys[0]
        found.append(mask | groups[key])
        keys = list(filter((~key).__and__, keys))
    return found + [mask | groups[key] for key in keys]  # keys of one size: none lies in another


def polytope_edges(inc: IncidenceMatrix) -> list[tuple[int, int]]:
    """All edges of a polytope from incidences alone, sorted pairs (u, w)
    with u < w: {u,w} is an edge iff some facet holds both and the meet of
    those facets is {u,w}.  No closure lies strictly between {u} and an
    edge, so u's edges are its covers with two vertices; where {u} is not
    closed, its one cover meet(col(u)) is an edge exactly when it has two
    vertices.  So this holds on any 0/1 matrix, with one `covers` call
    per vertex."""
    edges = []
    for u in range(inc.n):
        bit = 1 << u
        for cover in covers(bit, inc):
            w = cover ^ bit
            if w > bit and cover.bit_count() == 2:
                edges.append((u, w.bit_length() - 1))
    return sorted(edges)


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
                  keep: Optional[Callable[[int], int]] = None) -> HasseDiagram:
    """Search of the faces from the empty one along covers, in order of
    cardinality, never pushing a cover that meets `far`.  A popped face is
    emitted only when keep(face) is nonzero (always, without `keep`), and
    is then expanded unless its rank is max_dim or more.  Each face expanded
    charges one unit to a `meter`, so expanding a (budget+1)-th face raises
    BudgetExceededError.  Nodes are listed in pop order, and
    the arcs are read off the admitted covers at the end."""
    rank_of = {0: -1}
    heap = [(0, 0, 0)]  # (cardinality, discovery order, mask)
    ups: dict[int, list[int]] = {}
    charge = meter(budget, "the face search")
    while heap:
        face = heappop(heap)[2]
        if keep is not None and not keep(face):
            continue
        ups[face] = admitted = []
        rank = rank_of[face]
        if max_dim is not None and rank >= max_dim:
            continue
        charge(1)
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
