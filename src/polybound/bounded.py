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
part alone.  One breadth-first search, `_cover_search`, serves both the
main algorithm (given the far face) and the full face lattice (given
far = 0).  Faces are looked up by their vertex bitmask in a dict, whose
ids follow discovery order.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem
from typing import Optional

from .errors import InputError, InternalError
from .incidence import IncidenceMatrix, indices_from_mask
from .incidence import closure_mask  # noqa: F401  (perfbench's tracer wraps bounded.closure_mask)

#: Distinguished "improper face" result of the closure operator.
WHOLE = None


def facet_set(mask: int, inc: IncidenceMatrix) -> int:
    """F(mask): the row-set mask of the facets containing `mask`."""
    return reduce(and_, map(inc.column_masks.__getitem__, indices_from_mask(mask)),
                  (1 << inc.m) - 1)


def closure(mask: int, inc: IncidenceMatrix) -> Optional[int]:
    """Intersection of the facet rows containing `mask`, the meet of
    F(mask); WHOLE (None) when no facet contains it."""
    facets = facet_set(mask, inc)
    return inc.meet(facets) if facets else WHOLE


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
    del counts[0]  # no facet holds mask + {v}: its closure is WHOLE
    minimal = []
    for key, count in counts.items():
        if count:  # a closed mask leaves its own facet set with none
            # inc.meet(key) inlined: a call per key cost (24,4) selective ~15 %
            face = reduce(and_, map(getitem, row_ands, key.to_bytes(nbytes, "little")))
            if face.bit_count() - inside == count:
                minimal.append(face)
    return minimal


@dataclass(frozen=True)
class HasseNode:
    id: int
    vertex_set: int
    rank: int


@dataclass
class HasseDiagram:
    """Ranked DAG of faces.  A node's id is its position in `nodes`, and
    node 0 is the empty face at rank -1."""

    n: int
    nodes: list[HasseNode]
    arcs: list[tuple[int, int]]
    far_face: Optional[int] = None

    def node_count(self) -> int:
        return len(self.nodes)

    def f_vector(self) -> list[int]:
        """Face counts by rank, rank 0 upward (the empty face is excluded)."""
        top = max((nd.rank for nd in self.nodes), default=-1)
        hist = [0] * (top + 1)
        for nd in self.nodes:
            if nd.rank >= 0:
                hist[nd.rank] += 1
        return hist

    def canonical(self):
        """Id-renaming-invariant form: sorted (rank, vertices) plus arcs as
        vertex-tuple pairs.  Two diagrams are isomorphic as ranked DAGs iff
        their canonical forms are equal (vertex sets are unique per face)."""
        nodes = self.nodes
        faces = sorted((nd.rank, indices_from_mask(nd.vertex_set)) for nd in nodes)
        arcs = sorted((indices_from_mask(nodes[lo].vertex_set),
                       indices_from_mask(nodes[hi].vertex_set)) for lo, hi in self.arcs)
        return tuple(faces), tuple(arcs)


def _cover_search(inc: IncidenceMatrix, far: int,
                  max_dim: Optional[int] = None) -> HasseDiagram:
    """Breadth-first search of the faces from the empty one along covers,
    never stepping onto a face that meets `far` and expanding no face of
    rank max_dim or more.  Arcs are listed in discovery order."""
    ids = {0: 0}
    nodes = [HasseNode(0, 0, -1)]
    arcs: list[tuple[int, int]] = []
    queue = deque([(0, 0)])
    while queue:
        nid, face = queue.popleft()
        rank = nodes[nid].rank
        if max_dim is not None and rank >= max_dim:
            continue
        # `covers` is read through the module, so perfbench's tracer counts each call
        for cover in covers(face, inc):
            if cover & far:
                continue
            gid = ids.get(cover)
            if gid is None:
                gid = ids[cover] = len(nodes)
                nodes.append(HasseNode(gid, cover, rank + 1))
                queue.append((gid, cover))
            elif nodes[gid].rank != rank + 1:
                raise InternalError("cover arcs must raise rank by one")
            arcs.append((nid, gid))
    return HasseDiagram(inc.n, nodes, arcs, inc.far_face)


def selective_generation(inc: IncidenceMatrix, max_dim: Optional[int] = None) -> HasseDiagram:
    """Hasse diagram of the bounded faces, generated without ever visiting
    an unbounded one.

    Needs far-face data on `inc`; a cover is expanded only when its vertex
    set misses the far face.  With `max_dim` set, only faces of rank up to
    max_dim are emitted (the skeleton cutoff).
    """
    if inc.far_face is None:
        raise InputError("far face required; use moebius_generation")
    return _cover_search(inc, inc.far_face, max_dim)


def full_face_lattice(inc: IncidenceMatrix) -> HasseDiagram:
    """Complete face lattice of a polytope, including the improper top face
    (whose node carries the full vertex set) above the faces with no
    cover, the facets.  Ignores far-face data."""
    hd = _cover_search(inc, 0)
    expanded = {lo for lo, _ in hd.arcs}
    coatoms = [nd for nd in hd.nodes if nd.id not in expanded]
    ranks = {nd.rank for nd in coatoms}
    if len(ranks) != 1:
        raise InternalError("facets of a polytope must share one rank")
    top = len(hd.nodes)
    hd.nodes.append(HasseNode(top, inc.all_mask, ranks.pop() + 1))
    hd.arcs += [(nd.id, top) for nd in coatoms]
    return hd


def filter_bounded(hd: HasseDiagram, far: int, max_dim: Optional[int] = None) -> HasseDiagram:
    """Bounded subdiagram of a full face lattice: drops the improper top
    node (the one holding all n vertices), every face meeting `far` and,
    with `max_dim` set, every face of rank above it, with incident arcs."""
    top = (1 << hd.n) - 1
    keep = {}
    nodes = []
    for nd in hd.nodes:
        if (nd.vertex_set != top and not nd.vertex_set & far
                and (max_dim is None or nd.rank <= max_dim)):
            keep[nd.id] = len(nodes)
            nodes.append(HasseNode(len(nodes), nd.vertex_set, nd.rank))
    arcs = sorted((keep[lo], keep[hi]) for lo, hi in hd.arcs
                  if lo in keep and hi in keep)
    return HasseDiagram(hd.n, nodes, arcs, far)


def relabel_vertices(hd: HasseDiagram, index_map: dict[int, int], n: int,
                     far_face: Optional[int] = None) -> HasseDiagram:
    """Re-express all vertex sets through index_map (old index -> new index)."""
    nodes = []
    for nd in hd.nodes:
        mask = 0
        for i in indices_from_mask(nd.vertex_set):
            mask |= 1 << index_map[i]
        nodes.append(HasseNode(nd.id, mask, nd.rank))
    return HasseDiagram(n, nodes, list(hd.arcs), far_face)
