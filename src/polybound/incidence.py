"""Vertex-facet incidence matrices and derived combinatorial data.

Vertex sets are stored as Python int bitmasks (bit v set <=> vertex v in
the set), which makes the set operations used by the face enumeration
algorithms exact and fast.  Facet sets are bitmasks over rows, and the
meet of a facet set (the AND of its rows) is read from a byte table of
precomputed row ANDs, the "Four Russians" trick of Arlazarov, Dinic,
Kronrod & Faradzev (1970).  The incidences and the far face are read off
a `VRep`'s integer points as they are held: a row's slack at num/den is
the integer b*den - a.num.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, getitem, mul
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .linalg import rank  # noqa: F401  (perfbench's tracer wraps incidence.rank)
from .polyhedron import HRep, VRep
from .rational import format_point


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """One 0/1 byte per bit of mask, lowest bit first: a selector for
    `itertools.compress`, which splits a dense mask's bits in C."""
    return bin(mask)[:1:-1].encode().translate(_FLAG_BYTES)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Facet x vertex 0/1 matrix; rows are vertex-set bitmasks.

    `far_face` is an optional bitmask of the vertices on the far face; it
    is None when no unbounded-direction data is attached.  An empty far
    face is refused: the polyhedron behind it has no rays, so it is bounded.
    So are a far face holding every vertex, which is not a proper face, and
    a far face that is not a face, one that no facet holds or that is
    smaller than the meet of the facets holding it.
    """

    n: int
    row_masks: tuple[int, ...]
    far_face: Optional[int] = None

    def __post_init__(self):
        full = self.all_mask
        for row in self.row_masks:
            if row & ~full:
                raise InputError("row mask references a vertex out of range")
            if row == 0:
                raise InputError("every facet must contain at least one vertex")
        far = self.far_face
        if far is None:
            return
        if far & ~full:
            raise InputError("far face references a vertex out of range")
        if far == 0:
            raise InputError("bounded polyhedron: without rays the whole face lattice is bounded")
        holding = [row for row in self.row_masks if far & ~row == 0]
        if not holding or reduce(and_, holding) != far:
            raise InputError("far face is not a face: it is not the meet of the facets "
                             "holding it")
        if far == full:
            raise InputError("far face holds every vertex: it is not a proper face")

    @property
    def m(self) -> int:
        return len(self.row_masks)

    @property
    def alpha(self) -> int:
        return sum(row.bit_count() for row in self.row_masks)

    @cached_property
    def all_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per vertex, a bitmask over rows: which facets contain it."""
        cols = [0] * self.n
        for i, row in enumerate(self.row_masks):
            for v in indices_from_mask(row):
                cols[v] |= 1 << i
        return tuple(cols)

    @cached_property
    def row_ands(self) -> tuple[tuple[int, ...], ...]:
        """Per byte j of a row-set mask, the meets of rows 8j..8j+7:
        `row_ands[j][b]` is the AND of the rows that byte value b selects,
        all_mask for b = 0.  When 8 does not divide m, the last table has
        only the 2**(m % 8) entries that a row-set mask can select."""
        tables = []
        for j in range(0, self.m, 8):
            table = [self.all_mask]
            for row in self.row_masks[j:j + 8]:
                table += [t & row for t in table]
            tables.append(tuple(table))
        return tuple(tables)

    def meet(self, key: int) -> int:
        """AND of the rows in the row-set mask `key`, one table lookup per
        byte of key; all_mask when key is 0."""
        return reduce(and_, map(getitem, self.row_ands,
                                key.to_bytes(len(self.row_ands), "little")), self.all_mask)

    def with_far_face(self, far: Iterable[int]) -> "IncidenceMatrix":
        """This matrix with the far face `far`, keeping the cached
        `column_masks` and `row_ands`: they depend only on n and the rows."""
        inc = IncidenceMatrix(self.n, self.row_masks, mask_from_indices(far))
        inc.__dict__.update({name: self.__dict__[name] for name in ("column_masks", "row_ands")
                             if name in self.__dict__})
        return inc


def closure_mask(mask: int, rows: Sequence[int]) -> Optional[int]:
    """Intersection of all rows containing `mask`; None when no row does
    (the improper face, "Whole")."""
    acc = None
    for row in rows:
        if mask & ~row == 0:
            acc = row if acc is None else acc & row
            if acc == mask:  # cannot shrink further
                return acc
    return acc


def compute_incidences(h: HRep, v: VRep) -> IncidenceMatrix:
    """Incidence matrix of the polytope h over its exact vertex set v.

    Contract: h describes a full-dimensional polytope and v holds every one
    of its vertices and no rays (close an unbounded polyhedron first).  A
    row's incident vertices are read from exact integer slacks; the row is
    a facet iff it touches at least d vertices and no other row's vertex
    set strictly contains its own.  That test is valid only on
    full-dimensional polytopes, so a nonzero row tight at every vertex is
    refused as "not full-dimensional"; rows 0.x <= b are skipped.
    Duplicate facet rows are merged, so output rows biject with facets, in
    the order of their first row.  h and v must share one dimension, and v
    must hold a vertex.  A point of v is refused unless the facets through
    it meet in it alone: that holds at every vertex when v holds all of
    them, and fails at a point of v that is no vertex.
    """
    if v.dim != h.dim:
        raise InputError(f"V-rep dimension {v.dim} does not match H-rep dimension {h.dim}")
    if v.directions:
        raise InputError("incidences need a polytope; close the polyhedron first")
    if not v.points:
        raise InputError("V-rep has no vertex")
    masks = []
    for *a_int, b_int in h.integer_rows:
        mask = 0
        for i, (num, den) in enumerate(v.points):
            slack = b_int * den - sum(map(mul, a_int, num))
            if slack < 0:
                raise InputError("point outside polyhedron")
            if slack == 0:
                mask |= 1 << i
        if any(a_int):
            masks.append(mask)
    if (1 << len(v.points)) - 1 in masks:
        raise InputError("not full-dimensional")
    candidates = list(dict.fromkeys(m for m in masks if m.bit_count() >= h.dim))
    facets = [m for m in candidates
              if not any(m != other and m & other == m for other in candidates)]
    inc = IncidenceMatrix(len(v.points), tuple(facets))
    k = unclosed_vertex(inc)
    if k is not None:
        point = ", ".join(format_point(*v.points[k]))
        raise InputError(f"V-rep is not the vertex set of the H-rep: the facets "
                         f"through ({point}) do not meet in it alone")
    return inc


def unclosed_vertex(inc: IncidenceMatrix) -> Optional[int]:
    """The first vertex whose facets do not meet in it alone, or None.  On
    a polytope's incidences every vertex is the meet of its facets."""
    return next((k for k, col in enumerate(inc.column_masks)
                 if not col or inc.meet(col) != 1 << k), None)


def far_face_vertices(v: VRep) -> set[int]:
    """Indices of the closure vertices on the far hyperplane sum(x) = 1,
    the one far-face rule: each vertex's numerators over one denominator
    sum to that denominator."""
    return {i for i, (num, den) in enumerate(v.points) if sum(num) == den}


def is_simple(inc: IncidenceMatrix, d: int) -> bool:
    """True iff every vertex lies on exactly d facets."""
    return all(col.bit_count() == d for col in inc.column_masks)


def restrict_to_near(inc: IncidenceMatrix) -> tuple[IncidenceMatrix, tuple[int, ...]]:
    """Incidences of the unbounded polyhedron behind a closure's matrix.

    Drops the far-face vertex columns and every row contained in the far
    face (the facet at infinity).  Returns the restricted matrix (far_face
    unset) and the original indices of the surviving vertex columns.
    """
    if inc.far_face is None:
        raise InputError("far-face data required to restrict incidences")
    near = [i for i in range(inc.n) if not inc.far_face >> i & 1]
    position = {orig: new for new, orig in enumerate(near)}
    rows = []
    for row in inc.row_masks:
        if row & ~inc.far_face == 0:
            continue
        rows.append(mask_from_indices(position[i] for i in indices_from_mask(row)
                                      if i in position))
    return IncidenceMatrix(len(near), tuple(rows)), tuple(near)
