"""Face numbers of simple polyhedra via an oriented vertex-edge graph.

Orienting the edges of the closure polytope along a generic objective that
is larger on every far-face vertex than on every ordinary vertex makes
face counting local: each face has a unique source and a unique sink, the
sink is a far vertex exactly for the faces that meet the far face, and at
a simple vertex the k-subsets of in-arcs (out-arcs) biject with the
k-faces having that vertex as sink (source).

Counting sinks over the ordinary vertices therefore yields the f-vector of
the bounded subcomplex, and counting sources yields the f-vector of the
unbounded polyhedron itself.  Only the ordinary vertices need to be
simple, so closures whose far vertices are degenerate are fine.

The objective is fixed: sum(x), ties broken lexicographically by the
coordinates.  For small enough eps > 0 the linear functional
sum(x) + eps*x_1 + eps^2*x_2 + ... + eps^d*x_d orders any finite set of
distinct points exactly as the keys (sum(p), p) do, so it is generic on
the vertices (`vertex_key`).  The far face of a closure lies on
sum(x) = 1 and every other vertex below it, so the far vertices come out
on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import InputError, InternalError
from .bounded import polytope_edges
from .incidence import IncidenceMatrix, is_simple, indices_from_mask
from .polyhedron import VRep, numerators_over_lcm
from .rational import format_point


@dataclass(frozen=True)
class HVector:
    """Degree histograms under the fixed order of `f_vector_simple`:
    `h[k]` counts ordinary vertices of out-degree k, `h_inf[k]` far-face
    vertices of in-degree k.  `h` does not depend on the order; `h_inf`
    does when the far face is not simple."""

    h: tuple[int, ...]
    h_inf: tuple[int, ...]


@dataclass(frozen=True)
class FVector:
    f: tuple[int, ...]
    total: int  # sum of face counts plus the empty face

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FVector":
        return cls(tuple(counts), sum(counts) + 1)


def vertex_key(p: tuple) -> tuple:
    """Position of a closure point in the fixed order: sum(x), ties broken
    lexicographically by the coordinates.  p holds the coordinates, or
    their numerators over a denominator shared by every point compared."""
    return (sum(p), p)


def f_vector_simple(inc: IncidenceMatrix, coords: VRep,
                    d: int) -> tuple[FVector, FVector, HVector]:
    """(f-vector of the bounded subcomplex, f-vector of the polyhedron,
    degree histograms) for a simple pointed polyhedron given its closure's
    incidences (far face attached) and vertex coordinates.  Every ordinary
    vertex must lie on d facets and have d edges, as a simple vertex of a
    polytope does; incidences that break either are refused."""
    if inc.far_face is None:
        raise InputError("far-face data required")
    if d != coords.dim:
        raise InputError(f"dimension {d} does not match V-rep dimension {coords.dim}")
    if inc.n != len(coords.points):
        raise InputError("incidences and coordinates disagree on vertex count")
    far = set(indices_from_mask(inc.far_face))
    near = [i for i in range(inc.n) if i not in far]
    if any(inc.column_masks[i].bit_count() != d for i in near):
        raise InputError("not simple")

    keys = [vertex_key(p) for p in numerators_over_lcm(coords.points)]
    # IncidenceMatrix refuses an empty far face and one holding every vertex
    if min(keys[i] for i in far) <= max(keys[i] for i in near):
        raise InputError("far face is not on top")
    out_deg = [0] * inc.n
    in_deg = [0] * inc.n
    for u, v in polytope_edges(inc):
        lo, hi = (u, v) if keys[u] < keys[v] else (v, u)
        out_deg[lo] += 1
        in_deg[hi] += 1
    for i in near:
        degree = in_deg[i] + out_deg[i]
        if degree != d:
            point = ", ".join(format_point(*coords.points[i]))
            raise InputError(f"not a polytope's incidences: vertex ({point}) is on {d} "
                             f"facets, but its edge count is {degree}")

    # near vertices are simple, so their degrees stay <= d; far vertices of a
    # non-simple closure can exceed d, so the far histograms size to fit
    width = max([d] + in_deg + out_deg) + 1
    h = [0] * (d + 1)
    h_inf = [0] * width
    sink_near = [0] * (d + 1)
    out_far = [0] * width
    for i in range(inc.n):
        if i in far:
            h_inf[in_deg[i]] += 1
            out_far[out_deg[i]] += 1
        else:
            h[out_deg[i]] += 1
            sink_near[in_deg[i]] += 1

    f_all = [sum(comb(i, k) * h[i] for i in range(k, d + 1)) for k in range(d + 1)]
    f_bounded = [sum(comb(i, k) * sink_near[i] for i in range(k, d + 1))
                 for k in range(d + 1)]
    if is_simple(inc, d):
        # with a fully simple closure the far in/out histograms give the
        # same bounded counts; disagreement means an orientation bug
        alt = [sum(comb(i, k) * (h[i] + out_far[i] - h_inf[i]) for i in range(k, d + 1))
               for k in range(d + 1)]
        if alt != f_bounded:
            raise InternalError("degree bookkeeping mismatch on simple closure")
    return (FVector.from_counts(f_bounded), FVector.from_counts(f_all),
            HVector(tuple(h), tuple(h_inf)))
