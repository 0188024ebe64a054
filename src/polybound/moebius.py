"""Bounded subcomplex from the incidences of the unbounded polyhedron alone.

When no far-face information is available, boundedness of a face is read
off the Moebius function of the poset of vertex sets of faces (all
intersections of incidence rows, plus the empty set): an element is the
vertex set of a bounded face exactly when its Moebius number is nonzero.

`moebius_generation` is the cover search of `bounded` with no far face and
the Moebius number as its test of boundedness.  The search pops elements
in order of cardinality, a linear extension of containment, so when an
element is popped every element strictly below it has been processed.
Its Moebius number is then minus the sum over its down-set of bounded
elements (unbounded elements contribute zero, and are neither emitted nor
expanded), and that down-set is walked from the empty face along the
covers the bounded elements admitted: every face of a bounded face is
bounded, so each bounded element below is reached through bounded ones.
The budget counts the faces expanded, one `covers` call each; under
`max_dim` they are not a prefix of the emitted list, since a face of rank
max_dim can pop before a face of lower rank.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .errors import InputError
from .bounded import HasseDiagram, _cover_search
from .bounded import covers  # noqa: F401  (perfbench's tracer wraps moebius.covers)
from .incidence import IncidenceMatrix
from .polyhedron import DEFAULT_BUDGET


def is_bounded(face: int, ups: dict[int, list[int]], mu: dict[int, int]) -> bool:
    """Whether `face` has a nonzero Moebius number, which is then stored in
    `mu`.  The number is minus the sum of mu over the bounded elements
    strictly below face, reached from the empty face along `ups` through
    elements inside face; `mu` holds the nonzero numbers of the elements
    popped before face, and `ups` the covers each of them admitted.  Exact
    once every element strictly below face has been popped."""
    number = 1
    if face:
        outside = ~face
        seen = {0}
        stack = [0]
        while stack:
            for up in ups[stack.pop()]:
                if up not in seen and not up & outside and up in mu:
                    seen.add(up)
                    stack.append(up)
        number = -sum(map(mu.__getitem__, seen))
    if number:
        mu[face] = number
    return number != 0


def moebius_generation(inc: IncidenceMatrix, max_dim: Optional[int] = None,
                       budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Hasse diagram of the bounded faces from the incidences of the
    unbounded polyhedron, without any far-face data.  With `max_dim`,
    faces above that rank are not emitted.  More than `budget` faces to
    expand raise BudgetExceededError."""
    if inc.far_face is not None:
        raise InputError("far-face data present; restrict to near vertices first")
    return _cover_search(inc, 0, max_dim, budget, partial(is_bounded, mu={}))
