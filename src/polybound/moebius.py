"""Bounded subcomplex from the incidences of the unbounded polyhedron alone.

When no far-face information is available, boundedness of a face is read
off the Moebius function of the poset of vertex sets of faces (all
intersections of incidence rows, plus the empty set): an element is the
vertex set of a bounded face exactly when its Moebius number is nonzero.

`moebius_generation` is the cover search of `bounded` with no far face and
the Moebius number as its test of boundedness.  The search pops elements
in order of cardinality, a linear extension of containment, so when an
element is popped every element strictly below it has been processed.
Its Moebius number is then minus the sum over the bounded elements
strictly below it (unbounded elements contribute zero, and are neither
emitted nor expanded).  Each bounded element holds one bit, in pop order,
in a bitset per facet it lies on and in a bitset per Moebius number.  A
popped element x other than the empty one is closed, so y lies inside x
exactly when y is on every facet of F(x): the elements below x are the AND
of those facets' bitsets, and the sum is a popcount per Moebius number.
The budget counts the faces expanded, one `covers` call each; under
`max_dim` they are not a prefix of the emitted list, since a face of rank
max_dim can pop before a face of lower rank.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress
from operator import and_
from typing import Optional

from .errors import InputError
from .bounded import HasseDiagram, _cover_search, facet_set
from .bounded import covers  # noqa: F401  (perfbench's tracer wraps moebius.covers)
from .incidence import IncidenceMatrix, bit_flags, indices_from_mask
from .polyhedron import DEFAULT_BUDGET


def moebius_number(face: int, inc: IncidenceMatrix, holds: list[int],
                   numbers: dict[int, int]) -> int:
    """The Moebius number of the closed set `face`, registered when
    nonzero.  holds[i] has the bit of each element registered so far that
    lies on facet i, and holds[m], a row that every element lies on, all
    of them; `numbers` maps each nonzero number to the bits of its
    elements.  Exact once every element strictly below face has been
    registered, in any order, with holds = [0] * (m + 1) at the start."""
    rows = facet_set(face, inc) | 1 << inc.m
    below = reduce(and_, compress(holds, bit_flags(rows)))
    number = -sum(value * (below & elements).bit_count()
                  for value, elements in numbers.items()) if face else 1
    if number:
        bit = holds[-1] + 1  # the bits taken so far are the low ones
        numbers[number] = numbers.get(number, 0) | bit
        for i in indices_from_mask(rows):
            holds[i] |= bit
    return number


def moebius_generation(inc: IncidenceMatrix, max_dim: Optional[int] = None,
                       budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Hasse diagram of the bounded faces from the incidences of the
    unbounded polyhedron, without any far-face data.  With `max_dim`,
    faces above that rank are not emitted.  More than `budget` faces to
    expand raise BudgetExceededError."""
    if inc.far_face is not None:
        raise InputError("far-face data present; restrict to near vertices first")
    return _cover_search(inc, 0, max_dim, budget,
                         partial(moebius_number, inc=inc, holds=[0] * (inc.m + 1), numbers={}))
