"""Shared helpers: cached pipeline runs and small sample polyhedra."""

import random
from fractions import Fraction
from functools import lru_cache

from polybound.incidence import IncidenceMatrix
from polybound.pipeline import closure_data, make_instance
from polybound.polyhedron import HRep


@lru_cache(maxsize=None)
def instance(family, *params):
    """(label, hrep, closure, closure vrep, incidences with far face);
    cached because several test modules revisit the same benchmarks."""
    label, h, pre = make_instance(family, params)
    clo, vbar, inc = closure_data(h, pre)
    return label, h, clo, vbar, inc


def unit_square() -> HRep:
    return HRep.from_rows(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])


def quadrant() -> HRep:
    return HRep.from_rows(2, [((-1, 0), 0), ((0, -1), 0)])


def strip() -> HRep:
    # 0 <= y <= 1, x >= 0: two vertices joined by a bounded edge, one ray
    return HRep.from_rows(2, [((0, -1), 0), ((0, 1), 1), ((-1, 0), 0)])


def segment() -> HRep:
    # {x = 0, 0 <= y <= 1}: a polytope, but not full-dimensional
    return HRep.from_rows(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


def ray() -> HRep:
    # {x = 0, y >= 0}: pointed and unbounded, but not full-dimensional
    return HRep.from_rows(2, [((1, 0), 0), ((-1, 0), 0), ((0, -1), 0)])


def cube3() -> HRep:
    rows = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        rows.append((tuple(e), 1))
        rows.append((tuple(-x for x in e), 0))
    return HRep.from_rows(3, rows)


def square_pyramid() -> HRep:
    # apex (0,0,1) lies on four facets: not simple
    return HRep.from_rows(3, [((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1),
                              ((0, 1, 1), 1), ((0, -1, 1), 1)])


def square_incidence() -> IncidenceMatrix:
    # vertices 0..3 in cyclic order, facets {01},{12},{23},{30}
    return IncidenceMatrix(4, (0b0011, 0b0110, 0b1100, 0b1001))


def random_pointed_hrep(rng: random.Random, d: int, extra_rows: int) -> HRep:
    """Random nonempty pointed unbounded polyhedron.

    Base rows x_i >= c_i keep it pointed; every extra row is nonpositive in
    one fixed coordinate so a coordinate direction stays in the recession
    cone, and its right side is slack at the base corner so the region
    stays nonempty.
    """
    corner = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
    rows = []
    for i in range(d):
        a = [Fraction(0)] * d
        a[i] = Fraction(-1)
        rows.append((tuple(a), -corner[i]))
    open_coord = rng.randrange(d)
    for _ in range(extra_rows):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        a[open_coord] = Fraction(rng.randint(-3, 0))
        if all(x == 0 for x in a):
            a[(open_coord + 1) % d] = Fraction(1)
        b = sum(ai * ci for ai, ci in zip(a, corner)) + rng.randint(1, 4)
        rows.append((tuple(a), Fraction(b)))
    return HRep.from_rows(d, rows)
