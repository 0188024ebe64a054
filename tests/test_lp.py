import random
from fractions import Fraction

import pytest

from polybound.errors import InputError
from polybound.linalg import dot
from polybound.lp import LpStatus, lp_solve, ray_step
from polybound.polyhedron import HRep, enumerate_vertices_bruteforce


def test_max_on_segment():
    out = lp_solve([[1], [-1]], [1, 0], [1])
    assert out.status is LpStatus.OPTIMAL
    assert out.point == (1,)
    assert out.objective == 1


def test_unbounded():
    assert lp_solve([[-1]], [0], [1]).status is LpStatus.UNBOUNDED


def test_infeasible():
    assert lp_solve([[1], [-1]], [0, -1], [0]).status is LpStatus.INFEASIBLE


def test_min_is_negated_max():
    rng = random.Random(13)
    for _ in range(25):
        a, b, c = _random_bounded_lp(rng, 2)
        mx = lp_solve(a, b, c, "max")
        mn = lp_solve(a, b, [-x for x in c], "min")
        assert mx.status is mn.status is LpStatus.OPTIMAL
        assert mn.objective == -mx.objective


def test_optimal_point_is_feasible_and_attains_objective():
    rng = random.Random(17)
    for _ in range(25):
        a, b, c = _random_bounded_lp(rng, 3)
        out = lp_solve(a, b, c)
        assert out.status is LpStatus.OPTIMAL
        assert all(dot(row, out.point) <= bi for row, bi in zip(a, b))
        assert dot(c, out.point) == out.objective


def test_degenerate_optimum_lands_on_vertex():
    # minimizing y over a triangle whose whole bottom edge is optimal
    out = lp_solve([[0, -1], [1, 1], [-1, 1]], [0, 1, 1], [0, -1])
    assert out.point in {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))}


def test_feasibility_of_pointed_cone_returns_vertex():
    out = lp_solve([[-1, 0], [0, -1]], [0, 0], [0, 0])
    assert out.status is LpStatus.OPTIMAL
    assert out.point == (0, 0)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        lp_solve([[1, 0]], [1], [1])
    with pytest.raises(InputError):
        lp_solve([[1]], [1, 2], [1])


def test_ray_step_ties_and_recession():
    rows = [[1, 0], [0, 1], [1, 1], [-1, 0]]
    b = [1, 1, 2, 0]
    # from the origin along (1, 1) rows 0, 1 and 2 all block at t = 1
    assert ray_step(rows, b, [0, 0], [1, 1]) == (1, [0, 1, 2])
    assert ray_step(rows, b, [0, 0], [1, 0]) == (1, [0])
    # row 3 is tight at the origin: a zero step
    assert ray_step(rows, b, [0, 0], [-1, 0]) == (0, [3])
    # nothing blocks a recession direction
    assert ray_step(rows, b, [0, 0], [0, -1]) == (None, [])


def test_optimum_matches_bruteforce_vertices():
    rng = random.Random(23)
    for _ in range(20):
        a, b, c = _random_bounded_lp(rng, 2)
        out = lp_solve(a, b, c)
        h = HRep.from_rows(2, list(zip(a, b)))
        best = max(dot(c, v) for v in enumerate_vertices_bruteforce(h).vertices)
        assert out.objective == best


def _random_bounded_lp(rng, d):
    """Feasible bounded LP: a box plus random rows slack at an interior anchor."""
    anchor = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
    a, b = [], []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        a.append(list(e))
        b.append(Fraction(8))
        a.append([-x for x in e])
        b.append(Fraction(8))
    for _ in range(rng.randint(1, 3)):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        a.append(row)
        b.append(dot(row, anchor) + rng.randint(1, 5))
    c = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
    return a, b, c
