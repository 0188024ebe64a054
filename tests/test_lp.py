import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pointed_hrep
from oracles import bounded_generic_objective, dot, purify_to_vertex, ray_step, reference_lp_solve
from polybound import lp
from polybound.errors import InputError
from polybound.linalg import ratio_step
from polybound.lp import LpOutcome, LpStatus, lp_solve
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


def test_ratio_step_ties_and_recession():
    rows = [[1, 0], [0, 1], [1, 1], [-1, 0]]
    b = [1, 1, 2, 0]

    def step(num, den, v):
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(rows, b)]
        return ratio_step(rows, slack, (num, den), v)

    # from the origin along (1, 1) rows 0, 1 and 2 all block at t = 1
    assert step((0, 0), 1, (1, 1)) == (((1, 1), 1), 3)
    assert step((0, 0), 1, (1, 0)) == (((1, 0), 1), 1)
    # from (0, 0) over 2 the step lands on (2, 2) / 2, reduced to (1, 1)
    assert step((0, 0), 2, (1, 1)) == (((1, 1), 1), 3)
    # from (1/2, 0) along (1, 1) row 0 blocks first, at (1, 1/2)
    assert step((1, 0), 2, (1, 1)) == (((2, 1), 2), 1)
    # row 3 is tight at the origin and skipped: no row blocks
    assert step((0, 0), 1, (-1, 0)) == (None, 0)
    # nothing blocks a recession direction
    assert step((0, 0), 1, (0, -1)) == (None, 0)


def test_ratio_step_matches_fraction_ray_step():
    # directions with a.v <= 0 on the tight rows, as every caller's are
    rng = random.Random(43)
    blocked = tied = 0
    for _ in range(300):
        d, m = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
        num, den = tuple(rng.randint(-4, 4) for _ in range(d)), rng.randint(1, 3)
        slack = [0 if rng.random() < 0.2 else rng.randint(1, 6) for _ in range(m)]
        b = [Fraction(dot(a, num) + s, den) for a, s in zip(rows, slack)]
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(s == 0 and dot(a, v) > 0 for a, s in zip(rows, slack)):
            continue
        x = tuple(Fraction(n, den) for n in num)
        t, blockers = ray_step(rows, b, x, v)
        nxt, ties = ratio_step(rows, slack, (num, den), v)
        if t is None:
            assert (nxt, ties) == (None, 0)
            continue
        blocked += 1
        tied += ties > 1
        y_num, y_den = nxt
        assert tuple(Fraction(n, y_den) for n in y_num) == tuple(
            xi + t * vi for xi, vi in zip(x, v))
        assert ties == len(blockers) and y_den > 0
    assert blocked > 100 and tied > 3


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


def test_lp_matches_fraction_reference_on_pointed_polyhedra():
    rng = random.Random(29)
    for _ in range(30):
        h = random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(0, 6))
        a, b = h.coefficient_rows(), h.rhs()
        random_c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(h.dim)]
        for c in ([0] * h.dim, bounded_generic_objective(h), random_c):
            assert lp_solve(a, b, c) == reference_lp_solve(a, b, c)


def degenerate_lp(rng, d):
    """Equality pairs a.x <= b, -a.x <= -b through a rational anchor, plus
    a few rows slack or tight there.  One row of each pair has a negative
    right side whenever b != 0, so phase I starts with artificials, and
    artificials left basic at zero reach `_expel_artificials`."""
    anchor = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
    a, b = [], []
    for _ in range(rng.randint(1, d)):
        row = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        bi = dot(row, anchor)
        a += [row, [-x for x in row]]
        b += [bi, -bi]
    for _ in range(rng.randint(0, 3)):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        a.append(row)
        b.append(dot(row, anchor) + rng.randint(0, 2))
    return a, b, [Fraction(rng.randint(-3, 3)) for _ in range(d)]


@pytest.fixture
def expel_pivot_signs(monkeypatch):
    """Whether each pivot `_expel_artificials` makes is positive, in order."""
    signs = []
    expelling = []
    real_expel, real_pivot = lp._expel_artificials, lp._pivot

    def expel(*args):
        expelling.append(True)
        try:
            return real_expel(*args)
        finally:
            expelling.pop()

    def pivot(rows, r, col, det):
        if expelling:
            signs.append(rows[r][col] > 0)
        return real_pivot(rows, r, col, det)

    monkeypatch.setattr(lp, "_expel_artificials", expel)
    monkeypatch.setattr(lp, "_pivot", pivot)
    return signs


def test_lp_matches_fraction_reference_on_degenerate_equalities(expel_pivot_signs):
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = degenerate_lp(rng, rng.randint(2, 4))
        for obj in ([0] * len(c), c):
            assert lp_solve(a, b, obj) == reference_lp_solve(a, b, obj)
    # the sample reaches the negative expel pivot, after which the tableau
    # and its det are negated
    assert False in expel_pivot_signs


def random_lp(rng):
    """Rows, right sides and objective of small ints and Fractions in any
    signs: empty, unbounded and bounded regions all occur, so do rows with
    negative right sides, and a third of the objectives are zero."""
    d, m = rng.randint(1, 4), rng.randint(1, 7)

    def entry():
        x = rng.randint(-4, 4)
        return x if rng.random() < 0.5 else Fraction(x, rng.randint(1, 3))

    c = [entry() for _ in range(d)] if rng.random() < 0.67 else [0] * d
    return [[entry() for _ in range(d)] for _ in range(m)], [entry() for _ in range(m)], c


@pytest.fixture
def leaving_rows(monkeypatch):
    """The tableau row of each pivot `lp_solve` makes, in order."""
    leaving = []
    real_pivot = lp._pivot

    def pivot(rows, r, col, det):
        leaving.append(r)
        return real_pivot(rows, r, col, det)

    monkeypatch.setattr(lp, "_pivot", pivot)
    return leaving


def test_lp_pivots_as_the_full_fraction_tableau(expel_pivot_signs, leaving_rows):
    # the compact integer tableau makes the pivots of the full Fraction one:
    # the same outcome and the same leaving row at every pivot, phase I,
    # the expelling of artificials and phase II alike
    statuses = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.integers(0, 2**32), st.booleans())
    def check(seed, degenerate):
        rng = random.Random(seed)
        a, b, c = degenerate_lp(rng, rng.randint(2, 4)) if degenerate else random_lp(rng)
        want = []
        out = reference_lp_solve(a, b, c, want)
        del leaving_rows[:]
        assert lp_solve(a, b, c) == out
        assert leaving_rows == want
        statuses.add(out.status)

    check()
    assert statuses == set(LpStatus)
    assert False in expel_pivot_signs


def test_lp_reenters_an_artificial(leaving_rows):
    # phase I pivots the artificial of row 3 back in after it has left, and
    # expelling it ends phase I: in the compact tableau, a pivot on minus
    # row 3's slack column
    a = [[1, -1], [1, 1], [0, -1], [-2, -1]]
    b = [-3, 3, 2, -3]
    want = []
    out = lp_solve(a, b, [0, 0])
    assert out == reference_lp_solve(a, b, [0, 0], want)
    assert out.point == (0, 3)
    assert leaving_rows == want == [3, 3, 1, 0, 0]


def test_lp_scales_the_system_by_one_denominator():
    # x >= 4/3, y >= x + 1, y >= 3x - 5/2: two rows with negative right
    # sides over different denominators.  Scaling the rows one by one would
    # reweight the phase I objective, and Bland's rule would then end on
    # the other vertex, (7/4, 11/4).
    a = [[-1, 0], [1, -1], [3, -1]]
    b = [Fraction(-4, 3), -1, Fraction(5, 2)]
    out = lp_solve(a, b, [0, 0])
    assert out == reference_lp_solve(a, b, [0, 0])
    assert out.point == (Fraction(4, 3), Fraction(7, 3))
