import itertools
import random
from fractions import Fraction
from math import comb, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cube3, instance, quadrant, random_pointed_hrep, square_pyramid, strip, unit_square
from polybound.errors import BudgetExceededError, InputError
from polybound.generators import (cyclic_matrix, dwarfed_cube, permutohedron_matrix,
                                  thrackle_metric, tight_span_hrep, tropical_hrep)
import oracles
from polybound import linalg, pipeline, polyhedron
from oracles import (ObjectiveError, as_fractions, bounded_generic_objective, dot,
                     normalize_ray, ray_step, reference_closure, reference_integer_walk,
                     reference_nullspace, reference_reverse_search, reference_start_vertex,
                     reference_vrep)
from polybound.errors import PolyboundError
from polybound.linalg import (ZERO, as_vector, common_denominator, integer_row, rank,
                              ratio_step)
from polybound.lp import LpStatus, lp_solve
from polybound.polyhedron import (DEFAULT_BUDGET, HRep, VRep,
                                  enumerate_vertices_bruteforce, enumerate_vertices_pivoting,
                                  projective_closure, reverse_search_vertices)

HALF = Fraction(1, 2)


def test_closure_of_ray_is_segment():
    h = HRep.from_rows(1, [((-1,), 0)])
    clo = projective_closure(h)
    v = enumerate_vertices_bruteforce(clo.closure)
    assert v.vertices == ((ZERO,), (Fraction(1),))
    assert clo.closure.rows[-1] == ((1,), 1)


def test_closure_of_quadrant_is_triangle():
    clo = projective_closure(quadrant())
    v = enumerate_vertices_bruteforce(clo.closure)
    assert set(v.vertices) == {(0, 0), (1, 0), (0, 1)}
    far = [p for p in v.vertices if sum(p) == 1]
    assert len(far) == 2


def test_closure_dwarfed_cube_5():
    _, _, clo, vbar, inc = instance("dwarfed-cube", 5)
    assert len(vbar.vertices) == 26
    assert inc.m == 11


def test_closure_points_stay_in_simplex():
    for h in (quadrant(), strip(), dwarfed_cube(3)[1]):
        clo = projective_closure(h)
        v = enumerate_vertices_bruteforce(clo.closure)
        for p in v.vertices:
            assert all(x >= 0 for x in p)
            assert sum(p) <= 1


def test_closure_vertex_bijection():
    for h in (quadrant(), strip(), dwarfed_cube(3)[1]):
        clo = projective_closure(h)
        vbar = enumerate_vertices_bruteforce(clo.closure)
        far = [p for p in vbar.vertices if sum(p) == 1]
        near = [p for p in vbar.vertices if sum(p) < 1]
        originals = enumerate_vertices_bruteforce(h)
        assert len(near) == len(originals.vertices)
        assert sorted(as_fractions(clo.map_point(p)) for p in originals.points) == near
        assert sorted(as_fractions(clo.map_ray(r)) for r in originals.directions) == far


def greedy_basis_rows(h, v):
    """Reference dual basis: the rows active at v, scanned in input order,
    each kept when it raises the rank of the rows kept so far."""
    basis = []
    for a, bi in h.rows:
        if dot(a, v) == bi and rank(basis + [a]) > len(basis):
            basis.append(a)
    return basis


def test_closure_basis_is_greedy_rank_scan():
    rng = random.Random(11)
    cases = [random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(0, 6))
             for _ in range(30)]
    # degenerate vertices: more than d active rows to choose from
    cases += [square_pyramid(), dwarfed_cube(3)[1], tropical_hrep(cyclic_matrix(3, 3))]
    for h in cases:
        clo = projective_closure(h)
        basis = [tuple(Fraction(-x, clo.rho_den) for x in row) for row in clo.rho]
        assert basis == greedy_basis_rows(h, as_fractions(clo.translation))


def benchmark_instances():
    """(H-rep, V-rep) of the instances the benchmark closes: dwarfed
    d = 5, 10, 15, thrackle d = 3..8, random metrics d = 6 and the
    tropical cyclic polyhedra, with their enumerated vertices and rays."""
    roster = ([("dwarfed-cube", (d,)) for d in (5, 10, 15)]
              + [("thrackle", (d,)) for d in range(3, 9)]
              + [("random-metric", (6, s)) for s in range(3)]
              + [("tropical-cyclic", st) for st in ((3, 3), (4, 4), (5, 5))])
    for family, params in roster:
        _, h, pre = pipeline.make_instance(family, params)
        yield h, pre or enumerate_vertices_pivoting(h)


def test_closure_matches_fraction_reference():
    rng = random.Random(37)
    cases = [(h, enumerate_vertices_pivoting(h))
             for h in (random_pointed_hrep(rng, rng.randint(2, 5), rng.randint(0, 7))
                       for _ in range(60))]
    cases += [(h, enumerate_vertices_pivoting(h))
              for h in (quadrant(), strip(), fractional_rows(), fractional_cone())]
    cases += list(benchmark_instances())
    for h, v in cases:
        clo, ref = projective_closure(h), reference_closure(h)
        assert clo.closure == ref.closure
        # the integer form the closure is built with is the one its rows give
        assert clo.closure.integer_rows == tuple(tuple(integer_row([*a, b]))
                                                 for a, b in ref.closure.rows)
        assert as_fractions(clo.translation) == ref.translation
        assert [tuple(Fraction(x, clo.rho_den) for x in row) for row in clo.rho] == list(ref.rho)
        assert ([as_fractions(clo.map_point(x)) for x in v.points]
                == [ref.map_point(x) for x in v.vertices])
        assert ([as_fractions(clo.map_ray(r)) for r in v.directions]
                == [ref.map_ray(r) for r in v.rays])
    # a start vertex, a rho and mapped points with denominators other than 1
    clo = projective_closure(fractional_cone())
    assert clo.rho_den > 1 and all(x.denominator > 1 for x in as_fractions(clo.translation))
    clo = projective_closure(fractional_rows())
    mapped = [clo.map_point(x) for x in enumerate_vertices_pivoting(fractional_rows()).points]
    assert any(den > 1 for _, den in mapped)


def fractional_cone():
    # a pointed cone whose apex and both rows are fractional
    return HRep.from_rows(2, [((Fraction(-1, 2), Fraction(-1, 3)), Fraction(1, 5)),
                              ((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 4))])


def test_closure_maps_refuse_points_outside_the_chart():
    clo = projective_closure(quadrant())
    with pytest.raises(InputError, match="not a recession direction"):
        clo.map_ray(((-1, 0), 1))
    assert clo.map_ray(((2, 2), 1)) == clo.map_ray(((1, 1), 1)) == ((1, 1), 2)


def test_closure_error_empty():
    h = HRep.from_rows(1, [((1,), 0), ((-1,), -1)])
    with pytest.raises(InputError, match="empty polyhedron"):
        projective_closure(h)


def test_closure_error_not_pointed():
    h = HRep.from_rows(2, [((0, 1), 1)])  # half-plane contains a line
    with pytest.raises(InputError, match="not pointed"):
        projective_closure(h)


def test_bruteforce_square():
    v = enumerate_vertices_bruteforce(unit_square())
    assert len(v.vertices) == 4 and not v.rays


def test_bruteforce_quadrant():
    v = enumerate_vertices_bruteforce(quadrant())
    assert v.vertices == ((0, 0),)
    assert set(v.rays) == {(1, 0), (0, 1)}


def test_bruteforce_dwarfed_polytope_5():
    poly, _ = dwarfed_cube(5)
    assert len(enumerate_vertices_bruteforce(poly).vertices) == 26


def test_bruteforce_budget():
    poly, _ = dwarfed_cube(5)
    with pytest.raises(BudgetExceededError, match="too large"):
        enumerate_vertices_bruteforce(poly, budget=10)


def test_bruteforce_budget_is_the_subset_count():
    # C(m, d) vertex subsets and C(m, d-1) ray subsets: C(m+1, d) in all
    for h in (unit_square(), dwarfed_cube(3)[1]):
        subsets = comb(len(h.rows) + 1, h.dim)
        assert enumerate_vertices_bruteforce(h, subsets) == enumerate_vertices_pivoting(h)
        with pytest.raises(BudgetExceededError, match="too large for brute force"):
            enumerate_vertices_bruteforce(h, subsets - 1)


def test_bruteforce_needs_no_closure(monkeypatch):
    def refuse(h):
        raise AssertionError("brute force built the closure it checks")

    monkeypatch.setattr(polyhedron, "projective_closure", refuse)
    h = dwarfed_cube(3)[1]
    assert enumerate_vertices_bruteforce(h) == enumerate_vertices_pivoting(h)


def test_bruteforce_rays_match_the_far_vertices_of_the_closure():
    # the rule brute force used to follow: a ray is the preimage of a far
    # vertex of the closure.  The closure segment from the origin, the
    # image of the start vertex v, to a far vertex z is the image of the
    # ray from v, so z/2 pulls back to v plus a positive multiple of it
    cases = [dwarfed_cube(d)[1] for d in range(2, 6)]
    cases.append(instance("tropical-cyclic", 3, 3)[1])
    rng = random.Random(16)
    cases += [random_pointed_hrep(rng, rng.randint(1, 4), rng.randint(0, 4)) for _ in range(20)]
    for h in cases:
        ref = reference_closure(h)
        far = [z for z in enumerate_vertices_bruteforce(ref.closure).vertices if sum(z) == 1]
        want = {normalize_ray([x - v for x, v in zip(ref.unmap_point([HALF * zi for zi in z]),
                                                     ref.translation)])
                for z in far}
        assert set(enumerate_vertices_bruteforce(h).rays) == want and want


def test_pivoting_agrees_with_bruteforce():
    cases = [unit_square(), quadrant(), strip(), cube3(), square_pyramid(),
             dwarfed_cube(2)[1], dwarfed_cube(3)[1], dwarfed_cube(4)[0]]
    rng = random.Random(0)
    cases += [random_pointed_hrep(rng, rng.randint(2, 3), rng.randint(1, 3))
              for _ in range(15)]
    for h in cases:
        brute = enumerate_vertices_bruteforce(h)
        pivot = enumerate_vertices_pivoting(h)
        assert pivot.vertices == brute.vertices
        assert pivot.rays == brute.rays


def reference_pivoting(h, budget=DEFAULT_BUDGET):
    """The Fraction pivot walk that the integer walk replaced: Fraction
    points, `reference_nullspace` edge directions (in one dimension the
    kernel of no rows is the whole line) and the `ray_step` ratio test."""
    d = h.dim
    a_rows = h.coefficient_rows()
    b = h.rhs()
    start = as_fractions(polyhedron._start_vertex(h)[0])
    work = 0
    visited = {start}
    stack = [start]
    rays = set()
    while stack:
        x = stack.pop()
        act = [i for i in range(len(a_rows)) if dot(a_rows[i], x) == b[i]]
        work += comb(len(act), d - 1)
        if work > budget:
            raise BudgetExceededError(
                f"instance too large for pivot enumeration (budget {budget})")
        directions = set()
        for subset in itertools.combinations(act, d - 1):
            kernel = reference_nullspace([a_rows[i] for i in subset], d)
            if len(kernel) != 1:
                continue
            v = kernel[0]
            signs = [dot(a_rows[i], v) for i in act]
            if all(s <= 0 for s in signs):
                directions.add(normalize_ray(v))
            elif all(s >= 0 for s in signs):
                directions.add(normalize_ray([-c for c in v]))
        for v in directions:
            t_best, _ = ray_step(a_rows, b, x, v)
            if t_best is None:
                rays.add(v)
                continue
            y = tuple(xi + t_best * vi for xi, vi in zip(x, v))
            if y not in visited:
                visited.add(y)
                stack.append(y)
    return VRep.build(d, visited, rays)


def fractional_rows():
    # rows with coefficients such as 1/3 and 2/7, so rows are rescaled to
    # integers and points have denominators other than 1
    return HRep.from_rows(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), Fraction(1, 5)),
                              ((Fraction(1, 3), Fraction(2, 7), -1), Fraction(3, 4)),
                              ((Fraction(-2, 7), Fraction(1, 3), Fraction(-1, 2)), 1),
                              ((Fraction(1, 2), Fraction(-5, 3), 0), Fraction(7, 3))])


def test_integer_walk_matches_fraction_reference():
    rng = random.Random(17)
    cases = [random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(1, 6)) for _ in range(30)]
    cases += [dwarfed_cube(d)[1] for d in range(2, 7)]
    cases += [tight_span_hrep(thrackle_metric(d)) for d in range(3, 7)]
    cases += [tropical_hrep(cyclic_matrix(3, 3)), tropical_hrep(cyclic_matrix(4, 4))]
    cases += [square_pyramid(), strip(), quadrant(), fractional_rows()]
    for h in cases:
        expected = reference_pivoting(h)
        # the budget the reference walk used is enough: no vertex is visited twice
        assert enumerate_vertices_pivoting(h, walk_work(h, expected.vertices)) == expected
    # a fractional vertex, and the start vertex handed in
    fractional = enumerate_vertices_pivoting(fractional_rows())
    assert any(x.denominator > 1 for p in fractional.vertices for x in p)
    start, _ = polyhedron._start_vertex(fractional_rows())
    assert enumerate_vertices_pivoting(fractional_rows(), start=start) == fractional


def walk_work(h, vertices):
    """The walk's budget use: C(|active rows|, d-1) subsets per vertex."""
    return sum(comb(sum(dot(a, x) == b for a, b in h.rows), h.dim - 1) for x in vertices)


def test_integer_walk_budget_matches_reference():
    h = tight_span_hrep(thrackle_metric(5))
    vertices = reference_pivoting(h).vertices
    work = walk_work(h, vertices)
    for walk in (enumerate_vertices_pivoting, reference_pivoting):
        assert walk(h, work).vertices == vertices
        message = f"pivot enumeration \\(budget {work - 1}\\)"
        with pytest.raises(BudgetExceededError, match=message):
            walk(h, work - 1)


def test_pivoting_in_one_dimension():
    # the edge directions of a 1-dimensional polyhedron are the kernel of
    # no rows at all: the whole line; a vertex lies on one row a.x <= b, and
    # its one edge is read off the inverse 1/a
    half_line = HRep.from_rows(1, [((-1,), 0)])
    interval = HRep.from_rows(1, [((-1,), 0), ((1,), 1)])
    scaled = HRep.from_rows(1, [((-2,), 0), ((3,), 1)])
    for h in (half_line, interval, scaled):
        assert enumerate_vertices_pivoting(h) == enumerate_vertices_bruteforce(h)
        assert enumerate_vertices_pivoting(h) == reference_pivoting(h)
    assert enumerate_vertices_pivoting(half_line).rays == ((1,),)
    assert enumerate_vertices_pivoting(scaled).vertices == ((0,), (Fraction(1, 3),))


def active_counts(h, vertices):
    return [sum(dot(a, x) == b for a, b in h.rows) for x in vertices]


def test_walk_reads_simple_vertices_off_one_inverse():
    # the square pyramid's apex lies on 4 rows in d = 3, its base vertices
    # on 3; tropical-cyclic (4,4) and (5,5) are simple
    pyramid = square_pyramid()
    expected = reference_pivoting(pyramid)
    assert sorted(set(active_counts(pyramid, expected.vertices))) == [3, 4]
    assert enumerate_vertices_pivoting(pyramid) == expected
    for s, t in ((4, 4), (5, 5)):
        h = tropical_hrep(cyclic_matrix(s, t))
        expected = reference_pivoting(h)
        assert set(active_counts(h, expected.vertices)) == {h.dim}
        assert enumerate_vertices_pivoting(h) == expected


def test_walk_matches_subset_reference_on_degenerate_closures():
    # every input has vertices on more than d rows: the walk reads their
    # edges by double description, the reference from (d-1)-subsets
    cases = [projective_closure(h).closure
             for h in (tight_span_hrep(thrackle_metric(3)), tight_span_hrep(thrackle_metric(4)),
                       tropical_hrep(cyclic_matrix(3, 3)), square_pyramid())]
    cases += [square_pyramid(), tropical_hrep(permutohedron_matrix(3))]
    for h in cases:
        expected = reference_pivoting(h)
        assert max(active_counts(h, expected.vertices)) > h.dim
        assert enumerate_vertices_pivoting(h) == expected


def test_cone_edges_match_the_subset_rule_on_random_cones():
    # pointed cones on d+1 to d+4 random rows in d = 3..6.  In d >= 5 two
    # rays can share d-2 tight rows without being adjacent, and only the
    # adjacency test keeps their combination out: 4 of these cones fail
    # without it.  The subset rule takes each (d-1)-subset's kernel line
    # that lies in the cone
    rng = random.Random(3)
    for _ in range(150):
        d = rng.randint(3, 6)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 4))]
        if rank(rows) < d:
            continue
        want = set()
        for subset in itertools.combinations(rows, d - 1):
            v = linalg.kernel_line(subset, d)
            for w in ((v, tuple(-x for x in v)) if v else ()):
                if all(sum(map(mul, a, w)) <= 0 for a in rows):
                    want.add(w)
        assert set(polyhedron._cone_edges(rows, range(len(rows)), lambda units: None)) == want


def test_walk_refuses_a_start_that_is_no_vertex():
    # (1, 1) is interior to the quadrant and (0, 1) lies on one row: the
    # subset walk returned either as the only vertex
    for start in (((1, 1), 1), ((0, 1), 1)):
        with pytest.raises(InputError, match="^start point is not a vertex$"):
            enumerate_vertices_pivoting(quadrant(), start=start)
    # each start lies on d independent rows but violates another: the walk
    # listed (1, 1) as a vertex of the cut square, and from (0, 0) it
    # returned (0, 0) alone, missing both real vertices
    cut_square = HRep.from_rows(2, [*unit_square().rows, ((1, 1), Fraction(3, 2))])
    corner = HRep.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
    for h, start in ((cut_square, ((1, 1), 1)), (corner, ((0, 0), 1))):
        with pytest.raises(InputError, match="^start point is not a vertex$"):
            enumerate_vertices_pivoting(h, start=start)


def test_walk_budget_at_a_degenerate_vertex():
    # the square pyramid's four base vertices are simple and charge d = 3
    # each; its apex lies on 4 rows, starts from the cone of 3 of them
    # (3 more) and the fourth row splits that cone's rays 1 : 2, so 2 pairs
    # are tested: 17 in all
    h = square_pyramid()
    assert enumerate_vertices_pivoting(h, 17) == enumerate_vertices_bruteforce(h)
    with pytest.raises(BudgetExceededError, match=r"pivot enumeration \(budget 16\)"):
        enumerate_vertices_pivoting(h, 16)


def test_tropical_cyclic_closure_walks_within_a_small_budget():
    # 8 of the 28 vertices of the (4,4) closure lie on 13 rows in d = 7: a
    # subset walk charges C(13, 6) = 1,716 at each, 13,868 in all, where
    # double description charges 2,736
    _, h, clo, vbar, _ = instance("tropical-cyclic", 4, 4)
    assert enumerate_vertices_pivoting(clo.closure, 10**4) == vbar


def test_simple_walk_takes_one_elimination_and_no_kernel_line(monkeypatch):
    # every vertex of thrackle-5's and thrackle-8's tight spans is simple:
    # the start vertex's dictionary comes from one `scaled_inverse`, one
    # elimination of its d active rows, and every other vertex's from its
    # parent's by an exchange step: one elimination per walk over 16 or 128
    # vertices, not one per vertex
    eliminations = []
    real_echelon = linalg._echelon

    def echelon(rows):
        eliminations.append(len(rows))
        return real_echelon(rows)

    def refuse(*args):
        raise AssertionError("a simple vertex left the dictionary path")

    for d, vertices in ((5, 16), (8, 128)):
        h = tight_span_hrep(thrackle_metric(d))
        start, _ = polyhedron._start_vertex(h)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_echelon", echelon)
            patch.setattr(linalg, "kernel_line", refuse)
            patch.setattr(polyhedron, "kernel_line", refuse)
            patch.setattr(polyhedron, "_cone_edges", refuse)
            v = enumerate_vertices_pivoting(h, start=start)
        assert len(v.vertices) == vertices
        assert set(active_counts(h, v.vertices)) == {h.dim}
        assert eliminations == [h.dim]
        eliminations.clear()


def fresh_dictionary(h):
    """A function from a simple vertex of h to its dictionary built afresh
    by `scaled_inverse`, over the rows as the walk scales them."""
    rows = [integer_row([*a, b]) for a, b in h.rows]
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]

    def fresh(point):
        num, den = point
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
        act = [i for i, s in enumerate(slack) if not s]
        assert len(act) == h.dim
        return polyhedron._dictionary(a_rows, slack, point, act)

    return fresh


def test_exchange_step_gives_the_dictionary_built_afresh():
    # from each simple vertex, step along every edge blocked by one row and
    # compare the exchanged dictionary with one built by `scaled_inverse`
    # on the new basis: the same rhs and divisor, and the same edge columns
    # up to their order, which follows the basis positions
    cases = [tight_span_hrep(thrackle_metric(5)), dwarfed_cube(5)[1],
             projective_closure(dwarfed_cube(4)[1]).closure, fractional_rows(),
             tropical_hrep(cyclic_matrix(4, 4))]
    steps = 0
    for h in cases:
        d, m = h.dim, len(h.rows)
        fresh = fresh_dictionary(h)
        start = polyhedron._reduced(*polyhedron._start_vertex(h)[0])
        stack, seen = [(start, fresh(start))], {start}
        while stack:
            point, (cols, delta) = stack.pop()
            assert polyhedron._reduced(cols[0][m:], delta) == point
            for j in range(1, d + 1):
                r, ties = polyhedron._column_ratio(cols[0], cols[j], m)
                if r is None or ties > 1:
                    continue
                new_cols, new_delta = linalg.exchange(cols, j, r, delta)
                nxt = polyhedron._reduced(new_cols[0][m:], new_delta)
                want_cols, want_delta = fresh(nxt)
                assert new_delta == want_delta
                assert new_cols[0] == want_cols[0]
                assert sorted(new_cols[1:]) == sorted(want_cols[1:])
                steps += 1
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, (new_cols, new_delta)))
    assert steps > 150


def walk_charges(h):
    """The budget the reference walk uses on h: the total it charges."""
    total = 0

    def counting(budget, what):
        charge = polyhedron.meter(budget, what)

        def count(units):
            nonlocal total
            total += units
            charge(units)

        return count

    with mock.patch.object(oracles, "meter", counting):
        reference_integer_walk(h)
    return total


def through_a_vertex(rng, h, count):
    """h with `count` random rows added through its start vertex, which
    stays a vertex and becomes degenerate."""
    num, den = polyhedron._start_vertex(h)[0]
    rows = list(h.rows)
    for _ in range(count):
        a = [rng.randint(-3, 3) for _ in range(h.dim)]
        if any(a):
            rows.append((a, Fraction(sum(map(mul, a, num)), den)))
    return HRep.from_rows(h.dim, rows)


TROPICAL_WALKS = [tropical_hrep(cyclic_matrix(3, 3)), tropical_hrep(cyclic_matrix(3, 4)),
                  tropical_hrep(permutohedron_matrix(3)),
                  projective_closure(tropical_hrep(cyclic_matrix(3, 3))).closure,
                  square_pyramid()]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.one_of(
    st.tuples(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 6), st.integers(0, 3)),
    st.sampled_from(range(len(TROPICAL_WALKS)))))
def test_walk_matches_reference_walk_and_its_budget(case):
    # random pointed H-reps, some with rows through a shared vertex, and
    # degenerate tropical polyhedra: the same V-rep as the walk without a
    # dictionary, and the same budget use, w passing and w - 1 raising
    if isinstance(case, int):
        h = TROPICAL_WALKS[case]
    else:
        seed, d, extra, through = case
        rng = random.Random(seed)
        h = through_a_vertex(rng, random_pointed_hrep(rng, d, extra), through)
    work = walk_charges(h)
    want = reference_integer_walk(h, work)
    assert enumerate_vertices_pivoting(h, work) == want
    for walk in (enumerate_vertices_pivoting, reference_integer_walk):
        with pytest.raises(BudgetExceededError, match=f"pivot enumeration \\(budget {work - 1}\\)"):
            walk(h, work - 1)


def counting_lp(monkeypatch):
    calls = []
    real = polyhedron.lp_solve

    def lp_solve(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polyhedron, "lp_solve", lp_solve)
    return calls


def test_one_start_vertex_lp_per_instance(monkeypatch):
    h = tight_span_hrep(thrackle_metric(4))
    calls = counting_lp(monkeypatch)
    pipeline.closure_data(h)
    assert len(calls) == 1
    del calls[:]
    enumerate_vertices_bruteforce(h)
    assert len(calls) == 1
    del calls[:]
    reverse_search_vertices(dwarfed_cube(4)[1])
    assert len(calls) == 1


def random_hrep(rng, d, m, line, empty):
    """Random rows of small ints and Fractions in any signs; with `line`
    all of them are 0 in one coordinate, so no vertex exists, and with
    `empty` a pair a.x <= b, -a.x <= -b - 1 makes the region empty."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    rows = [([entry() for _ in range(d)], entry()) for _ in range(m)]
    if empty:
        a = [entry() for _ in range(d)]
        rows += [(a, 0), ([-x for x in a], -1)]
    if line:
        j = rng.randrange(d)
        for a, _ in rows:
            a[j] = 0
    return HRep.from_rows(d, rows)


START_ROSTER = ([("thrackle", (d,)) for d in range(3, 9)] + [("random-metric", (6, 1))]
                + [("dwarfed-cube", (d,)) for d in (5, 10)] + [("tropical-cyclic", (4, 4))])


def start_outcome(find, h):
    """find(h), or the message of the InputError it raises."""
    try:
        return find(h)
    except InputError as exc:
        return str(exc)


def test_start_vertex_matches_fraction_reference():
    # the vertex and its basis, or the error, found through the compact
    # integer tableau and integer slacks equal those found through the
    # full Fraction tableau and Fraction dot products: on random, pointed
    # (some degenerate at the start), non-pointed and empty H-reps, and on
    # the benchmark instances and their closures
    seen = set()

    def check(h):
        want = start_outcome(reference_start_vertex, h)
        assert start_outcome(polyhedron._start_vertex, h) == want
        seen.add(want if isinstance(want, str) else "vertex")

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(
        st.tuples(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 6), st.integers(0, 3)),
        st.tuples(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 6), st.booleans(),
                  st.booleans())))
    def check_random(case):
        rng = random.Random(case[0])
        if len(case) == 4:
            _, d, extra, through = case
            check(through_a_vertex(rng, random_pointed_hrep(rng, d, extra), through))
        else:
            _, d, m, line, empty = case
            check(random_hrep(rng, d, m + 1, line, empty))

    check_random()
    assert seen == {"vertex", "empty polyhedron", "not pointed"}
    for family, params in START_ROSTER:
        _, h, clo, _, _ = instance(family, *params)
        check(h)
        check(clo.closure)


def test_reverse_search_square():
    v = reverse_search_vertices(unit_square())
    assert v.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert not v.rays


def test_reverse_search_dwarfed_5():
    _, rev = dwarfed_cube(5)
    v = reverse_search_vertices(projective_closure(rev).closure)
    assert len(v.vertices) == 26


def test_reverse_search_quadrant_flags_unbounded():
    v = reverse_search_vertices(quadrant())
    assert v.vertices == ((0, 0),)
    assert v.rays == ((0, 1), (1, 0))


def test_reverse_search_rejects_non_simple():
    with pytest.raises(InputError, match="^not simple$"):
        reverse_search_vertices(square_pyramid())


def test_reverse_search_obeys_the_budget():
    # the rows of the unit square sum to 0, so the order is by x, then y:
    # the climb steps on (0,0), (1,0) and (1,1), the search on all four
    # vertices, d = 2 each
    h = unit_square()
    assert polyhedron._start_vertex(h)[0] == ((0, 0), 1)
    with pytest.raises(BudgetExceededError, match=r"^instance too large for reverse search "
                                                  r"\(budget 13\)$"):
        reverse_search_vertices(h, budget=13)
    assert reverse_search_vertices(h, budget=14) == reverse_search_vertices(h)


def objective_reverse_search(h, objective):
    """Reverse search under a given objective, from its LP optimum, as the
    library ran it before its order was fixed: "objective not generic" on
    a tie, "objective unbounded on polyhedron" without an optimum."""
    d = h.dim
    c = as_vector(objective)
    if len(c) != d:
        raise InputError("objective length does not match dimension")
    out = lp_solve(h.coefficient_rows(), h.rhs(), list(c))
    if out.status is LpStatus.INFEASIBLE:
        raise InputError("empty polyhedron")
    if out.status is LpStatus.UNBOUNDED:
        raise ObjectiveError("objective unbounded on polyhedron")
    nums, den = common_denominator(out.point)
    root = (tuple(nums), den)
    rows = [integer_row([*a, b]) for a, b in h.rows]
    a_rows = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    c_int, _ = common_denominator(c)

    def value(point):
        return sum(map(mul, c_int, point[0])), point[1]

    def active_basis(point):
        num, den = point
        slack = [bi * den - sum(map(mul, a, num)) for a, bi in zip(a_rows, b)]
        act = [i for i, s in enumerate(slack) if not s]
        edges = polyhedron._simple_edges(a_rows, act) if len(act) == d else None
        if edges is None:
            raise InputError("not simple")
        return slack, edges

    def pivot(point, slack, v):
        y, blocking = ratio_step(a_rows, slack, point, v)
        if y is None:
            return ("ray", v)
        if blocking > 1:
            raise InputError("not simple")
        return ("vertex", y, v)

    def ascent_neighbor(point):
        slack, directions = active_basis(point)
        for v in directions:
            res = pivot(point, slack, v)
            if res[0] == "vertex" and sum(map(mul, c_int, res[2])) > 0:
                return res[1]
        return None

    vertices = []
    rays = []
    seen = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        vertices.append(x)
        slack, directions = active_basis(x)
        for v in directions:
            res = pivot(x, slack, v)
            if res[0] == "ray":
                rays.append(res[1])
                continue
            y = res[1]
            (cx, dx), (cy, dy) = value(x), value(y)
            if cx * dy == cy * dx:
                raise ObjectiveError("objective not generic")
            if cy * dx < cx * dy and ascent_neighbor(y) == x:
                stack.append(y)
    if len({Fraction(*value(x)) for x in vertices}) != len(vertices):
        raise ObjectiveError("objective not generic")
    return VRep.from_integers(d, vertices, rays)


def seeded_reverse_search(h, seed=0, attempts=64):
    """`objective_reverse_search` under `bounded_generic_objective`,
    retried with a fresh perturbation whenever the objective fails: the
    library's reverse search before its order was fixed."""
    polyhedron._start_vertex(h)
    last = None
    for attempt in range(attempts):
        try:
            return objective_reverse_search(h, bounded_generic_objective(h, attempt, seed))
        except ObjectiveError as exc:
            last = exc
    raise InputError(f"no generic objective found after {attempts} attempts: {last}")


def reverse_search_outcome(search, h, *args):
    """("ok", the VRep) or (the error's type, its message)."""
    try:
        return "ok", search(h, *args)
    except PolyboundError as exc:
        return type(exc), str(exc)


def fraction_reference_roster():
    """(H-rep, objectives) pairs for the Fraction reverse search: dwarfed
    2..8 and three tropical-cyclic H-reps under two seeded objectives,
    random pointed polyhedra under a seeded, a tie-prone (no perturbation)
    and an axis objective, the square pyramid (not simple) and the unit
    square under a generic and a tied objective."""
    roster = [(dwarfed_cube(d)[1], None) for d in range(2, 9)]
    roster += [(tropical_hrep(cyclic_matrix(s, t)), None) for s, t in ((3, 3), (3, 4), (4, 4))]
    roster = [(h, [bounded_generic_objective(h, attempt) for attempt in range(2)])
              for h, _ in roster]
    rng = random.Random(41)
    for _ in range(60):
        h = random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(0, 6))
        roster.append((h, [bounded_generic_objective(h),
                           [sum(a[j] for a, _ in h.rows) for j in range(h.dim)],
                           [1] + [0] * (h.dim - 1)]))
    roster += [(square_pyramid(), [[1, 2, 4]]), (unit_square(), [[1, 2], [1, 0]])]
    return roster


def test_reverse_search_matches_fraction_reference():
    # where the reference returns under an objective, the fixed order gives
    # the same vertices and rays; where it says "not simple", so
    # does the fixed order
    seen = set()
    for h, objectives in fraction_reference_roster():
        got = reverse_search_outcome(reverse_search_vertices, h)
        for c in objectives:
            want = reverse_search_outcome(reference_reverse_search, h, c)
            seen.add(want[1] if want[0] in (InputError, ObjectiveError) else "ok")
            if want[0] is not ObjectiveError:
                assert got == want
    assert seen == {"ok", "not simple", "objective not generic",
                    "objective unbounded on polyhedron"}


def test_reverse_search_matches_seeded_retries():
    # criterion 11's roster (which adds tropical-cyclic (3,6)) and the
    # Fraction reference's
    cases = [h for h, _ in fraction_reference_roster()]
    cases.append(tropical_hrep(cyclic_matrix(3, 6)))
    outcomes = set()
    for h in cases:
        got = reverse_search_outcome(reverse_search_vertices, h)
        assert got == reverse_search_outcome(seeded_reverse_search, h)
        outcomes.add(got[1] if got[0] is InputError else "ok")
    assert outcomes == {"ok", "not simple"}


def test_normalize_ray():
    # a ray is held as its primitive integer vector over |first nonzero entry|
    assert VRep.build(3, [], [(0, 2, 4)]).directions == (((0, 1, 2), 1),)
    assert VRep.build(2, [], [(-3, 6)]).rays == ((-1, 2),)
    assert VRep.build(2, [], [(HALF, Fraction(1, 3))]).directions == (((3, 2), 3),)
    assert VRep.build(2, [], [(HALF, Fraction(1, 3))]).rays == ((1, Fraction(2, 3)),)
    for zero in ((0, 0), (ZERO, ZERO)):
        with pytest.raises(InputError, match="zero vector"):
            VRep.build(2, [], [zero])


def test_vrep_build_dedupes_rays_up_to_scaling():
    v = VRep.build(2, [], [(1, 2), (2, 4), (HALF, 1)])
    assert v.rays == ((1, 2),)


def test_vrep_integer_order_matches_the_fraction_sort():
    # VRep sorts points by their numerators over the lcm of all denominators;
    # the reference sorts the Fractions.  The random metrics' closures have
    # denominators whose lcm exceeds 500 bits, and fractional_cone has rays
    # whose normalized form is fractional
    roster = ([("thrackle", (d,)) for d in range(3, 9)]
              + [("dwarfed-cube", (d,)) for d in (5, 10, 15)]
              + [("tropical-cyclic", (4, 4)), ("tropical-cyclic", (5, 5))]
              + [("random-metric", (6, s)) for s in (0, 3, 4)])
    reps = []
    for family, params in roster:
        _, h, _, vbar, _ = instance(family, *params)
        reps += [enumerate_vertices_pivoting(h), vbar]
        if family == "random-metric":
            assert lcm(*(den for _, den in vbar.points)).bit_length() > 500
    cone = enumerate_vertices_pivoting(fractional_cone())
    assert any(den > 1 for _, den in cone.directions)
    reps.append(cone)
    rng = random.Random(18)
    for v in reps:
        assert (v.vertices, v.rays) == reference_vrep(v.vertices, v.rays)
        vertices, rays = list(v.vertices), list(v.rays)
        rng.shuffle(vertices)
        rng.shuffle(rays)
        scales = [rng.randint(1, 9) for _ in rays]
        assert VRep.build(v.dim, vertices, [[x * k for x in r] for r, k in zip(rays, scales)]) == v
        pairs = [([n * k for n in num], den * k)
                 for (num, den), k in zip(v.points, itertools.cycle((1, -1, 2, -3)))]
        assert VRep.from_integers(v.dim, pairs, [num for num, _ in v.directions]) == v
