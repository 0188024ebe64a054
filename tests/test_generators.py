import random
from fractions import Fraction

import pytest

from oracles import reference_tropical_candidates, reference_tropical_vertices
from test_polyhedron import reference_pivoting
from polybound.bounded import selective_generation
from polybound.errors import BudgetExceededError, InputError
from polybound.generators import (RANDOM_METRIC_DENOMINATOR, Metric, cyclic_matrix,
                                  dwarfed_cube, permutohedron_matrix, random_metric, splitmix64,
                                  thrackle_metric, tight_span_hrep, tropical_hrep,
                                  tropical_vertices)
from polybound.lp import LpStatus, lp_solve
from polybound.pipeline import closure_data
from polybound.polyhedron import enumerate_vertices_bruteforce

HALF = Fraction(1, 2)


def test_dwarfed_2_vertices():
    poly, rev = dwarfed_cube(2)
    assert len(poly.rows) == 5
    v = enumerate_vertices_bruteforce(poly)
    assert set(v.vertices) == {(0, 0), (1, 0), (0, 1), (1, HALF), (HALF, 1)}
    # the reversal keeps the three near vertices and gains two rays
    vr = enumerate_vertices_bruteforce(rev)
    assert len(vr.vertices) == 3 and len(vr.rays) == 2


def test_dwarfed_row_counts():
    for d in (2, 5, 9):
        poly, rev = dwarfed_cube(d)
        assert len(poly.rows) == 2 * d + 1
        assert len(rev.rows) == 2 * d
    with pytest.raises(InputError):
        dwarfed_cube(1)


def test_thrackle_metric_3_is_constant_2():
    m = thrackle_metric(3)
    assert all(m.dist(i, j) == 2 for i in (1, 2, 3) for j in (1, 2, 3) if i != j)


def all_triples_triangle(m):
    pts = range(1, m.d + 1)
    return all(m.dist(i, j) <= m.dist(i, k) + m.dist(k, j)
               for i in pts for j in pts for k in pts)


def test_thrackle_metric_values():
    m = thrackle_metric(4)
    assert m.dist(1, 2) == 3 and m.dist(1, 3) == 4 and m.dist(1, 4) == 3
    assert m.check_triangle()
    # checking each pair once against every other point decides as all
    # triples do, on metrics that hold and on ones that violate it
    metrics = [thrackle_metric(d) for d in range(3, 9)] + [random_metric(6, s) for s in range(3)]
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(3, 6)
        metrics.append(Metric(d, {(i, j): Fraction(rng.randint(1, 12), rng.randint(1, 3))
                                  for i in range(1, d + 1) for j in range(i + 1, d + 1)}))
    verdicts = [m.check_triangle() for m in metrics]
    assert verdicts == [all_triples_triangle(m) for m in metrics]
    assert verdicts.count(False) > 100 and verdicts.count(True) > 20


def test_random_metric_deterministic_and_in_range():
    a = random_metric(5, 9)
    b = random_metric(5, 9)
    assert a.entries == b.entries
    assert random_metric(5, 10).entries != a.entries
    for value in a.entries.values():
        assert 1 <= value <= 2
        assert RANDOM_METRIC_DENOMINATOR % value.denominator == 0


def test_splitmix64_reference_values():
    # first outputs for seed 0 of the standard splitmix64 stream
    stream = splitmix64(0)
    assert next(stream) == 16294208416658607535
    assert next(stream) == 7960286522194355700


def test_tight_span_rows():
    m = thrackle_metric(4)
    h = tight_span_hrep(m)
    assert len(h.rows) == 4 * 5 // 2
    # diagonal rows say x_i >= 0
    diag = [row for row in h.rows if sum(1 for x in row[0] if x != 0) == 1]
    assert all(b == 0 for _, b in diag) and len(diag) == 4


def test_tight_span_scaling_invariance():
    # uniform scaling of the metric preserves the face counts
    m = random_metric(4, 2)
    base = selective_generation(closure_data(tight_span_hrep(m))[2])
    tripled = Metric(m.d, {k: 3 * v for k, v in m.entries.items()})
    scaled = selective_generation(closure_data(tight_span_hrep(tripled))[2])
    assert base.f_vector() == scaled.f_vector()
    assert base.node_count() == scaled.node_count()


def test_cyclic_matrix_values():
    v = cyclic_matrix(3, 3)
    assert v.values == ((1, 2, 3), (2, 4, 6), (3, 6, 9))


def test_permutohedron_matrix():
    v = permutohedron_matrix(3)
    assert v.s == 6 and v.t == 3
    assert v.values[0] == (0, 1, 2)
    assert v.values[-1] == (2, 1, 0)
    with pytest.raises(BudgetExceededError):
        permutohedron_matrix(9, budget=1000)


def test_tropical_hrep_shape():
    h = tropical_hrep(cyclic_matrix(3, 3))
    assert h.dim == 5 and len(h.rows) == 9


def test_tropical_polyhedron_nonempty():
    h = tropical_hrep(permutohedron_matrix(3))
    out = lp_solve(h.coefficient_rows(), h.rhs(), [0] * h.dim)
    assert out.status is LpStatus.OPTIMAL


def test_tropical_vertices_match_pivoting():
    # the subset walk of the reference reads every degenerate vertex the
    # long way: (6,3) has vertices on 9 of its 18 rows in d = 8
    for matrix in [cyclic_matrix(s, t) for s, t in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]]:
        assert tropical_vertices(matrix) == reference_pivoting(tropical_hrep(matrix))
    perm = permutohedron_matrix(3)
    assert tropical_vertices(perm) == reference_pivoting(tropical_hrep(perm))


def test_tropical_vertices_match_bruteforce():
    matrix = cyclic_matrix(2, 3)
    got = tropical_vertices(matrix)
    want = enumerate_vertices_bruteforce(tropical_hrep(matrix))
    assert got.vertices == want.vertices and got.rays == want.rays


def test_tropical_candidates_match_prufer_reference():
    # (6,3), (4,4) and (24,4): the walk on the tropical H-rep finds exactly
    # the vertices that every labeled spanning tree with every choice of
    # row pins down
    for matrix in (permutohedron_matrix(3), cyclic_matrix(4, 4), permutohedron_matrix(4)):
        candidates = reference_tropical_candidates(matrix)
        assert tropical_vertices(matrix) == reference_tropical_vertices(matrix, candidates)


def test_tropical_vertices_budget():
    with pytest.raises(BudgetExceededError):
        tropical_vertices(cyclic_matrix(20, 8), budget=100)


def test_benchmark_closure_counts():
    from conftest import instance

    # (family, params) -> (m, n, alpha) of the projective closure
    want = {
        ("thrackle", (4,)): (11, 12, 60),
        ("thrackle", (5,)): (16, 21, 135),
        ("random-metric", (5, 0)): (16, 21, 135),
        ("tropical-cyclic", (3, 10)): (31, 68, 1003),
        ("tropical-permutohedron", (3,)): (19, 24, 261),
    }
    for (family, params), counts in want.items():
        _, _, _, _, inc = instance(family, *params)
        assert (inc.m, inc.n, inc.alpha) == counts


def test_generator_argument_validation():
    with pytest.raises(InputError):
        thrackle_metric(2)
    with pytest.raises(InputError):
        random_metric(2, 0)
    with pytest.raises(InputError):
        cyclic_matrix(1, 3)
