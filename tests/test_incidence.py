import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cube3, instance, quadrant, random_pointed_hrep, ray, segment,
                      square_pyramid, strip, unit_square)
from oracles import as_fractions, dot, reference_polytope_edges
from polybound import bounded, formats
from polybound.bounded import polytope_edges
from polybound.errors import InputError
from polybound.generators import dwarfed_cube
from polybound.incidence import (IncidenceMatrix, compute_incidences, far_face_vertices,
                                 indices_from_mask, is_simple, mask_from_indices,
                                 restrict_to_near)
from polybound.linalg import rank
from polybound.pipeline import closure_data
from polybound.polyhedron import (HRep, VRep, enumerate_vertices_bruteforce,
                                  projective_closure)

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def reference_incidences(h, v):
    """The coordinate facet test compute_incidences replaced: a row is a
    facet iff its incident points span an affine hull of dimension d - 1.
    The replaced code stopped its rank scan at d - 1 and so also accepted
    a row 0.x <= 0 as an all-vertex facet; this oracle takes the full rank."""
    d = h.dim
    points = v.vertices
    for p in points:
        for a, b in h.rows:
            if dot(a, p) > b:
                raise InputError("point outside polyhedron")
    masks = []
    for a, b in h.rows:
        incident = [i for i, p in enumerate(points) if dot(a, p) == b]
        if len(incident) < d or _affine_rank(points, incident) != d - 1:
            continue
        mask = mask_from_indices(incident)
        if mask not in masks:
            masks.append(mask)
    return tuple(masks)


def _affine_rank(points, indices):
    """Rank of the difference vectors of the indexed points."""
    base = points[indices[0]]
    return rank([tuple(x - y for x, y in zip(points[i], base)) for i in indices[1:]])


def _cube(d, extra_rows=(), first_rows=()):
    rows = list(first_rows)
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rows += [(tuple(e), 1), (tuple(-x for x in e), 0)]
    return HRep.from_rows(d, rows + list(extra_rows))


def test_square_incidences():
    h = unit_square()
    inc = compute_incidences(h, enumerate_vertices_bruteforce(h))
    assert inc.m == 4 and inc.n == 4
    assert inc.alpha == 8
    assert all(row.bit_count() == 2 for row in inc.row_masks)


def test_dwarfed_5_alpha():
    _, _, _, _, inc = instance("dwarfed-cube", 5)
    assert inc.alpha == 130


def test_thrackle_3_closure_counts():
    _, _, _, _, inc = instance("thrackle", 3)
    assert (inc.m, inc.n, inc.alpha) == (7, 7, 24)


def test_redundant_row_dropped():
    h = HRep.from_rows(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0),
                           ((1, 1), 3)])  # last row never tight
    inc = compute_incidences(h, enumerate_vertices_bruteforce(h))
    assert inc.m == 4


def test_weakly_redundant_row_dropped():
    # x + y <= 2 touches the square only in the corner (1,1): not a facet
    h = HRep.from_rows(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0),
                           ((1, 1), 2)])
    inc = compute_incidences(h, enumerate_vertices_bruteforce(h))
    assert inc.m == 4


def test_point_outside_rejected():
    h = unit_square()
    bad = VRep.build(2, [(0, 0), (2, 0)], [])
    with pytest.raises(InputError, match="outside"):
        compute_incidences(h, bad)


def test_far_face_segment():
    h = HRep.from_rows(1, [((-1,), 0)])
    clo = projective_closure(h)
    v = enumerate_vertices_bruteforce(clo.closure)
    far = far_face_vertices(v)
    assert [v.vertices[i] for i in far] == [(1,)]


def test_far_face_triangle():
    clo = projective_closure(quadrant())
    v = enumerate_vertices_bruteforce(clo.closure)
    far = far_face_vertices(v)
    assert {v.vertices[i] for i in far} == {(1, 0), (0, 1)}


def test_far_face_must_be_a_face():
    # facets {0,1,2} and {1,2,3}: {1,2} is their meet; {1} lies in a larger
    # meet, no facet holds {0,3}, and the whole vertex set is no proper face
    inc = IncidenceMatrix(4, (0b0111, 0b1110))
    assert inc.with_far_face([1, 2]).far_face == 0b0110
    assert inc.with_far_face([0, 1, 2]).far_face == 0b0111
    for far in ([1], [0, 3], [0, 1, 2, 3]):
        with pytest.raises(InputError, match="far face is not a face"):
            inc.with_far_face(far)


def test_far_face_matrix_keeps_the_caches():
    # compute_incidences builds column_masks for its vertex check; the
    # far-face matrix takes it over instead of building it again
    inc = compute_incidences(cube3(), enumerate_vertices_bruteforce(cube3()))
    far = inc.with_far_face([7])
    assert far.column_masks is inc.column_masks
    _, _, closure_inc = closure_data(dwarfed_cube(3)[1])
    assert "column_masks" in closure_inc.__dict__


def test_far_face_dwarfed_2_leaves_original_vertices():
    _, h, clo, vbar, inc = instance("dwarfed-cube", 2)
    near = [p for i, p in enumerate(vbar.vertices) if not inc.far_face >> i & 1]
    assert len(near) == 3
    originals = enumerate_vertices_bruteforce(h)
    mapped = sorted(as_fractions(clo.map_point(p)) for p in originals.points)
    assert mapped == near


def test_is_simple_examples():
    _, _, _, _, inc5 = instance("dwarfed-cube", 5)
    assert is_simple(inc5, 5)
    sq = unit_square()
    assert is_simple(compute_incidences(sq, enumerate_vertices_bruteforce(sq)), 2)
    # tropical permutohedra are not simple for t >= 3
    _, _, _, _, incp = instance("tropical-permutohedron", 3)
    near_inc, _ = restrict_to_near(incp)
    assert not is_simple(near_inc, 8)
    # tropical cyclic polyhedra are simple
    _, _, _, _, incc = instance("tropical-cyclic", 3, 3)
    near_cyc, _ = restrict_to_near(incc)
    assert is_simple(near_cyc, 5)


def test_polytope_edges_general_criterion():
    # on the simple cube: the pairs sharing exactly d - 1 = 2 facets
    h = cube3()
    inc = compute_incidences(h, enumerate_vertices_bruteforce(h))
    cols = inc.column_masks
    assert polytope_edges(inc) == [(u, v) for u in range(8) for v in range(u + 1, 8)
                                   if (cols[u] & cols[v]).bit_count() == 2]
    assert len(polytope_edges(inc)) == 12
    # and still works on the non-simple pyramid: 8 edges
    hp = square_pyramid()
    incp = compute_incidences(hp, enumerate_vertices_bruteforce(hp))
    assert len(polytope_edges(incp)) == 8


def octahedron() -> HRep:
    # |x| + |y| + |z| <= 1: every vertex lies on four facets, none is simple
    return HRep.from_rows(3, [(signs, 1) for signs in itertools.product((1, -1), repeat=3)])


def _stored_incidences():
    return {path.stem: formats.read_incidence(str(path)) for path in sorted(DATA.glob("*.inc"))}


def test_polytope_edges_match_closure_scan():
    # oracle: every pair {u,v} whose closure is {u,v}
    rng = random.Random(5)
    incs = [closure_data(random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(1, 4)))[2]
            for _ in range(10)]
    roster = ([("dwarfed-cube", (d,)) for d in (3, 4, 5, 6, 10, 15)]
              + [("thrackle", (d,)) for d in range(3, 8)]
              + [("tropical-cyclic", (3, 3)), ("tropical-cyclic", (4, 4))])
    incs += [instance(family, *params)[4] for family, params in roster]
    stored = _stored_incidences()
    assert len(stored) == 6
    incs += stored.values()
    for h in (square_pyramid(), octahedron()):  # vertices on more than d facets
        incs.append(compute_incidences(h, enumerate_vertices_bruteforce(h)))
    incs.append(IncidenceMatrix(2, (0b01, 0b10)))  # a segment is no edge of itself
    # vertices 0 and 1 lie on the same three facets, whose pairwise meets are
    # {0, 1}: vertex 0 finds its one partner three times
    incs.append(IncidenceMatrix(5, (0b00111, 0b01011, 0b10011)))
    for inc in incs:
        assert polytope_edges(inc) == reference_polytope_edges(inc)


def test_polytope_edges_meet_count_on_a_simple_closure(monkeypatch):
    # each vertex's edges are its covers with two vertices, and `covers`
    # makes no meet: it reads the closure check, and at a simple vertex the
    # d drop-one meets, off prefix and suffix ANDs of the vertex's facets
    inc = instance("dwarfed-cube", 15)[4]
    calls = []
    meets = []
    counted_covers, meet = bounded.covers, IncidenceMatrix.meet

    def counted(mask, inc):
        calls.append(mask)
        return counted_covers(mask, inc)

    def counted_meet(self, key):
        meets.append(key)
        return meet(self, key)
    monkeypatch.setattr(bounded, "covers", counted)
    monkeypatch.setattr(IncidenceMatrix, "meet", counted_meet)
    assert len(polytope_edges(inc)) == 226 * 15 // 2
    assert calls == [1 << u for u in range(226)]
    assert meets == []


def test_polytope_edges_match_pair_scan_on_arbitrary_matrices():
    # the rule must hold on any 0/1 matrix; rows may repeat, and the draws
    # must hold vertices on no row, on one row, and on rows that do not
    # meet in them alone
    kinds = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=9))))
    def check(case):
        n, rows = case
        inc = IncidenceMatrix(n, tuple(rows))
        assert polytope_edges(inc) == reference_polytope_edges(inc)
        kinds.update("on no row" if not col else "on one row" if col.bit_count() == 1
                     else "not closed" if inc.meet(col) != 1 << u else "closed"
                     for u, col in enumerate(inc.column_masks))

    check()
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds  # 865, 963, 1,808, 1,790


def _and_of_rows(inc, key):
    acc = inc.all_mask
    for i in indices_from_mask(key):
        acc &= inc.row_masks[i]
    return acc


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 97])
def test_meet_matches_and_loop(m):
    rng = random.Random(m)
    n = 40
    inc = IncidenceMatrix(n, tuple(rng.getrandbits(n) | 1 << rng.randrange(n)
                                   for _ in range(m)))
    keys = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(50)]
    keys += [mask_from_indices(rng.sample(range(m), min(m, 3))) for _ in range(20)]
    for key in keys:
        assert inc.meet(key) == _and_of_rows(inc, key)


def test_restrict_to_near_dwarfed_counts():
    for d in (2, 3, 4):
        _, _, _, _, inc = instance("dwarfed-cube", d)
        near_inc, near = restrict_to_near(inc)
        assert near_inc.n == d + 1
        assert near_inc.alpha == d * d + d  # beta
        assert near_inc.m == inc.m - 1  # the far facet row is gone
        assert len(near) == near_inc.n


def test_column_sums_at_least_d():
    for family, params, d in [("dwarfed-cube", (4,), 4), ("thrackle", (4,), 4),
                              ("tropical-cyclic", (3, 3), 5)]:
        _, _, _, _, inc = instance(family, *params)
        for v in range(inc.n):
            assert inc.column_masks[v].bit_count() >= d


def test_incidence_round_mask_helpers():
    assert indices_from_mask(mask_from_indices([5, 1, 3])) == (1, 3, 5)


def test_incidences_match_rank_reference():
    cases = []
    rng = random.Random(7)
    for _ in range(30):
        clo, vbar, _ = closure_data(random_pointed_hrep(rng, rng.randint(2, 4),
                                                        rng.randint(1, 4)))
        cases.append((clo.closure, vbar))
    roster = ([("dwarfed-cube", (d,)) for d in range(2, 7)]
              + [("thrackle", (d,)) for d in range(3, 6)]
              + [("tropical-cyclic", (3, 3)), ("tropical-cyclic", (4, 4))])
    for family, params in roster:
        _, _, clo, vbar, _ = instance(family, *params)
        cases.append((clo.closure, vbar))
    hp = square_pyramid()
    cases.append((hp, enumerate_vertices_bruteforce(hp)))
    # cube3 and the 4-cube with rows that are no facets: strictly redundant,
    # weakly redundant on a vertex, an edge and (4-cube) a square 2-face with
    # d vertices, a positively rescaled duplicate ahead of its original, and
    # zero rows
    extra = [((1, 1, 1), 4), ((1, 1, 1), 3), ((1, 1, 0), 2), ((0, 0, 0), 0),
             ((0, 0, 0), 1), ((0, 3, 0), 3)]
    cases.append((_cube(3, extra, first_rows=[((2, 0, 0), 2)]),
                  enumerate_vertices_bruteforce(cube3())))
    h4 = _cube(4, [((1, 1, 0, 0), 2), ((0, 0, 0, 0), 0), ((1, 1, 1, 1), 4)])
    cases.append((h4, enumerate_vertices_bruteforce(_cube(4))))
    for h, v in cases:
        assert compute_incidences(h, v).row_masks == reference_incidences(h, v)


def test_cube_facets_despite_extra_rows():
    h = _cube(4, [((1, 1, 0, 0), 2), ((0, 0, 0, 0), 0), ((0, 0, 0, 0), 1)])
    inc = compute_incidences(h, enumerate_vertices_bruteforce(_cube(4)))
    assert inc.m == 8 and all(row.bit_count() == 8 for row in inc.row_masks)


def test_zero_row_with_negative_right_side_is_violated():
    h = _cube(3, [((0, 0, 0), -1)])
    with pytest.raises(InputError, match="outside"):
        compute_incidences(h, enumerate_vertices_bruteforce(cube3()))


@pytest.mark.parametrize("make", [segment, ray])
def test_closure_data_refuses_lower_dimensional(make):
    with pytest.raises(InputError, match="not full-dimensional"):
        closure_data(make())


def test_compute_incidences_refuses_segment():
    h = segment()
    with pytest.raises(InputError, match="not full-dimensional"):
        compute_incidences(h, VRep.build(2, [(0, 0), (0, 1)], []))


def test_compute_incidences_refuses_other_dimensions():
    h = unit_square()
    for dim in (1, 3):
        v = VRep.build(dim, [(0,) * dim, (1,) * dim], [])
        with pytest.raises(InputError, match=f"V-rep dimension {dim} does not match "
                                             "H-rep dimension 2"):
            compute_incidences(h, v)


def test_compute_incidences_never_sees_a_point_of_the_wrong_length():
    # a point or ray with a stray coordinate is refused, not cut to length 2
    h = HRep.from_rows(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    with pytest.raises(InputError, match="^point of length 3 in a V-rep of dimension 2$"):
        compute_incidences(h, VRep.build(2, [(0, 0), (1, 0), (0, 1, 7)], []))
    with pytest.raises(InputError, match="^point of length 1 in a V-rep of dimension 2$"):
        VRep.from_integers(2, [((0,), 1)], [])
    with pytest.raises(InputError, match="^ray of length 3 in a V-rep of dimension 2$"):
        VRep.build(2, [(0, 0)], [(1, 0, 0)])
    assert compute_incidences(h, VRep.build(2, [(0, 0), (1, 0), (0, 1)], [])).m == 3


def test_compute_incidences_refuses_rays():
    h = quadrant()
    with pytest.raises(InputError, match="close the polyhedron first"):
        compute_incidences(h, enumerate_vertices_bruteforce(h))


def test_closure_data_accepts_strip_and_quadrant():
    _, vbar, inc = closure_data(strip())
    assert (inc.m, inc.n) == (3, 3) and len(vbar.vertices) == 3
    _, vbar, inc = closure_data(quadrant())
    assert (inc.m, inc.n) == (3, 3) and inc.far_face.bit_count() == 2
