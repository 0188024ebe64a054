import random
from collections import Counter
from functools import reduce
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cube3, instance, random_pointed_hrep, square_incidence
from oracles import WHOLE, closure, faces, vertex_sets
from polybound import bounded
from polybound.bounded import (covers, facet_set, filter_bounded, full_face_lattice,
                               selective_generation)
from polybound.errors import BudgetExceededError, InputError, InternalError
from polybound.formats import read_incidence
from polybound.incidence import (IncidenceMatrix, closure_mask, compute_incidences,
                                 indices_from_mask, mask_from_indices, restrict_to_near)
from polybound.linalg import rank
from polybound.moebius import moebius_generation
from polybound.pipeline import ALGORITHMS, bounded_diagram, closure_data
from polybound.polyhedron import enumerate_vertices_bruteforce

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def test_closure_on_square():
    inc = square_incidence()
    assert closure(0b0001, inc) == 0b0001
    assert closure(0b0101, inc) is WHOLE  # opposite corners share no facet
    assert closure(0, inc) == 0  # intersection of all four rows


def test_closure_properties_random():
    _, _, _, _, inc = instance("dwarfed-cube", 3)
    rng = random.Random(1)
    for _ in range(80):
        s = rng.getrandbits(inc.n)
        cl = closure(s, inc)
        if cl is WHOLE:
            continue
        assert s & ~cl == 0              # extensive
        assert closure(cl, inc) == cl    # idempotent
        t = s | rng.getrandbits(inc.n)   # monotone
        cl_t = closure(t, inc)
        assert cl_t is WHOLE or cl & ~cl_t == 0


def test_closure_matches_row_scan():
    # the table meet of F(mask) against closure_mask's scan over all rows
    rng = random.Random(3)
    incs = [square_incidence(), IncidenceMatrix(3, ())]
    incs += [closure_data(random_pointed_hrep(rng, rng.randint(2, 4), rng.randint(1, 4)))[2]
             for _ in range(10)]
    incs += [instance(family, *params)[4] for family, params in
             [("dwarfed-cube", (4,)), ("thrackle", (4,)), ("tropical-cyclic", (3, 3))]]
    closed = 0
    for inc in incs:
        masks = [0, inc.all_mask, rng.getrandbits(inc.n)]
        masks += [mask_from_indices(rng.sample(range(inc.n), rng.randint(1, min(3, inc.n))))
                  for _ in range(40)]
        for s in masks:
            expected = closure_mask(s, inc.row_masks)
            assert closure(s, inc) == expected
            closed += expected is not WHOLE
    assert closed > 200


def test_covers_square():
    inc = square_incidence()
    assert sorted(covers(0, inc)) == [0b0001, 0b0010, 0b0100, 0b1000]
    assert sorted(covers(0b0001, inc)) == [0b0011, 0b1001]


def test_covers_are_incomparable_and_closed():
    _, _, _, _, inc = instance("thrackle", 4)
    for face in (0, closure(1, inc)):
        ups = covers(face, inc)
        for g in ups:
            assert closure(g, inc) == g
            assert face & ~g == 0 and face != g
        for a in ups:
            for b in ups:
                assert a == b or (a & ~b) != 0


def test_covers_of_vertices_match_lattice_arcs():
    # every singleton's covers coincide with the full-lattice up-arcs
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    lattice = full_face_lattice(inc)
    for i, (mask, rank) in enumerate(zip(lattice.masks, lattice.ranks)):
        if rank != 0 or mask & inc.far_face:
            continue
        ups = {lattice.masks[hi] for lo, hi in lattice.arcs if lo == i}
        assert set(covers(mask, inc)) == ups


def reference_covers(mask, inc):
    """Reference for `covers`: scan the rows for every closure
    cl(mask + {v}), then keep the inclusion-minimal ones pairwise.  Only
    rows through mask can hold mask + {v}, so only those are scanned."""
    through = [row for row in inc.row_masks if mask & ~row == 0]
    candidates = set()
    for v in indices_from_mask(inc.all_mask & ~mask):
        cl = closure_mask(mask | 1 << v, through)
        if cl is not WHOLE:
            candidates.add(cl)
    minimal = [c for c in candidates
               if not any(o != c and o & ~c == 0 for o in candidates)]
    return sorted(minimal)


def in_covers_order(found, mask, inc):
    """The covers `found` of mask in the order `covers` lists them, on
    which node ids and so written bytes depend: by decreasing size of the
    key F(c), then by the lowest new vertex, the first with that key."""
    def rank(c):
        new = c & ~mask
        return -facet_set(c, inc).bit_count(), new & -new
    return sorted(found, key=rank)


def test_covers_match_reference_on_every_lattice_face():
    rng = random.Random(7)
    incs = [closure_data(random_pointed_hrep(rng, rng.randint(2, 3), rng.randint(1, 3)))[2]
            for _ in range(10)]
    incs += [instance(family, *params)[4] for family, params in
             [("dwarfed-cube", (3,)), ("thrackle", (5,)), ("tropical-cyclic", (4, 4)),
              ("tropical-permutohedron", (3,))]]  # m = 19: a partial last table byte
    for inc in incs:
        for mask in full_face_lattice(inc).masks:
            assert sorted(covers(mask, inc)) == reference_covers(mask, inc)


def test_covers_match_reference_on_sets_that_are_not_closed():
    # covers of a set H that is not closed: the one cover is cl(H), reached
    # from the vertices of cl(H) - H, which share H's facet set
    rng = random.Random(11)
    not_closed = 0
    for family, params in [("dwarfed-cube", (4,)), ("thrackle", (4,)), ("tropical-cyclic", (3, 3))]:
        inc = instance(family, *params)[4]
        for _ in range(60):
            s = mask_from_indices(rng.sample(range(inc.n), rng.randint(1, 3)))
            assert sorted(covers(s, inc)) == reference_covers(s, inc)
            not_closed += closure(s, inc) not in (s, WHOLE)
    assert not_closed > 20


def test_covers_match_reference_on_stored_permutohedron_4():
    # the (24,4) closure incidences of the benchmark: m = 97, 13 table bytes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "tropical-permutohedron-4.inc"
    inc = read_incidence(str(path))
    assert (inc.m, inc.n, len(inc.row_ands)) == (97, 152, 13)
    hd = selective_generation(inc)
    assert hd.node_count() == 1424
    for mask in hd.masks:
        found, expected = covers(mask, inc), reference_covers(mask, inc)
        assert sorted(found) == expected
        assert found == in_covers_order(expected, mask, inc)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=7),
    st.integers(0, (1 << n) - 1))))
def test_covers_match_reference_on_arbitrary_matrices(case):
    # moebius searches near restrictions, which are no polytope's matrices,
    # so the maximal-key rule must hold on any 0/1 matrix and any set
    n, rows, mask = case
    inc = IncidenceMatrix(n, tuple(rows))
    found, expected = covers(mask, inc), reference_covers(mask, inc)
    assert sorted(found) == expected
    assert found == in_covers_order(expected, mask, inc)


def test_covers_hit_each_branch_on_closed_sets_of_arbitrary_matrices():
    # a closed set's covers come from one of three branches, named by D,
    # the facets whose drop from F leaves a cover: D = F (the one-drop
    # covers are all), D = 0 (every outside vertex is grouped) and neither
    # (only the vertices of meet(D) are grouped); D is read off the
    # reference covers, whose keys are their facet sets
    hits = Counter()

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=2, max_size=9, unique=True),
        st.integers(0, (1 << n) - 1))))
    def check(case):
        n, rows, chosen = case
        inc = IncidenceMatrix(n, tuple(rows))
        mask = inc.meet(facet_set(chosen, inc))  # the closure of the chosen vertices
        found, expected = covers(mask, inc), reference_covers(mask, inc)
        assert found == in_covers_order(expected, mask, inc)
        if expected:
            facets = facet_set(mask, inc)
            short = [key for key in (facet_set(c, inc) for c in expected)
                     if key.bit_count() == facets.bit_count() - 1]
            dropped = facets & ~reduce(and_, short, facets)
            hits["D = F" if dropped == facets else "D = 0" if not dropped else "between"] += 1

    check()  # rows are unique: a repeated row is never dropped alone, so D = F would be rare
    assert min(hits["D = F"], hits["D = 0"], hits["between"]) >= 60, hits  # 79, 92, 337


def test_covers_group_only_the_vertices_on_every_dropped_facet():
    # at vertex 0, on all five rows, the keys are the columns: 11101 (v2)
    # and 11110 (v3) drop one facet each, so D = 00011 and meet(D) = {0, 4,
    # 5, 6}; the two-drop keys 01011 (v4) and 10011 (v5) hold D and are
    # covers, and 00011 (v6) lies in both; v1's key 01100 lies in a
    # one-drop key, so v1 is not grouped, else {0, 1} would pass as a cover
    inc = IncidenceMatrix(7, (0b1110101, 0b1111001, 0b0001111, 0b0011111, 0b0101101))
    assert inc.column_masks == (0b11111, 0b01100, 0b11101, 0b11110, 0b01011, 0b10011, 0b00011)
    assert inc.meet(0b00011) == 0b1110001
    assert covers(0b1, inc) == [0b101, 0b1001, 0b10001, 0b100001]
    assert covers(0b1, inc) == in_covers_order(reference_covers(0b1, inc), 0b1, inc)


def test_covers_take_the_one_drop_keys_in_one_batch():
    # vertex keys at the empty face (columns, row 3 first): 1110 and 1101
    # drop one facet each, so D = 0011; 0011 holds D and is maximal, while
    # 0100 and 0001 miss a facet of D and lie in a one-drop key
    inc = IncidenceMatrix(5, (0b10110, 0b00101, 0b01011, 0b00011))
    assert inc.column_masks == (0b1110, 0b1101, 0b0011, 0b0100, 0b0001)
    assert covers(0, inc) == [0b001, 0b010, 0b100]


def counted_search(monkeypatch, inc, alg):
    """(covers calls, covers returned, meets) over one `bounded_diagram`
    run, and the diagram; `inc` is read before the counters are set."""
    counts = {"calls": 0, "covers": 0, "meets": 0}
    meet, real_covers = IncidenceMatrix.meet, bounded.covers

    def counting_meet(self, key):
        counts["meets"] += 1
        return meet(self, key)

    def counting_covers(mask, inc):
        found = real_covers(mask, inc)
        counts["calls"] += 1
        counts["covers"] += len(found)
        return found

    monkeypatch.setattr(IncidenceMatrix, "meet", counting_meet)
    monkeypatch.setattr(bounded, "covers", counting_covers)
    hd = bounded_diagram(inc, alg)
    monkeypatch.undo()
    return counts, hd


@pytest.mark.parametrize("alg, calls, found", [("selective", 1424, 37988),
                                               ("moebius", 1424, 7132)])
def test_covers_make_one_meet_per_call_on_stored_permutohedron_4(monkeypatch, alg, calls,
                                                                  found):
    # one meet checks that a face is closed, and each cover is read off its
    # key's vertices; meeting every distinct facet key took 190,722 meets
    # for selective, and one meet per cover 39,412
    inc = read_incidence(str(DATA / "tropical-permutohedron-4.inc"))
    counts, _ = counted_search(monkeypatch, inc, alg)
    assert counts == {"calls": calls, "covers": found, "meets": calls}


@pytest.mark.parametrize("stem, nodes", [("thrackle-8", 578), ("tropical-cyclic-5-5", 322),
                                         ("tropical-permutohedron-4", 1424)])
@pytest.mark.parametrize("alg", ["selective", "moebius"])
def test_cover_search_calls_covers_once_per_node(monkeypatch, stem, nodes, alg):
    # the paper's output sensitivity: selective and moebius expand exactly
    # the bounded faces and the empty one, each with one `covers` call
    counts, hd = counted_search(monkeypatch, read_incidence(str(DATA / f"{stem}.inc")), alg)
    assert counts["calls"] == hd.node_count() == nodes


def test_face_tree_insert_then_find():
    # Edge {0,1} of the square is a cover of vertex 0 and of vertex 1; the
    # face index must hand the second discovery the index of the first.
    hd = full_face_lattice(square_incidence())
    ids = {mask: i for i, mask in enumerate(hd.masks)}
    edge = ids[0b0011]
    assert sorted(lo for lo, hi in hd.arcs if hi == edge) == [ids[0b0001], ids[0b0010]]
    _, _, _, _, inc = instance("dwarfed-cube", 5)
    hd = selective_generation(inc)
    for lo, hi in hd.arcs:
        assert hd.masks[hi] in covers(hd.masks[lo], inc)


def test_face_tree_distinct_faces_distinct_ids():
    hd = full_face_lattice(square_incidence())
    ids = {mask: i for i, mask in enumerate(hd.masks)}
    assert ids[0b0011] != ids[0b1001]
    _, _, _, _, inc = instance("dwarfed-cube", 5)
    for hd in (full_face_lattice(square_incidence()), selective_generation(inc)):
        assert len(set(hd.masks)) == len(hd.masks) == len(hd.ranks)


def test_diagram_ids_follow_pop_order():
    hd = full_face_lattice(square_incidence())
    assert hd.masks == [
        0, 0b0001, 0b0010, 0b0100, 0b1000,   # covers of the empty face
        0b0011, 0b1001, 0b0110, 0b1100,      # first reached from vertices 0, 0, 1, 2
        0b1111]
    _, _, _, _, inc = instance("thrackle", 5)
    near_inc, _ = restrict_to_near(inc)
    lattice = full_face_lattice(inc)
    for hd in (selective_generation(inc), moebius_generation(near_inc), lattice):
        # the first arc into a face comes from the face that discovered it
        discovery = list(dict.fromkeys(hi for _, hi in hd.arcs))
        found = {node: i for i, node in enumerate(discovery)}
        pop = sorted(discovery, key=lambda node: (hd.masks[node].bit_count(), found[node]))
        assert pop == list(range(1, hd.node_count()))
    # in the lattice pop order is not discovery order, and some face pops
    # before a face of lower rank: cardinality extends containment, not rank
    assert pop != discovery
    assert any(high > low for high, low in zip(lattice.ranks, lattice.ranks[1:]))


def test_cover_search_refuses_a_poset_that_is_not_graded():
    # {0,1,3} covers both {0}, above the empty face, and {1,3}, above {3}
    inc = IncidenceMatrix(4, (0b1011, 0b0001, 0b1010, 0b1000))
    with pytest.raises(InternalError, match="^cover arcs must raise rank by one$"):
        full_face_lattice(inc)


def test_selective_dwarfed_5():
    _, _, _, _, inc = instance("dwarfed-cube", 5)
    hd = selective_generation(inc)
    assert hd.node_count() == 12
    assert hd.f_vector() == [6, 5]


def test_selective_thrackle_6():
    _, _, _, _, inc = instance("thrackle", 6)
    assert selective_generation(inc).node_count() == 100


def test_selective_far_face_everything():
    # no facet of the square holds all four vertices, so they are no face
    with pytest.raises(InputError, match="far face is not a face"):
        square_incidence().with_far_face([0, 1, 2, 3])


def test_selective_requires_far_face():
    with pytest.raises(InputError, match="far face required"):
        selective_generation(square_incidence())


def test_selective_max_dim_restricts():
    _, _, _, _, inc = instance("thrackle", 5)
    full = selective_generation(inc)
    skel = selective_generation(inc, max_dim=1)
    assert faces(skel) == {(rank, mask) for rank, mask in faces(full) if rank <= 1}


def test_full_lattice_square():
    assert full_face_lattice(square_incidence()).node_count() == 10


def test_full_lattice_cube():
    h = cube3()
    inc = compute_incidences(h, enumerate_vertices_bruteforce(h))
    hd = full_face_lattice(inc)
    assert hd.node_count() == 28
    assert hd.f_vector() == [8, 12, 6, 1]


def test_filter_bounded_square():
    hd = full_face_lattice(square_incidence())
    got = filter_bounded(hd, mask_from_indices([2, 3]))
    assert got.node_count() == 4
    assert vertex_sets(got) == {0, 0b0001, 0b0010, 0b0011}


def test_filter_bounded_empty_far_drops_only_top():
    hd = full_face_lattice(square_incidence())
    got = filter_bounded(hd, 0)
    assert got.node_count() == hd.node_count() - 1


def test_filter_matches_selective():
    for family, params in [("dwarfed-cube", (2,)), ("dwarfed-cube", (4,)),
                           ("thrackle", (4,)), ("tropical-cyclic", (3, 3))]:
        _, _, _, _, inc = instance(family, *params)
        direct = selective_generation(inc)
        filtered = filter_bounded(full_face_lattice(inc), inc.far_face)
        assert direct.canonical() == filtered.canonical()


def test_filter_matches_selective_random():
    rng = random.Random(42)
    for _ in range(10):
        h = random_pointed_hrep(rng, rng.randint(2, 3), rng.randint(1, 3))
        _, _, inc = closure_data(h)
        direct = selective_generation(inc)
        filtered = filter_bounded(full_face_lattice(inc), inc.far_face)
        assert direct.canonical() == filtered.canonical()


@pytest.mark.parametrize("family, params", [("thrackle", (5,)), ("dwarfed-cube", (4,)),
                                            ("tropical-cyclic", (3, 3))])
def test_skeleton_cutoff_agrees_across_algorithms(family, params):
    _, _, _, _, inc = instance(family, *params)
    top = max(selective_generation(inc).ranks)
    for max_dim in (None, *range(top + 2)):
        want = bounded_diagram(inc, "selective", max_dim).canonical()
        for alg in ALGORITHMS:
            assert bounded_diagram(inc, alg, max_dim).canonical() == want, (alg, max_dim)


def test_downward_closure_and_rank_gradedness():
    _, _, _, vbar, inc = instance("dwarfed-cube", 3)
    hd = selective_generation(inc)
    in_deg = [0] * hd.node_count()
    for lo, hi in hd.arcs:
        assert hd.ranks[hi] == hd.ranks[lo] + 1
        in_deg[hi] += 1
    for i, (mask, face_rank) in enumerate(zip(hd.masks, hd.ranks)):
        if face_rank >= 0:
            assert in_deg[i] >= 1
        # rank equals the affine dimension of the face's vertex coordinates
        pts = [vbar.vertices[v] for v in indices_from_mask(mask)]
        if pts:
            base = pts[0]
            diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
            assert face_rank == (rank(diffs) if diffs else 0)


@pytest.mark.parametrize("alg, expanded", [("selective", 42), ("moebius", 42),
                                           ("filter", 263)])
def test_budget_counts_the_faces_expanded(alg, expanded):
    # selective and moebius expand the 42 bounded faces of thrackle-5, the
    # filter's lattice search every face but the improper top
    _, _, _, _, inc = instance("thrackle", 5)
    assert bounded_diagram(inc, alg, budget=expanded).node_count() == 42
    with pytest.raises(BudgetExceededError, match=rf"\(budget {expanded - 1}\)$"):
        bounded_diagram(inc, alg, budget=expanded - 1)
