import random
from pathlib import Path

import pytest

from conftest import cube3, instance, random_pointed_hrep, square_incidence
from oracles import WHOLE, closure, faces, vertex_sets
from polybound.bounded import covers, filter_bounded, full_face_lattice, selective_generation
from polybound.errors import BudgetExceededError, InputError, InternalError
from polybound.formats import read_incidence
from polybound.incidence import (IncidenceMatrix, closure_mask, compute_incidences,
                                 indices_from_mask, mask_from_indices, restrict_to_near)
from polybound.linalg import rank
from polybound.moebius import moebius_generation
from polybound.pipeline import ALGORITHMS, bounded_diagram, closure_data
from polybound.polyhedron import enumerate_vertices_bruteforce


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
        assert sorted(covers(mask, inc)) == reference_covers(mask, inc)


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
