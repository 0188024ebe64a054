from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance, strip
from oracles import (ReferenceMoebiusWalk, faces, moebius_oracle_filter, vertex_poset,
                     vertex_sets)
from polybound.bounded import (_cover_search, filter_bounded, full_face_lattice,
                               relabel_vertices, selective_generation)
from polybound.errors import BudgetExceededError, InputError, InternalError
from polybound.formats import read_incidence
from polybound.incidence import IncidenceMatrix, indices_from_mask, restrict_to_near
from polybound.moebius import moebius_generation, moebius_number
from polybound.pipeline import closure_data

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def halfline_incidence():
    return IncidenceMatrix(1, (0b1,))


def test_vertex_poset_halfline():
    vp = vertex_poset(halfline_incidence())
    assert set(vp.elements) == {0, 0b1}
    assert vp.mu[0] == 1 and vp.mu[0b1] == -1


def test_vertex_poset_strip():
    _, _, inc = closure_data(strip())
    near_inc, _ = restrict_to_near(inc)
    vp = vertex_poset(near_inc)
    assert set(vp.elements) == {0, 0b01, 0b10, 0b11}
    assert vp.mu[0b11] == 1
    assert vp.mu_top == 0


def test_vertex_poset_dwarfed_2():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    near_inc, _ = restrict_to_near(inc)
    vp = vertex_poset(near_inc)
    assert vp.size == 2**2 + 2
    assert vp.mu_top == 0
    assert len(moebius_oracle_filter(vp)) == 6  # every proper element is bounded here


def test_vertex_poset_budget():
    _, _, _, _, inc = instance("dwarfed-cube", 4)
    near_inc, _ = restrict_to_near(inc)
    with pytest.raises(BudgetExceededError):
        vertex_poset(near_inc, budget=3)


def test_moebius_generation_halfline():
    hd = moebius_generation(halfline_incidence())
    assert hd.node_count() == 2
    assert (hd.ranks, hd.masks) == ([-1, 0], [0, 1])
    assert hd.arcs == [(0, 1)]


def test_moebius_generation_strip_matches_filter_oracle():
    _, _, inc = closure_data(strip())
    near_inc, near = restrict_to_near(inc)
    hd = moebius_generation(near_inc)
    assert hd.node_count() == 4
    filtered = filter_bounded(full_face_lattice(inc), inc.far_face)
    relabeled = relabel_vertices(hd, dict(enumerate(near)), inc.n, inc.far_face)
    assert relabeled.canonical() == filtered.canonical()


def test_moebius_thrackle_5():
    _, _, _, _, inc = instance("thrackle", 5)
    near_inc, _ = restrict_to_near(inc)
    assert moebius_generation(near_inc).node_count() == 42


def test_random_metric_5_has_42_bounded_elements():
    _, _, _, _, inc = instance("random-metric", 5, 0)
    near_inc, _ = restrict_to_near(inc)
    assert len(moebius_oracle_filter(vertex_poset(near_inc))) == 42


def test_phi_prime_at_most_phi_doubleprime():
    for family, params in [("dwarfed-cube", (2,)), ("dwarfed-cube", (3,)),
                           ("thrackle", (3,)), ("tropical-cyclic", (3, 3))]:
        _, _, _, _, inc = instance(family, *params)
        near_inc, _ = restrict_to_near(inc)
        vp = vertex_poset(near_inc)
        phi_prime = moebius_generation(near_inc).node_count()
        assert phi_prime <= vp.size
        # strict gap for dwarfed cubes once 2^d + d exceeds 2d + 2, i.e. d >= 3
        if family == "dwarfed-cube" and params[0] >= 3:
            assert phi_prime < vp.size


def test_moebius_max_dim():
    _, _, _, _, inc = instance("thrackle", 5)
    near_inc, _ = restrict_to_near(inc)
    full = moebius_generation(near_inc)
    skel = moebius_generation(near_inc, max_dim=0)
    assert faces(skel) == {(rank, mask) for rank, mask in faces(full) if rank <= 0}


def test_moebius_matches_selective_and_oracle():
    for family, params in [("dwarfed-cube", (3,)), ("thrackle", (4,)),
                           ("tropical-cyclic", (3, 3)), ("random-metric", (4, 1))]:
        _, _, _, _, inc = instance(family, *params)
        near_inc, near = restrict_to_near(inc)
        hd = moebius_generation(near_inc)
        assert vertex_sets(hd) == moebius_oracle_filter(vertex_poset(near_inc))
        relabeled = relabel_vertices(hd, dict(enumerate(near)), inc.n, inc.far_face)
        assert relabeled.canonical() == selective_generation(inc).canonical()


def test_below_sets_track_bounded_elements():
    # the bitsets of the bounded elements below each element give
    # vertex_poset's mu everywhere, 0 on the unbounded elements
    for family, params in [("dwarfed-cube", (3,)), ("thrackle", (4,)),
                           ("tropical-cyclic", (3, 3))]:
        _, _, _, _, inc = instance(family, *params)
        near_inc, _ = restrict_to_near(inc)
        vp = vertex_poset(near_inc)
        holds, numbers = [0] * (near_inc.m + 1), {}
        for element in vp.elements:  # already ordered by cardinality
            assert moebius_number(element, near_inc, holds, numbers) == vp.mu[element]
        bounded = [s for s in vp.elements if vp.mu[s]]
        assert holds[-1] == (1 << len(bounded)) - 1
        assert {value: indices_from_mask(bits) for value, bits in numbers.items()} == {
            value: tuple(i for i, s in enumerate(bounded) if vp.mu[s] == value)
            for value in set(vp.mu.values()) - {0}}


def recording_keep(inc):
    """moebius_generation's `keep` with the number of each popped face
    recorded, zero ones included: (numbers, keep)."""
    holds, by_number, numbers = [0] * (inc.m + 1), {}, {}

    def keep(face):
        numbers[face] = moebius_number(face, inc, holds, by_number)
        return numbers[face]

    return numbers, keep


def outcome(search):
    """A face search's nodes in order and its arcs, or the error that it
    raises on a matrix whose faces are not graded."""
    try:
        hd = search()
    except InternalError as error:
        return str(error)
    return hd.masks, hd.ranks, hd.arcs


def near_part(path):
    """The near restriction of a stored closure's incidences, which
    moebius searches."""
    return restrict_to_near(read_incidence(str(path)))[0]


@pytest.mark.parametrize("path", sorted(DATA.glob("*.inc")), ids=lambda path: path.stem)
def test_moebius_matches_reference_walk_on_stored_files(path):
    inc = near_part(path)
    walk, (numbers, keep) = ReferenceMoebiusWalk(inc), recording_keep(inc)
    expected = outcome(lambda: _cover_search(inc, 0, keep=walk))
    assert outcome(lambda: moebius_generation(inc)) == expected
    _cover_search(inc, 0, keep=keep)
    assert list(numbers.items()) == list(walk.numbers.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=7),
    st.sampled_from([None, 0, 1, 2]))))
def test_moebius_matches_reference_walk_on_arbitrary_matrices(case):
    # moebius searches near restrictions, which are no polytope's matrices,
    # so the numbers must be exact on any 0/1 matrix
    n, rows, max_dim = case
    inc = IncidenceMatrix(n, tuple(rows))
    walk, (numbers, keep) = ReferenceMoebiusWalk(inc), recording_keep(inc)
    expected = outcome(lambda: _cover_search(inc, 0, max_dim, keep=walk))
    assert outcome(lambda: moebius_generation(inc, max_dim)) == expected
    outcome(lambda: _cover_search(inc, 0, max_dim, keep=keep))
    assert list(numbers.items()) == list(walk.numbers.items())


@pytest.mark.parametrize("stem", ["tropical-permutohedron-4", "thrackle-8", "tropical-cyclic-5-5"])
def test_bounded_faces_have_the_moebius_number_of_their_rank(stem):
    # the interval from the empty face to a bounded face F is the face
    # lattice of the polytope F, so its Moebius number is fixed by F's rank
    inc = near_part(DATA / f"{stem}.inc")
    numbers, keep = recording_keep(inc)
    hd = _cover_search(inc, 0, keep=keep)
    assert [numbers[mask] for mask in hd.masks] == [(-1) ** (rank + 1) for rank in hd.ranks]
    assert len(numbers) > hd.node_count()  # unbounded elements were popped too


def test_moebius_rejects_far_face_data():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    with pytest.raises(InputError, match="far-face data present"):
        moebius_generation(inc)


def test_vertex_poset_rejects_far_face_data():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    with pytest.raises(InputError):
        vertex_poset(inc)
