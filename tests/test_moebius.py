import pytest

from conftest import instance, strip
from oracles import faces, moebius_oracle_filter, vertex_poset, vertex_sets
from polybound.bounded import (covers, filter_bounded, full_face_lattice,
                               relabel_vertices, selective_generation)
from polybound.errors import BudgetExceededError, InputError
from polybound.incidence import IncidenceMatrix, restrict_to_near
from polybound.moebius import is_bounded, moebius_generation
from polybound.pipeline import closure_data


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
    # the down-set walk along admitted covers gives vertex_poset's mu everywhere
    for family, params in [("dwarfed-cube", (3,)), ("thrackle", (4,)),
                           ("tropical-cyclic", (3, 3))]:
        _, _, _, _, inc = instance(family, *params)
        near_inc, _ = restrict_to_near(inc)
        vp = vertex_poset(near_inc)
        ups, mu = {}, {}
        for element in vp.elements:  # already ordered by cardinality
            bounded = is_bounded(element, ups, mu)
            assert mu.get(element, 0) == vp.mu[element]
            assert bounded == (vp.mu[element] != 0)
            if bounded:
                ups[element] = covers(element, near_inc)
        assert mu == {s: m for s, m in vp.mu.items() if m}


def test_moebius_rejects_far_face_data():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    with pytest.raises(InputError, match="far-face data present"):
        moebius_generation(inc)


def test_vertex_poset_rejects_far_face_data():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    with pytest.raises(InputError):
        vertex_poset(inc)
