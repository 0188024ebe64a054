from fractions import Fraction

import pytest

from conftest import instance
from oracles import seeded_f_vector
from polybound.bounded import selective_generation
from polybound.errors import InputError
from polybound.fvector import f_vector_simple, vertex_key
from polybound.incidence import IncidenceMatrix, is_simple, indices_from_mask
from polybound.polyhedron import VRep

# every closure here is simple on its ordinary vertices
ROSTER = ([("dwarfed-cube", (d,)) for d in range(2, 16)]
          + [("tropical-cyclic", st) for st in [(3, 3), (3, 4), (4, 4), (3, 6), (5, 5), (3, 10)]])
HALF = Fraction(1, 2)


def test_vertex_keys_segment():
    v = VRep.build(1, [(0,), (1,)], [])
    assert vertex_key(v.vertices[1]) > vertex_key(v.vertices[0])


def test_vertex_keys_triangle():
    v = VRep.build(2, [(0, 0), (1, 0), (0, 1)], [])
    far = {i for i, p in enumerate(v.vertices) if sum(p) == 1}
    keys = [vertex_key(p) for p in v.vertices]
    assert len(set(keys)) == 3
    near_key = keys[v.vertices.index((0, 0))]
    assert all(keys[i] > near_key for i in far)


def test_vertex_keys_on_dwarfed():
    _, _, _, vbar, inc = instance("dwarfed-cube", 5)
    far = set(indices_from_mask(inc.far_face))
    keys = [vertex_key(p) for p in vbar.vertices]
    assert len(set(keys)) == len(keys)
    assert min(keys[i] for i in far) > max(k for i, k in enumerate(keys) if i not in far)


def test_dwarfed_2_face_numbers():
    _, _, _, vbar, inc = instance("dwarfed-cube", 2)
    fb, fa, hv = f_vector_simple(inc, vbar, 2)
    assert fb.f == (3, 2, 0)
    assert fa.total == 2**2 + 2 * 2**1 + 1
    assert sum(hv.h) == 3          # vertices of the unbounded polyhedron
    assert sum(hv.h_inf) == 2      # far-face vertices


def test_dwarfed_5_face_numbers():
    _, _, _, vbar, inc = instance("dwarfed-cube", 5)
    fb, fa, _ = f_vector_simple(inc, vbar, 5)
    assert fb.f == (6, 5, 0, 0, 0, 0)
    assert fb.total == 12
    assert fa.total == 2**5 + 5 * 2**4 + 1


def test_cyclic_33_face_numbers():
    _, h, _, vbar, inc = instance("tropical-cyclic", 3, 3)
    fb, _, _ = f_vector_simple(inc, vbar, h.dim)
    assert fb.total == 14


def test_matches_rank_histogram():
    for family, params in [("dwarfed-cube", (3,)), ("dwarfed-cube", (6,)),
                           ("tropical-cyclic", (3, 3)), ("tropical-cyclic", (4, 4))]:
        _, h, _, vbar, inc = instance(family, *params)
        fb, _, _ = f_vector_simple(inc, vbar, h.dim)
        hist = selective_generation(inc).f_vector()
        assert list(fb.f[:len(hist)]) == hist
        assert all(x == 0 for x in fb.f[len(hist):])


@pytest.mark.parametrize("family, params", ROSTER,
                         ids=["-".join(map(str, (f, *p))) for f, p in ROSTER])
def test_fixed_order_matches_seeded_objective(family, params):
    # f_bounded, f_all and h do not depend on the generic objective; h_inf
    # does only when the far face is not simple
    _, _, _, vbar, inc = instance(family, *params)
    fb, fa, hv = f_vector_simple(inc, vbar, vbar.dim)
    ref_fb, ref_fa, ref_h, ref_h_inf = seeded_f_vector(inc, vbar)
    assert (fb.f, fa.f, hv.h) == (ref_fb, ref_fa, ref_h)
    if is_simple(inc, vbar.dim):
        assert hv.h_inf == ref_h_inf


def test_f_all_matches_lattice_count():
    # total face count of the unbounded polyhedron, checked against the
    # full-lattice oracle: faces of the closure not inside the far face
    for family, params in [("dwarfed-cube", (3,)), ("tropical-cyclic", (3, 3))]:
        from polybound.bounded import full_face_lattice

        _, h, _, vbar, inc = instance(family, *params)
        _, fa, _ = f_vector_simple(inc, vbar, h.dim)
        lattice = full_face_lattice(inc)
        phi = sum(1 for mask in lattice.masks if mask & ~inc.far_face) + 1
        assert fa.total == phi


def test_rejects_non_simple():
    _, h, _, vbar, inc = instance("tropical-permutohedron", 3)
    with pytest.raises(InputError, match="not simple"):
        f_vector_simple(inc, vbar, h.dim)


def test_refuses_a_near_vertex_whose_edge_count_is_not_d():
    # vertex (0, 0) lies on d = 2 facets, but one of them holds three
    # vertices, so it has one edge: no polytope has these incidences
    inc = IncidenceMatrix(4, (0b0111, 0b1001, 0b1110), far_face=0b1110)
    v = VRep.build(2, [(0, 0), (0, 1), (HALF, HALF), (1, 0)], [])
    with pytest.raises(InputError, match=r"^not a polytope's incidences: vertex \(0, 0\) "
                                         "is on 2 facets, but its edge count is 1$"):
        f_vector_simple(inc, v, 2)


def test_requires_far_face():
    _, _, _, vbar, inc = instance("dwarfed-cube", 2)
    bare = type(inc)(inc.n, inc.row_masks, None)
    with pytest.raises(InputError, match="far-face"):
        f_vector_simple(bare, vbar, 2)


def test_refuses_a_dimension_other_than_the_vreps():
    _, _, _, vbar, inc = instance("dwarfed-cube", 3)
    with pytest.raises(InputError, match="^dimension 2 does not match V-rep dimension 3$"):
        f_vector_simple(inc, vbar, 2)
    assert f_vector_simple(inc, vbar, 3)[0].f == (4, 3, 0, 0)


def test_refuses_a_far_face_that_is_not_on_top():
    # any other facet of the closure as the far face leaves a vertex of
    # the true far face (sum(x) = 1) among the ordinary ones
    _, _, _, vbar, inc = instance("dwarfed-cube", 3)
    others = [row for row in inc.row_masks if row != inc.far_face]
    assert len(others) == 6
    for row in others:
        moved = type(inc)(inc.n, inc.row_masks, row)
        with pytest.raises(InputError, match="^far face is not on top$"):
            f_vector_simple(moved, vbar, 3)
