import pytest

from conftest import instance
from polybound.bounded import selective_generation
from polybound.errors import InputError
from polybound.fvector import f_vector_simple, generic_ray_objective
from polybound.incidence import indices_from_mask
from polybound.linalg import dot
from polybound.polyhedron import VRep


def test_generic_ray_objective_segment():
    v = VRep.build(1, [(0,), (1,)], [])
    c = generic_ray_objective(v, {1})
    assert dot(c, (1,)) > dot(c, (0,))


def test_generic_ray_objective_triangle():
    v = VRep.build(2, [(0, 0), (1, 0), (0, 1)], [])
    far = {i for i, p in enumerate(v.vertices) if sum(p) == 1}
    c = generic_ray_objective(v, far)
    values = [dot(c, p) for p in v.vertices]
    assert len(set(values)) == 3
    near_val = values[v.vertices.index((0, 0))]
    assert all(values[i] > near_val for i in far)


def test_generic_ray_objective_verified_on_dwarfed():
    _, _, _, vbar, inc = instance("dwarfed-cube", 5)
    far = set(indices_from_mask(inc.far_face))
    c = generic_ray_objective(vbar, far)
    values = [dot(c, p) for p in vbar.vertices]
    assert len(set(values)) == len(values)
    assert min(values[i] for i in far) > max(v for i, v in enumerate(values) if i not in far)


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


def test_seed_independent_f_vectors():
    _, h, _, vbar, inc = instance("tropical-cyclic", 3, 3)
    runs = [f_vector_simple(inc, vbar, h.dim, seed) for seed in (0, 1, 5)]
    assert len({r[0].f for r in runs}) == 1
    assert len({r[1].f for r in runs}) == 1


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


def test_requires_far_face():
    _, _, _, vbar, inc = instance("dwarfed-cube", 2)
    bare = type(inc)(inc.n, inc.row_masks, None)
    with pytest.raises(InputError, match="far-face"):
        f_vector_simple(bare, vbar, 2)
