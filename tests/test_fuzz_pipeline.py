"""Pipeline fuzz: on random pointed polyhedra, every enumerator and every
bounded algorithm gives the same answer.

`random_pointed_hrep` draws small integer rows, so many draws have
degenerate vertices, which the walk reads by double description.  The
walk must equal brute force, reverse search must agree whenever it
returns and may refuse only with "not simple", and selective, moebius
and filter must give one diagram whose Euler characteristic is 1.  When
every ordinary closure vertex lies on exactly d facets, the
simple-polyhedron degree count must give that diagram's f-vector, and one
more than the full lattice's count of faces outside the far face.
`derandomize=True` keeps the examples the same on every run.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import random_pointed_hrep
from polybound.bounded import full_face_lattice
from polybound.errors import InputError
from polybound.fvector import f_vector_simple
from polybound.pipeline import ALGORITHMS, bounded_diagram, closure_data
from polybound.polyhedron import (enumerate_vertices_bruteforce, enumerate_vertices_pivoting,
                                  reverse_search_vertices)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 6))
def test_enumerators_and_bounded_algorithms_agree(seed, d, extra_rows):
    h = random_pointed_hrep(random.Random(seed), d, extra_rows)
    walk = enumerate_vertices_pivoting(h)
    assert walk == enumerate_vertices_bruteforce(h)
    try:
        searched = reverse_search_vertices(h)
    except InputError as exc:  # a degenerate vertex
        assert str(exc) == "not simple"
    else:
        assert searched == walk
    _, vbar, inc = closure_data(h)
    first, *others = (bounded_diagram(inc, alg) for alg in ALGORITHMS)
    assert all(hd.canonical() == first.canonical() for hd in others)
    assert sum(f if k % 2 == 0 else -f for k, f in enumerate(first.f_vector())) == 1
    if all(col.bit_count() == d for i, col in enumerate(inc.column_masks)
           if not inc.far_face >> i & 1):
        fb, fa, _ = f_vector_simple(inc, vbar, d)
        counts = first.f_vector()
        assert list(fb.f) == counts + [0] * (d + 1 - len(counts))
        lattice = full_face_lattice(inc)
        assert fa.total == sum(1 for mask in lattice.masks if mask & ~inc.far_face) + 1
