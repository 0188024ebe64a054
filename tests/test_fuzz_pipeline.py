"""Pipeline fuzz: on random pointed polyhedra, every enumerator and every
bounded algorithm gives the same answer.

`random_pointed_hrep` draws small integer rows, so many draws have
degenerate vertices, which the walk reads by double description.  The
walk must equal brute force, reverse search must agree whenever it
returns, and selective, moebius and filter must give one diagram whose
Euler characteristic is 1.  `derandomize=True` keeps the examples the same
on every run.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import random_pointed_hrep
from polybound.errors import InputError
from polybound.pipeline import ALGORITHMS, bounded_diagram, closure_data
from polybound.polyhedron import (enumerate_vertices_bruteforce, enumerate_vertices_pivoting,
                                  reverse_search_with_retries)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 6))
def test_enumerators_and_bounded_algorithms_agree(seed, d, extra_rows):
    h = random_pointed_hrep(random.Random(seed), d, extra_rows)
    walk = enumerate_vertices_pivoting(h)
    assert walk == enumerate_vertices_bruteforce(h)
    try:
        searched, _ = reverse_search_with_retries(h)
    except InputError as exc:  # a degenerate vertex, or no generic objective
        assert str(exc) == "not simple" or str(exc).startswith("no generic objective")
    else:
        assert searched == walk
    _, _, inc = closure_data(h)
    first, *others = (bounded_diagram(inc, alg) for alg in ALGORITHMS)
    assert all(hd.canonical() == first.canonical() for hd in others)
    assert sum(f if k % 2 == 0 else -f for k, f in enumerate(first.f_vector())) == 1
