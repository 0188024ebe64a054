"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s or
in captured output) and asserts the stated exact values and time bounds.
Runtime bounds are sanity checks for a desktop-class machine.
"""

import random
import time
from statistics import mean

import pytest

from conftest import instance, random_pointed_hrep
from oracles import dot, faces, vertex_poset
from polybound.bounded import (filter_bounded, full_face_lattice,
                               relabel_vertices, selective_generation)
from polybound.fvector import f_vector_simple
from polybound.incidence import restrict_to_near
from polybound.lp import LpStatus, lp_solve
from polybound.moebius import moebius_generation
from polybound.pipeline import closure_data, run_pipeline
from polybound.polyhedron import (HRep, enumerate_vertices_bruteforce,
                                  reverse_search_vertices)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _bounded_three_ways(inc):
    """selective, filter-of-full-lattice, and moebius diagrams, all in the
    closure's vertex indexing."""
    sel = selective_generation(inc)
    filt = filter_bounded(full_face_lattice(inc), inc.far_face)
    near_inc, near = restrict_to_near(inc)
    moe = relabel_vertices(moebius_generation(near_inc), dict(enumerate(near)),
                           inc.n, inc.far_face)
    return sel, filt, moe


def test_criterion_1_dwarfed_cube_table():
    want = {5: (11, 26, 130, 12), 10: (21, 101, 1010, 22), 15: (31, 226, 3390, 32)}
    started = time.perf_counter()
    got = {}
    for d in (5, 10, 15):
        row = run_pipeline("dwarfed-cube", (d,))
        got[d] = (row.m_bar, row.n_bar, row.alpha, row.phi_prime)
    elapsed = time.perf_counter() - started
    ok = got == want and elapsed < 60
    _report("1 dwarfed-cube table", ok, f"{got} in {elapsed:.1f}s")


def test_criterion_2_dwarfed_closed_forms():
    details = []
    ok = True
    for d in range(2, 13):
        _, h, _, vbar, inc = instance("dwarfed-cube", d)
        phi_prime = selective_generation(inc).node_count()
        ok &= phi_prime == 2 * d + 2
        if d <= 10:
            near_inc, _ = restrict_to_near(inc)
            ok &= vertex_poset(near_inc).size == 2**d + d
            lattice = full_face_lattice(inc)
            phi = sum(1 for mask in lattice.masks if mask & ~inc.far_face) + 1
            ok &= phi == 2**d + d * 2 ** (d - 1) + 1
        _, f_all, _ = f_vector_simple(inc, vbar, d)
        ok &= f_all.total == 2**d + d * 2 ** (d - 1) + 1
        details.append(f"d={d}:{phi_prime}")
    _report("2 dwarfed closed forms", ok, " ".join(details))


def test_criterion_3_thrackle_table():
    want_phi = {3: 8, 4: 18, 5: 42, 6: 100, 7: 240, 8: 578}
    started = time.perf_counter()
    ok = True
    got = {}
    for d in range(3, 9):
        row = run_pipeline("thrackle", (d,))
        got[d] = row.phi_prime
        ok &= row.phi_prime == want_phi[d] and row.n_bar == 2 ** (d - 1) + d
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300
    _report("3 thrackle table", ok, f"{got} in {elapsed:.1f}s")


def test_criterion_4_random_metrics():
    started = time.perf_counter()
    five = [run_pipeline("random-metric", (5, s)).phi_prime for s in range(20)]
    six = [run_pipeline("random-metric", (6, s)).phi_prime for s in range(20)]
    elapsed = time.perf_counter() - started
    ok = (all(v == 42 for v in five)
          and all(90 <= v <= 100 for v in six)
          and mean(six) >= 98
          and elapsed < 120)
    _report("4 random metrics", ok,
            f"d5={set(five)} d6 mean={mean(six):.2f} in {elapsed:.1f}s")


def test_criterion_5_tropical_cyclic_table():
    want = {(3, 3): 14, (4, 4): 64, (5, 5): 322, (3, 10): 182}
    started = time.perf_counter()
    got = {}
    for pair, expected in want.items():
        got[pair] = run_pipeline("tropical-cyclic", pair).phi_prime
    elapsed = time.perf_counter() - started
    ok = got == want and elapsed < 300
    _report("5 tropical cyclic table", ok, f"{got} in {elapsed:.1f}s")


def test_criterion_6_permutohedron_small():
    started = time.perf_counter()
    row = run_pipeline("tropical-permutohedron", (3,))
    elapsed = time.perf_counter() - started
    ok = row.phi_prime == 50 and elapsed < 60
    _report("6a permutohedron (6,3)", ok, f"phi'={row.phi_prime} in {elapsed:.1f}s")


@pytest.mark.stretch
def test_criterion_6_permutohedron_stretch():
    started = time.perf_counter()
    row = run_pipeline("tropical-permutohedron", (4,))
    elapsed = time.perf_counter() - started
    ok = row.phi_prime == 1424 and elapsed < 1800
    _report("6b permutohedron (24,4)", ok, f"phi'={row.phi_prime} in {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    roster = [("dwarfed-cube", (d,)) for d in range(2, 7)]
    roster += [("thrackle", (d,)) for d in range(3, 7)]
    roster += [("random-metric", (5, s)) for s in (0, 1)]
    roster += [("tropical-cyclic", (3, 3)), ("tropical-cyclic", (4, 4)),
               ("tropical-permutohedron", (3,))]
    mismatches = []
    checked = 0
    for family, params in roster:
        _, _, _, _, inc = instance(family, *params)
        assert inc.n <= 40
        sel, filt, moe = _bounded_three_ways(inc)
        checked += 1
        if not (sel.canonical() == filt.canonical() == moe.canonical()):
            mismatches.append(f"{family}{params}")
    rng = random.Random(2024)
    for i in range(50):
        h = random_pointed_hrep(rng, rng.randint(2, 3), rng.randint(1, 4))
        _, _, inc = closure_data(h)
        sel, filt, moe = _bounded_three_ways(inc)
        checked += 1
        if not (sel.canonical() == filt.canonical() == moe.canonical()):
            mismatches.append(f"random#{i}")
    ok = not mismatches
    _report("7 oracle equivalence", ok,
            f"{checked} instances, mismatches={mismatches or 'none'}")


def test_criterion_8_simple_f_vectors():
    ok = True
    details = []
    cases = [("dwarfed-cube", (d,)) for d in range(2, 13)]
    cases += [("tropical-cyclic", p) for p in [(3, 3), (4, 4), (5, 5), (3, 10)]]
    for family, params in cases:
        _, h, _, vbar, inc = instance(family, *params)
        f_bounded, _, _ = f_vector_simple(inc, vbar, h.dim)
        hist = selective_generation(inc).f_vector()
        match = (list(f_bounded.f[:len(hist)]) == hist
                 and all(x == 0 for x in f_bounded.f[len(hist):]))
        if family == "dwarfed-cube":
            d = params[0]
            match &= f_bounded.f == tuple([d + 1, d] + [0] * (d - 1))
        ok &= match
        if not match:
            details.append(f"{family}{params}: {f_bounded.f} vs {hist}")
    _report("8 simple f-vectors", ok, "; ".join(details) or f"{len(cases)} instances")


def test_criterion_9_closure_size_bound():
    roster = [("dwarfed-cube", (d,)) for d in range(2, 9)]
    roster += [("thrackle", (d,)) for d in range(3, 7)]
    roster += [("tropical-cyclic", (3, 3)), ("tropical-cyclic", (4, 4)),
               ("tropical-permutohedron", (3,)), ("random-metric", (5, 0))]
    ok = True
    for family, params in roster:
        _, _, _, _, inc = instance(family, *params)
        lattice = full_face_lattice(inc)
        phi_bar = lattice.node_count()
        phi = sum(1 for mask in lattice.masks if mask & ~inc.far_face) + 1
        ok &= phi_bar <= 2 * (phi - 1)
    _report("9 closure size bound", ok, f"{len(roster)} instances")


def test_criterion_10_skeleton_cutoff():
    _, _, _, _, inc = instance("thrackle", 7)
    full = selective_generation(inc)
    want_faces = {(rank, mask) for rank, mask in faces(full) if rank <= 1}
    want_arcs = {(full.masks[lo], full.masks[hi])
                 for lo, hi in full.arcs if full.ranks[hi] <= 1}
    ok = True
    for diagram in (selective_generation(inc, max_dim=1),
                    _moebius_skeleton(inc, max_dim=1)):
        got_arcs = {(diagram.masks[lo], diagram.masks[hi]) for lo, hi in diagram.arcs}
        ok &= faces(diagram) == want_faces and got_arcs == want_arcs
    _report("10 skeleton cutoff", ok, f"{len(want_faces)} faces at rank <= 1")


def _moebius_skeleton(inc, max_dim):
    near_inc, near = restrict_to_near(inc)
    hd = moebius_generation(near_inc, max_dim=max_dim)
    return relabel_vertices(hd, dict(enumerate(near)), inc.n, inc.far_face)


def test_criterion_11_enumeration_cross_checks():
    # reverse search vs brute force on the simple instances with few rows
    simple_cases = [instance("dwarfed-cube", d)[1] for d in range(2, 9)]
    simple_cases += [instance("tropical-cyclic", *p)[1]
                     for p in [(3, 3), (3, 4), (4, 4), (3, 6)]]
    ok = True
    for h in simple_cases:
        assert len(h.rows) + 1 <= 25  # closure row count stays within the bound
        rs_v = reverse_search_vertices(h)
        brute = enumerate_vertices_bruteforce(h)
        ok &= rs_v.vertices == brute.vertices and rs_v.rays == brute.rays
    # exact LP optimum equals the best vertex value on random bounded LPs
    rng = random.Random(99)
    for _ in range(100):
        d = rng.randint(2, 3)
        anchor = [rng.randint(-2, 2) for _ in range(d)]
        rows, rhs = [], []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            rows.append(list(e))
            rhs.append(6)
            rows.append([-x for x in e])
            rhs.append(6)
        for _ in range(rng.randint(1, 4)):
            a = [rng.randint(-3, 3) for _ in range(d)]
            rows.append(a)
            rhs.append(sum(x * y for x, y in zip(a, anchor)) + rng.randint(1, 5))
        c = [rng.randint(-5, 5) for _ in range(d)]
        out = lp_solve(rows, rhs, c)
        assert out.status is LpStatus.OPTIMAL
        h = HRep.from_rows(d, list(zip(rows, rhs)))
        best = max(dot(tuple(map(_to_fraction, c)), v)
                   for v in enumerate_vertices_bruteforce(h).vertices)
        ok &= out.objective == best
    _report("11 enumeration cross-checks", ok,
            f"{len(simple_cases)} reverse-search instances, 100 LPs")


def _to_fraction(x):
    from fractions import Fraction

    return Fraction(x)
