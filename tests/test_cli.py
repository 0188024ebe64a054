import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cube3, segment, unit_square
from polybound import formats, pipeline
from polybound.bounded import HasseDiagram
from polybound.cli import main
from polybound.polyhedron import VRep


HALF = Fraction(1, 2)


def run(argv):
    return main([str(a) for a in argv])


def test_full_pipeline_via_cli(tmp_path, capsys):
    out = tmp_path
    assert run(["-o", out, "gen", "dwarfed-cube", "3"]) == 0
    hrep = out / "dwarfed-cube-3.hrep"
    assert run(["-o", out, "close", hrep]) == 0
    closure = out / "dwarfed-cube-3.closure.hrep"
    assert run(["-o", out, "vertices", closure, "--alg", "brute"]) == 0
    vrep = out / "dwarfed-cube-3.closure.vrep"
    assert run(["-o", out, "incidences", closure, vrep, "--closure"]) == 0
    inc = out / "dwarfed-cube-3.closure.inc"
    for alg in ("selective", "moebius", "filter"):
        assert run(["-o", out, "bounded", inc, "--alg", alg, "--verify"]) == 0
        hasse = json.loads((out / "dwarfed-cube-3.closure.hasse.json").read_text())
        assert len(hasse["faces"]) == 8  # 2d + 2
    assert run(["-o", out, "fvector", inc, vrep]) == 0
    captured = capsys.readouterr().out
    assert "f = (4, 3, 0, 0)" in captured
    record = json.loads((out / "dwarfed-cube-3.closure.fvector.json").read_text())
    assert record["f_bounded"] == [4, 3, 0, 0]


def test_vertices_algorithms_agree(tmp_path):
    # reverse search needs a simple polyhedron, which the dwarfed cube is
    out = tmp_path
    for label, algs in (("thrackle-4", ("pivot", "brute")),
                        ("dwarfed-cube-4", ("pivot", "brute", "rs"))):
        family, d = label.rsplit("-", 1)
        assert run(["-o", out, "gen", family, d]) == 0
        blobs = set()
        for alg in algs:
            assert run(["-o", out / alg, "vertices", out / f"{label}.hrep", "--alg", alg]) == 0
            blobs.add((out / alg / f"{label}.vrep").read_bytes())
        assert len(blobs) == 1, label


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path
    run(["-o", out, "gen", "random-metric", "4", "7"])
    first = (out / "random-metric-4-s7.hrep").read_bytes()
    run(["-o", out, "gen", "random-metric", "4", "7"])
    assert (out / "random-metric-4-s7.hrep").read_bytes() == first


def test_max_dim_flag(tmp_path):
    out = tmp_path
    run(["-o", out, "gen", "thrackle", "4"])
    run(["-o", out, "close", out / "thrackle-4.hrep"])
    run(["-o", out, "vertices", out / "thrackle-4.closure.hrep"])
    run(["-o", out, "incidences", out / "thrackle-4.closure.hrep",
         out / "thrackle-4.closure.vrep", "--closure"])
    assert run(["-o", out, "bounded", out / "thrackle-4.closure.inc",
                "--max-dim", "0"]) == 0
    hasse = json.loads((out / "thrackle-4.closure.hasse.json").read_text())
    assert all(f["rank"] <= 0 for f in hasse["faces"])


def test_filter_max_dim_flag_with_verify(tmp_path, capsys):
    pipeline.run_pipeline("thrackle", (5,), out_dir=str(tmp_path))
    inc = tmp_path / "thrackle-5.inc"
    full = json.loads((tmp_path / "thrackle-5.hasse.json").read_text())
    assert max(f["rank"] for f in full["faces"]) > 1
    assert run(["-o", tmp_path, "bounded", inc, "--alg", "filter", "--max-dim", "1",
                "--verify"]) == 0
    hasse = json.loads((tmp_path / "thrackle-5.hasse.json").read_text())
    assert all(f["rank"] <= 1 for f in hasse["faces"])
    assert any(f["rank"] == 1 for f in hasse["faces"])
    capsys.readouterr()


def test_bench_table_and_csv(tmp_path, capsys):
    assert run(["-o", tmp_path, "bench", "--suite", "dwarfed", "--max-size", "5"]) == 0
    table = capsys.readouterr().out
    assert "dwarfed-cube-5" in table and "12" in table
    assert run(["-o", tmp_path, "bench", "--suite", "random", "--max-size", "5",
                "--seeds", "3", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0].startswith("label,")
    assert "42.00" in csv  # random d=5 summary mean


def test_exit_code_input_error(tmp_path, capsys):
    assert run(["-o", tmp_path, "close", tmp_path / "missing.hrep"]) == 2
    assert run(["-o", tmp_path, "gen", "dwarfed-cube", "3", "4"]) == 2
    capsys.readouterr()


BAD_INCIDENCE_FILES = {
    "far face out of range": "facets 1 vertices 2\n11\nfarface 5\n",
    # refused before 1 << i or (1 << n) - 1 is built, either of which exhausts memory
    "huge far-face index": "facets 1 vertices 2\n11\nfarface 999999999992\n",
    "huge vertex count and no facet rows": "facets 0 vertices 99999999999\n",
    # no facet of the square holds the diagonal {0, 2}
    "far face that is not a face": "facets 4 vertices 4\n1100\n0110\n0011\n1001\nfarface 0 2\n",
    # what `incidences --closure` would write for a bounded polyhedron
    "empty far face": "facets 4 vertices 4\n1100\n0110\n0011\n1001\nfarface \n",
    # a face, but not a proper one: no bounded face is left, Euler characteristic 0
    "far face holding every vertex": "facets 1 vertices 2\n11\nfarface 0 1\n",
    "negative far face": "facets 1 vertices 2\n11\nfarface -1\n",
    # used to end in exit 4 (Euler characteristic 0)
    "vertex on no facet, far face": "facets 2 vertices 3\n110\n100\nfarface 0 1\n",
    # used to exit 0 with a diagram that silently dropped vertex 3
    "vertex on no facet, bounded diagram": "facets 3 vertices 4\n1100\n0110\n1010\nfarface 0\n",
    # used to end in exit 4 (Euler characteristic 0): vertex 0's facets
    # {0,1,2} and {0,1,3} meet in {0,1}
    "vertex not the meet of its facets": "facets 4 vertices 4\n1110\n1101\n0011\n0100\n"
                                         "farface 2 3\n",
    # used to end in exit 4 (Euler characteristic 2)
    "equal facet rows, far face": "facets 4 vertices 3\n100\n010\n001\n001\nfarface 2\n",
    # a triangle with a spurious row {1}; used to exit 0
    "facet row inside another, far face": "facets 4 vertices 3\n110\n011\n101\n010\nfarface 0\n",
    # used to end in exit 4 (Euler characteristic 2): each row and each
    # vertex is a single point, though a polytope with 3 vertices has 2 on
    # each facet and 2 facets at each vertex
    "single-vertex facet rows, far face": "facets 3 vertices 3\n100\n001\n010\nfarface 1\n",
    "non-integer far face": "facets 1 vertices 2\n11\nfarface x\n",
    "non-integer facet count": "facets x vertices 2\n11\n",
    "non-integer vertex count": "facets 1 vertices 2.5\n11\n",
    "negative vertex count": "facets 0 vertices -1\n",
    "missing header": "",
}


@pytest.mark.parametrize("case", sorted(BAD_INCIDENCE_FILES))
def test_bounded_rejects_bad_incidence_file(tmp_path, capsys, case):
    path = tmp_path / "bad.inc"
    path.write_text("polybound-inc 1\n" + BAD_INCIDENCE_FILES[case])
    assert run(["-o", tmp_path, "bounded", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_REP_FILES = {
    "close: non-integer dimension": ("close", "polybound-hrep 1\ndim x rows 2\n"),
    "close: negative row count": ("close", "polybound-hrep 1\ndim 2 rows -1\n"),
    "close: missing header": ("close", "polybound-hrep 1\n"),
    # x >= 0 to Fraction alone, which reads the first as -150, the second for minutes
    "close: decimal literal": ("close", "polybound-hrep 1\ndim 1 rows 1\n-1.5e2 0\n"),
    "close: exponent literal": ("close", "polybound-hrep 1\ndim 1 rows 1\n-1e99999999 0\n"),
    "fvector: non-integer vertex count": ("fvector", "polybound-vrep 1\ndim 1\nvertices x\n"),
    "fvector: non-integer dimension": ("fvector", "polybound-vrep 1\ndim 1.5\n"),
    "fvector: missing rays line": ("fvector", "polybound-vrep 1\ndim 1\nvertices 0\n"),
    "fvector: missing header": ("fvector", "polybound-vrep 1\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_REP_FILES))
def test_close_and_fvector_reject_bad_rep_file(tmp_path, capsys, case):
    command, text = BAD_REP_FILES[case]
    path = tmp_path / "bad.rep"
    path.write_text(text)
    if command == "close":
        argv = ["close", path]
    else:
        inc = tmp_path / "one.inc"
        inc.write_text("polybound-inc 1\nfacets 1 vertices 1\n1\n")
        argv = ["fvector", inc, path]
    assert run(["-o", tmp_path] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_files_with_undeclared_rows_exit_2(tmp_path, capsys):
    # dim 2 rows 2 and three rows: vertices used to drop 1 1 1 and write
    # the quadrant's V-rep
    hrep = tmp_path / "three.hrep"
    hrep.write_text("polybound-hrep 1\ndim 2 rows 2\n-1 0 0\n0 -1 0\n1 1 1\n")
    square = tmp_path / "square.hrep"
    formats.write_hrep(unit_square(), str(square))
    vertices = "polybound-vrep 1\ndim 2\nvertices 4\n0 0\n0 1\n1 0\n1 1\n"
    short = tmp_path / "short.vrep"
    short.write_text(vertices + "rays 2\n1 0\n")
    long = tmp_path / "long.vrep"
    long.write_text(vertices + "rays 0\n1 0\n")
    cases = [(["vertices", hrep], "unexpected trailing content in H-rep file"),
             (["incidences", square, short], "V-rep ray count mismatch"),
             (["incidences", square, long], "unexpected trailing content in V-rep file")]
    for argv, message in cases:
        assert run(["-o", tmp_path] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.inc")) and not (tmp_path / "three.vrep").exists()


def test_every_reader_refuses_a_non_ascii_byte(tmp_path, capsys):
    inc = tmp_path / "one.inc"
    inc.write_text("polybound-inc 1\nfacets 1 vertices 1\n1\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"polybound-hrep 1\ndim 1 rows 1\n1 \xc3\xa9\n")
    for argv in (["close", bad], ["bounded", bad], ["fvector", inc, bad]):
        assert run(["-o", tmp_path] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not ASCII text: ") and err.count("\n") == 1


def test_incidences_refuses_a_far_face_that_is_no_face(tmp_path, capsys):
    # --closure on the unit square itself marks (1,0) and (0,1) as far: no
    # face, and the diagram read from it would have Euler characteristic 2
    hrep = tmp_path / "square.hrep"
    formats.write_hrep(unit_square(), str(hrep))
    assert run(["-o", tmp_path, "vertices", hrep]) == 0
    capsys.readouterr()
    assert run(["-o", tmp_path, "incidences", hrep, tmp_path / "square.vrep", "--closure"]) == 2
    assert capsys.readouterr().err == (
        "error: far face is not a face: it is not the meet of the facets holding it\n")
    assert not (tmp_path / "square.inc").exists()


def test_bench_exit_code_when_one_row_fails(tmp_path, capsys):
    # dwarfed-cube-5 fits the budget, dwarfed-cube-10 trips it
    assert run(["-o", tmp_path, "--budget", "100", "bench", "--suite", "dwarfed",
                "--max-size", "10"]) == 4
    table = capsys.readouterr().out.splitlines()
    assert "too large" not in table[1] and "too large" in table[2]


def test_bounded_verify_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    inc = tmp_path / "square.inc"
    inc.write_text("polybound-inc 1\nfacets 4 vertices 4\n1100\n0110\n0011\n1001\n"
                   "farface 2 3\n")
    # a moebius run that finds vertex 0 alone: graded and contractible, so
    # the invariants pass, but it misses vertex 1 and the bounded edge
    monkeypatch.setattr(pipeline, "moebius_generation",
                        lambda inc, max_dim=None, budget=None:
                        HasseDiagram(inc.n, [0, 1], [-1, 0], [(0, 1)]))
    assert run(["-o", tmp_path, "bounded", inc, "--verify"]) == 4
    err = capsys.readouterr().err
    assert err == ("internal error: algorithms selective and moebius disagree "
                   "on the bounded complex\n")


def test_bounded_verify_needs_a_far_face(tmp_path, capsys, monkeypatch):
    # the second algorithm needs the far face, so nothing is computed first
    inc = tmp_path / "square.inc"
    inc.write_text("polybound-inc 1\nfacets 4 vertices 4\n1100\n0110\n0011\n1001\n")
    monkeypatch.setattr(pipeline, "moebius_generation", None)
    assert run(["-o", tmp_path, "bounded", inc, "--alg", "moebius", "--verify"]) == 2
    assert capsys.readouterr().err == (
        "error: far face required for --verify: the incidence file has no farface line\n")
    assert not list(tmp_path.glob("*.json"))


NO_VERTEX_FILES = {
    "half-plane x <= 1": ("1 0 1", "not pointed"),
    "empty 0.x <= -1": ("0 0 -1", "empty polyhedron"),
}


@pytest.mark.parametrize("case", sorted(NO_VERTEX_FILES))
def test_vertices_refuses_alike_for_every_algorithm(tmp_path, capsys, case):
    row, message = NO_VERTEX_FILES[case]
    path = tmp_path / "novertex.hrep"
    path.write_text(f"polybound-hrep 1\ndim 2 rows 1\n{row}\n")
    for alg in ("pivot", "brute", "rs"):
        assert run(["-o", tmp_path, "vertices", path, "--alg", alg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_incidences_refuses_lower_dimensional_closure(tmp_path, capsys):
    hrep = tmp_path / "segment.hrep"
    formats.write_hrep(segment(), str(hrep))
    assert run(["-o", tmp_path, "close", hrep]) == 0
    closure = tmp_path / "segment.closure.hrep"
    assert run(["-o", tmp_path, "vertices", closure]) == 0
    vrep = tmp_path / "segment.closure.vrep"
    capsys.readouterr()
    assert run(["-o", tmp_path, "incidences", closure, vrep, "--closure"]) == 2
    assert capsys.readouterr().err == "error: not full-dimensional\n"


NOT_VERTEX_SETS = {
    "a point on no facet row": ("dim 2 rows 1\n0 0 1", [(0, 0)], "(0, 0)"),
    "the centre of the unit square": (
        "dim 2 rows 4\n1 0 1\n0 1 1\n-1 0 0\n0 -1 0", [(HALF, HALF)], "(1/2, 1/2)"),
    "an edge midpoint besides the triangle's vertices": (
        "dim 2 rows 3\n-1 0 0\n0 -1 0\n1 1 1", [(0, 0), (1, 0), (0, 1), (HALF, HALF)],
        "(1/2, 1/2)"),
}


@pytest.mark.parametrize("case", sorted(NOT_VERTEX_SETS))
def test_incidences_refuses_points_that_are_no_vertices(tmp_path, capsys, case):
    rows, points, shown = NOT_VERTEX_SETS[case]
    hrep, vrep = tmp_path / "p.hrep", tmp_path / "p.vrep"
    hrep.write_text(f"polybound-hrep 1\n{rows}\n")
    formats.write_vrep(VRep.build(2, points, []), str(vrep))
    assert run(["-o", tmp_path, "incidences", hrep, vrep]) == 2
    assert capsys.readouterr().err == (f"error: V-rep is not the vertex set of the H-rep: "
                                       f"the facets through {shown} do not meet in it alone\n")
    assert not (tmp_path / "p.inc").exists()


# a 6-row H-rep with 7 vertices and the ray (0, 0, 1): the facets through
# each vertex meet in it alone, so only the walk sees that the H-rep is
# unbounded
UNBOUNDED_WITH_RIGID_VERTICES = ("dim 3 rows 6\n-1 0 0 2\n0 -1 0 -2\n0 0 -1 1\n"
                                 "3 -2 -2 -5\n0 3 -3 12\n3 1 0 0")
MISSED_BY_THE_VREP = {
    "the cube without (1, 1, 1)": (
        "dim 3 rows 6\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 -1 0 0\n0 0 1 1\n0 0 -1 0",
        [p for p in itertools.product((0, 1), repeat=3) if p != (1, 1, 1)],
        "V-rep misses the vertex (1, 1, 1) of the H-rep"),
    "the vertices of an unbounded H-rep": (
        UNBOUNDED_WITH_RIGID_VERTICES,
        [(-2, 2, -1), (-2, 3, -1), (-2, 6, 2), (-1, 2, -1), (-1, 3, -1),
         (Fraction(-7, 9), Fraction(7, 3), -1), (Fraction(-2, 3), 2, -HALF)],
        "the H-rep has rays: close the polyhedron first"),
}


@pytest.mark.parametrize("case", sorted(MISSED_BY_THE_VREP))
def test_incidences_walks_the_hrep_for_what_the_vrep_misses(tmp_path, capsys, case):
    # each V-rep passes the facet check: the cube's facets x=1, y=1 and z=1
    # keep three of the seven points each
    rows, points, message = MISSED_BY_THE_VREP[case]
    hrep, vrep = tmp_path / "p.hrep", tmp_path / "p.vrep"
    hrep.write_text(f"polybound-hrep 1\n{rows}\n")
    formats.write_vrep(VRep.build(3, points, []), str(vrep))
    assert run(["-o", tmp_path, "incidences", hrep, vrep]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "p.inc").exists()


def test_incidences_obeys_the_budget(tmp_path, capsys):
    # the walk charges d = 3 at each of the cube's 8 vertices
    hrep, vrep = tmp_path / "cube.hrep", tmp_path / "cube.vrep"
    formats.write_hrep(cube3(), str(hrep))
    formats.write_vrep(VRep.build(3, itertools.product((0, 1), repeat=3), []), str(vrep))
    assert run(["-o", tmp_path, "--budget", "23", "incidences", hrep, vrep]) == 3
    assert capsys.readouterr().err == (
        "error: instance too large for pivot enumeration (budget 23)\n")
    assert run(["-o", tmp_path, "--budget", "24", "incidences", hrep, vrep]) == 0
    assert capsys.readouterr().out.endswith("facets=6 vertices=8 alpha=24\n")


def test_incidences_refuses_a_vrep_with_no_vertex(tmp_path, capsys):
    hrep, vrep = tmp_path / "zero.hrep", tmp_path / "empty.vrep"
    hrep.write_text("polybound-hrep 1\ndim 2 rows 1\n0 0 1\n")
    formats.write_vrep(VRep.build(2, [], []), str(vrep))
    assert run(["-o", tmp_path, "incidences", hrep, vrep]) == 2
    assert capsys.readouterr().err == "error: V-rep has no vertex\n"


def test_incidences_refuses_bounded_closure(tmp_path, capsys):
    hrep = tmp_path / "square.hrep"
    formats.write_hrep(unit_square(), str(hrep))
    assert run(["-o", tmp_path, "close", hrep]) == 0
    closure = tmp_path / "square.closure.hrep"
    assert run(["-o", tmp_path, "vertices", closure]) == 0
    vrep = tmp_path / "square.closure.vrep"
    capsys.readouterr()
    assert run(["-o", tmp_path, "incidences", closure, vrep, "--closure"]) == 2
    assert capsys.readouterr().err == (
        "error: bounded polyhedron: without rays the whole face lattice is bounded\n")
    assert not (tmp_path / "square.closure.inc").exists()


def test_bench_refuses_bounded_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "make_instance",
                        lambda family, params, budget: ("square", unit_square(), None))
    # a refused row is a failed row, and bench exits 4 when any row fails
    assert run(["-o", tmp_path, "bench", "--suite", "dwarfed", "--max-size", "5",
                "--format", "csv"]) == 4
    header, row = capsys.readouterr().out.splitlines()
    assert row.startswith("dwarfed-cube-5,") and row.endswith(
        ",close/enumerate: bounded polyhedron: without rays the whole face lattice "
        "is bounded")


@pytest.mark.parametrize("suite, max_size, smallest", [("dwarfed", 3, 5),
                                                       ("tropical-perm", 2, 3)])
def test_bench_refuses_a_roster_that_selects_nothing(tmp_path, capsys, suite, max_size,
                                                     smallest):
    assert run(["-o", tmp_path, "bench", "--suite", suite, "--max-size", max_size]) == 2
    assert capsys.readouterr().err == (f"error: max size {max_size} selects no {suite} "
                                       f"instance; the smallest size is {smallest}\n")


def test_tropical_permutohedron_walk_obeys_the_budget(tmp_path, capsys):
    # gen writes the H-rep only; the (24,4) vertices come from the walk,
    # which charges 27 per vertex and more at its degenerate ones
    assert run(["-o", tmp_path, "gen", "tropical-permutohedron", "4"]) == 0
    hrep = tmp_path / "tropical-permutohedron-4.hrep"
    capsys.readouterr()
    assert run(["-o", tmp_path, "--budget", "1000", "vertices", hrep]) == 3
    assert capsys.readouterr().err == (
        "error: instance too large for pivot enumeration (budget 1000)\n")
    assert run(["-o", tmp_path, "vertices", hrep]) == 0
    assert capsys.readouterr().out.endswith("vertices=124 rays=28\n")


def test_reverse_search_obeys_the_budget(tmp_path, capsys):
    assert run(["-o", tmp_path, "gen", "dwarfed-cube", "6"]) == 0
    hrep = tmp_path / "dwarfed-cube-6.hrep"
    capsys.readouterr()
    assert run(["-o", tmp_path, "--budget", "1", "vertices", hrep, "--alg", "rs"]) == 3
    assert capsys.readouterr().err == (
        "error: instance too large for reverse search (budget 1)\n")
    assert run(["-o", tmp_path, "vertices", hrep, "--alg", "rs"]) == 0
    assert capsys.readouterr().out.endswith("vertices=7 rays=30\n")


def test_vertices_has_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["-o", tmp_path, "vertices", "any.hrep", "--alg", "rs", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["selective", "moebius", "filter"])
def test_bounded_obeys_the_budget(tmp_path, capsys, alg):
    # thrackle-8 has 578 bounded faces in a lattice of 9,488
    inc = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "thrackle-8.inc"
    assert run(["-o", tmp_path, "--budget", "100", "bounded", inc, "--alg", alg]) == 3
    assert capsys.readouterr().err == (
        "error: instance too large for the face search (budget 100)\n")
    assert run(["-o", tmp_path, "bounded", inc, "--alg", alg]) == 0
    assert "faces=578 " in capsys.readouterr().out


def test_exit_code_budget(tmp_path, capsys):
    out = tmp_path
    run(["-o", out, "gen", "dwarfed-cube", "5"])
    assert run(["-o", out, "--budget", "5", "vertices",
                out / "dwarfed-cube-5.hrep", "--alg", "brute"]) == 3
    capsys.readouterr()


def test_incidences_refuses_a_vrep_of_another_dimension(tmp_path, capsys):
    hrep = tmp_path / "sq.hrep"
    formats.write_hrep(unit_square(), str(hrep))
    for dim in (3, 1):
        vrep = tmp_path / f"sq{dim}.vrep"
        formats.write_vrep(VRep.build(dim, [(0,) * dim, (1,) * dim], []), str(vrep))
        assert run(["-o", tmp_path, "incidences", hrep, vrep]) == 2
        assert capsys.readouterr().err == (
            f"error: V-rep dimension {dim} does not match H-rep dimension 2\n")
    assert not (tmp_path / "sq.inc").exists()


BAD_FLAG_VALUES = {
    "budget -1": (["--budget", "-1", "gen", "dwarfed-cube", "3"], "--budget: must be at least 1"),
    "budget 0 after the subcommand": (["gen", "dwarfed-cube", "3", "--budget", "0"],
                                      "--budget: must be at least 1"),
    "budget not an int": (["--budget", "x", "gen", "dwarfed-cube", "3"],
                          "--budget: invalid int value: 'x'"),
    "max-dim -3": (["bounded", "any.inc", "--max-dim", "-3"], "--max-dim: must be at least 0"),
    # a bench roster that selects nothing, or max-size 0 read as unset
    "max-size -5": (["bench", "--suite", "dwarfed", "--max-size", "-5"],
                    "--max-size: must be at least 1"),
    "max-size 0": (["bench", "--suite", "thrackle", "--max-size", "0"],
                   "--max-size: must be at least 1"),
    "seeds -2": (["bench", "--suite", "random", "--seeds", "-2", "--max-size", "5"],
                 "--seeds: must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAG_VALUES))
def test_bad_flag_values_exit_2_when_parsed(tmp_path, capsys, case):
    argv, message = BAD_FLAG_VALUES[case]
    with pytest.raises(SystemExit) as exc:
        run(["-o", tmp_path] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_smallest_flag_values_are_accepted(tmp_path, capsys):
    inc = tmp_path / "square.inc"
    inc.write_text("polybound-inc 1\nfacets 4 vertices 4\n1100\n0110\n0011\n1001\n"
                   "farface 2 3\n")
    assert run(["-o", tmp_path, "--budget", "1", "bounded", inc, "--max-dim", "0"]) == 0
    assert "faces=3 f_vector=[2]" in capsys.readouterr().out


def test_fvector_refuses_a_far_face_that_is_not_on_top(tmp_path, capsys):
    pipeline.run_pipeline("dwarfed-cube", (3,), out_dir=str(tmp_path))
    inc, vrep = tmp_path / "dwarfed-cube-3.inc", tmp_path / "dwarfed-cube-3.closure.vrep"
    good = formats.read_incidence(str(inc))
    row = next(r for r in good.row_masks if r != good.far_face)
    formats.write_incidence(type(good)(good.n, good.row_masks, row), str(inc))
    capsys.readouterr()
    assert run(["-o", tmp_path, "fvector", inc, vrep]) == 2
    assert capsys.readouterr().err == "error: far face is not on top\n"
    assert not (tmp_path / "dwarfed-cube-3.fvector.json").exists()


def test_fvector_refuses_a_vertex_whose_edge_count_is_not_d(tmp_path, capsys):
    # not a polytope's incidences, though every vertex is the meet of its
    # facets and no row lies inside another: the near vertex (0, 0) lies
    # on d = 2 facets, but the meet of its facet {1,2,3} holds three
    # vertices, so it has one edge; the record would count its faces wrong
    inc, vrep = tmp_path / "bad.inc", tmp_path / "bad.vrep"
    inc.write_text("polybound-inc 1\nfacets 4 vertices 4\n1010\n1100\n1001\n0111\nfarface 0 2\n")
    vrep.write_text("polybound-vrep 1\ndim 2\nvertices 4\n-1 2\n0 0\n0 1\n1/4 1/4\nrays 0\n")
    assert run(["-o", tmp_path / "out", "fvector", inc, vrep]) == 2
    assert capsys.readouterr().err == ("error: not a polytope's incidences: vertex (0, 0) "
                                       "is on 2 facets, but its edge count is 1\n")
    assert not (tmp_path / "out").exists()
