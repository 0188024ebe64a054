import json

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import instance, square_incidence, unit_square
from polybound.bounded import HasseDiagram, selective_generation
from polybound.errors import InputError
from polybound.incidence import indices_from_mask
from polybound.formats import (hasse_to_json, hrep_to_text, incidence_to_text,
                               parse_hrep, parse_incidence, parse_vrep,
                               read_hrep, read_incidence, read_vrep,
                               vrep_to_text, write_hrep, write_incidence,
                               write_vrep)
from polybound.polyhedron import enumerate_vertices_bruteforce


def test_hrep_round_trip(tmp_path):
    _, h, _, _, _ = instance("thrackle", 4)
    path = tmp_path / "a.hrep"
    write_hrep(h, str(path))
    again = read_hrep(str(path))
    assert again == h
    write_hrep(again, str(tmp_path / "b.hrep"))
    assert (tmp_path / "a.hrep").read_bytes() == (tmp_path / "b.hrep").read_bytes()


def test_hrep_text_shape():
    text = hrep_to_text(unit_square())
    lines = text.splitlines()
    assert lines[0] == "polybound-hrep 1"
    assert lines[1] == "dim 2 rows 4"
    assert lines[2] == "1 0 1"


def test_vrep_round_trip(tmp_path):
    v = enumerate_vertices_bruteforce(instance("dwarfed-cube", 3)[1])
    path = tmp_path / "x.vrep"
    write_vrep(v, str(path))
    assert read_vrep(str(path)) == v
    text = vrep_to_text(v)
    assert text.splitlines()[0] == "polybound-vrep 1"
    assert f"vertices {len(v.vertices)}" in text
    assert f"rays {len(v.rays)}" in text


def test_incidence_round_trip(tmp_path):
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    path = tmp_path / "m.inc"
    write_incidence(inc, str(path))
    again = read_incidence(str(path))
    assert again == inc
    bare = square_incidence()
    assert parse_incidence(incidence_to_text(bare).splitlines()) == bare


def test_incidence_text_shape():
    text = incidence_to_text(square_incidence().with_far_face([2, 3]))
    lines = text.splitlines()
    assert lines[0] == "polybound-inc 1"
    assert lines[1] == "facets 4 vertices 4"
    assert lines[2] == "1100"
    assert lines[-1] == "farface 2 3"


def test_hasse_json_schema_and_determinism():
    _, _, _, _, inc = instance("dwarfed-cube", 2)
    hd = selective_generation(inc)
    text = hasse_to_json(hd)
    assert text == hasse_to_json(selective_generation(inc))
    data = json.loads(text)
    assert set(data) == {"n_vertices", "far_face", "faces", "arcs", "f_vector"}
    assert data["f_vector"] == [3, 2]
    empty = data["faces"][0]
    assert empty["rank"] == -1 and empty["vertices"] == []
    ranks = {f["id"]: f["rank"] for f in data["faces"]}
    assert all(ranks[hi] == ranks[lo] + 1 for lo, hi in data["arcs"])


def json_oracle(hd):
    """The diagram's JSON as the standard library writes it."""
    faces, arcs = hd.canonical()
    far = list(indices_from_mask(hd.far_face)) if hd.far_face is not None else []
    return json.dumps({
        "n_vertices": hd.n,
        "far_face": far,
        "faces": [{"id": i, "rank": rank, "vertices": list(vertices)}
                  for i, (rank, vertices) in enumerate(faces)],
        "arcs": [list(arc) for arc in arcs],
        "f_vector": hd.f_vector(),
    }, sort_keys=True, indent=1) + "\n"


@st.composite
def diagrams(draw):
    """Arbitrary diagrams: distinct masks with any ranks, any arcs between
    them, and a far face or none."""
    n = draw(st.integers(0, 9))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=12))
    ranks = draw(st.lists(st.integers(-1, 4), min_size=len(masks), max_size=len(masks)))
    node = st.integers(0, max(len(masks) - 1, 0))
    arcs = draw(st.lists(st.tuples(node, node), max_size=15)) if masks else []
    far = draw(st.none() | st.integers(0, (1 << n) - 1))
    return HasseDiagram(n, masks, ranks, arcs, far)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(diagrams())
@example(HasseDiagram(0, [], [], []))
@example(HasseDiagram(3, [0, 0b11, 0b1], [-1, 1, 0], [(0, 2), (2, 1)], None))
def test_hasse_json_is_json_dumps_text(hd):
    assert hasse_to_json(hd) == json_oracle(hd)


@pytest.mark.parametrize("lines", [
    ["nonsense"],
    ["polybound-hrep 1", "dim 2 cols 3"],
    ["polybound-hrep 1", "dim 2 rows 1", "1 2"],
])
def test_parse_hrep_errors(lines):
    with pytest.raises(InputError):
        parse_hrep(lines)


def test_parse_vrep_errors():
    with pytest.raises(InputError):
        parse_vrep(["polybound-vrep 1", "dim 1", "vertices 1", "1 2", "rays 0"])


VREP_HEAD = ["polybound-vrep 1", "dim 2", "vertices 1", "0 0"]
HREP_QUADRANT = ["polybound-hrep 1", "dim 2 rows 2", "-1 0 0", "0 -1 0"]


@pytest.mark.parametrize("parse, lines, message", [
    # rays 2 with one ray line
    (parse_vrep, VREP_HEAD + ["rays 2", "1 0"], "V-rep ray count mismatch"),
    (parse_vrep, VREP_HEAD + ["rays 1", "1 0", "0 1"],
     "unexpected trailing content in V-rep file"),
    (parse_vrep, VREP_HEAD + ["rays 0", "", "junk"], "unexpected trailing content in V-rep file"),
    # rows 2 followed by three rows: the third, 1 1 1, used to be dropped
    (parse_hrep, HREP_QUADRANT + ["1 1 1"], "unexpected trailing content in H-rep file"),
    (parse_incidence, ["polybound-inc 1", "facets 1 vertices 2", "11", "farface 0", "farface 1"],
     "unexpected trailing content in incidence file"),
])
def test_files_hold_exactly_the_rows_they_declare(parse, lines, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        parse(lines)


def test_blank_lines_may_follow_the_declared_rows():
    vrep = VREP_HEAD + ["rays 1", "1 0"]
    assert parse_vrep(vrep + ["", "  "]) == parse_vrep(vrep)
    assert parse_hrep(HREP_QUADRANT + [""]) == parse_hrep(HREP_QUADRANT)


@pytest.mark.parametrize("lines", [
    ["polybound-inc 1", "facets 1 vertices 2", "12"],
    ["polybound-inc 1", "facets 1 vertices 2", "11", "extra junk"],
    ["polybound-inc 1", "facets 0 vertices 99999999999"],
    ["polybound-inc 1", "facets 1 vertices 2", "11", "farface 999999999992"],
    ["polybound-inc 1", "facets +1 vertices 2", "11"],
    # facets {0,1,2} and {1,2,3} meet in {1,2}, so {1} is no face
    ["polybound-inc 1", "facets 2 vertices 4", "1110", "0111", "farface 1"],
])
def test_parse_incidence_errors(lines):
    with pytest.raises(InputError):
        parse_incidence(lines)
