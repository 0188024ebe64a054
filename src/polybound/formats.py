"""File formats: H-rep, V-rep, incidence matrices, Hasse diagram JSON.

All writers are byte-stable: rationals in lowest terms, Hasse diagrams in
their canonical order (`HasseDiagram.canonical`), and a trailing newline
everywhere, so re-running a command reproduces files bit for bit.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional

from .errors import InputError
from .bounded import HasseDiagram
from .incidence import IncidenceMatrix, indices_from_mask, mask_from_indices, unclosed_vertex
from .polyhedron import HRep, VRep
from .rational import format_point, format_rational, parse_point, parse_rational

HREP_MAGIC = "polybound-hrep 1"
VREP_MAGIC = "polybound-vrep 1"
INC_MAGIC = "polybound-inc 1"


def _lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not ASCII text: {exc}") from None


def _expect(condition: bool, message: str):
    if not condition:
        raise InputError(message)


def _count(token: str, what: str) -> int:
    """A non-negative integer token of digits only, or InputError naming
    `what`."""
    try:
        value = int(token) if token.isdigit() else -1
    except ValueError:  # more digits than int() converts
        value = -1
    _expect(value >= 0, f"{what} must be a non-negative integer, got {token!r}")
    return value


def _section_count(text_lines: list[str], idx: int, key: str) -> int:
    """The count on line idx, which must read `key <count>`."""
    parts = text_lines[idx].split() if idx < len(text_lines) else []
    _expect(len(parts) == 2 and parts[0] == key, f"missing {key} line")
    return _count(parts[1], f"{key} count")


def _expect_end(text_lines: list[str], idx: int, what: str) -> None:
    """A file holds exactly the rows it declares: only blank lines may
    follow line idx - 1."""
    _expect(not any(ln.strip() for ln in text_lines[idx:]),
            f"unexpected trailing content in {what} file")


def hrep_to_text(h: HRep) -> str:
    out = [HREP_MAGIC, f"dim {h.dim} rows {len(h.rows)}"]
    for a, b in h.rows:
        out.append(" ".join(format_rational(x) for x in (*a, b)))
    return "\n".join(out) + "\n"


def parse_hrep(text_lines: list[str]) -> HRep:
    _expect(bool(text_lines) and text_lines[0] == HREP_MAGIC, "not an H-rep file")
    _expect(len(text_lines) > 1, "missing H-rep header")
    head = text_lines[1].split()
    _expect(len(head) == 4 and head[0] == "dim" and head[2] == "rows",
            "malformed H-rep header")
    d, m = _count(head[1], "dimension"), _count(head[3], "row count")
    rows = []
    for ln in text_lines[2:2 + m]:
        parts = [parse_rational(tok) for tok in ln.split()]
        _expect(len(parts) == d + 1, "H-rep row has wrong width")
        rows.append((tuple(parts[:d]), parts[d]))
    _expect(len(rows) == m, "H-rep row count mismatch")
    _expect_end(text_lines, 2 + m, "H-rep")
    return HRep(d, tuple(rows))


def write_hrep(h: HRep, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(hrep_to_text(h))


def read_hrep(path: str) -> HRep:
    return parse_hrep(_lines(path))


def vrep_to_text(v: VRep) -> str:
    out = [VREP_MAGIC, f"dim {v.dim}", f"vertices {len(v.points)}"]
    out += [" ".join(format_point(*p)) for p in v.points]
    out.append(f"rays {len(v.directions)}")
    out += [" ".join(format_point(*r)) for r in v.directions]
    return "\n".join(out) + "\n"


def _points(text_lines: list[str], idx: int, count: int, d: int, what: str) -> list:
    """The points on the `count` lines from line idx, each of d literals."""
    points = []
    for ln in text_lines[idx:idx + count]:
        tokens = ln.split()
        points.append(parse_point(tokens))
        _expect(len(tokens) == d, f"{what} has wrong width")
    return points


def parse_vrep(text_lines: list[str]) -> VRep:
    _expect(bool(text_lines) and text_lines[0] == VREP_MAGIC, "not a V-rep file")
    d = _section_count(text_lines, 1, "dim")
    k = _section_count(text_lines, 2, "vertices")
    vertices = _points(text_lines, 3, k, d, "vertex")
    r = _section_count(text_lines, 3 + k, "rays")
    rays = _points(text_lines, 4 + k, r, d, "ray")
    _expect(len(rays) == r, "V-rep ray count mismatch")
    _expect_end(text_lines, 4 + k + r, "V-rep")
    return VRep.from_integers(d, vertices, (num for num, _ in rays))


def write_vrep(v: VRep, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(vrep_to_text(v))


def read_vrep(path: str) -> VRep:
    return parse_vrep(_lines(path))


def incidence_to_text(inc: IncidenceMatrix) -> str:
    out = [INC_MAGIC, f"facets {inc.m} vertices {inc.n}"]
    for row in inc.row_masks:
        out.append("".join("1" if row >> v & 1 else "0" for v in range(inc.n)))
    if inc.far_face is not None:
        out.append("farface " + " ".join(str(i) for i in indices_from_mask(inc.far_face)))
    return "\n".join(out) + "\n"


def parse_incidence(text_lines: list[str]) -> IncidenceMatrix:
    _expect(bool(text_lines) and text_lines[0] == INC_MAGIC, "not an incidence file")
    _expect(len(text_lines) > 1, "missing incidence header")
    head = text_lines[1].split()
    _expect(len(head) == 4 and head[0] == "facets" and head[2] == "vertices",
            "malformed incidence header")
    m, n = _count(head[1], "facet count"), _count(head[3], "vertex count")
    # every closure and near-vertex restriction has a facet row
    _expect(m > 0, "incidence file has no facet rows")
    masks = []
    for ln in text_lines[2:2 + m]:
        _expect(len(ln) == n and set(ln) <= {"0", "1"}, "bad incidence row")
        masks.append(mask_from_indices(i for i, ch in enumerate(ln) if ch == "1"))
    _expect(len(masks) == m, "incidence row count mismatch")
    # every vertex of a polytope lies on a facet; n is a checked row's
    # length by now, so 1 << n stays small
    uncovered = ((1 << n) - 1) & ~reduce(or_, masks)
    _expect(not uncovered,
            f"vertex {(uncovered & -uncovered).bit_length() - 1} lies on no facet row")
    far: Optional[int] = None
    rest = [ln for ln in text_lines[2 + m:] if ln.strip()]
    if rest:
        tokens = rest[0].split()
        _expect(tokens[0] == "farface", "unexpected trailing content in incidence file")
        _expect_end(rest, 1, "incidence")
        indices = [_count(tok, "far-face vertex") for tok in tokens[1:]]
        # checked before the mask is built: 1 << i for a huge i exhausts memory
        _expect(all(i < n for i in indices), "far face references a vertex out of range")
        far = mask_from_indices(indices)
    inc = IncidenceMatrix(n, tuple(masks), far)
    k = unclosed_vertex(inc)
    _expect(k is None, f"the facets through vertex {k} do not meet in it alone")
    if far is not None:
        # a closure is a polytope, whose facet rows are pairwise incomparable;
        # incidences of an unbounded polyhedron may repeat a row
        for i, row in enumerate(masks):
            j = next((j for j, other in enumerate(masks) if j != i and row & ~other == 0), i)
            relation = "equals" if row == masks[j] else "lies inside"
            _expect(j == i, f"facet row {i} {relation} row {j}")
        # a polytope with 3 or more vertices has dimension d >= 2, so at least
        # d vertices on each facet and d facets at each vertex; rows suffice,
        # as a closed vertex on a single row is that row
        single = next((i for i, row in enumerate(masks) if row.bit_count() < 2), None)
        _expect(n < 3 or single is None, f"facet row {single} holds a single vertex; each "
                "facet of a polytope with 3 or more vertices holds at least 2")
    return inc


def write_incidence(inc: IncidenceMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(incidence_to_text(inc))


def read_incidence(path: str) -> IncidenceMatrix:
    return parse_incidence(_lines(path))


def _json_list(items, indent: str) -> str:
    """A list as `json.dumps(..., indent=1)` lays it out at `indent`."""
    return (f"[\n{indent} " + f",\n{indent} ".join(map(str, items)) + f"\n{indent}]"
            if items else "[]")


def hasse_to_json(hd: HasseDiagram) -> str:
    """`json.dumps(..., sort_keys=True, indent=1)` of the canonical diagram, faces
    numbered in canonical order, written directly: json's encoder is slow with `indent`."""
    faces, arcs = hd.canonical()
    far = indices_from_mask(hd.far_face) if hd.far_face is not None else ()
    face_texts = [f'{{\n   "id": {i},\n   "rank": {rank},\n   "vertices": {_json_list(v, "   ")}\n  }}'
                  for i, (rank, v) in enumerate(faces)]
    arc_texts = [f"[\n   {lo},\n   {hi}\n  ]" for lo, hi in arcs]
    return (f'{{\n "arcs": {_json_list(arc_texts, " ")},\n'
            f' "f_vector": {_json_list(hd.f_vector(), " ")},\n'
            f' "faces": {_json_list(face_texts, " ")},\n "far_face": {_json_list(far, " ")},\n'
            f' "n_vertices": {hd.n}\n}}\n')


def write_hasse(hd: HasseDiagram, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(hasse_to_json(hd))
