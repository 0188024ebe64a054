"""Pipeline orchestration: generate, close, enumerate, incidences, bounded
complex, report.  Also the bench harness that reproduces the face-count
columns of the benchmark tables."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Optional, Sequence

from .errors import InputError, InternalError, PolyboundError
from .bounded import (HasseDiagram, filter_bounded, full_face_lattice,
                      relabel_vertices, selective_generation)
from .moebius import moebius_generation
from .generators import (cyclic_matrix, dwarfed_cube, permutohedron_matrix,
                         random_metric, thrackle_metric, tight_span_hrep,
                         tropical_hrep)
# perfbench's tracer wraps pipeline.tropical_vertices
from .generators import tropical_vertices  # noqa: F401
from .incidence import (IncidenceMatrix, compute_incidences, far_face_vertices,
                        restrict_to_near)
from .polyhedron import (DEFAULT_BUDGET, ClosureResult, HRep, VRep,
                         enumerate_vertices_pivoting, projective_closure)
from . import formats

FAMILIES = ("dwarfed-cube", "thrackle", "random-metric",
            "tropical-cyclic", "tropical-permutohedron")
ALGORITHMS = ("selective", "moebius", "filter")
SUITES = ("dwarfed", "thrackle", "random", "tropical-cyclic", "tropical-perm")
#: per suite, the smallest max_size that selects an instance
SMALLEST_SIZE = {"dwarfed": 5, "thrackle": 3, "random": 5, "tropical-cyclic": 3,
                 "tropical-perm": 3}


@dataclass(frozen=True)
class BenchRow:
    label: str
    d: int
    m_bar: int
    n_bar: int
    alpha: int
    phi_prime: int
    time_ms: float
    error: Optional[str] = None


def make_instance(family: str, params: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> tuple[str, HRep, Optional[VRep]]:
    """(label, unbounded H-rep, precomputed V-rep) for a family.  The V-rep
    is always None: `closure_data` enumerates every family by one walk."""
    arity = {"dwarfed-cube": 1, "thrackle": 1, "random-metric": 2,
             "tropical-cyclic": 2, "tropical-permutohedron": 1}
    if family not in arity:
        raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
    params = list(params)
    if len(params) != arity[family]:
        raise InputError(f"{family} takes {arity[family]} parameter(s), got {len(params)}")
    if family == "dwarfed-cube":
        (d,) = params
        _, reversal = dwarfed_cube(d)
        return f"dwarfed-cube-{d}", reversal, None
    if family == "thrackle":
        (d,) = params
        return f"thrackle-{d}", tight_span_hrep(thrackle_metric(d)), None
    if family == "random-metric":
        d, seed = params
        return f"random-metric-{d}-s{seed}", tight_span_hrep(random_metric(d, seed)), None
    if family == "tropical-cyclic":
        s, t = params
        return f"tropical-cyclic-{s}-{t}", tropical_hrep(cyclic_matrix(s, t)), None
    (t,) = params
    return (f"tropical-permutohedron-{t}", tropical_hrep(permutohedron_matrix(t, budget)),
            None)


def closure_data(h: HRep, vrep: Optional[VRep] = None,
                 budget: int = DEFAULT_BUDGET) -> tuple[ClosureResult, VRep, IncidenceMatrix]:
    """Close the polyhedron and assemble the closure's vertex set and
    incidence matrix (far face attached) from one enumeration of h.

    The closure is a polytope, so `compute_incidences` applies to it; it
    is full-dimensional exactly when h is, and lower-dimensional h (a
    segment, a ray) is refused with InputError "not full-dimensional".
    Bounded h (no rays) is refused too, with InputError "bounded
    polyhedron", by `IncidenceMatrix`: its closure has an empty far face.
    The far face is attached after the incidences are computed, so a
    bounded segment is still refused as "not full-dimensional".  The
    enumeration walks from the closure's own start vertex, so the LP runs
    once."""
    clo = projective_closure(h)
    if vrep is None:
        vrep = enumerate_vertices_pivoting(h, budget, start=clo.translation)
    points = [clo.map_point(x) for x in vrep.points]
    points += [clo.map_ray(r) for r in vrep.directions]
    vbar = VRep.from_integers(h.dim, points, [])
    inc = compute_incidences(clo.closure, vbar)
    inc = inc.with_far_face(far_face_vertices(vbar))
    return clo, vbar, inc


def bounded_diagram(inc: IncidenceMatrix, alg: str = "selective",
                    max_dim: Optional[int] = None,
                    budget: int = DEFAULT_BUDGET) -> HasseDiagram:
    """Bounded-subcomplex Hasse diagram by the chosen algorithm, always
    expressed in the closure's vertex indexing.  Each algorithm refuses to
    expand more than `budget` faces.

    Two cheap invariants are checked on every diagram, and a failure
    raises InternalError naming the algorithm: every arc raises the rank
    by one, and with a far face attached and no `max_dim` the Euler
    characteristic sum((-1)^k f_k) is 1, because the faces of a polytope
    that avoid a proper face form a contractible complex (Hirai 2006)."""
    if alg == "selective":
        hd = selective_generation(inc, max_dim, budget)
    elif alg == "filter":
        if inc.far_face is None:
            raise InputError("far-face data required for the filter algorithm")
        hd = filter_bounded(full_face_lattice(inc, budget), inc.far_face, max_dim)
    elif alg == "moebius":
        if inc.far_face is None:
            hd = moebius_generation(inc, max_dim, budget)
        else:
            near_inc, near = restrict_to_near(inc)
            hd = relabel_vertices(moebius_generation(near_inc, max_dim, budget),
                                  dict(enumerate(near)), inc.n, inc.far_face)
    else:
        raise InputError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    ranks = hd.ranks
    if any(ranks[hi] != ranks[lo] + 1 for lo, hi in hd.arcs):
        raise InternalError(f"{alg}: an arc does not raise the rank by one")
    if inc.far_face is not None and max_dim is None:
        euler = sum(f if k % 2 == 0 else -f for k, f in enumerate(hd.f_vector()))
        if euler != 1:
            raise InternalError(f"{alg}: the bounded complex has Euler characteristic {euler}, "
                                "not 1")
    return hd


def verify_diagram(inc: IncidenceMatrix, hd: HasseDiagram, alg: str,
                   max_dim: Optional[int] = None, budget: int = DEFAULT_BUDGET) -> None:
    """Recompute the diagram hd (made by alg) with a second algorithm and
    raise InternalError unless both agree."""
    other_alg = "moebius" if alg != "moebius" else "selective"
    other = bounded_diagram(inc, other_alg, max_dim, budget)
    if other.canonical() != hd.canonical():
        raise InternalError(f"algorithms {alg} and {other_alg} disagree on the bounded complex")


def run_pipeline(family: str, params: Sequence[int], alg: str = "selective",
                 out_dir: Optional[str] = None, budget: int = DEFAULT_BUDGET,
                 verify: bool = False) -> BenchRow:
    """Full generate -> close -> enumerate -> incidences -> bounded run."""
    started = time.perf_counter()
    stage = "generate"
    try:
        label, h, pre = make_instance(family, params, budget)
        stage = "close/enumerate"
        clo, vbar, inc = closure_data(h, pre, budget)
        stage = f"bounded[{alg}]"
        hd = bounded_diagram(inc, alg, None, budget)
        if verify:
            stage = "verify"
            verify_diagram(inc, hd, alg, None, budget)
    except PolyboundError as exc:
        # only our own errors are known to take a single message argument
        raise type(exc)(f"{stage}: {exc}") from exc
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        formats.write_hrep(h, os.path.join(out_dir, f"{label}.hrep"))
        formats.write_hrep(clo.closure, os.path.join(out_dir, f"{label}.closure.hrep"))
        formats.write_vrep(vbar, os.path.join(out_dir, f"{label}.closure.vrep"))
        formats.write_incidence(inc, os.path.join(out_dir, f"{label}.inc"))
        formats.write_hasse(hd, os.path.join(out_dir, f"{label}.hasse.json"))
    return BenchRow(label, h.dim, inc.m, inc.n, inc.alpha, hd.node_count(), elapsed_ms)


def suite_instances(suite: str, max_size: Optional[int], seeds: int):
    """(family, params) per instance of a suite; max_size None selects the
    default roster, and 0 selects nothing."""
    def top(default: int) -> int:
        return default if max_size is None else max_size

    if suite not in SMALLEST_SIZE:
        raise InputError(f"unknown suite {suite!r}; choose from {SUITES}")
    low = SMALLEST_SIZE[suite]
    if suite == "dwarfed":
        return [("dwarfed-cube", (d,)) for d in range(low, top(15) + 1, 5)]
    if suite == "thrackle":
        return [("thrackle", (d,)) for d in range(low, top(8) + 1)]
    if suite == "random":
        return [("random-metric", (d, s)) for d in range(low, top(6) + 1)
                for s in range(seeds)]
    if suite == "tropical-cyclic":
        pairs = [(3, 3), (4, 4), (5, 5), (3, 10)]
        return [("tropical-cyclic", (s, t)) for s, t in pairs if max(s, t) <= top(10)]
    return [("tropical-permutohedron", (t,)) for t in range(low, top(3) + 1)]


def run_suite(suite: str, max_size: Optional[int] = None, seeds: int = 20,
              out_dir: Optional[str] = None, alg: str = "selective",
              budget: int = DEFAULT_BUDGET, verify: bool = False) -> list[BenchRow]:
    """One BenchRow per instance; per-row failures are recorded and the
    suite continues.  A max_size that selects no instance is refused."""
    instances = suite_instances(suite, max_size, seeds)
    if not instances:
        raise InputError(f"max size {max_size} selects no {suite} instance; "
                         f"the smallest size is {SMALLEST_SIZE[suite]}")
    rows = []
    for family, params in instances:
        try:
            rows.append(run_pipeline(family, params, alg, out_dir, budget, verify))
        except Exception as exc:
            label = f"{family}-" + "-".join(str(p) for p in params)
            rows.append(BenchRow(label, 0, 0, 0, 0, 0, 0.0, error=str(exc)))
    return rows


def aggregate_random_rows(rows: Sequence[BenchRow]) -> list[dict]:
    """Per-dimension mean/stddev summary for the random-metric suite."""
    by_d: dict[int, list[BenchRow]] = {}
    for row in rows:
        if row.error is None:
            by_d.setdefault(row.d, []).append(row)
    out = []
    for d in sorted(by_d):
        group = by_d[d]
        out.append({
            "d": d,
            "samples": len(group),
            "m_bar": group[0].m_bar,
            "n_bar_mean": mean(r.n_bar for r in group),
            "alpha_mean": mean(r.alpha for r in group),
            "phi_prime_mean": mean(r.phi_prime for r in group),
            "phi_prime_stddev": pstdev(r.phi_prime for r in group),
            "time_ms_mean": mean(r.time_ms for r in group),
        })
    return out


def _format_table(header: Sequence[str], cells: Sequence[Sequence[str]],
                 fmt: str = "table") -> str:
    """Rows of string cells as CSV or as a left-aligned text table."""
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(c) for c in cells]) + "\n"
    if fmt != "table":
        raise InputError(f"unknown format {fmt!r}")
    widths = [max(len(header[i]), *(len(c[i]) for c in cells)) if cells else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for c in cells:
        lines.append("  ".join(c[i].ljust(widths[i]) for i in range(len(c))).rstrip())
    return "\n".join(lines) + "\n"


def format_rows(rows: Sequence[BenchRow], fmt: str = "table") -> str:
    header = ("label", "d", "m", "n", "alpha", "phi'", "ms", "error")
    return _format_table(header, [
        [r.label, str(r.d), str(r.m_bar), str(r.n_bar), str(r.alpha),
         str(r.phi_prime), f"{r.time_ms:.1f}", r.error or ""] for r in rows], fmt)


def format_random_summary(summary: Sequence[dict], fmt: str = "table") -> str:
    header = ("d", "samples", "m", "n_mean", "alpha_mean", "phi'_mean", "phi'_std", "ms_mean")
    return _format_table(header, [
        [str(s["d"]), str(s["samples"]), str(s["m_bar"]),
         f"{s['n_bar_mean']:.2f}", f"{s['alpha_mean']:.2f}",
         f"{s['phi_prime_mean']:.2f}", f"{s['phi_prime_stddev']:.2f}",
         f"{s['time_ms_mean']:.1f}"] for s in summary], fmt)
