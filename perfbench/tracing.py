"""Per-layer timing and counting for the traced run, installed from outside
the program.

`Tracer.installed()` replaces, for the duration of one pass, the module
attributes through which `pipeline`, `bounded` and `moebius` (and the
benchmark itself) call into each layer, and restores them afterwards.  No
file under src/ knows about it, and untraced passes run the program
untouched.

Three kinds of wrapper:

* span: a layer entry point called a few times per instance.  Records
  (name, start, end, parent) in memory and charges self time to its layer:
  its duration minus the spans it called.  The pass itself is the root
  span, so the self times of the span layers plus the root's ("bench":
  checking and hashing) add up to the pass.
* timer: the hot `lp_solve`, `rank`, `nullspace` and point-mapping calls.
  Sums their calls and time but keeps no span and takes no self time from
  the caller, so `polyhedron` and `incidence` self times include the
  linear algebra they chose to run, and the trace does not swamp the work.
* counter: the innermost combinatorial calls (`closure_mask`, `covers`).
  Counts only, charged to whichever bounded algorithm is running.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# layers whose entry points carry spans; lp and linalg are timed inside them
SPAN_LAYERS = ("generators", "polyhedron", "incidence", "bounded", "moebius",
               "fvector", "formats", "pipeline")
GENERATORS = ("dwarfed_cube", "thrackle_metric", "random_metric", "tight_span_hrep",
              "cyclic_matrix", "tropical_hrep", "permutohedron_matrix", "tropical_vertices")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)       # layer -> self seconds
        self.inclusive_s = defaultdict(float)  # metric -> seconds inside its calls
        self.counts = Counter()                # metric -> calls, plus observed sizes
        self.spans = []                        # [name, start, end, parent index]
        self.context = "none"                  # bounded algorithm running now
        self._stack = []                       # open frames: [layer, child seconds, span]
        self._patched = []

    # -- wrappers -------------------------------------------------------
    def _span(self, fn, layer, metric, context=None, observe=None):
        stack, spans, self_s = self._stack, self.spans, self.self_s
        inclusive, counts = self.inclusive_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([metric, 0.0, 0.0, stack[-1][2]])
            frame = [layer, 0.0, index]
            stack.append(frame)
            saved = self.context
            if context is not None:
                self.context = context
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.context = saved
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[1]
                inclusive[metric] += elapsed
                counts[metric] += 1
                stack[-1][1] += elapsed
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, layer, metric, **kw):
        self._patch(owner, attr, self._span(owner.__dict__[attr], layer, metric, **kw))

    def timer(self, owner, attr, metric):
        fn = owner.__dict__[attr]
        inclusive, counts = self.inclusive_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive[metric] += perf_counter() - start
                counts[metric] += 1
        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr, suffix):
        fn = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.context + suffix] += 1
            return fn(*args, **kwargs)
        self._patch(owner, attr, wrapper)

    # -- one traced pass ------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every layer boundary, open the root frame, and undo both
        on exit."""
        try:
            _install(self)
            self.spans.append(["pass", 0.0, 0.0, None])
            self._stack.append(["bench", 0.0, 0])
            start = perf_counter()
            try:
                yield self
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[0][1:3] = [start, end]
                self.pass_s = end - start
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the pass, as {name: (value, unit)}."""
        c, t, s = self.counts, self.inclusive_s, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        null_poly = c["linalg.nullspace@polyhedron"]
        null_calls = null_poly + c["linalg.nullspace@lp"]
        rank_calls = c["linalg.rank@polyhedron"] + c["linalg.rank@incidence"]
        covered = sum(s[layer] for layer in SPAN_LAYERS)
        out = {
            "generators.s": (t["generators"], "s"),
            "lp.calls": (c["lp"], "count"),
            "lp.s": (t["lp"], "s"),
            "polyhedron.closure_s": (t["polyhedron.closure"], "s"),
            "polyhedron.enumerate_s": (t["polyhedron.enumerate"], "s"),
            "polyhedron.map_s": (t["polyhedron.map"], "s"),
            "polyhedron.vertices": (c["polyhedron.vertices"], "count"),
            "polyhedron.rays": (c["polyhedron.rays"], "count"),
            "polyhedron.nullspace_per_vertex":
                (ratio(null_poly, c["polyhedron.vertices"]), "calls/vertex"),
            "linalg.nullspace_calls": (null_calls, "count"),
            "linalg.nullspace_s": (t["linalg.nullspace@polyhedron"]
                                   + t["linalg.nullspace@lp"], "s"),
            "linalg.rank_calls": (rank_calls, "count"),
            "linalg.rank_s": (t["linalg.rank@polyhedron"] + t["linalg.rank@incidence"], "s"),
            "incidence.compute_s": (t["incidence.compute"], "s"),
            "incidence.rows_tested": (c["incidence.rows_tested"], "count"),
            "incidence.facets": (c["incidence.facets"], "count"),
            "incidence.facet_share":
                (ratio(c["incidence.facets"], c["incidence.rows_tested"]), "frac"),
            "incidence.alpha": (c["incidence.alpha"], "count"),
            "incidence.far_s": (t["incidence.far"], "s"),
            "bounded.selective_s": (t["bounded.selective"], "s"),
            "bounded.faces": (c["bounded.faces"], "count"),
            "bounded.arcs": (c["bounded.arcs"], "count"),
            "bounded.covers_calls": (c["bounded.covers_calls"], "count"),
            "bounded.closure_mask_calls": (c["bounded.closure_mask_calls"], "count"),
            "bounded.candidates_per_face":
                (ratio(c["bounded.closure_mask_calls"], c["bounded.faces"]), "calls/face"),
            "bounded.selective_ns_per_alpha_phi":
                (ratio(1e9 * t["bounded.selective"], c["bounded.alpha_phi"]), "ns"),
            "bounded.filter_s": (t["bounded.filter"], "s"),
            "bounded.lattice_faces": (c["bounded.lattice_faces"], "count"),
            "bounded.filter_bounded_share":
                (ratio(c["bounded.filter_faces"], c["bounded.lattice_faces"]), "frac"),
            "moebius.s": (t["moebius"], "s"),
            "moebius.covers_calls": (c["moebius.covers_calls"], "count"),
            "moebius.closure_mask_calls": (c["moebius.closure_mask_calls"], "count"),
            "moebius.candidates_per_face":
                (ratio(c["moebius.closure_mask_calls"], c["moebius.faces"]), "calls/face"),
            "moebius.ns_per_alpha_phi":
                (ratio(1e9 * t["moebius"], c["moebius.alpha_phi"]), "ns"),
            "fvector.s": (t["fvector"], "s"),
            "formats.read_s": (t["formats.read"], "s"),
            "formats.write_s": (t["formats.write"], "s"),
            "formats.bytes_written": (c["formats.bytes_written"], "B"),
            "trace.pass_s": (self.pass_s, "s"),
            "trace.coverage": (ratio(covered, self.pass_s), "frac"),
        }
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out


# -- observers: sizes read off arguments and results ----------------------
def _enumerated(counts, args, vrep):
    counts["polyhedron.vertices"] += len(vrep.vertices)
    counts["polyhedron.rays"] += len(vrep.rays)


def _incidences(counts, args, inc):
    counts["incidence.rows_tested"] += len(args[0].rows)
    counts["incidence.facets"] += inc.m
    counts["incidence.alpha"] += inc.alpha


def _faces(prefix):
    def observe(counts, args, hd):
        faces = hd.node_count()
        counts[prefix + ".faces"] += faces
        counts[prefix + ".arcs"] += len(hd.arcs)
        counts[prefix + ".alpha_phi"] += args[0].alpha * faces
    return observe


def _lattice(counts, args, hd):
    counts["bounded.lattice_faces"] += hd.node_count()


def _filtered(counts, args, hd):
    counts["bounded.filter_faces"] += hd.node_count()


def _written(counts, args, result):
    counts["formats.bytes_written"] += os.path.getsize(args[1])


def _install(tr: Tracer) -> None:
    from polybound import (bounded, formats, fvector, incidence, lp, moebius,
                           pipeline, polyhedron)

    for name in ("run_pipeline", "make_instance", "closure_data", "bounded_diagram"):
        tr.span(pipeline, name, "pipeline", f"pipeline.{name}")
    for name in GENERATORS:
        tr.span(pipeline, name, "generators", "generators")
    tr.span(pipeline, "projective_closure", "polyhedron", "polyhedron.closure")
    tr.span(pipeline, "enumerate_vertices_pivoting", "polyhedron", "polyhedron.enumerate",
            observe=_enumerated)
    tr.timer(polyhedron.ClosureResult, "map_point", "polyhedron.map")
    tr.timer(polyhedron.ClosureResult, "map_ray", "polyhedron.map")
    tr.timer(polyhedron, "lp_solve", "lp")
    tr.timer(polyhedron, "rank", "linalg.rank@polyhedron")
    tr.timer(incidence, "rank", "linalg.rank@incidence")
    tr.timer(polyhedron, "nullspace", "linalg.nullspace@polyhedron")
    tr.timer(lp, "nullspace", "linalg.nullspace@lp")
    tr.span(pipeline, "compute_incidences", "incidence", "incidence.compute",
            observe=_incidences)
    tr.span(pipeline, "far_face_vertices", "incidence", "incidence.far")
    tr.span(pipeline, "restrict_to_near", "incidence", "incidence.restrict")
    tr.span(pipeline, "selective_generation", "bounded", "bounded.selective",
            context="bounded", observe=_faces("bounded"))
    tr.span(pipeline, "full_face_lattice", "bounded", "bounded.filter",
            context="filter", observe=_lattice)
    tr.span(pipeline, "filter_bounded", "bounded", "bounded.filter",
            context="filter", observe=_filtered)
    tr.span(pipeline, "relabel_vertices", "bounded", "bounded.relabel")
    tr.span(pipeline, "moebius_generation", "moebius", "moebius",
            context="moebius", observe=_faces("moebius"))
    tr.counter(bounded, "closure_mask", ".closure_mask_calls")
    tr.counter(bounded, "covers", ".covers_calls")
    tr.counter(moebius, "covers", ".covers_calls")
    tr.span(fvector, "f_vector_simple", "fvector", "fvector")
    for name in ("write_hrep", "write_vrep", "write_incidence", "write_hasse"):
        tr.span(formats, name, "formats", "formats.write", observe=_written)
    for name in ("read_incidence", "read_vrep"):
        tr.span(formats, name, "formats", "formats.read")
