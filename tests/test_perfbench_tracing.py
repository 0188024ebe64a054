"""The benchmark's tracer wraps program functions by name; entering and
leaving it with no pass inside checks that every name it wraps exists."""

import importlib.util
from pathlib import Path

from conftest import instance
from polybound import incidence, lp, pipeline, polyhedron

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    wrapped = [(polyhedron, "rank"), (polyhedron, "nullspace"), (polyhedron, "lp_solve"),
               (lp, "nullspace"), (incidence, "rank"), (pipeline, "run_pipeline")]
    before = [owner.__dict__[name] for owner, name in wrapped]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[name] is not fn
                   for (owner, name), fn in zip(wrapped, before))
    assert [owner.__dict__[name] for owner, name in wrapped] == before
    assert tracer.metrics()["trace.pass_s"][0] >= 0


def test_tracer_counts_every_covers_call():
    # covers runs once per face it expands: selective and moebius expand the
    # 42 bounded faces of thrackle-5, filter every lattice node but the top
    tracing = load_tracing()
    _, _, _, _, inc = instance("thrackle", 5)
    tracer = tracing.Tracer()
    with tracer.installed():
        for alg in pipeline.ALGORITHMS:
            pipeline.bounded_diagram(inc, alg)
    counts = tracer.counts
    assert counts["bounded.covers_calls"] == 42
    assert counts["moebius.covers_calls"] == 42
    assert counts["filter.covers_calls"] == 263
    assert counts["bounded.lattice_faces"] == 264


def test_tracer_times_the_one_start_vertex_lp():
    # the closure finds its start vertex by one LP, which the walk reuses;
    # the tracer counts and times it through polyhedron.lp_solve
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        pipeline.run_pipeline("thrackle", (5,))
    metrics = tracer.metrics()
    assert metrics["lp.calls"] == (1, "count")
    assert metrics["lp.s"][0] > 0
