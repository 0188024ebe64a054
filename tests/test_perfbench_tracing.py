"""The benchmark's tracer wraps program functions by name; entering and
leaving it with no pass inside checks that every name it wraps exists."""

import importlib.util
from pathlib import Path

from polybound import incidence, lp, pipeline, polyhedron

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(polyhedron, "rank"), (polyhedron, "nullspace"), (polyhedron, "lp_solve"),
               (lp, "nullspace"), (incidence, "rank"), (pipeline, "run_pipeline")]
    before = [owner.__dict__[name] for owner, name in wrapped]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[name] is not fn
                   for (owner, name), fn in zip(wrapped, before))
    assert [owner.__dict__[name] for owner, name in wrapped] == before
    assert tracer.metrics()["trace.pass_s"][0] >= 0
