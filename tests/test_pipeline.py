import pytest

from conftest import instance, segment, unit_square
from polybound import formats, pipeline
from polybound.bounded import HasseDiagram
from polybound.cli import main
from polybound.errors import InputError, InternalError


class TwoArgumentError(Exception):
    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


def test_run_pipeline_propagates_foreign_exceptions_unchanged(monkeypatch):
    boom = TwoArgumentError(7, "detail")

    def fail(*args):
        raise boom

    monkeypatch.setattr(pipeline, "bounded_diagram", fail)
    with pytest.raises(TwoArgumentError) as info:
        pipeline.run_pipeline("dwarfed-cube", (2,))
    assert info.value is boom


def test_run_pipeline_prefixes_own_errors_with_the_stage(monkeypatch):
    monkeypatch.setattr(pipeline, "make_instance",
                        lambda family, params, budget: ("segment", segment(), None))
    with pytest.raises(InputError) as info:
        pipeline.run_pipeline("dwarfed-cube", (2,))
    assert str(info.value) == "close/enumerate: not full-dimensional"


def test_closure_data_refuses_bounded_input(monkeypatch):
    with pytest.raises(InputError, match="^bounded polyhedron: without rays"):
        pipeline.closure_data(unit_square())
    monkeypatch.setattr(pipeline, "make_instance",
                        lambda family, params, budget: ("square", unit_square(), None))
    with pytest.raises(InputError, match="^close/enumerate: bounded polyhedron: without rays"):
        pipeline.run_pipeline("dwarfed-cube", (2,))


def test_suite_instances_read_max_size_0_as_no_instances():
    assert pipeline.suite_instances("thrackle", None, 1) == [
        ("thrackle", (d,)) for d in range(3, 9)]
    assert len(pipeline.suite_instances("tropical-cyclic", None, 1)) == 4
    for suite in pipeline.SUITES:
        assert pipeline.suite_instances(suite, 0, 2) == []


def without_face(hd, k):
    """hd with node k and its arcs dropped."""
    keep = [i for i in range(hd.node_count()) if i != k]
    position = {old: new for new, old in enumerate(keep)}
    arcs = [(position[lo], position[hi]) for lo, hi in hd.arcs if k not in (lo, hi)]
    return HasseDiagram(hd.n, [hd.masks[i] for i in keep], [hd.ranks[i] for i in keep],
                        arcs, hd.far_face)


def test_bounded_diagram_catches_a_dropped_face(monkeypatch):
    _, _, _, _, inc = instance("thrackle", 4)
    real = pipeline.selective_generation
    faces = real(inc).node_count()
    for k in range(1, faces):
        monkeypatch.setattr(pipeline, "selective_generation",
                            lambda inc, max_dim, budget, k=k:
                            without_face(real(inc, max_dim, budget), k))
        with pytest.raises(InternalError, match="^selective: the bounded complex has Euler "
                                                "characteristic [02], not 1$"):
            pipeline.bounded_diagram(inc)
        # a skeleton has no Euler characteristic to check; the diamond
        # check sees a dropped vertex there, which leaves an edge with one
        # face between it and the empty face, but not a dropped edge
        skeleton = real(inc, 1)
        if k < skeleton.node_count() and skeleton.ranks[k] == 0:
            with pytest.raises(InputError, match=r"^selective: not a polytope's face lattice: "
                                                 r"the interval from face \[\] to face "
                                                 r"\[\d+, \d+\] has 1 faces in between"):
                pipeline.bounded_diagram(inc, max_dim=1)
        else:
            pipeline.bounded_diagram(inc, max_dim=1)


def test_bounded_diagram_catches_an_arc_that_skips_a_rank(monkeypatch):
    _, _, _, _, inc = instance("thrackle", 4)
    real = pipeline.moebius_generation

    def skipping(inc, max_dim, budget):
        hd = real(inc, max_dim, budget)
        hd.arcs.append((0, hd.ranks.index(1)))  # the empty face below an edge
        return hd

    monkeypatch.setattr(pipeline, "moebius_generation", skipping)
    with pytest.raises(InternalError, match="^moebius: an arc does not raise the rank by one$"):
        pipeline.bounded_diagram(inc, "moebius", max_dim=1)


def test_a_broken_invariant_exits_4(tmp_path, capsys, monkeypatch):
    _, _, _, _, inc = instance("thrackle", 4)
    path = tmp_path / "thrackle-4.inc"
    formats.write_incidence(inc, str(path))
    real = pipeline.filter_bounded
    monkeypatch.setattr(pipeline, "filter_bounded",
                        lambda hd, far, max_dim: without_face(real(hd, far, max_dim), 1))
    assert main(["-o", str(tmp_path), "bounded", str(path), "--alg", "filter"]) == 4
    assert capsys.readouterr().err == (
        "internal error: filter: the bounded complex has Euler characteristic 0, not 1\n")
