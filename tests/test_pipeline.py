import pytest

from conftest import segment, unit_square
from polybound import pipeline
from polybound.errors import InputError


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
