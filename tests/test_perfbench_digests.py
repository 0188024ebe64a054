"""Outputs stay byte-identical: every benchmark item with recorded digests
is run once, on the benchmark's own code, and its files are hashed against
perfbench/data/digests.json.  The stored face-lattice inputs are derived
again from the library and compared byte for byte; nothing is written."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import instance
from polybound import formats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
PROVENANCE = json.loads((PERFBENCH / "data" / "provenance.json").read_text())


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("workload", ["tight-spans", "dwarfed", "face-lattice"])
def test_outputs_match_recorded_digests(tmp_path, workload):
    wl = load_workloads()
    inputs = wl.Inputs(workload)
    items = [item for item in wl.roster(inputs, 11) if item.digest_key is not None]
    assert items
    for item in items:
        paths = item.run(str(tmp_path))
        digests = {os.path.basename(p): wl.sha256_file(p) for p in paths}
        assert digests == inputs.digests[item.digest_key], item.label


def test_every_stored_input_has_provenance():
    assert sorted(path.stem for path in (PERFBENCH / "data").glob("*.inc")) == sorted(PROVENANCE)


@pytest.mark.parametrize("label", sorted(PROVENANCE))
def test_stored_input_regenerates(label):
    entry = PROVENANCE[label]
    _, _, _, _, inc = instance(entry["family"], *entry["params"])
    stored = (PERFBENCH / "data" / f"{label}.inc").read_bytes()
    assert stored == formats.incidence_to_text(inc).encode("ascii")
