"""Regenerate the benchmark's stored data from the library.

* `data/<label>.inc`: the face-lattice inputs, each the closure incidence
  matrix (far face attached) that `pipeline.closure_data` produces for the
  named instance, written by `formats.write_incidence`.
* `data/provenance.json`: how each stored file was made, its (m, n, alpha)
  and its SHA-256.
* `data/digests.json`: SHA-256 of every output file a pass writes for the
  fixed-roster instances.  Every benchmark pass compares against these.

Run from the repository root:  python3 perfbench/make_data.py
It takes a few minutes; the (24,4) permutohedron dominates.  Commit the
result only when outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from polybound import formats  # noqa: E402


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def make_inputs() -> None:
    provenance = {}
    for family, params, phi, with_filter in wl.FACE_LATTICE:
        label = wl.label_of(family, params)
        path = wl.Inputs.stored(label)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(wl.closure_inc_text(family, params))
        inc = formats.read_incidence(path)
        provenance[label] = {
            "produced_by": f"pipeline.closure_data(*pipeline.make_instance("
                           f"{family!r}, {tuple(params)!r})[1:]), formats.write_incidence",
            "family": family, "params": list(params),
            "m": inc.m, "n": inc.n, "alpha": inc.alpha, "phi_prime": phi,
            "filter_oracle": with_filter,
            "sha256": wl.sha256_file(path),
        }
        print(f"{label}: m={inc.m} n={inc.n} alpha={inc.alpha}", flush=True)
    _dump(wl.PROVENANCE, provenance)


def make_digests() -> None:
    _dump(wl.DIGESTS, {})
    digests = {}
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    out = tempfile.mkdtemp(prefix="digests-", dir=out_root)
    try:
        for workload in wl.WORKLOADS:
            inputs = wl.Inputs(workload)
            for item in wl.roster(inputs, seed=0):
                paths = item.run(out)
                if item.digest_key is not None:
                    digests[item.digest_key] = {os.path.basename(p): wl.sha256_file(p)
                                                for p in paths}
                print(f"{workload}: {item.label}", flush=True)
    finally:
        shutil.rmtree(out)
    _dump(wl.DIGESTS, digests)


if __name__ == "__main__":
    os.makedirs(wl.DATA, exist_ok=True)
    make_inputs()
    make_digests()
