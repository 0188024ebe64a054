"""The benchmark's three workloads: what one pass runs and how its output
is checked.

A pass is one closed loop over a workload's roster.  Each item calls only
the entry points a user calls (`pipeline.run_pipeline`,
`fvector.f_vector_simple`, and the `formats.read_incidence` +
`pipeline.bounded_diagram` + `formats.write_hasse` route of
`polybound bounded --verify`), writes its output files, and is checked
against known values before the next item starts.  Library functions are
always looked up through their module at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from polybound import formats, fvector, pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
PROVENANCE = os.path.join(DATA, "provenance.json")
DIGESTS = os.path.join(DATA, "digests.json")

WORKLOADS = ("tight-spans", "dwarfed", "face-lattice")

THRACKLE_PHI = {3: 8, 4: 18, 5: 42, 6: 100, 7: 240, 8: 578}
DWARFED_TABLE = {5: (11, 26, 130, 12), 10: (21, 101, 1010, 22), 15: (31, 226, 3390, 32)}
RANDOM_D6_SEEDS = 3

# (family, params, phi', run filter too); the filter oracle runs only where
# the closure's full face lattice stays small.
FACE_LATTICE = (
    ("tropical-permutohedron", (4,), 1424, False),
    ("thrackle", (8,), 578, False),
    ("tropical-cyclic", (5, 5), 322, False),
    ("tropical-cyclic", (3, 10), 182, False),
    ("tropical-cyclic", (4, 4), 64, True),
    ("tropical-permutohedron", (3,), 50, True),
)
# Stored inputs cheap enough to regenerate on every run; thrackle-8 is
# regenerated by every tight-spans pass, tropical-cyclic (5,5) after each
# face-lattice run's timed window.
REGENERATED_IN_TIGHT_SPANS = "thrackle-8"
REGENERATED_AFTER_FACE_LATTICE = ("tropical-cyclic", (5, 5))


class CheckFailed(Exception):
    """An output disagrees with its known value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def label_of(family: str, params) -> str:
    return f"{family}-" + "-".join(str(p) for p in params)


def euler(f_vector) -> int:
    return sum((-1) ** k * f for k, f in enumerate(f_vector))


def check_hasse_file(path: str, phi: int) -> None:
    """Read a written Hasse diagram back: phi' faces, and Euler
    characteristic 1, because the bounded complex is contractible."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    f = doc["f_vector"]
    expect(euler(f) == 1, f"{os.path.basename(path)}: Euler characteristic {euler(f)} != 1")
    expect(len(doc["faces"]) == phi,
           f"{os.path.basename(path)}: {len(doc['faces'])} faces, want {phi}")


@dataclass(frozen=True)
class Item:
    """One closed-loop request: `run(out_dir)` returns the paths it wrote,
    after checking them.  `digest_key` names the recorded digests the
    written files must match (None for seeded instances)."""

    label: str
    run: Callable[[str], list]
    digest_key: Optional[str]


class Inputs:
    """What a workload loads before its first pass: the recorded output
    digests and, for face-lattice, the stored incidence files checked
    against their provenance."""

    def __init__(self, workload: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        with open(DIGESTS, encoding="ascii") as fh:
            self.digests = json.load(fh)
        with open(PROVENANCE, encoding="ascii") as fh:
            self.provenance = json.load(fh)
        self.stored_ok = {}
        if workload == "face-lattice":
            for label, record in self.provenance.items():
                self.stored_ok[label] = sha256_file(self.stored(label)) == record["sha256"]

    @staticmethod
    def stored(label: str) -> str:
        return os.path.join(DATA, f"{label}.inc")


def _pipeline_item(family, params, check, extra=None) -> Callable[[str], list]:
    def run(out: str) -> list:
        row = pipeline.run_pipeline(family, params, "selective", out_dir=out)
        stem = os.path.join(out, row.label)
        check_hasse_file(stem + ".hasse.json", row.phi_prime)
        check(row)
        paths = [stem + ext for ext in (".hrep", ".closure.hrep", ".closure.vrep",
                                        ".inc", ".hasse.json")]
        if extra is not None:
            paths += extra(row, stem)
        return paths
    return run


def _thrackle_check(d):
    def check(row):
        expect(row.phi_prime == THRACKLE_PHI[d], f"{row.label}: phi' {row.phi_prime}")
        expect(row.n_bar == 2 ** (d - 1) + d, f"{row.label}: n {row.n_bar}")
    return check


def _same_as_stored(label):
    def extra(row, stem):
        with open(stem + ".inc", "rb") as a, open(Inputs.stored(label), "rb") as b:
            expect(a.read() == b.read(), f"{label}: stored face-lattice input drifted from the code")
        return []
    return extra


def _random_check(row):
    expect(90 <= row.phi_prime <= 100, f"{row.label}: phi' {row.phi_prime} outside 90..100")


def _dwarfed_check(d):
    def check(row):
        got = (row.m_bar, row.n_bar, row.alpha, row.phi_prime)
        expect(got == DWARFED_TABLE[d], f"{row.label}: (m,n,alpha,phi') {got}")
    return check


def _dwarfed_fvector(d):
    """`polybound fvector --simple` on the written closure files."""
    def extra(row, stem):
        inc = formats.read_incidence(stem + ".inc")
        vrep = formats.read_vrep(stem + ".closure.vrep")
        f_bounded, f_all, hv = fvector.f_vector_simple(inc, vrep, vrep.dim)
        expect(f_bounded.f == tuple([d + 1, d] + [0] * (d - 1)),
               f"{row.label}: f_bounded {f_bounded.f}")
        expect(f_all.total == 2 ** d + d * 2 ** (d - 1) + 1,
               f"{row.label}: f_all total {f_all.total}")
        expect(euler(f_bounded.f) == 1, f"{row.label}: Euler of f_bounded")
        record = {"f_bounded": list(f_bounded.f), "f_all": list(f_all.f),
                  "h": list(hv.h), "h_inf": list(hv.h_inf)}
        path = stem + ".fvector.json"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return [path]
    return extra


def _face_lattice_item(inputs: Inputs, label, phi, with_filter) -> Callable[[str], list]:
    def run(out: str) -> list:
        expect(inputs.stored_ok[label], f"{label}: stored input differs from its provenance")
        inc = formats.read_incidence(Inputs.stored(label))
        sel = pipeline.bounded_diagram(inc, "selective")
        moe = pipeline.bounded_diagram(inc, "moebius")
        canonical = sel.canonical()
        expect(moe.canonical() == canonical, f"{label}: selective and moebius disagree")
        if with_filter:
            fil = pipeline.bounded_diagram(inc, "filter")
            expect(fil.canonical() == canonical, f"{label}: selective and filter disagree")
        path = os.path.join(out, f"{label}.hasse.json")
        formats.write_hasse(sel, path)
        check_hasse_file(path, phi)
        return [path]
    return run


def random_seeds(seed: int) -> list[int]:
    rng = random.Random(f"tight-spans:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(RANDOM_D6_SEEDS)]


def roster(inputs: Inputs, seed: int) -> list[Item]:
    """The items of one pass, in order."""
    if inputs.workload == "tight-spans":
        items = []
        for d in range(3, 9):
            label = f"thrackle-{d}"
            extra = _same_as_stored(label) if label == REGENERATED_IN_TIGHT_SPANS else None
            items.append(Item(label, _pipeline_item("thrackle", (d,), _thrackle_check(d), extra),
                              label))
        for s in random_seeds(seed):
            items.append(Item(f"random-metric-6-s{s}",
                              _pipeline_item("random-metric", (6, s), _random_check), None))
        return items
    if inputs.workload == "dwarfed":
        return [Item(f"dwarfed-cube-{d}",
                     _pipeline_item("dwarfed-cube", (d,), _dwarfed_check(d), _dwarfed_fvector(d)),
                     f"dwarfed-cube-{d}")
                for d in sorted(DWARFED_TABLE)]
    return [Item(label_of(f, p), _face_lattice_item(inputs, label_of(f, p), phi, filt),
                 f"face-lattice/{label_of(f, p)}")
            for f, p, phi, filt in FACE_LATTICE]


def closure_inc_text(family: str, params) -> str:
    """The stored face-lattice input for an instance, regenerated through
    the library: `pipeline.closure_data` on the named instance."""
    _, h, pre = pipeline.make_instance(family, params)
    _, _, inc = pipeline.closure_data(h, pre)
    return formats.incidence_to_text(inc)


def regenerate_stored() -> None:
    """Self-check that the cheap stored input still comes out of the code."""
    family, params = REGENERATED_AFTER_FACE_LATTICE
    label = label_of(family, params)
    with open(Inputs.stored(label), encoding="ascii") as fh:
        stored = fh.read()
    expect(closure_inc_text(family, params) == stored,
           f"{label}: stored face-lattice input drifted from the code")
