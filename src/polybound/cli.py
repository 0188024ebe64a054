"""Command-line front end.

Subcommands: gen, close, vertices, incidences, bounded, fvector, bench.
Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BudgetExceededError, InputError, InternalError, PolyboundError
from . import formats, pipeline
from .fvector import f_vector_simple
from .incidence import compute_incidences, far_face_vertices
from .polyhedron import (DEFAULT_BUDGET, enumerate_vertices_bruteforce,
                         enumerate_vertices_pivoting, projective_closure,
                         reverse_search_vertices)

BUDGET_HELP = "work budget of gen, vertices, bounded and bench; exit 3 when it runs out"


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low, refused with exit 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # the global flags are also repeated on every subcommand (with SUPPRESS
    # defaults) so they are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--out-dir", default=argparse.SUPPRESS,
                        help="directory for output files (default: .)")
    common.add_argument("--budget", type=_int_at_least(1), default=argparse.SUPPRESS,
                        help=BUDGET_HELP)
    top = argparse.ArgumentParser(
        prog="polybound",
        description="Bounded subcomplexes of unbounded polyhedra, exactly.")
    top.add_argument("-o", "--out-dir", default=".", help="directory for output files")
    top.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BUDGET,
                     help=BUDGET_HELP)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a benchmark instance H-rep")
    gen.add_argument("family", choices=pipeline.FAMILIES)
    gen.add_argument("params", type=int, nargs="+",
                     help="d | d seed | s t | t (see --help of the family)")

    close = sub.add_parser("close", parents=[common], help="projective closure of an H-rep")
    close.add_argument("hrep")

    verts = sub.add_parser("vertices", parents=[common], help="enumerate vertices and rays")
    verts.add_argument("hrep")
    verts.add_argument("--alg", choices=("pivot", "brute", "rs"), default="pivot")

    incs = sub.add_parser("incidences", parents=[common], help="vertex-facet incidence matrix")
    incs.add_argument("hrep")
    incs.add_argument("vrep")
    incs.add_argument("--closure", action="store_true",
                      help="input is a projective closure; mark the far face")

    bnd = sub.add_parser("bounded", parents=[common], help="Hasse diagram of the bounded subcomplex")
    bnd.add_argument("inc")
    bnd.add_argument("--alg", choices=pipeline.ALGORITHMS, default="selective")
    bnd.add_argument("--max-dim", type=_int_at_least(0), default=None,
                     help="emit only faces up to this rank (skeleton cutoff)")
    bnd.add_argument("--verify", action="store_true",
                     help="cross-check against a second algorithm")

    fv = sub.add_parser("fvector", parents=[common], help="face numbers of a simple polyhedron")
    fv.add_argument("inc")
    fv.add_argument("vrep")

    bench = sub.add_parser("bench", parents=[common], help="run a benchmark suite")
    bench.add_argument("--suite", choices=pipeline.SUITES, required=True)
    bench.add_argument("--max-size", type=_int_at_least(1), default=None)
    bench.add_argument("--seeds", type=_int_at_least(1), default=20,
                       help="sample count per dimension (random suite)")
    bench.add_argument("--format", choices=("csv", "table"), default="table")
    bench.add_argument("--alg", choices=pipeline.ALGORITHMS, default="selective")
    bench.add_argument("--verify", action="store_true")
    return top


def _stem(path: str, out_dir: str) -> str:
    base = os.path.basename(path)
    if "." in base:
        base = base[:base.rindex(".")]
    return os.path.join(out_dir, base)


def _cmd_gen(args) -> int:
    label, h, _ = pipeline.make_instance(args.family, args.params, args.budget)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{label}.hrep")
    formats.write_hrep(h, path)
    print(path)
    return 0


def _cmd_close(args) -> int:
    h = formats.read_hrep(args.hrep)
    clo = projective_closure(h)
    os.makedirs(args.out_dir, exist_ok=True)
    path = _stem(args.hrep, args.out_dir) + ".closure.hrep"
    formats.write_hrep(clo.closure, path)
    print(path)
    return 0


def _cmd_vertices(args) -> int:
    h = formats.read_hrep(args.hrep)
    if args.alg == "brute":
        v = enumerate_vertices_bruteforce(h, args.budget)
    elif args.alg == "rs":
        v, _ = reverse_search_vertices(h, args.budget)
    else:
        v = enumerate_vertices_pivoting(h, args.budget)
    os.makedirs(args.out_dir, exist_ok=True)
    path = _stem(args.hrep, args.out_dir) + ".vrep"
    formats.write_vrep(v, path)
    print(f"{path}  vertices={len(v.vertices)} rays={len(v.rays)}")
    return 0


def _cmd_incidences(args) -> int:
    h = formats.read_hrep(args.hrep)
    v = formats.read_vrep(args.vrep)
    inc = compute_incidences(h, v)
    if args.closure:
        inc = inc.with_far_face(far_face_vertices(v))
    os.makedirs(args.out_dir, exist_ok=True)
    path = _stem(args.hrep, args.out_dir) + ".inc"
    formats.write_incidence(inc, path)
    print(f"{path}  facets={inc.m} vertices={inc.n} alpha={inc.alpha}")
    return 0


def _cmd_bounded(args) -> int:
    inc = formats.read_incidence(args.inc)
    if args.verify and inc.far_face is None:
        raise InputError("far face required for --verify: the incidence file has no farface line")
    hd = pipeline.bounded_diagram(inc, args.alg, args.max_dim, args.budget)
    if args.verify:
        pipeline.verify_diagram(inc, hd, args.alg, args.max_dim, args.budget)
    os.makedirs(args.out_dir, exist_ok=True)
    path = _stem(args.inc, args.out_dir) + ".hasse.json"
    formats.write_hasse(hd, path)
    print(f"{path}  faces={hd.node_count()} f_vector={hd.f_vector()}")
    return 0


def _cmd_fvector(args) -> int:
    import json

    inc = formats.read_incidence(args.inc)
    v = formats.read_vrep(args.vrep)
    f_bounded, f_all, hv = f_vector_simple(inc, v, v.dim)
    print("f = (" + ", ".join(str(x) for x in f_bounded.f) + ")")
    record = {"f_bounded": list(f_bounded.f), "f_all": list(f_all.f),
              "h": list(hv.h), "h_inf": list(hv.h_inf)}
    os.makedirs(args.out_dir, exist_ok=True)
    path = _stem(args.inc, args.out_dir) + ".fvector.json"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(path)
    return 0


def _cmd_bench(args) -> int:
    rows = pipeline.run_suite(args.suite, args.max_size, args.seeds,
                              args.out_dir, args.alg, args.budget, args.verify)
    sys.stdout.write(pipeline.format_rows(rows, args.format))
    if args.suite == "random":
        summary = pipeline.aggregate_random_rows(rows)
        sys.stdout.write(pipeline.format_random_summary(summary, args.format))
    return 4 if any(r.error for r in rows) else 0


_HANDLERS = {
    "gen": _cmd_gen,
    "close": _cmd_close,
    "vertices": _cmd_vertices,
    "incidences": _cmd_incidences,
    "bounded": _cmd_bounded,
    "fvector": _cmd_fvector,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except PolyboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
