"""polybound benchmark: closed-loop passes over one workload's roster.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  One process, one caller: each instance is handed to the library
only after the previous one's output is written and checked.  Passes run
back to back for S seconds (a pass is not started when the longest pass
so far would overrun the window; at least one always runs).

--trace 0 prints the end-to-end metrics: median pass time, its tail,
set-up time and peak RSS.  Pass times are read at a fixed host speed:
the host is sampled while each untraced pass runs (see hostspeed.py); the
raw seconds and the host speed go into the record.  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (medians over traced passes; counts must repeat exactly).  The last
stdout line is the result object; the line before it is a record of the
run (host probe, Python version, nproc, revision, seed, passes, first
errors), and the traced run's spans go to
perfbench/out/trace-<workload>-s<seed>.json.
The exit code is 0 only when every instance passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 15


def probe_s() -> float:
    """A fixed pure-Python loop, timed before and after each run and
    recorded ungated, so a throttled host shows in the record."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def setup_sample(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up:
    interpreter start, `import polybound`, loading the stored inputs."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--setup-probe", "--workload", workload],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - started


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest pass-time percentile with at least
    ten passes beyond it; the slowest pass when there are fewer than 11."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def revision() -> dict:
    """Git revision when run in a repository, and always a digest of src/."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    rev = {"src_sha256": h.hexdigest()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            rev["git"] = proc.stdout.strip()
    return rev


def run_pass(wl, items, out, expected, seen, errors) -> int:
    """One closed loop over the roster; returns the number of failed
    instances.  An exception or a mismatch fails the instance, which is
    counted and recorded, never dropped."""
    failed = 0
    for item in items:
        try:
            paths = item.run(out)
            digests = {os.path.basename(p): wl.sha256_file(p) for p in paths}
            if item.digest_key is None:  # seeded: every pass must repeat the first
                want = seen.setdefault(item.label, digests)
            else:
                want = expected.get(item.digest_key)
            wl.expect(digests == want, f"{item.label}: output digests differ from the recorded ones")
        except Exception as exc:
            failed += 1
            errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
    return failed


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "polybound", "__init__.py")):
        print(f"perfbench: no polybound sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as wl
    from tracing import Tracer

    parser = argparse.ArgumentParser(description="polybound closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        wl.Inputs(args.workload)
        print(repr(time.monotonic()))
        return 0
    if None in (args.seed, args.seconds, args.trace):
        parser.error("--seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    probe_before = probe_s()
    setup = [] if args.trace else [setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]
    sampler = hostspeed.Sampler()
    inputs = wl.Inputs(args.workload)
    items = wl.roster(inputs, args.seed)
    os.makedirs(OUT, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)

    errors: list[str] = []
    seen: dict = {}
    passes: list[float] = []   # untraced pass seconds, probe time taken out
    speeds: list[float] = []   # host speed during each untraced pass
    tracers = []
    attempted = failed = 0
    try:
        start = time.perf_counter()
        while True:
            if args.trace and len(passes) > len(tracers):
                tracer = Tracer()
                with tracer.installed():
                    failed += run_pass(wl, items, out, inputs.digests, seen, errors)
                tracers.append(tracer)
            else:
                with sampler.sampling():
                    t0 = time.perf_counter()
                    failed += run_pass(wl, items, out, inputs.digests, seen, errors)
                    elapsed = time.perf_counter() - t0
                passes.append(elapsed - sampler.spent)
                speeds.append(hostspeed.speed(sampler.samples))
            attempted += len(items)
            longest = max(passes + [tr.pass_s for tr in tracers])
            done = len(passes) + len(tracers) >= (2 if args.trace else 1)
            if done and time.perf_counter() - start + longest > args.seconds:
                break
        if args.workload == "face-lattice":
            attempted += 1
            try:
                wl.regenerate_stored()
            except Exception as exc:
                failed += 1
                errors.append(f"stored-input self-check: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        per_pass = [tr.metrics() for tr in tracers]
        counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "B")} for m in per_pass]
        if any(c != counts[0] for c in counts):
            attempted += 1
            failed += 1
            errors.append("traced passes disagree on their counts")
        metrics = {name: (median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_frac"] = (
            median(tr.pass_s for tr in tracers) / median(passes) - 1.0, "frac")
        metrics["fail_frac"] = (failed / attempted, "frac")
        spans_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump([{"pass": i, "name": name, "start": s0 - tr.spans[0][1],
                        "end": s1 - tr.spans[0][1], "parent": parent}
                       for i, tr in enumerate(tracers) for name, s0, s1, parent in tr.spans], fh)
    else:
        adjusted = [p * v for p, v in zip(passes, speeds)]
        tail_pct, tail_s = tail(adjusted)
        metrics = {
            "roster_s": (median(adjusted), "s"),
            "roster_s.tail": (tail_s, "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "traced_passes": len(tracers),
        "pass_s": passes, "host_speed": speeds, "instances_per_pass": len(items),
        "probe_before_s": probe_before, "probe_after_s": probe_s(),
        "setup_samples_s": setup, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "revision": revision(), "errors": errors[:5],
    }
    if args.trace:
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        record["tail_percentile"] = tail_pct
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
