"""Host speed, sampled while a timed pass runs, so a pass's seconds can be
read at one fixed host speed.

The shared host this benchmark was tuned on (2 vCPUs) changes speed by up
to 1.6x for minutes at a time, mostly as a slower processor (CPU time
tracks wall time) and sometimes as time stolen by other guests, and a run
is shorter than a slow or fast spell.  Raw pass seconds therefore move
with the host more than with the program.

`Sampler` measures the host while a pass runs: a SIGALRM every INTERVAL_S
runs `probe()`, a fixed piece of pure-Python work (an integer loop and two
exact Gaussian eliminations over `Fraction`, the kind of work the program
does), in the benchmark's own single thread.  The handler runs between the
program's bytecodes, so the samples are spread evenly over the pass, and
their time is taken out of the pass again.  A pass's adjusted seconds are
its own seconds times the mean of PROBE_REF_S / probe seconds over its
samples: the seconds the pass would take on a host on which the probe
takes PROBE_REF_S (about this host's usual speed).  The probe is the
benchmark's own code, so a change to the program moves the pass and not
the probe.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from statistics import mean
from time import perf_counter

INTERVAL_S = 0.1
PROBE_REF_S = 0.0015   # probe seconds on the reference host

_rng = random.Random(1)
_SMALL = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(5)]
          for i in range(4)]
_LARGE = [[Fraction(_rng.randrange(-999, 1000), _rng.randrange(1, 99)) for _ in range(6)]
          for _ in range(6)]


def _eliminate(matrix) -> None:
    rows = [row[:] for row in matrix]
    for c in range(len(rows) - 1):
        pivot = rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]


def probe() -> float:
    """Seconds for one fixed piece of work (PROBE_REF_S on the reference
    host)."""
    start = perf_counter()
    acc = 0
    for i in range(4000):
        acc = (acc + i * i) % 1_000_003
    _eliminate(_SMALL)
    _eliminate(_LARGE)
    return perf_counter() - start


def speed(samples) -> float:
    """Host speed relative to the reference host: 1.0 there, below 1 on a
    slower host.  A mean over samples evenly spread in time."""
    return mean(PROBE_REF_S / s for s in samples)


class Sampler:
    """Probe samples taken while `sampling()` is open; `spent` is their
    total time, which the caller takes out of what it timed."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        elapsed = probe()
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def sampling(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(probe())
