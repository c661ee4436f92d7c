"""The machine's speed during a pass, sampled without a thread.

The host's speed drifts by up to 1.6x over seconds to minutes, which swamps
the differences the benchmark is meant to show.  While a pass runs, a timer
signal interrupts it every INTERVAL_S and times a fixed slice of work.
Python runs the handler between the pass's bytecodes, so the pass is
paused, not overlapped.  Each stretch of pass time between two samples is
then rescaled by the sample after it to the speed at which one slice takes
NOMINAL_SLICE_S.

The slice mixes the kinds of work the library does, written without it: a
call per cell that runs log-sum-exp levels over a few values with
small-array ufuncs, binomial logs, float formatting and joins, and a plain
interpreter loop.  On the 2-vCPU Xeon of the baseline, the log time of a
library call regressed on the log time of the slices around it has a slope
of about 0.93 (1.0 would track it exactly); a slice of sorts and
accumulates over one 200-value array, tried first, had a slope of about 1.6
and left much of the host's drift in the figures.

Work in a child interpreter, such as set-up's fresh import, does not track
the slice (their times correlated at 0.3).  It is rescaled instead by the
time of a fresh interpreter that imports numpy alone, run just before and
just after it, to the speed at which that import takes NOMINAL_IMPORT_S
(correlation 0.84, slope 0.9).  Neither yardstick runs library code, so a
change to the library cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.1
NOMINAL_SLICE_S = 0.0015  # a slice takes 1.2-2.0 ms on the 2-vCPU Xeon of the baseline
NOMINAL_IMPORT_S = 0.2  # the reference import on the 2-vCPU Xeon of the baseline
REFERENCE_IMPORT = "import numpy"
SLICE_VALUES = 60
SLICE_CELLS = 12
SLICE_TOP = 2
SLICE_SCANS = 3
SLICE_LOOPS = 4000


def _levels(numpy, x, top: int):
    levels = numpy.full(top + 1, -numpy.inf)
    levels[0] = 0.0
    if numpy.isposinf(x).any():
        levels[1:] = numpy.inf
        return levels
    for s in x:
        levels[1:] = numpy.logaddexp(levels[1:], s + levels[:-1])
    return levels


def slice_input(numpy):
    return numpy.linspace(3.0, 0.0, SLICE_VALUES)


def reference_slice(numpy, a) -> float:
    acc = 0.0
    for _ in range(SLICE_SCANS):
        for j in range(SLICE_CELLS):
            lv = _levels(numpy, a[j:j + SLICE_TOP + 2], SLICE_TOP)
            acc += float(numpy.minimum.accumulate(lv)[-1]) + math.log(math.comb(40, j))
        acc += len(",".join(repr(float(v)) for v in a[:40]))
    s = 0
    for i in range(SLICE_LOOPS):
        s += i * i % 7
    return acc + s


def interpreter_s(code: str) -> float:
    """Wall seconds of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


class SpeedProbe:
    """``with SpeedProbe(numpy) as probe:`` samples speed over the block."""

    def __init__(self, numpy) -> None:
        self.numpy = numpy
        self.a = slice_input(numpy)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.start = self.end = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_slice(self.numpy, self.a)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Time spent in the samples themselves."""
        return sum(d for _, d in self.samples)

    @property
    def wall_s(self) -> float:
        """Wall time of the block without the samples."""
        return self.end - self.start - self.probe_s

    @property
    def nominal_s(self) -> float:
        """The block's time at nominal speed; the raw wall time if the block
        ended before the first sample."""
        if not self.samples:
            return self.wall_s
        total, prev = 0.0, self.start
        for t0, d in self.samples:
            total += (t0 - prev) * NOMINAL_SLICE_S / d
            prev = t0 + d
        return total + (self.end - prev) * NOMINAL_SLICE_S / self.samples[-1][1]

    @property
    def slice_s(self) -> float:
        """Median slice time: the machine's speed over the block."""
        return statistics.median(d for _, d in self.samples) if self.samples else 0.0
