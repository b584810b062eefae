"""The calibration sample that tracks the machine's speed.

On a shared machine the speed drifts by up to 2x within minutes, so every
time the benchmark reports is scaled by REF_S over the time this sample
takes at that moment (see README.md)."""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 1.0e-3      # nominal time of one calibration sample
TICK_S = 0.1        # interval of the samples taken while measured work runs
_CAL = tuple(Fraction(i, i + 2) for i in range(1, 25))


def calibrate() -> float:
    """CPU time of this thread for a fixed piece of Fraction arithmetic,
    the kind of work the package does, without calling the package.  CPU
    time, so that a sample taken while a child process shares the CPU
    times the CPU, not the sharing."""
    t0 = time.thread_time()
    for _ in range(12):
        acc = Fraction(0)
        for a in _CAL:
            acc = acc + a * a
    return time.thread_time() - t0
