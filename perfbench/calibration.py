"""Reference time: wall time corrected for the machine's current speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent from one second to the next, so raw wall times of identical work
differ by up to a third between runs.  Every timed stretch of work is
therefore bracketed by runs of a fixed calibration kernel, and its wall
time is converted to reference time:

    reference = wall * kernel_ref_s / mean(kernel before, kernel after)

Each kernel run is credited a fixed reference time, sized so that on a
quiet machine of the development type reference time is close to wall
time.  The kernels use only the standard library and the interpreter, so a
change to ietflow moves reference time exactly as it moves wall time,
while a slow phase of the machine slows both the work and the kernel and
cancels out.

Two kernels match the two kinds of work: a loop of exact rational
arithmetic for work done in the benchmark's process, and a bare
interpreter start for work done by starting ``python -m ietflow``, whose
cost is mostly process start-up and imports.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

ARITHMETIC_ITERATIONS = 3500


def arithmetic_kernel_seconds() -> float:
    """Wall time of a fixed loop of exact rational arithmetic."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    below = 0
    for i in range(ARITHMETIC_ITERATIONS):
        x += Fraction(i, 7)
        below += x < 5
    return time.perf_counter() - start


def interpreter_kernel_seconds() -> float:
    """Wall time of starting an interpreter that does nothing."""
    start = time.perf_counter()
    # with pipes the wait is select-based; without them a wait with a
    # timeout polls and overshoots by up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


# kernel and the reference seconds one run of it is credited
KERNELS = {
    "in_process": (arithmetic_kernel_seconds, 0.010),
    "subprocess": (interpreter_kernel_seconds, 0.050),
}


class Calibration:
    """Successive kernel runs; each ``factor`` call closes one stretch."""

    def __init__(self, kind: str):
        self.kernel, self.ref_s = KERNELS[kind]
        self.kernels = [self.kernel()]

    def factor(self) -> float:
        """Reference seconds per wall second over the stretch since the
        previous kernel run."""
        self.kernels.append(self.kernel())
        return self.ref_s / ((self.kernels[-2] + self.kernels[-1]) / 2)
