"""Microbenchmarks of single layers on seeded inputs, start-up timings and
the machine description.

The microbenchmarks are the rows of the roadmap's baseline table: ``Iet``
construction at m=4, ``rauzy_step``, ``induce`` to the first Rauzy scale,
``evaluate``, one probe at depth 8, and ``close_at_point`` on the rotation
by 1/10 with 3 steps.  Each reports the median over repeats of the mean
time per call.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from ietflow import (
    Iet,
    SuspensionFlow,
    close_at_point,
    induce,
    make_iet,
    probe_edge_criterion,
    rauzy_step,
)
from ietflow.edges import sample_iet
from ietflow.errors import TieEncountered

from workloads import CHILD_ENV, CLOSE_POINT, CRITERION, SHRINK_STEPS, TOLERANCE


def per_call_seconds(fn, number: int, repeat: int) -> float:
    """Median over ``repeat`` rounds of the mean time of ``number`` calls."""
    rounds = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        rounds.append((time.perf_counter() - start) / number)
    return statistics.median(rounds)


def _exchange(rng: random.Random) -> Iet:
    """A random m=4 exchange whose first Rauzy step does not tie."""
    while True:
        iet, _ = sample_iet(rng, 4, 10**6)
        try:
            rauzy_step(iet)
        except TieEncountered:
            continue
        return iet


def layer_micro(seed: int, smoke: bool) -> dict:
    """Per-call times of the baseline-table operations, untraced."""
    rng = random.Random(seed)
    iet = _exchange(rng)
    scale = rauzy_step(iet)[0].base_length
    x = Fraction(rng.randrange(10**6), 10**6)
    lengths, perm = iet.lengths, iet.permutation
    tenth = make_iet([Fraction(9, 10), Fraction(1, 10)], [2, 1])
    flow = SuspensionFlow(tenth, (Fraction(1), Fraction(1)))
    n = 1 if smoke else 200
    repeat = 3 if smoke else 7
    return {
        "micro.iet_construct_us": 1e6 * per_call_seconds(lambda: Iet(lengths, perm), n, repeat),
        "micro.rauzy_step_us": 1e6 * per_call_seconds(lambda: rauzy_step(iet), n, repeat),
        "micro.induce_first_scale_us": 1e6 * per_call_seconds(lambda: induce(iet, scale), n, repeat),
        "micro.evaluate_us": 1e6 * per_call_seconds(lambda: iet.evaluate(x), 5 * n, repeat),
        "micro.probe_depth8_ms": 1e3
        * per_call_seconds(lambda: probe_edge_criterion(iet, CRITERION, 8), max(1, n // 20), repeat),
        "micro.close_tenth_ms": 1e3
        * per_call_seconds(
            lambda: close_at_point(flow, CLOSE_POINT, CRITERION, SHRINK_STEPS, TOLERANCE),
            max(1, n // 20),
            repeat,
        ),
    }


_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ietflow.cli\n"
    "print(time.perf_counter() - start)\n"
)


def child_import_seconds() -> float:
    """Time to import ``ietflow.cli`` in a fresh interpreter, measured inside
    the child so interpreter start-up is excluded."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.strip())


def machine() -> dict:
    """Python version, core count and CPU model of this machine."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}
