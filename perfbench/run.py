"""Benchmark of the ietflow library and command.

    python3 perfbench/run.py --workload {measure,close,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the ietflow sources are imported from
``src/``.  The workloads are described in ``workloads.py`` and README.md.

``--trace 0`` runs set-up rounds, then S seconds of timed operations with
no tracing, and reports the end-to-end metrics in reference time (see
calibration.py).  ``--trace 1`` runs a fixed number of operations twice,
untraced and then traced, and reports the per-layer metrics: spans of
calls into each ietflow module, counts and ratios taken where the work
happens, the tracing overhead and the single-layer microbenchmarks.
``--smoke`` shrinks every size, for tests.

Informational lines come first on stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A failed
correctness gate makes correct false; the exit code stays 0.  Without the
sources the exit code is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("measure", "close", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ietflow" / "__init__.py").is_file():
        print(f"perfbench: no ietflow sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import micro
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.smoke, WORKDIR / f"{args.workload}-{os.getpid()}"
    )
    try:
        if args.trace:
            attempted, failed, metrics = harness.traced_run(workload, args.seed, args.smoke)
        else:
            attempted, failed, metrics = harness.untraced_run(workload, args.seconds, args.smoke)
        print("info machine " + json.dumps(micro.machine(), sort_keys=True))
        print("info mix " + json.dumps(workload.mix(), sort_keys=True))
    finally:
        workload.cleanup()

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
