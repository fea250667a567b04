"""The benchmark workloads: inputs from the seed, one timed operation, gates.

A workload is driven in a closed loop by one caller: ``op(i)`` runs the
i-th operation and is the only code inside the timed region; ``check(i,
result)`` runs the correctness gates on its result afterwards.  ``prepare``
generates the inputs and warms up, and is what set-up time measures.

Operations call the library through the ``ietflow`` package attributes so
that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gates
import ietflow
from ietflow import (
    ClosingCriterion,
    SuspensionFlow,
    check_induction_consistency,
    close_at_point,
    induce,
    make_iet,
    max_disjoint_edges,
    probe_edge_criterion,
    rauzy_orbit,
)
from ietflow.edges import sample_iet
from ietflow.errors import IetError

CRITERION = ClosingCriterion(-3, 1)
CLOSE_POINT = Fraction(0)
SHRINK_STEPS = 3
TOLERANCE = 1e-9
# child interpreters import the same ietflow sources as this process
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(ietflow.__file__).resolve().parent.parent))
RECHECK_EVERY = 8


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th library call; distinct for distinct (seed, i)."""
    return (seed << 24) + i


class MeasureWorkload:
    """``estimate_full_measure`` at m=4, depth 32, resolution 10^6, 1 worker.

    Why: the heaviest user path.  Most of its time is chained ``induce``
    calls with short returns, then Rauzy orbits and ``Iet`` construction,
    then edge counting; about 1% of samples tie and use the halving
    fallback scales.  It never touches closing, serialize or cli, so it is
    the workload on which exchange-core work shows and closing work must
    not.  One operation is one call over ``batch`` samples.
    """

    name = "measure"
    rss_of_children = False
    calibration = "in_process"

    def __init__(self, seed: int, smoke: bool, workdir: Path | None = None):
        self.seed = seed
        self.m = 4
        self.depth = 8 if smoke else 32
        self.batch = 2 if smoke else 8
        self.resolution = 10**6

    def prepare(self) -> None:
        self.call(op_seed(self.seed, 10**6), samples=2)

    def call(self, seed: int, samples: int, workers: int = 1):
        return ietflow.estimate_full_measure(
            self.m, CRITERION, self.depth, samples, seed, self.resolution, workers
        )

    def op(self, i: int):
        return self.call(op_seed(self.seed, i), self.batch)

    def items(self, report) -> int:
        return report.samples

    def check(self, i: int, report) -> list[str]:
        problems = gates.check_measure_report(report)
        # re-deriving a sample costs about as much as a whole batch, so one
        # sample in every RECHECK_EVERY batches is re-checked, at a
        # rotating position
        if i % RECHECK_EVERY == 0:
            sample = report.per_sample[(i // RECHECK_EVERY) % report.samples]
            problems += gates.check_measure_sample(sample, self.depth, CRITERION.threshold)
        return problems

    def mix(self) -> dict:
        return {"m": self.m, "depth": self.depth, "samples_per_call": self.batch}

    def cleanup(self) -> None:
        pass


def random_flow(rng: random.Random, i: int) -> tuple[SuspensionFlow, dict]:
    """The i-th flow of the close mix and its input properties.

    Even indices are rotations by p/q with q <= 60, odd ones generic m=3
    or m=4 exchanges at resolution 10^3; one pair in four carries a
    singular point.  Roofs are integers 1..5.
    """
    if i % 2 == 0:
        q = rng.randint(2, 60)
        a = Fraction(rng.randint(1, q - 1), q)
        base = make_iet([1 - a, a], [2, 1])
    else:
        base, _ = sample_iet(rng, 3 + (i // 2) % 2, 1000)
    roof = tuple(Fraction(rng.randint(1, 5)) for _ in range(base.m))
    singular = (Fraction(rng.randint(1, 999), 1000),) if (i // 2) % 4 == 0 else ()
    flow = SuspensionFlow(base, roof, singular, K=len(singular))
    return flow, {"rotation": i % 2 == 0, "singular": bool(singular)}


class CloseWorkload:
    """``close_at_point`` at point 0 with 3 shrink steps over a seeded mix
    of suspension flows.

    Why: it drives induction differently from ``measure``:
    ``induced_suspension`` re-induces from the original flow, so return
    times are long, and the float closing kernel runs.  Half the flows are
    rotations and half generic exchanges, so gains that only help the
    rotation fixture show as a split.  Most flows end in a typed
    ``NoEdgeInNeighborhood``; that is the program's answer, counted per
    error type in the trace, and fewer of them is the measure of a more
    general closing step.  One operation is one flow.
    """

    name = "close"
    rss_of_children = False
    calibration = "in_process"

    def __init__(self, seed: int, smoke: bool, workdir: Path | None = None):
        self.seed = seed
        self.count = 16 if smoke else 4096
        self.outcomes: Counter = Counter()

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        pairs = [random_flow(rng, i) for i in range(self.count)]
        self.flows = [flow for flow, _ in pairs]
        self.properties = [props for _, props in pairs]
        self.op(0)

    def op(self, i: int):
        try:
            return ietflow.close_at_point(
                self.flows[i % self.count], CLOSE_POINT, CRITERION, SHRINK_STEPS, TOLERANCE
            )
        except IetError as exc:
            return exc

    def items(self, result) -> int:
        return 1

    def check(self, i: int, result) -> list[str]:
        if isinstance(result, IetError):
            self.outcomes[type(result).__name__] += 1
            return []
        self.outcomes["closed"] += 1
        return gates.check_closing(
            self.flows[i % self.count], CLOSE_POINT, SHRINK_STEPS, result, TOLERANCE
        )

    def mix(self) -> dict:
        n = len(self.properties)
        rotations = sum(p["rotation"] for p in self.properties)
        return {
            "rotation_share": rotations / n,
            "generic_share": (n - rotations) / n,
            "singular_share": sum(p["singular"] for p in self.properties) / n,
        }

    def cleanup(self) -> None:
        pass


CLI_SCRIPT = ("eval", "induce", "rauzy", "edges", "probe", "close")


class CliWorkload:
    """A fixed script of sequential ``python -m ietflow`` invocations
    (eval, induce, rauzy --cross-check, edges, probe, close) on small
    generated input files, cycling over a few input sets.

    Why: what users wait for here is interpreter start-up, importing
    ``ietflow.cli`` and reading the inputs; the exchange-core work is tiny.
    Core optimisations should not move it, and start-up, import and
    serialize changes show only here.  One operation is one invocation.
    """

    name = "cli"
    rss_of_children = True

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.sets = 1 if smoke else 3
        self.workdir = workdir
        # the traced run calls ietflow.cli.run in-process instead
        self.in_process = False
        self.first_output: dict = {}

    @property
    def calibration(self) -> str:
        return "in_process" if self.in_process else "subprocess"

    def prepare(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        rng = random.Random(self.seed)
        self.invocations = []
        for k in range(self.sets):
            self.invocations.extend(self._input_set(rng, k))
        self.op(0)

    def _input_set(self, rng: random.Random, k: int) -> list:
        iet_path = self.workdir / f"iet{k}.json"
        flow_path = self.workdir / f"flow{k}.json"
        inp = ["--input", str(iet_path)]
        depth = 12
        # the script is of invocations that exit 0: an exchange on which a
        # scripted call ends in a domain error (about 1 draw in 70, mostly
        # ReturnTimeExceeded in induce) is drawn again
        while True:
            iet, _ = sample_iet(rng, 4, 1000)
            x = Fraction(rng.randrange(1000), 1000)
            b = Fraction(rng.randint(200, 800), 1000)
            try:
                rauzy = (rauzy_orbit(iet, depth), check_induction_consistency(iet, depth))
                runs = {
                    "eval": (inp + ["--x", str(x)], iet.evaluate(x)),
                    "induce": (inp + ["--b", str(b)], induce(iet, b)),
                    "rauzy": (inp + ["--depth", str(depth), "--cross-check"], rauzy),
                    "edges": (inp, max_disjoint_edges(iet)),
                    "probe": (
                        inp + ["--depth", "8", "--chi", "-3", "--k", "1"],
                        probe_edge_criterion(iet, CRITERION, 8),
                    ),
                }
            except IetError:
                continue
            break
        flow = _closing_flow(rng)
        runs["close"] = (
            ["--flow", str(flow_path), "--point", "0", "--shrink-steps", str(SHRINK_STEPS)],
            close_at_point(flow, CLOSE_POINT, CRITERION, SHRINK_STEPS, TOLERANCE),
        )
        _write_json(iet_path, _iet_dict(iet))
        _write_json(
            flow_path,
            {"base": _iet_dict(flow.base), "roof": [str(r) for r in flow.roof], "singular_points": [], "K": 0},
        )
        return [
            (command, [command] + runs[command][0], gates.library_summary(command, runs[command][1]))
            for command in CLI_SCRIPT
        ]

    def op(self, i: int):
        command, argv, _ = self.invocations[i % len(self.invocations)]
        if self.in_process:
            from ietflow.cli import run

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = run(argv)
            return code, buffer.getvalue().encode("utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "ietflow", *argv],
            cwd=self.workdir,
            env=CHILD_ENV,
            capture_output=True,
            timeout=60,
        )
        return done.returncode, done.stdout

    def items(self, result) -> int:
        return 1

    def command(self, i: int) -> str:
        return self.invocations[i % len(self.invocations)][0]

    def check(self, i: int, result) -> list[str]:
        key = i % len(self.invocations)
        command, _, expected = self.invocations[key]
        code, stdout = result
        first = self.first_output.setdefault(key, stdout)
        return gates.check_cli_output(command, code, stdout, expected, first)

    def mix(self) -> dict:
        return {f"{c}_share": 1 / len(CLI_SCRIPT) for c in CLI_SCRIPT}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _iet_dict(iet) -> dict:
    return {"lengths": [str(x) for x in iet.lengths], "permutation": list(iet.permutation)}


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _closing_flow(rng: random.Random) -> SuspensionFlow:
    """A rotation flow that closes at point 0, so the CLI exits 0.

    Rotations by 1/q with q >= 12 close, so the first draw nearly always
    serves and set-up time does not depend on how long a search takes.
    """
    while True:
        a = Fraction(1, rng.randint(12, 60))
        roof = tuple(Fraction(rng.randint(1, 5)) for _ in range(2))
        flow = SuspensionFlow(make_iet([1 - a, a], [2, 1]), roof)
        try:
            close_at_point(flow, CLOSE_POINT, CRITERION, SHRINK_STEPS, TOLERANCE)
        except IetError:
            continue
        return flow


WORKLOADS = {"measure": MeasureWorkload, "close": CloseWorkload, "cli": CliWorkload}
