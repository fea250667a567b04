"""Measurement core of the benchmark: the closed loop, set-up rounds,
end-to-end and per-layer metrics, and the traced run.

Imported by run.py once the ietflow sources are on the import path.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback

import gates
import micro
import workloads
from calibration import Calibration, interpreter_kernel_seconds
from tracer import Tracer

SETUP_ROUNDS = 5
SLICE_S = 0.1
TRACE_OPS = {"measure": 16, "close": 256, "cli": 36}
POOL_SAMPLES = 256
MODULES = ("iet", "induction", "edges", "closing", "serialize", "cli")
CLOSING_FAILURES = ("NoEdgeInNeighborhood", "ReturnTimeExceeded", "NoClosingInRange")

END_TO_END = {
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{module}.self_s": "s" for module in MODULES},
    "iet.construct_us": "us",
    "iet.construct_calls": "count",
    "iet.piece_index_us": "us",
    "iet.piece_index_calls": "count",
    "iet.evaluate_us": "us",
    "iet.evaluate_calls": "count",
    "induction.rauzy_step_us": "us",
    "induction.rauzy_steps": "count",
    "induction.ties": "count",
    "induction.induce_us": "us",
    "induction.induce_calls": "count",
    "induction.return_time_max_mean": "steps",
    "induction.check_consistency_ms": "ms",
    "edges.max_disjoint_edges_us": "us",
    "edges.max_disjoint_edges_calls": "count",
    "edges.scales_probed": "scales/sample",
    "edges.scales_passed_ratio": "ratio",
    "edges.fallback_share": "ratio",
    "edges.probe_ms": "ms",
    "edges.pool_speedup_2w": "x",
    "closing.induced_suspension_ms": "ms",
    "closing.induced_suspension_calls": "calls/flow",
    "closing.step_success_ratio": "ratio",
    "closing.find_closing_parameter_us": "us",
    "closing.bisection_iterations": "count",
    "closing.residual_max": "1",
    "closing.close_at_point_ms": "ms",
    "closing.failed_fraction": "ratio",
    **{f"closing.failures.{name}": "count" for name in CLOSING_FAILURES},
    "closing.failures.other": "count",
    "serialize.load_iet_us": "us",
    "serialize.load_flow_us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.run_ms.{command}": "ms" for command in workloads.CLI_SCRIPT},
    "trace.overhead_fraction": "ratio",
    "trace.spans": "count",
    "micro.iet_construct_us": "us",
    "micro.rauzy_step_us": "us",
    "micro.induce_first_scale_us": "us",
    "micro.evaluate_us": "us",
    "micro.probe_depth8_ms": "ms",
    "micro.close_tenth_ms": "ms",
}


class Pass:
    """Timings and gate results of one sequence of operations.

    ``durations`` are wall seconds per operation, ``ref_durations`` the
    same in reference seconds (see calibration.py).
    """

    def __init__(self):
        self.durations: list[float] = []
        self.ref_durations: list[float] = []
        self.commands: list[str | None] = []
        self.items = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def run_ops(workload, seconds: float | None, count: int | None, tracer=None) -> Pass:
    """Closed loop: run operations until ``seconds`` of timed work or
    ``count`` operations, checking each result outside the timed region.

    Operations are grouped into stretches of at least SLICE_S wall seconds,
    each bracketed by calibration kernels.
    """
    done = Pass()
    command = getattr(workload, "command", None)
    calibration = Calibration(workload.calibration)
    stretch: list[float] = []

    def close_stretch():
        factor = calibration.factor()
        done.ref_durations.extend(d * factor for d in stretch)
        stretch.clear()

    i = 0
    while (seconds is None or done.busy_s < seconds) and (count is None or i < count):
        done.commands.append(command(i) if command else None)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(i)
            else:
                with tracer.request(workload.name):
                    result = workload.op(i)
        except Exception:
            # an unexpected error is a failed operation; keep measuring
            result = None
            problems = [traceback.format_exc()]
        else:
            problems = None
        elapsed = time.perf_counter() - start
        done.durations.append(elapsed)
        stretch.append(elapsed)
        if sum(stretch) >= SLICE_S:
            close_stretch()
        if problems is None:
            done.items += workload.items(result)
            try:
                problems = workload.check(i, result)
            except Exception:
                # a gate that cannot finish fails the operation
                problems = [traceback.format_exc()]
        if problems:
            done.fail(problems)
        i += 1
    if stretch:
        close_stretch()
    return done


def setup_seconds(workload, rounds: int) -> list[float]:
    """Set-up rounds in reference seconds: importing ietflow.cli in a
    fresh interpreter plus generating the inputs and warming up.  The last
    round's inputs stay."""
    times = []
    calibration = Calibration(workload.calibration)
    for _ in range(rounds):
        import_s = micro.child_import_seconds()
        start = time.perf_counter()
        workload.prepare()
        times.append((import_s + time.perf_counter() - start) * calibration.factor())
    return times


def end_to_end(workload, done: Pass, setup: list[float]) -> dict:
    """End-to-end metrics; every time is in reference time."""
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    )
    return {
        "items_per_s": done.items / sum(done.ref_durations),
        "call_ms_p50": 1e3 * statistics.median(done.ref_durations),
        "call_ms_p90": 1e3 * statistics.quantiles(done.ref_durations, n=10)[-1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    """Per-layer metrics from the traced pass; zero where a workload does
    not reach a layer."""
    spans = tracer.summary()
    errors = tracer.errors
    observed = tracer.observed

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def mean_s(name):
        entry = spans.get(name)
        return entry["total_s"] / entry["calls"] if entry else 0.0

    def raised(name):
        return sum(n for (where, _), n in errors.items() if where == name)

    def ratio(a, b):
        return a / b if b else 0.0

    self_s = tracer.module_self_seconds()
    out = {f"{module}.self_s": self_s.get(module, 0.0) for module in MODULES}

    out["iet.construct_us"] = 1e6 * mean_s("iet.Iet.__init__")
    out["iet.construct_calls"] = calls("iet.Iet.__init__")
    out["iet.piece_index_us"] = 1e6 * mean_s("iet.Iet.piece_index")
    out["iet.piece_index_calls"] = calls("iet.Iet.piece_index")
    out["iet.evaluate_us"] = 1e6 * mean_s("iet.Iet.evaluate")
    out["iet.evaluate_calls"] = calls("iet.Iet.evaluate")

    out["induction.rauzy_step_us"] = 1e6 * mean_s("induction.rauzy_step")
    out["induction.rauzy_steps"] = calls("induction.rauzy_step") - raised("induction.rauzy_step")
    out["induction.ties"] = errors[("induction.rauzy_step", "TieEncountered")]
    out["induction.induce_us"] = 1e6 * mean_s("induction.induce")
    out["induction.induce_calls"] = calls("induction.induce")
    returns = observed["induction.induce"]
    out["induction.return_time_max_mean"] = ratio(sum(returns), len(returns))
    out["induction.check_consistency_ms"] = 1e3 * mean_s("induction.check_induction_consistency")

    samples = observed["edges.estimate_full_measure"]
    probed = sum(s.scales_probed for s in samples)
    out["edges.max_disjoint_edges_us"] = 1e6 * mean_s("edges.max_disjoint_edges")
    out["edges.max_disjoint_edges_calls"] = calls("edges.max_disjoint_edges")
    out["edges.scales_probed"] = ratio(probed, len(samples))
    out["edges.scales_passed_ratio"] = ratio(sum(s.scales_passed for s in samples), probed)
    out["edges.fallback_share"] = ratio(sum(s.tie for s in samples), len(samples))
    out["edges.probe_ms"] = 1e3 * mean_s("edges.probe_edge_criterion")

    flows = calls("closing.close_at_point")
    tried = calls("closing.induced_suspension")
    closed_steps = calls("closing.find_closing_parameter") - raised("closing.find_closing_parameter")
    found = observed["closing.find_closing_parameter"]
    out["closing.induced_suspension_ms"] = 1e3 * mean_s("closing.induced_suspension")
    out["closing.induced_suspension_calls"] = ratio(tried, flows)
    out["closing.step_success_ratio"] = ratio(closed_steps, tried)
    out["closing.find_closing_parameter_us"] = 1e6 * mean_s("closing.find_closing_parameter")
    out["closing.bisection_iterations"] = ratio(sum(it for it, _ in found), len(found))
    out["closing.residual_max"] = max((res for _, res in found), default=0.0)
    out["closing.close_at_point_ms"] = 1e3 * mean_s("closing.close_at_point")
    failures = {kind: n for (where, kind), n in errors.items() if where == "closing.close_at_point"}
    out["closing.failed_fraction"] = ratio(sum(failures.values()), flows)
    for kind in CLOSING_FAILURES:
        out[f"closing.failures.{kind}"] = failures.pop(kind, 0)
    out["closing.failures.other"] = sum(failures.values())

    out["serialize.load_iet_us"] = 1e6 * mean_s("serialize.load_iet")
    out["serialize.load_flow_us"] = 1e6 * mean_s("serialize.load_flow")

    # in-process CLI times come from the untraced pass
    for command in workloads.CLI_SCRIPT:
        times = [d for d, c in zip(untraced.durations, untraced.commands) if c == command]
        out[f"cli.run_ms.{command}"] = 1e3 * statistics.median(times) if times else 0.0

    # in reference time, so a slow phase of the machine during one pass
    # does not read as tracing cost
    out["trace.overhead_fraction"] = sum(traced.ref_durations) / sum(untraced.ref_durations) - 1
    out["trace.spans"] = tracer.span_count
    return out


def untraced_run(workload, seconds: float, smoke: bool) -> tuple[int, int, dict]:
    """Set-up rounds, then ``seconds`` of timed operations."""
    setup = setup_seconds(workload, 1 if smoke else SETUP_ROUNDS)
    done = run_ops(workload, seconds, None)
    report_problems(done.problems)
    wall_ms = [1e3 * d for d in done.durations]
    print(
        f"info wall items_per_s={done.items / done.busy_s:.4g} "
        f"call_ms_p50={statistics.median(wall_ms):.4g} "
        f"call_ms_p90={statistics.quantiles(wall_ms, n=10)[-1]:.4g} ops={done.attempted}"
    )
    print("info outcomes " + json.dumps(dict(getattr(workload, "outcomes", {})), sort_keys=True))
    return done.attempted, done.failed, end_to_end(workload, done, setup)


def traced_run(workload, seed: int, smoke: bool) -> tuple[int, int, dict]:
    """Untraced pass, traced pass over the same operations, the worker
    pool comparison and the microbenchmarks."""
    if workload.name == "cli":
        workload.in_process = True
    setup_seconds(workload, 1)
    count = 2 if smoke else TRACE_OPS[workload.name]
    untraced = run_ops(workload, None, count)
    tracer = Tracer()
    with tracer:
        traced = run_ops(workload, None, count, tracer)
    metrics = per_layer(tracer, untraced, traced)

    # the worker pool curve and the 1-vs-2 worker verdict gate
    pool = workloads.MeasureWorkload(seed, smoke)
    samples = 4 if smoke else POOL_SAMPLES
    call_seed = workloads.op_seed(seed, 1 << 23)
    start = time.perf_counter()
    one = pool.call(call_seed, samples, workers=1)
    one_s = time.perf_counter() - start
    start = time.perf_counter()
    two = pool.call(call_seed, samples, workers=2)
    two_s = time.perf_counter() - start
    metrics["edges.pool_speedup_2w"] = one_s / two_s
    pool_problems = gates.check_pool_agreement(one, two)

    metrics.update(micro.layer_micro(seed, smoke))
    rounds = 1 if smoke else 5
    metrics["cli.interpreter_ms"] = 1e3 * statistics.median(
        interpreter_kernel_seconds() for _ in range(rounds)
    )
    metrics["cli.import_ms"] = 1e3 * statistics.median(
        micro.child_import_seconds() for _ in range(rounds)
    )
    problems = untraced.problems + traced.problems + pool_problems
    report_problems(problems)
    attempted = untraced.attempted + traced.attempted + 1
    failed = untraced.failed + traced.failed + (1 if pool_problems else 0)
    print(f"info pool 1w={one_s:.3f}s 2w={two_s:.3f}s samples={samples}")
    return attempted, failed, metrics


def report_problems(problems: list[str]) -> None:
    for problem in problems[:10]:
        print(f"gate failed: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"... {len(problems) - 10} more gate failures", file=sys.stderr)
