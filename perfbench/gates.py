"""Correctness gates for the benchmark workloads.

Every gate returns a list of problems, empty when the result passes.  The
gates run outside the timed region; each operation with a problem counts
as failed.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from ietflow import (
    VirtualEdge,
    check_induction_consistency,
    induce,
    make_iet,
    max_disjoint_edges,
    twisted_return,
)
from ietflow.edges import default_probe_scales
from ietflow.errors import ReturnTimeExceeded
from ietflow.serialize import iet_to_dict

# Re-inducing from the original exchange costs time proportional to the
# return time, about 1/scale; scales below this floor are only checked
# along the chained route.
UNCHAINED_FLOOR = Fraction(1, 1000)
# step budget for those re-inductions; a few exchanges have orbits that
# stay away from a scale of 1/20 for thousands of steps
UNCHAINED_BUDGET = 20_000


# -- measure ------------------------------------------------------------------


def _verdict(passed: int, tie: bool) -> str:
    if passed > 0:
        return "certified_to_depth"
    return "undecided_tie" if tie else "refuted_at_depth"


def check_measure_report(report) -> list[str]:
    """Verdict counts must tally the per-sample verdicts, and each verdict
    must follow from that sample's pass count and tie flag."""
    problems = []
    tally = Counter(s.verdict for s in report.per_sample)
    if sum(report.counts.values()) != report.samples or len(report.per_sample) != report.samples:
        problems.append(f"counts {report.counts} do not add up to {report.samples} samples")
    for verdict, count in report.counts.items():
        if tally[verdict] != count:
            problems.append(f"{verdict}: count {count} but {tally[verdict]} samples")
    for s in report.per_sample:
        if not 0 <= s.scales_passed <= s.scales_probed <= report.depth:
            problems.append(f"sample {s.index}: passed/probed {s.scales_passed}/{s.scales_probed}")
        if s.verdict != _verdict(s.scales_passed, s.tie):
            problems.append(f"sample {s.index}: verdict {s.verdict} contradicts its pass data")
    return problems


def check_measure_sample(outcome, depth: int, threshold: int) -> list[str]:
    """Re-check one sample of a measure report.

    The Rauzy route and the first-return route must agree at every depth,
    and re-inducing each probe scale from the original exchange, without
    chaining through the previous scale, must give the same edge count.
    """
    problems = []
    iet = make_iet(outcome.lengths, outcome.permutation)
    if not check_induction_consistency(iet, depth).all_passed:
        problems.append(f"sample {outcome.index}: Rauzy and first-return routes disagree")

    scales, fallback = default_probe_scales(iet, depth)
    chained = []
    current = iet
    for b in scales:
        try:
            current = induce(current, b).induced
        except ReturnTimeExceeded:
            fallback = True
            break
        chained.append(max_disjoint_edges(current, with_witness=False)[0])
    passed = sum(count >= threshold for count in chained)
    if (len(chained), passed, fallback) != (outcome.scales_probed, outcome.scales_passed, outcome.tie):
        problems.append(
            f"sample {outcome.index}: probed/passed/tie {len(chained)}/{passed}/{fallback}, "
            f"report says {outcome.scales_probed}/{outcome.scales_passed}/{outcome.tie}"
        )
    for b, count in zip(scales, chained):
        if b < UNCHAINED_FLOOR:
            continue
        try:
            direct_map = induce(iet, b, UNCHAINED_BUDGET).induced
        except ReturnTimeExceeded:
            # an orbit too long to follow from the original exchange; the
            # consistency check above still covers this scale
            continue
        direct = max_disjoint_edges(direct_map, with_witness=False)[0]
        if direct != count:
            problems.append(
                f"sample {outcome.index}: scale {b} has {direct} edges re-induced, {count} chained"
            )
    return problems


def check_pool_agreement(one_worker, two_workers) -> list[str]:
    """A 2-worker rerun must reproduce the 1-worker verdicts exactly."""
    problems = []
    if one_worker.counts != two_workers.counts:
        problems.append(f"verdict counts {one_worker.counts} (1 worker) != {two_workers.counts} (2 workers)")
    if [s.verdict for s in one_worker.per_sample] != [s.verdict for s in two_workers.per_sample]:
        problems.append("per-sample verdicts differ between 1 and 2 workers")
    return problems


# -- close --------------------------------------------------------------------


def check_closing(flow, p: Fraction, shrink_steps: int, results, tolerance: float) -> list[str]:
    """Re-validate a closing run independently of the search.

    Each step's edge must be a virtual edge of the induced base, the
    twisted return at sigma1 from the vertex must land back on it within
    the tolerance, and the scales must strictly decrease while staying
    above p.
    """
    problems = []
    if len(results) != shrink_steps:
        problems.append(f"{len(results)} results for {shrink_steps} shrink steps")
    previous = flow.base.base_length
    for n, res in enumerate(results, start=1):
        family = res.family
        box = family.box
        if res.scale is None or not p < res.scale < previous:
            problems.append(f"step {n}: scale {res.scale} not in ({p}, {previous})")
        else:
            previous = res.scale
        if family.flow.base.base_length != res.scale:
            problems.append(f"step {n}: induced base {family.flow.base.base_length} != scale {res.scale}")
        try:
            VirtualEdge(box.a_bar, box.b_bar, box.c_bar).validate(family.flow.base)
        except ValueError as exc:
            problems.append(f"step {n}: {exc}")
        if not 0 < res.sigma1 <= family.sigma_max:
            problems.append(f"step {n}: sigma1 {res.sigma1} outside (0, {family.sigma_max}]")
            continue
        vertex = float(box.b_bar)
        position, _ = twisted_return(family, res.sigma1, vertex)
        if not abs(position - vertex) <= tolerance:
            problems.append(f"step {n}: twisted return lands at {position}, vertex {vertex}")
    return problems


# -- cli ----------------------------------------------------------------------


def library_summary(command: str, value) -> object:
    """The comparable part of a subcommand's result, from a library call."""
    if command == "eval":
        return str(value)
    if command == "induce":
        return {
            "induced": iet_to_dict(value.induced),
            "return_times": list(value.return_times),
            "pieces": [[str(lo), str(hi)] for lo, hi in value.pieces],
        }
    if command == "rauzy":
        orbit, report = value
        return {
            "steps": [s.kind for s in orbit.steps],
            "scales": [str(s) for s in orbit.scales],
            "halt_reason": orbit.halt_reason,
            "cross_check": [e.passed for e in report.entries],
        }
    if command == "edges":
        count, witness = value
        return {"max_disjoint": count, "witness": [[str(e.s), str(e.e1), str(e.t)] for e in witness]}
    if command == "probe":
        return {
            "verdict": value.verdict,
            "probes": [[str(p.scale), p.edge_count, p.passed] for p in value.probes],
        }
    if command == "close":
        return [[r.sigma1, str(r.scale), r.residual, r.iterations] for r in value]
    raise ValueError(f"unknown subcommand {command}")


def cli_summary(command: str, stdout: bytes) -> object:
    """The comparable part of a subcommand's output, parsed from the CLI."""
    text = stdout.decode("utf-8")
    if command == "eval":
        return text.strip()
    payload = json.loads(text)
    if command == "induce":
        return {key: payload[key] for key in ("induced", "return_times", "pieces")}
    if command == "rauzy":
        return {
            "steps": payload["steps"],
            "scales": payload["scales"],
            "halt_reason": payload["halt_reason"],
            "cross_check": [e["passed"] for e in payload["cross_check"]["entries"]],
        }
    if command == "edges":
        return {"max_disjoint": payload["max_disjoint"], "witness": payload["witness"]}
    if command == "probe":
        return {
            "verdict": payload["verdict"],
            "probes": [[p["scale"], p["edge_count"], p["passed"]] for p in payload["probes"]],
        }
    if command == "close":
        return [[r["sigma1"], r["scale"], r["residual"], r["iterations"]] for r in payload["results"]]
    raise ValueError(f"unknown subcommand {command}")


def check_cli_output(command, returncode, stdout: bytes, expected, first_stdout) -> list[str]:
    """Exit code 0, the same bytes as the first run of the same arguments,
    and output equal to the in-process library result."""
    problems = []
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    if first_stdout is not None and stdout != first_stdout:
        problems.append(f"{command}: output bytes differ from the first run")
    try:
        got = cli_summary(command, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"{command}: unreadable output ({exc!r})"]
    if got != expected:
        problems.append(f"{command}: output {got!r} != library {expected!r}")
    return problems
