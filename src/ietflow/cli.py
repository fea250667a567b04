"""Command-line front end.

Subcommands: eval, induce, rauzy, edges, probe, measure, close.  Reports
are deterministic JSON (stable key order, rationals as p/q strings) plus
CSV for bulk per-sample and per-crossing rows.  Exit codes: 0 success, 1
usage errors, 2 domain errors (ties, missing edges, no closing in range).

Worker parallelism for the measure experiment is controlled only by the
IETFLOW_WORKERS environment variable; parallel runs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .closing import close_at_point
from .edges import (
    ClosingCriterion,
    find_virtual_edges,
    max_disjoint_edges,
    estimate_full_measure,
    probe_edge_criterion,
)
from .errors import FormatError, IetError
from .iet import format_rational, parse_rational
from .induction import check_induction_consistency, induce, rauzy_orbit
from .serialize import iet_to_dict, load_flow, load_iet

IET_SCHEMA = 'exchange JSON: {"lengths": ["2/3", "1/3"], "permutation": [2, 1]}'
FLOW_SCHEMA = (
    'flow JSON: {"base": <exchange>, "roof": ["1", "1"], '
    '"singular_points": ["1/4"], "K": 1}; an optional "partition" lists the '
    "roof cells' cuts when they refine the exchange's breakpoints"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(opts: argparse.Namespace, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if opts.output:
        with open(opts.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _criterion(opts) -> ClosingCriterion:
    return ClosingCriterion(opts.chi, opts.k)


def _cmd_eval(opts: argparse.Namespace) -> int:
    iet = load_iet(opts.input)
    print(format_rational(iet.evaluate(parse_rational(opts.x))))
    return 0


def _cmd_induce(opts: argparse.Namespace) -> int:
    iet = load_iet(opts.input)
    result = induce(iet, parse_rational(opts.b), opts.max_steps)
    _emit(
        opts,
        {
            "induced": iet_to_dict(result.induced),
            "return_times": list(result.return_times),
            "pieces": [[str(lo), str(hi)] for lo, hi in result.pieces],
            "parent_break_hits": [str(x) for x in result.parent_break_hits],
            "kac_total": str(result.kac_total),
            "covers_parent": result.covers_parent,
        },
    )
    return 0


def _cmd_rauzy(opts: argparse.Namespace) -> int:
    iet = load_iet(opts.input)
    orbit = rauzy_orbit(iet, opts.depth)
    payload = {
        "convention": "right-end comparison; top = domain-last interval longer",
        "depth_requested": opts.depth,
        "halt_reason": orbit.halt_reason,
        "steps": [s.kind for s in orbit.steps],
        "scales": [str(s) for s in orbit.scales],
        "m_sequence": [iet.m] + [s.after.m for s in orbit.steps],
    }
    if opts.cross_check:
        report = check_induction_consistency(iet, opts.depth)
        payload["cross_check"] = {
            "halt_reason": report.halt_reason,
            "all_passed": report.all_passed,
            "entries": [
                {"n": e.n, "scale": str(e.scale), "passed": e.passed}
                for e in report.entries
            ],
        }
    _emit(opts, payload)
    return 0


def _cmd_edges(opts: argparse.Namespace) -> int:
    iet = load_iet(opts.input)
    count, witness = max_disjoint_edges(iet)
    _emit(
        opts,
        {
            "families": [
                {
                    "s_min": str(f.s_min),
                    "s_sup": str(f.s_sup),
                    "offset": str(f.offset),
                    "edge_length": str(f.edge_length),
                    "piece": f.piece,
                    "max_disjoint": f.max_disjoint(),
                }
                for f in find_virtual_edges(iet)
            ],
            "max_disjoint": count,
            "witness": [[str(e.s), str(e.e1), str(e.t)] for e in witness],
        },
    )
    return 0


def _cmd_probe(opts: argparse.Namespace) -> int:
    iet = load_iet(opts.input)
    scales = None
    if opts.scales:
        scales = [parse_rational(s) for s in opts.scales.split(",")]
    report = probe_edge_criterion(iet, _criterion(opts), opts.depth, scales)
    _emit(
        opts,
        {
            "threshold": report.criterion.threshold,
            "threshold_clamped": report.criterion.clamped,
            "chi": report.criterion.euler_characteristic,
            "k": report.criterion.k,
            "verdict": report.verdict,
            "used_fallback_scales": report.used_fallback_scales,
            "note": report.note,
            "probes": [
                {"scale": str(p.scale), "edge_count": p.edge_count, "passed": p.passed}
                for p in report.probes
            ],
        },
    )
    return 0


def _cmd_measure(opts: argparse.Namespace) -> int:
    workers = int(os.environ.get("IETFLOW_WORKERS", "1"))
    report = estimate_full_measure(
        m=opts.m,
        criterion=_criterion(opts),
        depth=opts.depth,
        samples=opts.samples,
        seed=opts.seed,
        resolution=opts.resolution,
        workers=workers,
    )
    if opts.csv:
        with open(opts.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "index",
                    "lengths",
                    "permutation",
                    "verdict",
                    "scales_probed",
                    "scales_passed",
                    "first_pass_index",
                    "tie",
                ]
            )
            for s in report.per_sample:
                writer.writerow(
                    [
                        s.index,
                        "|".join(str(x) for x in s.lengths),
                        " ".join(str(p) for p in s.permutation),
                        s.verdict,
                        s.scales_probed,
                        s.scales_passed,
                        "" if s.first_pass_index is None else s.first_pass_index,
                        int(s.tie),
                    ]
                )
    _emit(
        opts,
        {
            "m": report.m,
            "samples": report.samples,
            "depth": report.depth,
            "resolution": report.resolution,
            "threshold": report.criterion.threshold,
            "counts": report.counts,
            "fractions": {
                name: {"fraction": frac, "ci95": [lo, hi]}
                for name, (frac, lo, hi) in sorted(report.fractions.items())
            },
            "reducible_draws": report.reducible_draws,
            "seed": report.seed,
        },
    )
    return 0


def _cmd_close(opts: argparse.Namespace) -> int:
    flow = load_flow(opts.flow)
    results = close_at_point(
        flow,
        parse_rational(opts.point),
        _criterion(opts),
        opts.shrink_steps,
    )
    if opts.trace_csv:
        with open(opts.trace_csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "position", "accumulated_time"])
            for n, res in enumerate(results, start=1):
                for position, when in res.orbit_trace:
                    writer.writerow([n, repr(position), repr(when)])
    _emit(
        opts,
        {
            "results": [
                {
                    "sigma1": res.sigma1,
                    "periodic_point": res.periodic_point,
                    "residual": res.residual,
                    "iterations": res.iterations,
                    "scale": str(res.scale),
                    "hit_bound": res.hit_bound,
                    "orbit_trace": [[pos, when] for pos, when in res.orbit_trace],
                }
                for res in results
            ]
        },
    )
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "induce": _cmd_induce,
    "rauzy": _cmd_rauzy,
    "edges": _cmd_edges,
    "probe": _cmd_probe,
    "measure": _cmd_measure,
    "close": _cmd_close,
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ietflow",
        description="Exact interval exchange dynamics with a twist-closing simulator.",
        epilog=f"{IET_SCHEMA}\n{FLOW_SCHEMA}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_criterion(p):
        p.add_argument("--chi", type=int, default=-3, help="Euler characteristic (signed)")
        p.add_argument("--k", type=int, default=1, help="criterion index (>= 1)")

    p = sub.add_parser("eval", help="evaluate an exchange at a point")
    p.add_argument("--input", required=True, help="exchange JSON file")
    p.add_argument("--x", required=True, help="point, as p/q")

    p = sub.add_parser("induce", help="first-return map to [0, b)")
    p.add_argument("--input", required=True)
    p.add_argument("--b", required=True, help="right endpoint of the return base")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--output")

    p = sub.add_parser("rauzy", help="Rauzy-Veech trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument(
        "--cross-check",
        action="store_true",
        dest="cross_check",
        help="also compare each step with the state of the probe walk",
    )
    p.add_argument("--output")

    p = sub.add_parser("edges", help="exact virtual orthogonal edge families")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("probe", help="depth-bounded edge-criterion probe")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--depth", type=int, default=5, help="walk scales to probe; --scales are all probed"
    )
    p.add_argument("--scales", help="comma-separated decreasing p/q scales")
    add_criterion(p)
    p.add_argument("--output")

    p = sub.add_parser("measure", help="Monte Carlo criterion statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--resolution", type=int, default=10**6)
    add_criterion(p)
    p.add_argument("--csv", help="write one CSV row per sample")
    p.add_argument("--output")

    p = sub.add_parser("close", help="closing run down the Rauzy scales of the exchange")
    p.add_argument("--flow", required=True, help="flow JSON file")
    p.add_argument("--point", required=True, help="recurrent point, as p/q")
    p.add_argument("--shrink-steps", type=int, default=3, dest="shrink_steps")
    add_criterion(p)
    p.add_argument("--trace-csv", dest="trace_csv", help="dump orbit crossings")
    p.add_argument("--output")

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        opts = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[opts.command](opts)
    except FormatError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run(sys.argv[1:]))
