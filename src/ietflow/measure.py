"""The records and per-sample worker of the Monte Carlo full-measure experiment.

``edges.estimate_full_measure`` draws the exchanges and imports this
module once per call, so ``edges`` and ``probe`` load neither it nor
``dataclasses``.  ``SampleOutcome`` and ``MeasureReport`` are frozen
dataclasses.  ``_probe_sample``, the worker a pool pickles by name, reads
one exchange's counts off the probe walk's core; it runs once per sample
and holds no import statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .edges import ClosingCriterion
from .induction import check_last_run, probe_counts


@dataclass(frozen=True)
class SampleOutcome:
    index: int
    lengths: tuple[Fraction, ...]
    permutation: tuple[int, ...]
    verdict: str
    scales_probed: int
    scales_passed: int
    first_pass_index: int | None
    tie: bool


@dataclass(frozen=True)
class MeasureReport:
    m: int
    samples: int
    depth: int
    seed: int
    resolution: int
    criterion: ClosingCriterion
    counts: dict
    fractions: dict
    reducible_draws: int
    per_sample: tuple[SampleOutcome, ...]


def _probe_sample(job) -> SampleOutcome:
    """Worker body: the visit-based outcome of one sampled exchange.  Its
    counts come from the probe walk's core, ``probe_counts``, by arithmetic
    within each run of Rauzy moves; a run ends in one first return, and
    no state is built within it.  The walk stops at ``depth``, where a run
    still open gets its first return from ``check_last_run``."""
    index, iet, threshold, depth = job
    probed = passed = 0
    first = None
    tie = False
    for entry in islice(probe_counts(iet), depth):
        probed += 1
        if entry[1] >= threshold:
            passed += 1
            first = first or probed
    if probed:
        check_last_run(entry)
        tie = entry[2]  # the last tie flag covers the sweep
    if passed:
        verdict = "certified_to_depth"
    else:
        verdict = "undecided_tie" if tie else "refuted_at_depth"
    return SampleOutcome(index, iet.lengths, iet.permutation, verdict, probed, passed, first, tie)
