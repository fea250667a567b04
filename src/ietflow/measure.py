"""The records and per-sample worker of the Monte Carlo full-measure experiment.

``edges.estimate_full_measure`` draws the exchanges and imports this
module once per call, so ``edges`` and ``probe`` load neither it nor
``dataclasses``.  ``SampleOutcome`` and ``MeasureReport`` are frozen
dataclasses.  ``_probe_sample``, the worker a pool pickles by name, reads
one exchange's counts off the probe walk's checked prefix; it runs once
per sample and holds no import statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .edges import ClosingCriterion
from .induction import probe_prefix


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
    counts are the ``depth`` entries of ``probe_prefix``, which the walk
    core ``probe_counts`` computes by arithmetic within each run of Rauzy
    moves; a run ends in one first return, no state is built within it,
    and a run still open at ``depth`` is checked by the prefix."""
    index, iet, threshold, depth = job
    walk = probe_prefix(iet, depth)
    passes = [n for n, entry in enumerate(walk, 1) if entry[1] >= threshold]
    tie = bool(walk) and walk[-1][2]  # the last tie flag covers the sweep
    if passes:
        verdict = "certified_to_depth"
    else:
        verdict = "undecided_tie" if tie else "refuted_at_depth"
    first = passes[0] if passes else None
    probed, passed = len(walk), len(passes)
    return SampleOutcome(index, iet.lengths, iet.permutation, verdict, probed, passed, first, tie)
