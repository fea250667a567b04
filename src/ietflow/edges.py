"""Virtual orthogonal edges and the depth-bounded closing criterion.

A virtual orthogonal edge of an exchange E is a closed interval [s, t]
with E continuous on it and s < E(s) < E^2(s) = t.  Continuity forces the
whole configuration into a single subinterval of E, so all edges of a
canonical exchange form finitely many sliding families: one per
subinterval whose translation tau is positive and shorter than half the
subinterval.  Everything here is exact.

``probe_edge_criterion`` checks, scale by scale along a decreasing probe
sequence, whether the first-return maps carry enough pairwise disjoint
edges.  ``estimate_full_measure`` runs that probe over random exchanges;
its per-sample verdict is visit-based (a sample is refuted only when *no*
probed scale meets the edge quota), mirroring the fact that the criterion
only asks for *some* sequence of good scales.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat

from .iet import Iet, RationalLike, as_rational, make_iet
from .induction import edge_count, induce, is_irreducible, probe_counts

DEFAULT_WITNESS_GAP = Fraction(1, 10**6)


@dataclass(frozen=True)
class VirtualEdge:
    """A single edge [s, t] with its middle point e1 = E(s)."""

    s: Fraction
    e1: Fraction
    t: Fraction

    def validate(self, iet: Iet) -> None:
        """Re-check the defining conditions against ``iet``, independently
        of whatever search produced this edge."""
        if not self.s < self.e1 < self.t:
            raise ValueError(f"edge ordering violated: {self}")
        if not iet._maps_to(self.s, self.e1) or not iet._maps_to(self.e1, self.t):
            raise ValueError(f"edge {self} does not follow the exchange")
        piece = iet.piece_index(self.s)
        if self.t.numerator * iet.denom >= iet.cuts[piece + 1] * self.t.denominator:
            raise ValueError(f"edge {self} leaves its continuity interval")


@dataclass(frozen=True)
class EdgeFamily:
    """All edges with left endpoint in [s_min, s_sup).

    Within one subinterval of the exchange every admissible s yields the
    edge [s, s + 2*offset]; the family is the exact description of that
    continuum.
    """

    s_min: Fraction
    s_sup: Fraction
    offset: Fraction
    piece: int

    @property
    def edge_length(self) -> Fraction:
        return 2 * self.offset

    def edge_at(self, s: RationalLike) -> VirtualEdge:
        s = as_rational(s)
        if not self.s_min <= s < self.s_sup:
            raise ValueError(f"{s} outside admissible range [{self.s_min}, {self.s_sup})")
        return VirtualEdge(s, s + self.offset, s + 2 * self.offset)

    def max_disjoint(self) -> int:
        """Largest number of pairwise disjoint closed edges drawn from this
        family (supremum over finite selections; attained up to any
        positive gap)."""
        q = (self.s_sup - self.s_min) / self.edge_length
        return _packing_count(q.numerator, q.denominator)


def _packing_count(width: int, edge_length: int) -> int:
    """Most pairwise disjoint closed edges of length ``edge_length`` whose
    left endpoints lie in a half-open window of length ``width``, both
    given as integer multiples of one unit: ceil(width / edge_length)."""
    return -(-width // edge_length)


def find_virtual_edges(iet: Iet) -> list[EdgeFamily]:
    """Exact description of all virtual orthogonal edges of ``iet``.

    One family per subinterval with positive translation shorter than half
    the subinterval; empty when no edge exists.
    """
    cuts, d = iet.cuts, iet.denom
    return [
        EdgeFamily(Fraction(cuts[i], d), Fraction(cuts[i + 1] - 2 * tau, d), Fraction(tau, d), i)
        for i, tau in enumerate(iet.shifts)
        if tau > 0 and cuts[i + 1] - cuts[i] > 2 * tau
    ]


def max_disjoint_edges(iet: Iet, with_witness: bool = True) -> tuple[int, list[VirtualEdge]]:
    """Maximum cardinality of a pairwise-disjoint edge family plus one witness.

    Edges from distinct subintervals are disjoint automatically, so the
    count is the sum over families.  Within a family the witness packs
    edges left to right separated by a strict gap (``DEFAULT_WITNESS_GAP``,
    shrunk if the family slack requires it); interval scheduling by right
    endpoint over the family description realizes the same count.
    """
    # the family of subinterval i has width L - 2*tau and edge length
    # 2*tau; ``edge_count`` sums their packings on the integer lattice
    total = edge_count(iet.cuts, iet.shifts)
    witnesses: list[VirtualEdge] = []
    if not with_witness:
        return total, witnesses
    for fam in find_virtual_edges(iet):
        k = fam.max_disjoint()
        slack = fam.s_sup - fam.s_min - (k - 1) * fam.edge_length
        step_gap = min(DEFAULT_WITNESS_GAP, slack / (k + 1))
        for j in range(k):
            s = fam.s_min + j * (fam.edge_length + step_gap)
            witnesses.append(fam.edge_at(s))
    return total, witnesses


def in_rotation_band(iet: Iet, k: int) -> bool:
    """True when the exchange translates [0, 1/2] by an offset inside the
    open band (16**-k - 32**-k, 16**-k + 32**-k).

    Such maps carry more than k pairwise disjoint virtual edges.  Requires
    a unit base.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if iet.base_length != 1:
        raise ValueError("rotation band test needs a unit base")
    if iet.breakpoints[1] <= Fraction(1, 2):
        return False
    offset = iet.translations[0]
    center = Fraction(1, 16**k)
    halfwidth = Fraction(1, 32**k)
    return center - halfwidth < offset < center + halfwidth


# -- criterion probing -------------------------------------------------------


@dataclass(frozen=True)
class ClosingCriterion:
    """Edge quota per probed scale.

    The quota is chi + k + 3 clamped below at 1; the clamp is flagged so
    reports can surface when the raw formula was non-positive.
    """

    euler_characteristic: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def raw_threshold(self) -> int:
        return self.euler_characteristic + self.k + 3

    @property
    def threshold(self) -> int:
        return max(1, self.raw_threshold)

    @property
    def clamped(self) -> bool:
        return self.raw_threshold < 1


@dataclass(frozen=True)
class ProbeEntry:
    scale: Fraction
    edge_count: int
    passed: bool


@dataclass(frozen=True)
class EdgeCriterionReport:
    criterion: ClosingCriterion
    probes: tuple[ProbeEntry, ...]
    verdict: str  # certified_to_depth / refuted_at_depth / undecided_tie
    used_fallback_scales: bool
    note: str = field(default="", compare=False)


_CERTIFIED_NOTE = (
    "certified_to_depth covers only the probed scales; membership in the "
    "full criterion would require every scale of an infinite sequence"
)


def default_probe_scales(iet: Iet, depth: int) -> tuple[list[Fraction], bool]:
    """The first ``depth`` scales of the probe walk (``probe_counts``) and
    whether the walk passed a tie or a reducible permutation within them."""
    walk = list(islice(probe_counts(iet), depth))
    return [Fraction(top, iet.denom) for top, *_ in walk], any(tied for _, _, tied, _, _ in walk)


def probe_edge_criterion(
    iet: Iet,
    criterion: ClosingCriterion,
    depth: int,
    scales: list[RationalLike] | None = None,
) -> EdgeCriterionReport:
    """Probe the edge quota at each scale of a decreasing sequence.

    Default scales are the first ``depth`` of the probe walk, whose edge
    counts ``probe_counts`` keeps as it goes; explicit
    ``scales`` are all probed, and ``depth`` is then only validated.  The
    verdict is conjunctive over the probed scales: any failing scale
    refutes at this depth (probing stops there), and so does an identity,
    which has no scale below its base; a clean sweep is
    certified_to_depth, downgraded to undecided_tie when the walk passed a
    tie within it, which ``used_fallback_scales`` reports.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if scales is not None:
        resolved = [as_rational(s) for s in scales]
        if not resolved:
            raise ValueError("explicit scale list must be nonempty")
        for a, b in zip(resolved[:-1], resolved[1:]):
            if not b < a:
                raise ValueError("scales must be strictly decreasing")
        if resolved[0] > iet.base_length or resolved[-1] <= 0:
            raise ValueError("scales must lie in (0, base]")
        # each scale's first return is induced from the one before, tie flags off
        chain = accumulate(resolved, lambda state, b: induce(state, b).induced, initial=iet)
        states = islice(chain, 1, None)
        counts = (max_disjoint_edges(state, with_witness=False)[0] for state in states)
        walk = zip(resolved, counts, repeat(False))
    else:
        core = islice(probe_counts(iet), depth)
        walk = ((Fraction(top, iet.denom), count, tie) for top, count, tie, _, _ in core)

    # the walk advances with the scan: no first return past the first
    # failure; a tie flag never turns back off, so the last one covers the sweep
    probes: list[ProbeEntry] = []
    tie = False
    for scale, count, tie in walk:
        probes.append(ProbeEntry(scale, count, count >= criterion.threshold))
        if not probes[-1].passed:
            break
    if not probes or not probes[-1].passed:
        verdict = "refuted_at_depth"
    else:
        verdict = "undecided_tie" if tie else "certified_to_depth"
    note = _CERTIFIED_NOTE
    if criterion.clamped:
        note += "; edge quota clamped to 1 (raw chi+k+3 was non-positive)"
    return EdgeCriterionReport(criterion, tuple(probes), verdict, tie, note)


# -- Monte Carlo full-measure experiment -------------------------------------


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


def wald_interval(successes: int, n: int) -> tuple[float, float, float]:
    """95% normal-approximation confidence interval for a fraction, n >= 1."""
    p = successes / n
    half = 1.96 * math.sqrt(max(p * (1 - p), 0.0) / n)
    return p, max(0.0, p - half), min(1.0, p + half)


def _irreducible_permutation(rng: random.Random, m: int) -> tuple[list[int], int]:
    """A uniform irreducible permutation of 1..m and the number of
    reducible draws rejected on the way."""
    rejected = 0
    while True:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        if is_irreducible(perm):
            return perm, rejected
        rejected += 1


def sample_uniform_iet(rng: random.Random, m: int, resolution: int) -> tuple[Iet, int]:
    """Draw lengths uniformly on the rational simplex and a uniform
    irreducible permutation.

    The lengths are the spacings of m-1 distinct cut points drawn from
    1..resolution-1, divided by ``resolution``: uniform over the positive
    compositions of ``resolution`` into m parts, the grid version of the
    uniform law on the simplex.  Reducible permutation draws are rejected;
    their count is returned so reports can account for the excluded mass.
    """
    if resolution < m:
        raise ValueError(f"resolution {resolution} is below m={m}: no positive composition")
    perm, rejected = _irreducible_permutation(rng, m)
    cuts = [0] + sorted(rng.sample(range(1, resolution), m - 1)) + [resolution]
    lengths = [Fraction(hi - lo, resolution) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return make_iet(lengths, perm), rejected


def sample_iet(rng: random.Random, m: int, resolution: int) -> tuple[Iet, int]:
    """Draw normalized integer lengths and a uniform irreducible permutation.

    The lengths are m independent uniform integers in 1..resolution divided
    by their sum.  That is not the uniform law on the simplex: short lengths
    are under-weighted (for m=2 about 5.6% of the draws have a first length
    below 1/10, not 10%), so ``estimate_full_measure`` draws with
    ``sample_uniform_iet`` instead.  This sampler stays as it is so that
    input sets generated from a seed keep their exchanges.  Returns the
    exchange and the number of reducible permutation draws rejected.
    """
    perm, rejected = _irreducible_permutation(rng, m)
    raw = [rng.randint(1, resolution) for _ in range(m)]
    total = sum(raw)
    lengths = [Fraction(x, total) for x in raw]
    return make_iet(lengths, perm), rejected


def _probe_sample(job) -> SampleOutcome:
    """Worker body: the visit-based outcome of one sampled exchange.  Its
    counts come from the probe walk's core, ``probe_counts``, by arithmetic
    within each run of Rauzy moves; a run ends in one first return, and
    no state is built within it."""
    index, iet, threshold, depth = job
    probed = passed = 0
    first = None
    tie = False  # the last tie flag covers the sweep
    for _, count, tie, _, _ in islice(probe_counts(iet), depth):
        probed += 1
        if count >= threshold:
            passed += 1
            first = first or probed
    if passed:
        verdict = "certified_to_depth"
    else:
        verdict = "undecided_tie" if tie else "refuted_at_depth"
    return SampleOutcome(index, iet.lengths, iet.permutation, verdict, probed, passed, first, tie)


def estimate_full_measure(
    m: int,
    criterion: ClosingCriterion,
    depth: int,
    samples: int,
    seed: int,
    resolution: int = 10**6,
    workers: int = 1,
) -> MeasureReport:
    """Monte Carlo scan of random exchanges against the edge criterion.

    Per-sample verdicts are visit-based: certified_to_depth when at least
    one probed scale met the quota (renormalization found a good scale),
    refuted_at_depth when every scale failed and the walk passed no tie,
    undecided_tie when every scale failed past a tie or a reducible
    permutation.  Deterministic for a fixed seed; worker parallelism does
    not change the output (results are assembled in sample order).  The
    pool has at most ``min(workers, samples, os.cpu_count())`` processes.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    jobs = []
    reducible_draws = 0
    for index in range(samples):
        iet, rejected = sample_uniform_iet(rng, m, resolution)
        reducible_draws += rejected
        jobs.append((index, iet, criterion.threshold, depth))

    # a fork pool starts all its workers at the first submit
    workers = min(workers, samples, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = tuple(pool.map(_probe_sample, jobs, chunksize=8))
    else:
        outcomes = tuple(map(_probe_sample, jobs))

    counts = {"certified_to_depth": 0, "refuted_at_depth": 0, "undecided_tie": 0}
    for outcome in outcomes:
        counts[outcome.verdict] += 1
    fractions = {name: wald_interval(count, samples) for name, count in counts.items()}
    return MeasureReport(
        m=m,
        samples=samples,
        depth=depth,
        seed=seed,
        resolution=resolution,
        criterion=criterion,
        counts=counts,
        fractions=fractions,
        reducible_draws=reducible_draws,
        per_sample=outcomes,
    )
