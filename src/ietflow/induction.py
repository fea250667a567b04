"""First-return maps, Rauzy-Veech induction and the probe walk.

Two independent routes to the same renormalization are kept side by side:

* the probe walk (``probe_counts``) steps to the bases that
  ``shortened_base`` gives.  It does each run of same-type Rauzy moves by
  arithmetic on integer lengths and shifts (Zorich's accelerated
  induction) and ends each run by one exact first return (``induce``)
  from the run's start, whose edge count must match the run's;
  ``probe_walk`` builds the states of its scales the same way, and
* ``rauzy_step`` performs one Rauzy-Veech move on the translations,
  without any propagation: the points that leave the shortened base come
  back through the last interval, so its translation is added to theirs.

The propagation itself is ``first_returns``, on integer numerators: it
pushes [0, b) forward over a partition into cells until every piece
re-enters, summing an integer weight per cell along each orbit.
``induce`` gives it zero weights; the first-return suspension and the
closing walk weigh roofs and return times with it.

``check_induction_consistency`` cross-validates the two routes: the n-th
walk state must equal the n-step Rauzy state, exactly, as canonical maps.

Every first return takes its lattice, range check and step budget from
``base_lattice`` and ``default_return_budget``.  ``closing._return_maps``
stays a second walk since it carries the return times the budget reads;
the benchmark's contract keeps ``induce`` as the ``measure`` step, once
per run.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInduced, ReduciblePermutation, ReturnTimeExceeded, TieEncountered
from .iet import Iet, RationalLike, as_rational, make_iet


@dataclass(frozen=True)
class InducedResult:
    """First-return map of ``parent`` to [0, b) plus return-time data.

    ``ends`` are the integer ends of the return-time pieces, from 0 to the
    base, and ``parent_top`` is the parent's base length, both on the
    lattice of ``induced`` (over ``induced.denom``); the ``Fraction`` views
    ``pieces``, ``parent_break_hits``, ``kac_total`` and ``parent_base``
    are built from them when read, and ``covers_parent`` compares
    integers.  ``pieces`` refines the canonical intervals of ``induced``:
    an induction cut can make two pieces with different return times carry
    the same translation, in which case the canonical map merges them but
    the return times stay distinct.
    ``return_times[i]`` is the number of parent steps after which points
    of ``pieces[i]`` first re-enter [0, b).
    """

    induced: Iet
    return_times: tuple[int, ...]
    ends: tuple[int, ...]
    parent_top: int  # the parent's base length over ``induced.denom``

    @property
    def parent_base(self) -> Fraction:
        return Fraction(self.parent_top, self.induced.denom)

    @property
    def pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        ends = [Fraction(e, self.induced.denom) for e in self.ends]
        return tuple(zip(ends[:-1], ends[1:]))

    @property
    def parent_break_hits(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.induced.denom) for e in self.ends[1:-1])

    def _kac_numerator(self) -> int:
        ends = self.ends
        return sum((hi - lo) * k for lo, hi, k in zip(ends, ends[1:], self.return_times))

    @property
    def kac_total(self) -> Fraction:
        """Sum of return_time * piece length; equals the parent base length
        exactly when the return orbits sweep the whole parent interval."""
        return Fraction(self._kac_numerator(), self.induced.denom)

    @property
    def covers_parent(self) -> bool:
        return self._kac_numerator() == self.parent_top


def default_return_budget(m: int, parent_top: int, top: int) -> int:
    """Step budget heuristic 10 * (m + floor(base/b) + 1) for an m-interval
    parent, its base and b > 0 being ``parent_top`` and ``top`` on one lattice."""
    return 10 * (m + parent_top // top + 1)


def base_lattice(denom0: int, base_top: int, b: RationalLike) -> tuple[int, int, int]:
    """The lattice of a first return from [0, base_top / denom0) to [0, b):
    its denominator, lcm(denom0, b's), the factor lifting numerators over
    denom0 onto it, and b's numerator on it, checked to lie in (0, base]."""
    b = as_rational(b)
    denom = math.lcm(b.denominator, denom0)
    lift = denom // denom0
    top = b.numerator * (denom // b.denominator)
    if not 0 < top <= base_top * lift:
        raise ValueError(f"induction base {b} outside (0, {Fraction(base_top, denom0)}]")
    return denom, lift, top


def first_returns(cuts, shifts, weights, singulars, top: int, max_steps: int, denom: int):
    """First returns to [0, top) of the map moving each cell [cuts[i],
    cuts[i + 1]) by shifts[i], on integer numerators.

    Returns the pieces (lo, hi, offset, steps, weight), sorted and tiling
    [0, top), where ``weight`` sums weights[i] over the cells an orbit
    crosses before it returns, and the points of [0, top) whose orbit
    meets one of the sorted ``singulars`` on the way, the start included.
    Raises ReturnTimeExceeded(max_steps, top / denom) past ``max_steps``
    steps; ``denom``, the lattice's denominator, is read only to name the
    scale in an error.
    """
    done: list[tuple[int, int, int, int, int]] = []
    pulled: set[int] = set()
    work = deque([(0, top, 0, 0, 0)])
    while work:
        lo, hi, off, steps, weight = work.popleft()
        if steps >= max_steps:
            raise ReturnTimeExceeded(max_steps, scale=Fraction(top, denom))
        steps += 1
        cur_lo, cur_hi = lo + off, hi + off
        if singulars:  # skips the lookup where nothing is pulled back, as in ``induce``
            i, j = bisect.bisect_left(singulars, cur_lo), bisect.bisect_left(singulars, cur_hi)
            pulled.update(q - off for q in singulars[i:j])
        piece = bisect.bisect_right(cuts, cur_lo) - 1
        u = cur_lo
        while u < cur_hi:
            v = min(cuts[piece + 1], cur_hi)
            tau = shifts[piece]
            noff = off + tau
            nweight = weight + weights[piece]
            olo, ohi = u - off, v - off
            if v + tau <= top:
                done.append((olo, ohi, noff, steps, nweight))
            elif u + tau >= top:
                work.append((olo, ohi, noff, steps, nweight))
            else:
                mid = top - noff
                done.append((olo, mid, noff, steps, nweight))
                work.append((mid, ohi, noff, steps, nweight))
            u = v
            piece += 1

    done.sort()
    # pieces must tile [0, top) exactly
    cursor = 0
    for lo, hi, _, _, _ in done:
        if lo != cursor:
            raise NotInduced(f"gap at {Fraction(cursor, denom)} while assembling the return map")
        cursor = hi
    if cursor != top:
        stop, scale = Fraction(cursor, denom), Fraction(top, denom)
        raise NotInduced(f"return pieces stop at {stop}, expected {scale}")
    return done, pulled


def return_map(pieces, denom: int) -> Iet:
    """The canonical exchange moving each piece (lo, hi, offset, ...) of
    ``first_returns`` by its offset, over the denominator ``denom``."""
    return Iet.from_lattice(denom, [p[0] for p in pieces] + [pieces[-1][1]], [p[2] for p in pieces])


def induce(parent: Iet, b: RationalLike, max_steps: int | None = None) -> InducedResult:
    """First-return map of ``parent`` to [0, b) by exact interval propagation.

    Runs ``first_returns`` over the parent's breakpoints, then merges
    neighbouring pieces that agree on translation and return time.
    Raises ReturnTimeExceeded when a piece fails to return within
    ``max_steps``, by default ``default_return_budget``: a guess that
    ordinary exchanges and bases exceed, where a larger budget succeeds.
    """
    # every cut, offset and piece end below is an integer multiple of
    # 1/denom; a walk step's b sits on the parent's lattice, read as it is
    denom, lift, top = base_lattice(parent.denom, parent.cuts[-1], b)
    cuts, shifts = parent.cuts, parent.shifts
    if lift != 1:
        cuts, shifts = [c * lift for c in cuts], [t * lift for t in shifts]
    if max_steps is None:
        max_steps = default_return_budget(parent.m, cuts[-1], top)
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    pieces, _ = first_returns(cuts, shifts, [0] * parent.m, [], top, max_steps, denom)

    # return-time partition: merge neighbours agreeing on translation and
    # time; the canonical map merges on translation alone, so an induction
    # cut that leaves neighbours continuous as a map yet with distinct
    # return times makes the pieces genuinely refine the canonical intervals
    ends, offsets, times = [0], [], []
    for _, hi, off, steps, _ in pieces:
        if times and offsets[-1] == off and times[-1] == steps:
            ends[-1] = hi
        else:
            ends.append(hi)
            offsets.append(off)
            times.append(steps)

    return InducedResult(
        induced=Iet.from_lattice(denom, ends, offsets),
        return_times=tuple(times),
        ends=tuple(ends),
        parent_top=cuts[-1],
    )


# -- Rauzy-Veech induction ---------------------------------------------------


def is_irreducible(permutation: tuple[int, ...] | list[int]) -> bool:
    """True when no proper prefix {1..j} is permuted into itself."""
    pm = list(permutation)
    if len(pm) < 2:
        return False
    top = 0
    for j, v in enumerate(pm[:-1], start=1):
        top = max(top, v)
        if top == j:
            return False
    return True


def rauzy_step(iet: Iet) -> tuple[Iet, str]:
    """One right-end Rauzy-Veech move.

    Compares the last subinterval of the domain against the subinterval
    whose image is last, shortens the longer one, and returns the induced
    exchange on the shortened base together with the step type ("top" when
    the domain-last interval was longer, "bottom" otherwise).  The move
    adds the last interval's translation to part of the other comparand's,
    on the integer lattice of ``iet``, which the result keeps.  Equal
    comparands raise TieEncountered; rational data always tie eventually.
    """
    m = iet.m
    if m < 2 or not is_irreducible(iet.permutation):
        raise ReduciblePermutation(f"Rauzy step undefined for {iet!r}")
    cuts, shifts = list(iet.cuts), list(iet.shifts)
    beta = iet.permutation.index(m)  # the interval whose image is rightmost
    l_top = cuts[m] - cuts[m - 1]
    l_bot = cuts[beta + 1] - cuts[beta]
    if l_top == l_bot:
        raise TieEncountered(f"comparand lengths both equal {Fraction(l_top, iet.denom)}")

    if l_top > l_bot:
        # the image of beta leaves the base and lands in the last interval,
        # which carries it back: the base loses l_bot, beta gains its shift
        cuts[m] -= l_bot
        shifts[beta] += shifts[m - 1]
        kind = "top"
    else:
        # the last interval leaves the base; beta splits where its image
        # enters that interval, and the right part gains the last shift
        split = cuts[m - 1] - shifts[beta]
        cuts = cuts[: beta + 1] + [split] + cuts[beta + 1 : m]
        shifts = shifts[: beta + 1] + [shifts[beta] + shifts[m - 1]] + shifts[beta + 1 : m - 1]
        kind = "bottom"
    return Iet.from_lattice(iet.denom, cuts, shifts), kind


@dataclass(frozen=True)
class RauzyStep:
    kind: str
    after: Iet


@dataclass(frozen=True)
class RauzyTrajectory:
    """A finite run of Rauzy moves with the surviving base lengths.

    ``scales[n-1]`` is the unnormalized base length after n moves; the
    sequence is strictly decreasing.  Merging of removable breakpoints can
    lower the interval count along the way, so m is non-increasing.
    """

    steps: tuple[RauzyStep, ...]
    scales: tuple[Fraction, ...]
    halt_reason: str  # "depth_reached" or "tie_encountered"


def rauzy_orbit(iet: Iet, depth: int) -> RauzyTrajectory:
    """Apply up to ``depth`` Rauzy moves, halting early at a tie."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    steps: list[RauzyStep] = []
    scales: list[Fraction] = []
    current = iet
    halt = "depth_reached"
    for _ in range(depth):
        try:
            nxt, kind = rauzy_step(current)
        except TieEncountered:
            halt = "tie_encountered"
            break
        steps.append(RauzyStep(kind, nxt))
        scales.append(nxt.base_length)
        current = nxt
    return RauzyTrajectory(tuple(steps), tuple(scales), halt)


def shortened_base(state: Iet) -> tuple[int, bool]:
    """The next base of the probe walk on the lattice of ``state`` (m >= 2),
    b - min(L_last, L_beta) with beta the interval whose image is last, as
    in a Rauzy move, and whether L_last == L_beta, a tie no Rauzy move
    passes.  Every point returns to it within two steps."""
    cuts, m = state.cuts, state.m
    beta = state.permutation.index(m)
    l_last, l_beta = cuts[m] - cuts[m - 1], cuts[beta + 1] - cuts[beta]
    return cuts[m] - min(l_last, l_beta), l_last == l_beta


def edge_count(cuts, shifts) -> int:
    """The most pairwise disjoint virtual edges of the exchange moving
    [cuts[i], cuts[i + 1]) by shifts[i]: each piece with 0 < 2 tau < L
    holds ceil((L - 2 tau) / (2 tau)) of them (``edges.max_disjoint_edges``)."""
    total = 0
    for i, tau in enumerate(shifts):
        width = cuts[i + 1] - cuts[i] - 2 * tau
        if tau > 0 and width > 0:
            total += -(-width // (2 * tau))
    return total


def probe_counts(iet: Iet) -> Iterator[tuple[int, int, bool, Iet, int]]:
    """The probe walk of ``iet``, lazily, ending after an identity map: per
    scale its numerator over ``iet.denom``, the state's ``edge_count``,
    whether the walk has passed a tie or a reducible permutation, and the
    last materialized state (the anchor) with the number of moves past it.

    From an anchor, a run of Rauzy moves of one type is done on integers.
    Labels keep their lengths and shifts; a move takes the winner's length
    down by the loser's and adds the winner's shift to the loser's.  In a
    top run the winner is the domain-last interval and the losers are the
    intervals whose images lie right of its image, from the right,
    cyclically; in a bottom run the winner is the image-last interval and
    the losers those right of it in the domain.  Only those two terms of
    the count change.  A run ends before a move of the other type, a tie
    or a move that makes equal-shift neighbours merge; the state there is
    the first return from the anchor, ``induce`` with the budget moves + 1
    (a move adds at most one step to a return), and its count must equal
    the run's.  A tie, a merge or a reducible anchor takes the chained
    ``induce`` to its ``shortened_base``, within two steps.
    """
    denom, anchor, tied = iet.denom, iet, False
    count = edge_count(iet.cuts, iet.shifts)
    while anchor.m > 1:
        cuts, shifts, perm, m = anchor.cuts, list(anchor.shifts), anchor.permutation, anchor.m
        lengths = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        top, moves = cuts[m], 0
        beta = perm.index(m)
        irreducible = is_irreducible(perm)
        if irreducible and lengths[m - 1] != lengths[beta]:
            bottom = lengths[m - 1] < lengths[beta]
            if bottom:  # ``after`` is the label right of the winner in the domain
                w, losers, after = beta, range(m - 1, beta, -1), beta + 1
            else:
                w, image = m - 1, sorted(range(m), key=perm.__getitem__)
                losers = image[: perm[w] - 1 : -1]
            lw, tw = lengths[w], shifts[w]
            while True:  # the losers come round cyclically
                for x in losers:
                    lx, sx = lengths[x], shifts[x]
                    tx = sx + tw
                    if lw <= lx:  # a tie, or a move of the other type
                        break
                    if bottom:  # x moves in right of the winner
                        if tx == tw or (after != x and tx == shifts[after]):
                            break
                        after = x
                    elif (x and tx == shifts[x - 1]) or tx == shifts[x + 1]:
                        break
                    if tw > 0:
                        count += (lw - lx - 1) // (2 * tw) - (lw - 1) // (2 * tw)
                    if tx > 0:
                        count += (lx - 1) // (2 * tx)
                    if sx > 0:
                        count -= (lx - 1) // (2 * sx)
                    shifts[x], lw, top, moves = tx, lw - lx, top - lx, moves + 1
                    yield top, count, tied, anchor, moves
                else:
                    continue
                break
        if moves:
            b = Fraction(top, denom)
            anchor = induce(anchor, b, moves + 1).induced
            found = edge_count(anchor.cuts, anchor.shifts)
            if found != count:
                raise NotInduced(f"a run to {b} counts {count} edges, its first return {found}")
            continue
        top, tie = shortened_base(anchor)
        tied = tied or tie or not irreducible
        anchor = induce(anchor, Fraction(top, denom), 2).induced
        count = edge_count(anchor.cuts, anchor.shifts)
        yield top, count, tied, anchor, 0


def probe_walk(iet: Iet) -> Iterator[tuple[Iet, bool]]:
    """The states of ``probe_counts``, each with whether the walk has passed
    a tie or a reducible permutation.  A state is built when it is reached,
    as the first return from the last anchor.  Away from ties and reducible
    permutations the states are the Rauzy states, which ``rauzy_step``
    computes by an independent route (see ``check_induction_consistency``)."""
    for top, _, tied, anchor, moves in probe_counts(iet):
        if moves:
            anchor = induce(anchor, Fraction(top, anchor.denom), moves + 1).induced
        yield anchor, tied


def rescale(iet: Iet, to_base: RationalLike) -> Iet:
    """Conjugate by the linear map taking the base onto [0, to_base)."""
    to_base = as_rational(to_base)
    if to_base <= 0:
        raise ValueError("target base must be positive")
    factor = to_base / iet.base_length
    return make_iet([x * factor for x in iet.lengths], iet.permutation)


@dataclass(frozen=True)
class ConsistencyEntry:
    n: int
    scale: Fraction
    passed: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-depth agreement between the Rauzy route and the first-return route."""

    entries: tuple[ConsistencyEntry, ...]
    halt_reason: str  # depth_reached / tie_encountered / reducible

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def check_induction_consistency(iet: Iet, depth: int) -> ConsistencyReport:
    """Cross-validate Rauzy moves against the probe walk.

    For each n reached before a tie, the n-step Rauzy state (Rauzy-move
    route) is compared with the n-th state of ``probe_walk``, the first
    return of the original exchange to [0, a_n) (interval-propagation
    route).  Both have base length a_n, so they are compared unnormalized,
    and equality is exact.
    """
    try:
        orbit = rauzy_orbit(iet, depth)
    except ReduciblePermutation:
        return ConsistencyReport((), "reducible")

    entries = tuple(
        ConsistencyEntry(n, step.after.base_length, state == step.after)
        for n, (step, (state, _)) in enumerate(zip(orbit.steps, probe_walk(iet)), 1)
    )
    return ConsistencyReport(entries, orbit.halt_reason)
