"""First-return maps, Rauzy-Veech induction and the probe walk.

Two independent routes to the same renormalization are kept side by side:

* the probe walk (``probe_counts``) steps to the bases of Rauzy moves,
  b - min(L_last, L_beta).  It does each run of same-type moves by
  arithmetic on integer lengths and shifts (Zorich's accelerated
  induction), carrying return times through the run when timed, and ends
  each run by one exact first return from the run's start, whose edge
  count and longest return must match the run's; ``probe_prefix`` is
  the walk as the probes read it, cut at a depth or a failing count and
  checked where it stops, and ``probe_walk`` builds the states of its
  scales, each from the one before, and
* ``rauzy_step`` performs one Rauzy-Veech move on the translations,
  without any propagation: the points that leave the shortened base come
  back through the last interval, so its translation is added to theirs.

The propagation itself is ``first_returns``, on integer numerators: it
pushes [0, b) forward over a partition into cells until every piece
re-enters, summing an integer weight per cell along each orbit, and
returns the next lattice.  ``induced_lattice`` sets it up on the lattice
of ``base_lattice`` with the budget ``default_return_budget``: ``induce``
(weights of ones, so return times) and ``closing.induced_suspension``
(roofs) are one call of it each.  The probe walk is also the closing walk
(``closing._return_maps`` walks it timed); timed or not, a run ends in
one ``first_returns`` on the walk's lattice, so the walk calls no
``induce``; ``probe_prefix`` does, once per probe that stops in a run.

``check_induction_consistency`` cross-validates the two routes: the n-th
walk state must equal the n-step Rauzy state, exactly, as canonical maps.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from operator import attrgetter

from .errors import NotInduced, ReduciblePermutation, ReturnTimeExceeded, TieEncountered
from .iet import Iet, RationalLike, as_rational, make_iet


class Record:
    """An immutable record whose fields are its class's ``__slots__``, in
    order.  It is built from positional or keyword arguments, with the
    class's ``_defaults`` for fields left out; it compares and hashes as
    the tuple of its fields but those in ``_uncompared`` (at least two),
    and only equals a record of its own class; its repr names every field;
    assignment raises AttributeError; it pickles and copies as its class
    called on its fields.  Unlike a dataclass, it generates no code at
    import."""

    __slots__ = ()
    _defaults: dict = {}
    _uncompared: tuple = ()

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        names = cls.__slots__
        given = dict(zip(names, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(
                f"{cls.__name__}({', '.join(names)}) called with {len(args)} positional"
                f" arguments and the keywords {sorted(kwargs)}"
            )
        return [values[name] for name in names]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, which bypasses the refusing ``__setattr__``
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        # the compared fields' getter, built once per class: ``attrgetter``
        # of two or more names gives their tuple in C, of one its bare value
        names = [name for name in cls.__slots__ if name not in cls._uncompared]
        if len(names) < 2:
            raise TypeError(f"{cls.__name__} must compare at least two fields")
        cls._compared = staticmethod(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = self._compared
        return compared(self) == compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class InducedResult(Record):
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

    __slots__ = ("induced", "return_times", "ends", "parent_top")

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

    Returns the next lattice (ends, offsets, weights, pulled): the ends of
    the return pieces from 0 to ``top``, their offsets, their sums of
    weights[i] over the cells their orbits cross before returning, and the
    points of [0, top) whose orbit meets one of the sorted ``singulars`` on
    the way, the start included.  A piece is cut where it crosses a cut or
    re-enters, so the pieces tile [0, top); ``Iet.from_lattice`` checks
    that their images do.  Raises ReturnTimeExceeded(max_steps, top / denom) past ``max_steps``
    steps; ``denom``, the lattice's denominator, is read only to name the
    scale in an error.
    """
    done: list[tuple[int, int, int]] = []
    pulled: set[int] = set()
    work = deque([(0, top, 0, 0, 0)])
    # bound once: the loop below runs once per cell an orbit piece crosses
    finish, pending, next_piece = done.append, work.append, bisect.bisect_right
    while work:
        lo, hi, off, steps, weight = work.popleft()
        if steps >= max_steps:
            raise ReturnTimeExceeded(max_steps, scale=Fraction(top, denom))
        steps += 1
        cur_lo, cur_hi = lo + off, hi + off
        if singulars:  # skips the lookup where nothing is pulled back, as in ``induce``
            i, j = bisect.bisect_left(singulars, cur_lo), bisect.bisect_left(singulars, cur_hi)
            pulled.update(q - off for q in singulars[i:j])
        piece = next_piece(cuts, cur_lo) - 1
        u = cur_lo
        while u < cur_hi:
            v = cuts[piece + 1]
            if v > cur_hi:
                v = cur_hi
            tau = shifts[piece]
            noff = off + tau
            nweight = weight + weights[piece]
            if v + tau <= top:
                finish((u - off, noff, nweight))
            elif u + tau >= top:
                pending((u - off, v - off, noff, steps, nweight))
            else:
                mid = top - noff
                finish((u - off, noff, nweight))
                pending((mid, v - off, noff, steps, nweight))
            u = v
            piece += 1

    done.sort()  # by start: the starts are distinct
    starts, offsets, totals = zip(*done)
    return (*starts, top), offsets, totals, pulled


def induced_lattice(denom0: int, cuts, shifts, weights, singulars, b, m: int, max_steps=None):
    """``first_returns`` to [0, b) of cells, shifts, weights and sorted
    singular points over ``denom0``, lifted onto the lattice that
    ``base_lattice`` sets up and checks b on, within ``max_steps``, by
    default ``default_return_budget`` of an m-interval parent.  Returns the
    lattice's denominator, then the kernel's next lattice."""
    denom, lift, top = base_lattice(denom0, cuts[-1], b)
    if lift != 1:
        cuts, shifts = [c * lift for c in cuts], [t * lift for t in shifts]
        singulars = [q * lift for q in singulars]
    if max_steps is None:
        max_steps = default_return_budget(m, cuts[-1], top)
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    return denom, *first_returns(cuts, shifts, weights, singulars, top, max_steps, denom)


def induce(parent: Iet, b: RationalLike, max_steps: int | None = None) -> InducedResult:
    """First-return map of ``parent`` to [0, b) by exact interval propagation.

    One ``induced_lattice`` over the parent's intervals, each weighing one
    step, so a piece's weight is its return time; neighbouring pieces that
    agree on translation and return time then merge.  Raises
    ReturnTimeExceeded when a piece fails to return within ``max_steps``,
    by default ``default_return_budget``: a guess that ordinary exchanges
    and bases exceed, where a larger budget succeeds.
    """
    # every cut, offset and piece end below is an integer multiple of
    # 1/denom; a walk step's b sits on the parent's lattice, read as it is
    denom, cuts, offsets, times, _ = induced_lattice(
        parent.denom, parent.cuts, parent.shifts, [1] * parent.m, (), b, parent.m, max_steps
    )

    # return-time partition: merge neighbours agreeing on translation and
    # time; the canonical map merges on translation alone, so an induction
    # cut that leaves neighbours continuous as a map yet with distinct
    # return times makes the pieces genuinely refine the canonical intervals
    ends, shifts, steps = [0], [], []
    for hi, off, k in zip(cuts[1:], offsets, times):
        if steps and shifts[-1] == off and steps[-1] == k:
            ends[-1] = hi
        else:
            ends.append(hi)
            shifts.append(off)
            steps.append(k)

    induced = Iet.from_lattice(denom, ends, shifts)
    return InducedResult(induced, tuple(steps), tuple(ends), parent.cuts[-1] * (denom // parent.denom))


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
    beta = iet.image_order[-1]  # the interval whose image is rightmost
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


class RauzyStep(Record):
    """One Rauzy move: its ``kind``, "top" or "bottom", and the state ``after`` it."""

    __slots__ = ("kind", "after")


class RauzyTrajectory(Record):
    """A finite run of Rauzy moves with the surviving base lengths.

    ``steps`` are the ``RauzyStep``s; ``scales[n-1]`` is the unnormalized
    base length after n moves, a strictly decreasing sequence; and
    ``halt_reason`` is "depth_reached" or "tie_encountered".  Merging of
    removable breakpoints can lower the interval count along the way, so
    m is non-increasing.
    """

    __slots__ = ("steps", "scales", "halt_reason")


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


def edge_count(cuts, shifts) -> int:
    """The most pairwise disjoint virtual edges of the exchange moving
    [cuts[i], cuts[i + 1]) by shifts[i] (``edges.max_disjoint_edges``): a
    piece with tau > 0 holds (L - 1) // (2 tau) = ceil(L / (2 tau)) - 1 on
    integers, its family's ceil((L - 2 tau) / (2 tau)) where 2 tau < L and
    0 otherwise; the walk's runs add and subtract the same term."""
    total = 0
    for i, tau in enumerate(shifts):
        if tau > 0:
            total += (cuts[i + 1] - cuts[i] - 1) // (2 * tau)
    return total


_RUN_COUNT = "a run to {} counts {} edges, its first return {}"


def probe_counts(iet: Iet, timed: bool = False) -> Iterator[tuple[int, int, bool, Iet, int, int | None]]:
    """The probe walk of ``iet``, lazily, ending after an identity map: per
    scale its numerator over ``iet.denom``, the state's ``edge_count``,
    whether the walk has passed a tie or a reducible permutation, the last
    materialized state (the anchor) with the number of moves past it, and,
    when ``timed``, the longest return time to the scale, in steps of
    ``iet``; untimed, that entry is None.

    From an anchor, a run of Rauzy moves of one type is done on integers.
    Labels keep their lengths, shifts and return times, which start as
    ones; a move takes the winner's length down by the loser's and adds
    the winner's shift and return time to the loser's (Veech's h' = B^T h).
    In a top run the winner is the domain-last interval and the losers are
    the intervals whose images lie right of its image, from the right,
    cyclically; in a bottom run the winner is the image-last interval and
    the losers those right of it in the domain.  Only those two terms of
    the count change.  A run ends before a move of the other type, a tie or
    a move that makes equal-shift neighbours merge; the state there is one
    ``first_returns`` over the anchor's cells with the budget moves + 1 (a
    move adds at most one step to a return), whose next lattice is the
    next anchor's, and its count and longest return must equal the run's.
    Untimed, the cells are the anchor's intervals with zero weights; timed,
    they carry return times and the next lattice becomes the cells.  A run
    starts only where the cells are the anchor's intervals.  A tie (L_last
    == L_beta, beta the image-last interval), a merge, a reducible anchor
    or cells that refine its intervals take the same first return, within
    two steps, to the base of one Rauzy move, b - min(L_last, L_beta).

    A run is checked when the entry after it is asked for; the probes
    read the walk through ``probe_prefix``, which checks the run they stop
    inside.  ``close_at_point`` does not: each closing is re-checked by its
    box and twist, and a timed check would need the walk's cells.
    """
    denom, anchor, tied, moves = iet.denom, iet, False, 0
    count, longest, cells = edge_count(iet.cuts, iet.shifts), None, None
    if timed:
        cells, longest = (iet.cuts, iet.shifts, (1,) * iet.m), 1
    while anchor.m > 1:
        cuts, shifts, perm = anchor.cuts, list(anchor.shifts), anchor.permutation
        image, m = anchor.image_order, len(shifts)  # image: the intervals by image
        # a run ends in a Rauzy state, and Rauzy moves keep a permutation irreducible
        irreducible = moves > 0 or is_irreducible(perm)
        lengths = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        top, moves = cuts[m], 0
        beta = image[-1]
        runs = cells is None or len(cells[0]) == m + 1  # one weight per interval
        if runs and irreducible and lengths[m - 1] != lengths[beta]:
            sums = None if cells is None else list(cells[2])
            bottom = lengths[m - 1] < lengths[beta]
            if bottom:  # ``after`` is the label right of the winner in the domain
                w, losers, after = beta, range(m - 1, beta, -1), beta + 1
            else:
                w = m - 1
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
                    if sums:
                        sums[x] = total = sums[x] + sums[w]
                        longest = max(longest, total)
                    shifts[x], lw, top, moves = tx, lw - lx, top - lx, moves + 1
                    yield top, count, tied, anchor, moves, longest
                else:
                    continue
                break
        if not moves:  # the Rauzy move's base, b - min(L_last, L_beta)
            top = cuts[m] - min(lengths[m - 1], lengths[beta])
            tied = tied or lengths[m - 1] == lengths[beta] or not irreducible
        steps = moves + 1 if moves else 2  # a chained step returns within two
        # untimed, the cells are the anchor's intervals, weighing nothing
        walked = cells or (cuts, anchor.shifts, [0] * m)
        ends, offsets, totals, _ = first_returns(*walked, (), top, steps, denom)
        anchor = Iet.from_lattice(denom, ends, offsets)
        found = edge_count(anchor.cuts, anchor.shifts)
        most = None
        if timed:
            cells, most = (ends, offsets, totals), max(totals)
        if not moves:
            count, longest = found, most
            yield top, count, tied, anchor, 0, longest
        elif found != count:
            raise NotInduced(_RUN_COUNT.format(Fraction(top, denom), count, found))
        elif most != longest:
            b = Fraction(top, denom)
            raise NotInduced(f"a run to {b} returns within {longest}, its first return within {most}")


def probe_prefix(iet: Iet, depth: int, threshold: int = 0) -> list[tuple[int, int, bool, Iet, int, None]]:
    """The first ``depth`` entries of the untimed ``probe_counts``, cut
    after the first whose count is below ``threshold``: the walk as a probe
    reads it.  The entry it stops on is checked: inside a run (moves > 0),
    the state there is ``induce`` from the entry's anchor with the budget
    moves + 1, and its ``edge_count`` must equal the entry's count, else
    NotInduced names the scale; at an anchor there is nothing left to
    check."""
    prefix = []
    for entry in islice(probe_counts(iet), depth):
        prefix.append(entry)
        if entry[1] < threshold:
            break
    if prefix and prefix[-1][4]:
        top, count, _, anchor, moves, _ = prefix[-1]
        b = Fraction(top, anchor.denom)
        state = induce(anchor, b, moves + 1).induced
        found = edge_count(state.cuts, state.shifts)
        if found != count:
            raise NotInduced(_RUN_COUNT.format(b, count, found))
    return prefix


def probe_walk(iet: Iet) -> Iterator[tuple[Iet, bool]]:
    """The states of ``probe_counts``, each with whether the walk has passed
    a tie or a reducible permutation.  A state is built when it is reached:
    within a run, as the first return from the state before it, within two
    steps; else it is the core's anchor.  Away from ties and reducible
    permutations the states are the Rauzy states, which ``rauzy_step``
    computes by an independent route (see ``check_induction_consistency``)."""
    state = iet
    for top, _, tied, anchor, moves, _ in probe_counts(iet):
        state = induce(state, Fraction(top, iet.denom), 2).induced if moves else anchor
        yield state, tied


def rescale(iet: Iet, to_base: RationalLike) -> Iet:
    """Conjugate by the linear map taking the base onto [0, to_base)."""
    to_base = as_rational(to_base)
    if to_base <= 0:
        raise ValueError("target base must be positive")
    factor = to_base / iet.base_length
    return make_iet([x * factor for x in iet.lengths], iet.permutation)


class ConsistencyEntry(Record):
    """Whether the n-th states of the two routes agree, at base ``scale``."""

    __slots__ = ("n", "scale", "passed")


class ConsistencyReport(Record):
    """Per-depth agreement between the Rauzy route and the first-return
    route: the ``ConsistencyEntry``s and a ``halt_reason``, one of
    depth_reached, tie_encountered and reducible."""

    __slots__ = ("entries", "halt_reason")

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
