"""Suspension flows, simple flow boxes, and twist closing.

The surface flow is modeled as a suspension: unit-speed upward flow under a
piecewise-constant roof over an exchange's base interval, with the roof top
over x glued to (E(x), 0).  The return map to the base is the exchange
itself; a finite set of singular points on the base marks orbits that die
before returning.

A virtual orthogonal edge [a, c] with midpoint b = E(a) bounds a simple
flow box: the strip over [a, b] whose glued top is [b, c].  Its boundary is
the figure-eight made of the two-flight orbit arc a -> b -> c and the base
segment [a, c], meeting at the vertex b.

The twist perturbation adds a horizontal drift of velocity t * drift_rate,
supported exactly on the box strip.  Positive drift_rate displaces box
crossings toward c.  Because the untwisted crossing already advances by
the positive edge offset, a closed orbit through the vertex appears only
when the drift pulls crossings back toward a, so closing runs use a
negative rate and a twist parameter t in [0, sigma_max].  At the
closing parameter the orbit through the vertex b crosses the box once and
returns exactly to b.

Flows and boxes are stored on integer lattices, as exchanges are, with
their public ``Fraction``s built when read.  The edge pick hands each
candidate's numerators to one box core, which checks the singular points
and the roof cell; ``build_flow_box`` validates its edge first.  The
closing parameter has a closed form, evaluated in floating point without
any search; the float twisted kernel, whose floats are read off the
lattices, re-validates it by forward integration.

Closing walks down the scales of the probe walk (``probe_counts``; Rauzy
states away from ties, cross-checked by ``rauzy_step``), with return
times carried through each run of Rauzy moves on integers, and stops on
exact invariants: a scale <= p or an identity return map.  It also stops
where a return outgrows the budget ``induce`` would give that scale.  A
first-return suspension is built only at a scale whose edge count meets
the quota, from the previous closing's suspension, by one
``induction.induced_lattice`` over the flow's cells and their shifts,
weighted by the roofs: the next lattice it returns is the new flow's.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    ContinuationBroken,
    LeftBoxUndefined,
    NoClosingInRange,
    NoEdgeInNeighborhood,
    ReturnTimeExceeded,
    SingularityInBox,
)
from .edges import DEFAULT_WITNESS_GAP, ClosingCriterion, VirtualEdge
from .iet import Iet, RationalLike, as_rational, lattice_cell
# unused ``induce`` is read by test_tracer_rebinds_every_import_site_and_restores_them
from .induction import Record, check_count, default_return_budget, induce, induced_lattice, probe_counts

SINGULAR_SNAP = 1e-12


def _numerators(values, denom: int) -> tuple[int, ...]:
    return tuple(x.numerator * (denom // x.denominator) for x in values)


def _fractions(nums, denom: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, denom) for n in nums)


@dataclass(frozen=True, init=False)
class SuspensionFlow:
    """Roof function over an exchange plus singularity bookkeeping.

    ``roof`` holds one positive time per cell of ``partition``; the
    partition defaults to the base breakpoints, sharing the base's cuts,
    and may refine them (first return flows carry accumulated roofs over
    their return-time pieces).
    ``singular_points`` are base points whose forward orbit is undefined;
    ``K`` is the singularity count of the modeled surface flow.

    Like ``Iet``, a flow is stored as integers: ``cuts`` (the partition),
    ``shifts`` (each cell's translation, set once from the base or, for a
    first return, from its kernel) and ``sing`` (the sorted singular
    points) over ``denom``, a multiple of ``base.denom``, and ``rnums``,
    the roofs over ``rden``.  The public
    ``Fraction``s are built on first read, then cached; equality, hashing
    and the repr read them.
    """

    base: Iet
    roof: tuple[Fraction, ...] = cached_property(lambda f: _fractions(f.rnums, f.rden))
    singular_points: tuple[Fraction, ...] = cached_property(lambda f: _fractions(f.sing, f.denom))
    K: int
    partition: tuple[Fraction, ...] = cached_property(lambda f: _fractions(f.cuts, f.denom))

    def __init__(self, base: Iet, roof, singular_points=(), K: int = 0, partition=None):
        roof = [as_rational(r) for r in roof]
        sing = [as_rational(q) for q in singular_points]
        part = [as_rational(c) for c in partition or ()]
        denom = math.lcm(base.denom, *(x.denominator for x in (*part, *sing)))
        lift = denom // base.denom
        if partition is not None:
            cuts = _numerators(part, denom)
        else:  # the base's own cuts, lifted only for a finer singular point
            cuts = base.cuts if lift == 1 else tuple(c * lift for c in base.cuts)
        if len(roof) != len(cuts) - 1:
            raise ValueError("need one roof value per partition cell")
        if any(r.numerator <= 0 for r in roof):
            raise ValueError("roof values must be strictly positive")
        if partition is not None:
            increasing = all(a < c for a, c in zip(cuts, cuts[1:]))
            if cuts[0] != 0 or cuts[-1] != base.cuts[-1] * lift or not increasing:
                raise ValueError("partition must increase from 0 to the base length")
            if not set(cuts).issuperset(c * lift for c in base.cuts):
                raise ValueError("partition must refine the base breakpoints")
            # a cell lies in one base piece: the piece of its left cut's floor on the base lattice
            pieces = (bisect.bisect_right(base.cuts, c // lift) - 1 for c in cuts[:-1])
            shifts = [base.shifts[i] * lift for i in pieces]
        else:
            shifts = base.shifts if lift == 1 else [t * lift for t in base.shifts]
        sing = tuple(sorted(_numerators(sing, denom)))
        if sing and (sing[0] < 0 or sing[-1] >= cuts[-1]):
            raise ValueError("singular points must lie in [0, base)")
        if len(set(sing)) < len(sing):
            raise ValueError("singular points must be distinct")
        if type(K) is not int:
            raise ValueError("K must be an integer")
        if K < 0:
            raise ValueError("K must be >= 0")
        rden = math.lcm(*(r.denominator for r in roof))
        self._set(base, K, denom, cuts, tuple(shifts), sing, rden, _numerators(roof, rden))

    def _set(self, *lattice) -> SuspensionFlow:
        # unchecked: ``__init__`` and ``induced_suspension`` pass checked lattices
        names = ("base", "K", "denom", "cuts", "shifts", "sing", "rden", "rnums")
        for name, value in zip(names, lattice):
            object.__setattr__(self, name, value)
        return self

    def roof_at(self, x: RationalLike) -> Fraction:
        """Roof over x; raises OutOfDomain outside [0, base)."""
        return self.roof[lattice_cell(self.cuts, self.denom, as_rational(x))]


class FlowBox(Record):
    """Simple flow box over a virtual orthogonal edge, stored as integers:
    the vertices a, b and c over ``denom`` and the roofs ``r1`` and ``r2``
    of its two flights over ``rden``.

    ``tangent_edge`` lists the orbit arc as (base segment, flight time)
    pairs from a_bar through b_bar to c_bar; ``total_height`` is the time
    length of that arc.  The box itself is the strip over [a_bar, b_bar],
    of height ``strip_height``.  These ``Fraction``s are built on read;
    boxes compare by value, on any lattice."""

    __slots__ = ("denom", "a", "b", "c", "rden", "r1", "r2")

    a_bar = property(lambda box: Fraction(box.a, box.denom))
    b_bar = property(lambda box: Fraction(box.b, box.denom))
    c_bar = property(lambda box: Fraction(box.c, box.denom))
    orthogonal_edge = property(lambda box: (box.a_bar, box.c_bar))
    strip_height = property(lambda box: Fraction(box.r1, box.rden))
    total_height = property(lambda box: Fraction(box.r1 + box.r2, box.rden))

    @property
    def tangent_edge(self) -> tuple:
        r2 = Fraction(self.r2, self.rden)
        return ((self.a_bar, self.b_bar), self.strip_height), ((self.b_bar, self.c_bar), r2)

    def __eq__(self, other) -> bool:
        return isinstance(other, FlowBox) and self.tangent_edge == other.tangent_edge

    def __hash__(self) -> int:
        return hash(self.tangent_edge)


def _box(flow: SuspensionFlow, denom: int, a: int, b: int, c: int) -> FlowBox:
    """The box over [a, c] with vertex b, numerators over a multiple
    ``denom`` of ``flow.denom``; the caller passes an edge of the base.
    Raises SingularityInBox when a singular point lies on [a, c] and
    ValueError when the strip [a, b] leaves its roof cell."""
    sing, cuts, lift = flow.sing, flow.cuts, denom // flow.denom
    k = bisect.bisect_left(sing, -(-a // lift))  # the first singular point >= a
    if k < len(sing) and sing[k] * lift <= c:
        raise SingularityInBox(Fraction(sing[k], flow.denom))
    cell = bisect.bisect_right(cuts, a // lift) - 1
    if cuts[cell + 1] * lift < b:
        raise ValueError("roof is not constant over the box strip")
    r2 = flow.rnums[bisect.bisect_right(cuts, b // lift) - 1]
    return FlowBox(denom, a, b, c, flow.rden, flow.rnums[cell], r2)


def build_flow_box(flow: SuspensionFlow, edge: VirtualEdge) -> FlowBox:
    """The simple flow box bounded by the edge and its orbit arc, on the
    least lattice holding both.  Raises OutOfDomain or ValueError for an
    edge ``VirtualEdge.validate`` rejects and SingularityInBox when a
    singular point lies on [a_bar, c_bar] (either flight would die)."""
    edge.validate(flow.base)
    ends = (edge.s, edge.e1, edge.t)
    denom = math.lcm(flow.denom, *(x.denominator for x in ends))
    return _box(flow, denom, *_numerators(ends, denom))


class TwistFamily(Record):
    """One-parameter twist of the suspension, supported on the box strip.

    For twist parameter t in [0, sigma_max] the horizontal velocity inside
    the strip is t * drift_rate (positive rates push crossings toward
    c_bar, negative rates toward a_bar).
    """

    __slots__ = ("flow", "box", "sigma_max", "drift_rate")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.sigma_max < 0 or not math.isfinite(self.sigma_max):
            raise ValueError("sigma_max must be a finite nonnegative real")
        if not math.isfinite(self.drift_rate):
            raise ValueError("drift_rate must be finite")


def make_twist_family(
    flow: SuspensionFlow,
    box: FlowBox,
    drift_rate: float = -4.0,
    sigma_max: float | None = None,
) -> TwistFamily:
    """Twist family with the default budget (c_bar - a_bar) / (2 *
    total_height).  At rate -4 the closing parameter is (r1 + r2) / (4 * r1)
    of that budget, r1 and r2 being the roofs of the two flights: half of it
    when they are equal, past it (NoClosingInRange) when r2 > 3 * r1."""
    if sigma_max is None:
        sigma_max = (box.c - box.a) / box.denom / (2.0 * ((box.r1 + box.r2) / box.rden))
    return TwistFamily(flow, box, sigma_max, drift_rate)


def _check_coherent(family: TwistFamily) -> None:
    """ContinuationBroken unless the base exchange maps a to b, then b to c,
    read on the least lattice holding base and box; OutOfDomain, as from
    ``Iet.evaluate``, where the vertex mapped lies outside the base."""
    base, box = family.flow.base, family.box
    denom = math.lcm(base.denom, box.denom)
    up, lift, cuts = denom // base.denom, denom // box.denom, base.cuts
    for x, y in ((box.a * lift, box.b * lift), (box.b * lift, box.c * lift)):
        if not 0 <= x < cuts[-1] * up:
            lattice_cell(cuts, base.denom, Fraction(x, denom))  # raises OutOfDomain
        if x + base.shifts[bisect.bisect_right(cuts, x // up) - 1] * up != y:
            raise ContinuationBroken("box vertices do not follow the flow's return map")


def _near_singular(x: float, flow: SuspensionFlow) -> bool:
    d, sing = flow.denom, flow.sing
    i = bisect.bisect_left(sing, x - SINGULAR_SNAP, key=lambda q: q / d)
    return i < len(sing) and sing[i] / d <= x + SINGULAR_SNAP


def twisted_return(family: TwistFamily, t: float, x: float) -> tuple[float, float]:
    """Next base crossing of the t-twisted flow started at x.

    Returns (position, flight time).  Drift acts only while the orbit is
    inside the box strip; an orbit that would leave the strip sideways
    rises vertically along the wall for the rest of its flight.  Raises
    LeftBoxUndefined when the start or landing point sits in a singular
    gap.
    """
    if not 0 <= t <= family.sigma_max:
        raise ValueError(f"twist {t} outside [0, {family.sigma_max}]")
    flow = family.flow
    if not 0.0 <= x < flow.cuts[-1] / flow.denom:
        raise ValueError(f"{x} outside the base interval")
    if _near_singular(x, flow):
        raise LeftBoxUndefined(f"orbit starts in the singular gap at {x}")

    box = family.box
    # int / int rounds as float(Fraction) does: here and below, public values' floats
    a, b, r1 = box.a / box.denom, box.b / box.denom, box.r1 / box.rden
    tau = b - a  # box strip sits inside one continuity interval
    v = t * family.drift_rate

    enters_strip = (v > 0 and a <= x < b) or (v < 0 and a < x <= b)
    if v != 0 and enters_strip:
        y_wall = (b - x) / v if v > 0 else (a - x) / v
        if y_wall >= r1:
            x_top = x + v * r1
        else:
            x_top = b if v > 0 else a
        position = x_top + tau
        time = r1
    else:
        cell = bisect.bisect_right(flow.cuts, x, key=lambda c: c / flow.denom) - 1
        position = x + flow.shifts[cell] / flow.denom
        time = flow.rnums[cell] / flow.rden

    if _near_singular(position, flow):
        raise LeftBoxUndefined(f"twisted orbit exits into the singular gap at {position}")
    return position, time


def continuation_curve(family: TwistFamily, steps: int) -> list[tuple[float, float]]:
    """Sample the endpoint of the backward twisted arc from the vertex
    b_bar over [0, sigma_max].

    The arc descends the strip from the glued top over a_bar; with drift
    toward a_bar it lands at a_bar + |t * drift| * height, clamped at the
    vertex once the closing parameter is passed.  With drift away from
    a_bar the arc hugs the tangent edge and the endpoint stays a_bar.  So
    the sampled curve starts at a_bar, is monotone in t, and every sampled
    arc crosses the base transversally (the roof is strictly positive).
    Raises ContinuationBroken or OutOfDomain from ``_check_coherent``.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _check_coherent(family)
    box, sigma, drift = family.box, family.sigma_max, family.drift_rate
    a, b, r1 = box.a / box.denom, box.b / box.denom, box.r1 / box.rden
    points = []
    for i in range(steps):
        t = sigma * i / (steps - 1)
        u = t * drift
        points.append((t, a if u >= 0 else min(a - u * r1, b)))
    return points


@dataclass(frozen=True)
class ClosingResult:
    """A closing parameter with its verified closed orbit."""

    sigma1: float
    periodic_point: float
    orbit_trace: tuple[tuple[float, float], ...]
    residual: float
    iterations: int = 0  # search steps; the closed form takes none
    scale: Fraction | None = None
    hit_bound: bool = False
    family: TwistFamily | None = field(default=None, repr=False, compare=False)


def find_closing_parameter(
    family: TwistFamily,
    tolerance: float = 1e-9,
    scale: Fraction | None = None,
) -> ClosingResult:
    """Closed-form twist parameter closing the vertex orbit.

    The backward arc from b_bar lands at a_bar + |t * drift_rate| *
    strip_height (see ``continuation_curve``), so it first reaches the
    vertex at sigma1 = (b_bar - a_bar) / (strip_height * -drift_rate).  The
    result is re-validated by forward integration of the twisted flow from
    the periodic point; the residual must come out within ``tolerance``.
    Raises NoClosingInRange for a zero budget, a drift that does not pull
    toward a_bar, or a budget too small for the box; ContinuationBroken or
    OutOfDomain from ``_check_coherent``.
    """
    _check_coherent(family)
    sigma = family.sigma_max
    box = family.box
    if sigma <= 0:
        raise NoClosingInRange("sigma_max is zero; no twist budget")
    if family.drift_rate >= 0:
        raise NoClosingInRange("drift does not pull crossings back toward a_bar")
    sigma1 = (box.b - box.a) / box.denom / (box.r1 / box.rden * -family.drift_rate)
    if sigma1 > sigma:
        raise NoClosingInRange(
            f"closing parameter {sigma1} exceeds sigma_max {sigma}; "
            "shrink the box or extend the twist budget"
        )

    b = box.b / box.denom
    position, flight = twisted_return(family, sigma1, b)
    residual = abs(position - b)
    if residual > tolerance:
        raise NoClosingInRange(
            f"closing verification failed: forward residual {residual} above {tolerance}"
        )
    return ClosingResult(
        sigma1=sigma1,
        periodic_point=b,
        orbit_trace=((b, 0.0), (position, flight)),
        residual=residual,
        scale=scale,
        hit_bound=sigma1 == sigma,
        family=family,
    )


# -- shrinking-neighborhood closing pipeline ---------------------------------


def induced_suspension(flow: SuspensionFlow, b: RationalLike) -> SuspensionFlow:
    """First-return suspension over [0, b): accumulated roofs and the
    pulled-back singular set.

    The roof over a point is the total flight time of its return orbit; a
    point is singular for the induced flow when its orbit meets a singular
    point of the parent before returning.  One ``induced_lattice`` over the
    flow's cells and shifts, weighted by the roofs on integer numerators,
    gives both: its pieces split wherever an orbit crosses a cut of the
    partition, so each cell of the output partition has one roof, and
    their offsets are the new cells' shifts.
    """
    # the flow's lattice is lifted only when b's denominator does not divide it
    denom, ends, offsets, roofs, pulled = induced_lattice(
        flow.denom, flow.cuts, flow.shifts, flow.rnums, flow.sing, b, flow.base.m
    )
    lattice = (denom, ends, offsets, tuple(sorted(pulled)), flow.rden, roofs)
    return object.__new__(SuspensionFlow)._set(Iet.from_lattice(denom, ends, offsets), flow.K, *lattice)


def _return_maps(base: Iet, p: Fraction) -> Iterator[tuple]:
    """The entries of the timed ``probe_counts`` on ``base`` above p,
    lazily, ending after an identity map: every smaller return map of an
    identity is the identity too.

    Return times start from ones, so each entry's last term is the longest
    return to its scale, in steps of ``base``.  A return longer than the
    budget ``induce`` gives the scale, ``default_return_budget`` on the
    lattice of ``base``, raises ReturnTimeExceeded, so a long run of small
    steps (a rotation by 1/N shrinks the base by 1/N a step) ends the walk.
    Both checks run at every scale, the cutoff first.  No budget is below
    the one at b = base, as b <= base, so it is computed only past that.
    """
    m, denom, base_top = base.m, base.denom, base.cuts[-1]
    cutoff = p.numerator * denom // p.denominator  # b <= p exactly when top <= cutoff
    least = default_return_budget(m, base_top, base_top)
    for entry in probe_counts(base, timed=True):
        top, longest = entry[0], entry[5]  # on the lattice of ``base``
        if top <= cutoff:
            return
        if longest > least:
            budget = default_return_budget(m, base_top, top)
            if longest > budget:
                raise ReturnTimeExceeded(budget, scale=Fraction(top, denom))
        yield entry


def _pick_admissible_edge(flow: SuspensionFlow, blocked: list) -> FlowBox | None:
    """The box over the leftmost edge whose strip stays under one roof cell
    and whose span avoids every singular point.

    An edge family lives in one base piece, so only its partition cells
    are scanned, on integers.  A cell's candidates, its leftmost start and
    the start ``DEFAULT_WITNESS_GAP`` past each singular point in it (or
    half way to the cell's end), go to ``_box`` in turn; each one blocked
    is appended to ``blocked`` as a ``VirtualEdge`` with its singular point."""
    base, cuts, sing, d = flow.base, flow.cuts, flow.sing, flow.denom
    lift, gap = d // base.denom, DEFAULT_WITNESS_GAP
    for i, tau in enumerate(base.shifts):
        lo, off = base.cuts[i] * lift, tau * lift
        s_sup = base.cuts[i + 1] * lift - 2 * off
        if tau <= 0 or s_sup <= lo:
            continue  # no edge family in this piece
        for j in range(bisect.bisect_left(cuts, lo), bisect.bisect_left(cuts, s_sup)):
            sub_lo, sub_sup = cuts[j], min(s_sup, cuts[j + 1] - off)
            if sub_lo >= sub_sup:
                continue
            starts = [(d, sub_lo)]
            hits = sing[bisect.bisect_left(sing, sub_lo) : bisect.bisect_left(sing, sub_sup)]
            if hits:  # q + min(gap, (sub_sup - q) / 2), on a lattice holding both
                fine = math.lcm(2 * d, gap.denominator)
                up, half, step = fine // d, fine // (2 * d), gap.numerator * (fine // gap.denominator)
                starts += [(fine, q * up + min(step, (sub_sup - q) * half)) for q in hits]
            for denom, s in starts:
                u = off * (denom // d)
                ends = (s, s + u, s + 2 * u)
                try:
                    return _box(flow, denom, *ends)
                except SingularityInBox as exc:
                    blocked.append((VirtualEdge(*_fractions(ends, denom)), exc.point))
    return None


def close_at_point(
    flow: SuspensionFlow,
    p: RationalLike,
    criterion: ClosingCriterion,
    shrink_steps: int,
    tolerance: float = 1e-9,
) -> list[ClosingResult]:
    """Close orbits through shrinking neighborhoods [0, b_n) of p.

    The steps share one lazy walk down the scales of the probe walk
    (``_return_maps``), which counts each scale's edges as it goes and
    builds no state within a run of Rauzy moves.  Each step takes the next
    scale whose count meets the edge quota and whose first-return
    suspension, built from the previous step's, has an admissible edge;
    its twist budget is proportional to the neighborhood width, so
    successive closing parameters shrink with the neighborhoods.  Each
    suspension's base is the walk's state at its scale, whose edge count
    ``induction.check_count`` checks against the walk's.
    Raises NoEdgeInNeighborhood(n), listing the edges a singular point
    blocked, once the walk reaches a scale <= p or an identity return map,
    below which every return map is the identity, ReturnTimeExceeded at a
    state whose return outgrows the budget (see ``_return_maps``), and
    NotInduced where a count differs.
    """
    p = as_rational(p)
    if not 0 <= p < flow.base.base_length:
        raise ValueError("p must lie in the base interval")
    if shrink_steps < 1:
        raise ValueError("shrink_steps must be >= 1")

    results: list[ClosingResult] = []
    threshold, denom = criterion.threshold, flow.base.denom
    maps = _return_maps(flow.base, p)
    for n in range(1, shrink_steps + 1):
        blocked: list = []
        for top, count, _, _, _, _ in maps:
            if count < threshold:
                continue
            b = Fraction(top, denom)
            flow_n = induced_suspension(flow, b)
            check_count(top, denom, count, flow_n.base)  # its base is the walk's state at b
            box = _pick_admissible_edge(flow_n, blocked)
            if box is not None:
                break
        else:
            raise NoEdgeInNeighborhood(n, blocked=blocked)
        flow = flow_n
        tau, r1 = (box.b - box.a) / box.denom, box.r1 / box.rden
        sigma_budget = flow.cuts[-1] / flow.denom / (2.0 * ((box.r1 + box.r2) / box.rden))
        drift = -2.0 * tau / (r1 * sigma_budget)
        family = TwistFamily(flow, box, sigma_budget, drift)
        results.append(find_closing_parameter(family, tolerance, scale=b))
    return results
