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

Flows are stored on integer lattices, as exchanges are, with their public
``Fraction``s built on first read.  The edge pick, the box's singular and
roof checks and the vertex checks read those lattices; the picked edge and
its box are exact ``Fraction``s.  The closing parameter has a closed form,
evaluated in floating point without any search; the float twisted kernel,
whose floats are read off the lattices, re-validates it by forward
integration.

Closing walks down the scales of ``probe_walk``, chained first returns to
shortened bases (Rauzy states away from ties, cross-checked by
``rauzy_step``), and stops on exact invariants: a scale <= p or an
identity return map.  It also stops where a return outgrows the budget
``induce`` would give that scale.  A first-return suspension is built
only at a scale whose return map meets the edge quota, from the previous
closing's suspension.  The return times along the walk and the roofs are
the weights of the integer kernel ``first_returns``, whose pieces are the
new flow's lattice.
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
from .edges import (
    DEFAULT_WITNESS_GAP,
    ClosingCriterion,
    VirtualEdge,
    max_disjoint_edges,
)
from .iet import Iet, RationalLike, as_rational, lattice_cell
# unused ``induce`` is read by test_tracer_rebinds_every_import_site_and_restores_them
from .induction import base_lattice, default_return_budget, first_returns, induce, return_map
from .induction import shortened_base

SINGULAR_SNAP = 1e-12


def _numerators(values, denom: int) -> tuple[int, ...]:
    return tuple(x.numerator * (denom // x.denominator) for x in values)


def _fractions(nums, denom: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, denom) for n in nums)


@dataclass(frozen=True, init=False)
class SuspensionFlow:
    """Roof function over an exchange plus singularity bookkeeping.

    ``roof`` holds one positive time per cell of ``partition``; the
    partition defaults to the base breakpoints and may refine them (first
    return flows carry accumulated roofs over their return-time pieces).
    ``singular_points`` are base points whose forward orbit is undefined;
    ``K`` is the singularity count of the modeled surface flow.

    Like ``Iet``, a flow is stored as integers: ``cuts`` (the partition)
    and ``sing`` (the sorted singular points) over ``denom``, a multiple of
    ``base.denom``, and ``rnums``, the roofs over ``rden``.  The public
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
        base_cuts = tuple(c * (denom // base.denom) for c in base.cuts)
        cuts = base_cuts if partition is None else _numerators(part, denom)
        if len(roof) != len(cuts) - 1:
            raise ValueError("need one roof value per partition cell")
        if any(r.numerator <= 0 for r in roof):
            raise ValueError("roof values must be strictly positive")
        increasing = all(a < c for a, c in zip(cuts, cuts[1:]))
        if cuts[0] != 0 or cuts[-1] != base_cuts[-1] or not increasing:
            raise ValueError("partition must increase from 0 to the base length")
        if not set(base_cuts) <= set(cuts):
            raise ValueError("partition must refine the base breakpoints")
        sing = tuple(sorted(_numerators(sing, denom)))
        if sing and (sing[0] < 0 or sing[-1] >= cuts[-1]):
            raise ValueError("singular points must lie in [0, base)")
        if len(set(sing)) < len(sing):
            raise ValueError("singular points must be distinct")
        if K < 0:
            raise ValueError("K must be >= 0")
        rden = math.lcm(*(r.denominator for r in roof))
        self._set(base, K, denom, cuts, sing, rden, _numerators(roof, rden))

    def _set(self, *lattice) -> SuspensionFlow:
        # unchecked: ``__init__`` and ``induced_suspension`` pass checked lattices
        for name, value in zip(("base", "K", "denom", "cuts", "sing", "rden", "rnums"), lattice):
            object.__setattr__(self, name, value)
        return self

    def roof_at(self, x: RationalLike) -> Fraction:
        """Roof over x; raises OutOfDomain outside [0, base)."""
        return self.roof[lattice_cell(self.cuts, self.denom, as_rational(x))]


@dataclass(frozen=True)
class FlowBox:
    """Simple flow box over a virtual orthogonal edge.

    ``tangent_edge`` lists the orbit arc as (base segment, flight time)
    pairs from a_bar through b_bar to c_bar; ``total_height`` is the time
    length of that arc.  The box itself is the strip over [a_bar, b_bar].
    """

    a_bar: Fraction
    b_bar: Fraction
    c_bar: Fraction
    orthogonal_edge: tuple[Fraction, Fraction]
    tangent_edge: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...]
    total_height: Fraction

    @property
    def strip_height(self) -> Fraction:
        """Flight time over the entry segment [a_bar, b_bar]."""
        return self.tangent_edge[0][1]


def _first_singular(sing, d: int, lo, hi) -> int | None:
    """The first of the sorted numerators ``sing`` over ``d`` in [lo, hi],
    lo and hi being integers or ``Fraction``s, or None."""
    k = bisect.bisect_left(sing, -(-lo.numerator * d // lo.denominator))
    if k < len(sing) and sing[k] * hi.denominator <= hi.numerator * d:
        return sing[k]
    return None


def build_flow_box(flow: SuspensionFlow, edge: VirtualEdge) -> FlowBox:
    """Assemble the simple flow box bounded by the edge and its orbit arc.

    Raises SingularityInBox when a singular point lies on [a_bar, c_bar]
    (either flight would die).
    """
    edge.validate(flow.base)
    a_bar, b_bar, c_bar = edge.s, edge.e1, edge.t
    d = flow.denom

    hit = _first_singular(flow.sing, d, a_bar, c_bar)
    if hit is not None:
        raise SingularityInBox(Fraction(hit, d))

    cell = lattice_cell(flow.cuts, d, a_bar)
    if flow.cuts[cell + 1] * b_bar.denominator < b_bar.numerator * d:
        raise ValueError("roof is not constant over the box strip")
    n1, n2 = flow.rnums[cell], flow.rnums[lattice_cell(flow.cuts, d, b_bar)]
    r1, r2 = Fraction(n1, flow.rden), Fraction(n2, flow.rden)
    return FlowBox(
        a_bar=a_bar,
        b_bar=b_bar,
        c_bar=c_bar,
        orthogonal_edge=(a_bar, c_bar),
        tangent_edge=(((a_bar, b_bar), r1), ((b_bar, c_bar), r2)),
        total_height=Fraction(n1 + n2, flow.rden),
    )


@dataclass(frozen=True)
class TwistFamily:
    """One-parameter twist of the suspension, supported on the box strip.

    For twist parameter t in [0, sigma_max] the horizontal velocity inside
    the strip is t * drift_rate (positive rates push crossings toward
    c_bar, negative rates toward a_bar).
    """

    flow: SuspensionFlow
    box: FlowBox
    sigma_max: float
    drift_rate: float

    def __post_init__(self):
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
        sigma_max = float(box.c_bar - box.a_bar) / (2.0 * float(box.total_height))
    return TwistFamily(flow, box, sigma_max, drift_rate)


def _check_coherent(family: TwistFamily) -> None:
    base = family.flow.base
    box = family.box
    if not base._maps_to(box.a_bar, box.b_bar) or not base._maps_to(box.b_bar, box.c_bar):
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

    a = float(family.box.a_bar)
    b = float(family.box.b_bar)
    r1 = float(family.box.strip_height)
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
        # int / int rounds correctly, as float(Fraction) does, so these
        # are the floats of the public cuts
        cell = bisect.bisect_right(flow.cuts, x, key=lambda c: c / flow.denom) - 1
        base = flow.base
        piece = bisect.bisect_right(base.cuts, x, key=lambda c: c / base.denom) - 1
        position = x + base.shifts[piece] / base.denom
        time = flow.rnums[cell] / flow.rden

    if _near_singular(position, flow):
        raise LeftBoxUndefined(f"twisted orbit exits into the singular gap at {position}")
    return position, time


def _continuation_point(family: TwistFamily, t: float) -> float:
    """Endpoint of the backward twisted arc from the vertex b_bar.

    The arc descends the strip from the glued top over a_bar; with drift
    toward a_bar it lands at a_bar + |t * drift| * height, clamped at the
    vertex once the closing parameter is passed.  With drift away from
    a_bar the arc hugs the tangent edge and the endpoint stays a_bar.
    """
    a = float(family.box.a_bar)
    b = float(family.box.b_bar)
    r1 = float(family.box.strip_height)
    u = t * family.drift_rate
    if u >= 0:
        return a
    return min(a - u * r1, b)


def continuation_curve(family: TwistFamily, steps: int) -> list[tuple[float, float]]:
    """Sample the continuation endpoint over [0, sigma_max].

    The sampled curve starts at a_bar, is monotone in t, and every sampled
    arc crosses the base transversally (the roof is strictly positive).
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _check_coherent(family)
    sigma = family.sigma_max
    points = []
    for i in range(steps):
        t = sigma * i / (steps - 1)
        pt = _continuation_point(family, t)
        points.append((t, pt))
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
    strip_height (see ``_continuation_point``), so it first reaches the
    vertex at sigma1 = (b_bar - a_bar) / (strip_height * -drift_rate).  The
    result is re-validated by forward integration of the twisted flow from
    the periodic point; the residual must come out within ``tolerance``.
    Raises NoClosingInRange for a zero budget, a drift that does not pull
    toward a_bar, or a budget too small for the box.
    """
    _check_coherent(family)
    sigma = family.sigma_max
    box = family.box
    if sigma <= 0:
        raise NoClosingInRange("sigma_max is zero; no twist budget")
    if family.drift_rate >= 0:
        raise NoClosingInRange("drift does not pull crossings back toward a_bar")
    sigma1 = float(box.b_bar - box.a_bar) / (float(box.strip_height) * -family.drift_rate)
    if sigma1 > sigma:
        raise NoClosingInRange(
            f"closing parameter {sigma1} exceeds sigma_max {sigma}; "
            "shrink the box or extend the twist budget"
        )

    b = float(box.b_bar)
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
    point of the parent before returning.  One ``first_returns`` run over
    the flow's partition, weighted by the roofs on integer numerators,
    gives both: its pieces split wherever an orbit crosses a cut of the
    partition, so each cell of the output partition has one roof.
    """
    base = flow.base
    # the flow's lattice is lifted only when b's denominator does not divide it
    denom, lift, top = base_lattice(flow.denom, flow.cuts[-1], b)
    step = denom // base.denom
    cuts, sing = flow.cuts, flow.sing
    if lift != 1:
        cuts, sing = [c * lift for c in cuts], [q * lift for q in sing]
    # a cell lies in one base piece: the piece of its left cut's floor on the base lattice
    shifts = [base.shifts[bisect.bisect_right(base.cuts, c // step) - 1] * step for c in cuts[:-1]]
    budget = default_return_budget(base.m, cuts[-1], top)
    pieces, pulled = first_returns(cuts, shifts, flow.rnums, sing, top, budget, denom)
    ends, _, _, _, weights = zip(*pieces)
    lattice = (denom, ends + (top,), tuple(sorted(pulled)), flow.rden, weights)
    return object.__new__(SuspensionFlow)._set(return_map(pieces, denom), flow.K, *lattice)


def _return_maps(base: Iet, p: Fraction) -> Iterator[Iet]:
    """The states of ``probe_walk`` on ``base`` above p, lazily, ending
    after an identity map: every smaller return map of an identity is the
    identity too.

    The return time of every point is kept on integer numerators, as cells
    of constant return time and translation.  Each state is the first
    return of the previous one to its ``shortened_base``, reached within
    two steps, so one ``first_returns`` run weighted by the return times
    gives the state and its cells.  A return longer than the budget
    ``induce`` gives the state's scale, ``default_return_budget`` on the
    lattice of ``base``, raises ReturnTimeExceeded, so a long run of small
    steps (a rotation by 1/N shrinks the base by 1/N a step) ends the walk.
    """
    state, cuts, shifts, times = base, base.cuts, base.shifts, [1] * base.m
    while state.m > 1:
        top, _ = shortened_base(state)  # on the lattice of ``base``
        if top * p.denominator <= p.numerator * base.denom:  # b <= p
            return
        pieces, _ = first_returns(cuts, shifts, times, [], top, 2, base.denom)
        state = return_map(pieces, base.denom)
        cuts, _, shifts, _, times = zip(*pieces)
        cuts += (top,)
        budget = default_return_budget(base.m, base.cuts[-1], top)
        if max(times) > budget:
            raise ReturnTimeExceeded(budget, scale=Fraction(top, base.denom))
        yield state


def _pick_admissible_edge(flow: SuspensionFlow, blocked: list) -> VirtualEdge | None:
    """Leftmost edge whose strip stays under one roof cell and whose span
    avoids every singular point.

    An edge family lives in one base piece, so only the partition cells
    inside it are scanned, on the flow's lattice.  Where a singular point
    blocks a cell's leftmost edge, the exact candidates just right of each
    singular point in the cell, ``DEFAULT_WITNESS_GAP`` past it or half
    way to the cell's end, are tried in turn."""
    base, cuts, sing, d = flow.base, flow.cuts, flow.sing, flow.denom
    lift = d // base.denom
    for i, tau in enumerate(base.shifts):
        lo, off = base.cuts[i] * lift, tau * lift
        s_sup = base.cuts[i + 1] * lift - 2 * off
        if tau <= 0 or s_sup <= lo:
            continue  # no edge family in this piece
        for j in range(bisect.bisect_left(cuts, lo), bisect.bisect_left(cuts, s_sup)):
            sub_lo, sub_sup = cuts[j], min(s_sup, cuts[j + 1] - off)
            if sub_lo >= sub_sup:
                continue
            hit = _first_singular(sing, 1, sub_lo, sub_lo + 2 * off)  # on the lattice
            if hit is None:
                return VirtualEdge(*(Fraction(sub_lo + k * off, d) for k in range(3)))
            offset = Fraction(off, d)
            candidates = [Fraction(sub_lo, d)]
            for q in sing[bisect.bisect_left(sing, sub_lo) : bisect.bisect_left(sing, sub_sup)]:
                candidates.append(Fraction(q, d) + min(DEFAULT_WITNESS_GAP, Fraction(sub_sup - q, 2 * d)))
            for s in candidates:
                edge = VirtualEdge(s, s + offset, s + 2 * offset)
                hit = _first_singular(sing, d, s, edge.t)
                if hit is None:
                    return edge
                blocked.append((edge, Fraction(hit, d)))
    return None


def close_at_point(
    flow: SuspensionFlow,
    p: RationalLike,
    criterion: ClosingCriterion,
    shrink_steps: int,
    tolerance: float = 1e-9,
) -> list[ClosingResult]:
    """Close orbits through shrinking neighborhoods [0, b_n) of p.

    The steps share one lazy walk down the scales of ``probe_walk``.  Each
    step takes the next scale whose return map meets the edge quota and
    whose first-return suspension, built from the previous step's, has an
    admissible edge; its twist budget is proportional to the neighborhood
    width, so successive closing parameters shrink with the neighborhoods.
    Raises NoEdgeInNeighborhood(n), listing the edges a singular point
    blocked, once the walk reaches a scale <= p or an identity return map,
    below which every return map is the identity, and ReturnTimeExceeded
    at a state whose return outgrows the budget (see ``_return_maps``).
    """
    p = as_rational(p)
    if not 0 <= p < flow.base.base_length:
        raise ValueError("p must lie in the base interval")
    if shrink_steps < 1:
        raise ValueError("shrink_steps must be >= 1")

    results: list[ClosingResult] = []
    maps = _return_maps(flow.base, p)
    for n in range(1, shrink_steps + 1):
        blocked: list = []
        for induced in maps:
            count, _ = max_disjoint_edges(induced, with_witness=False)
            if count < criterion.threshold:
                continue
            b = induced.base_length
            flow_n = induced_suspension(flow, b)
            edge = _pick_admissible_edge(flow_n, blocked)
            if edge is not None:
                break
        else:
            raise NoEdgeInNeighborhood(n, blocked=blocked)
        flow = flow_n
        box = build_flow_box(flow, edge)
        tau = float(edge.e1 - edge.s)
        r1 = float(box.strip_height)
        sigma_budget = float(b) / (2.0 * float(box.total_height))
        drift = -2.0 * tau / (r1 * sigma_budget)
        family = TwistFamily(flow, box, sigma_max=sigma_budget, drift_rate=drift)
        results.append(find_closing_parameter(family, tolerance, scale=b))
    return results
