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

Box geometry stays exact rational.  The closing parameter has a closed
form, evaluated in floating point without any search; the float twisted
kernel re-validates it by forward integration.

Closing walks down the scales of ``probe_walk``, chained first returns to
shortened bases (Rauzy states away from ties, cross-checked by
``rauzy_step``), and stops on exact invariants: a scale <= p or an
identity return map.  It also stops where a return outgrows the budget
``induce`` would give that scale.  A first-return suspension is built
only at a scale whose return map meets the edge quota, from the previous
closing's suspension.  The return times along the walk and the
suspension's roofs are the weights of the integer kernel ``first_returns``.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

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
    find_virtual_edges,
    max_disjoint_edges,
)
from .iet import Iet, RationalLike, as_rational
# unused ``induce`` is read by test_tracer_rebinds_every_import_site_and_restores_them
from .induction import default_return_budget, first_returns, induce, induction_top, return_map
from .induction import shortened_base

SINGULAR_SNAP = 1e-12


@dataclass(frozen=True)
class SuspensionFlow:
    """Roof function over an exchange plus singularity bookkeeping.

    ``roof`` holds one positive time per cell of ``partition``; the
    partition defaults to the base breakpoints and may refine them (first
    return flows carry accumulated roofs over their return-time pieces).
    ``singular_points`` are base points whose forward orbit is undefined;
    ``K`` is the singularity count of the modeled surface flow.
    """

    base: Iet
    roof: tuple[Fraction, ...]
    singular_points: tuple[Fraction, ...] = ()
    K: int = 0
    partition: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        part = self.partition if self.partition is not None else self.base.breakpoints
        part = tuple(as_rational(p) for p in part)
        object.__setattr__(self, "partition", part)
        roof = tuple(as_rational(r) for r in self.roof)
        object.__setattr__(self, "roof", roof)
        sing = tuple(sorted(as_rational(q) for q in self.singular_points))
        object.__setattr__(self, "singular_points", sing)
        if len(roof) != len(part) - 1:
            raise ValueError("need one roof value per partition cell")
        if any(r <= 0 for r in roof):
            raise ValueError("roof values must be strictly positive")
        cells = set(part)
        if part[0] != 0 or part[-1] != self.base.base_length or list(part) != sorted(cells):
            raise ValueError("partition must increase from 0 to the base length")
        if not set(self.base.breakpoints) <= cells:
            raise ValueError("partition must refine the base breakpoints")
        if any(q < 0 or q >= self.base.base_length for q in sing):
            raise ValueError("singular points must lie in [0, base)")
        if self.K < 0:
            raise ValueError("K must be >= 0")

    def roof_at(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        if x < 0 or x >= self.base.base_length:
            raise ValueError(f"{x} outside the base interval")
        return self.roof[bisect.bisect_right(self.partition, x) - 1]


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


def build_flow_box(flow: SuspensionFlow, edge: VirtualEdge) -> FlowBox:
    """Assemble the simple flow box bounded by the edge and its orbit arc.

    Raises SingularityInBox when a singular point lies on [a_bar, c_bar]
    (either flight would die).
    """
    base = flow.base
    edge.validate(base)
    a_bar, b_bar, c_bar = edge.s, edge.e1, edge.t

    lo = bisect.bisect_left(flow.singular_points, a_bar)
    if lo < len(flow.singular_points) and flow.singular_points[lo] <= c_bar:
        raise SingularityInBox(flow.singular_points[lo])

    cell = bisect.bisect_right(flow.partition, a_bar) - 1
    if flow.partition[cell + 1] < b_bar:
        raise ValueError("roof is not constant over the box strip")
    r1 = flow.roof[cell]
    r2 = flow.roof_at(b_bar)
    return FlowBox(
        a_bar=a_bar,
        b_bar=b_bar,
        c_bar=c_bar,
        orthogonal_edge=(a_bar, c_bar),
        tangent_edge=(((a_bar, b_bar), r1), ((b_bar, c_bar), r2)),
        total_height=r1 + r2,
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
    if base.evaluate(box.a_bar) != box.b_bar or base.evaluate(box.b_bar) != box.c_bar:
        raise ContinuationBroken("box vertices do not follow the flow's return map")


def _near_singular(x: float, singulars: list[float]) -> bool:
    i = bisect.bisect_left(singulars, x - SINGULAR_SNAP)
    return i < len(singulars) and singulars[i] <= x + SINGULAR_SNAP


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
    singulars = [float(q) for q in flow.singular_points]
    if not 0.0 <= x < float(flow.base.breakpoints[-1]):
        raise ValueError(f"{x} outside the base interval")
    if _near_singular(x, singulars):
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
        cell = bisect.bisect_right([float(p) for p in flow.partition], x) - 1
        piece = bisect.bisect_right([float(p) for p in flow.base.breakpoints], x) - 1
        position = x + float(flow.base.translations[piece])
        time = float(flow.roof[cell])

    if _near_singular(position, singulars):
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
    b = as_rational(b)
    part = flow.partition
    # translations share the breakpoints' denominator, which the partition
    # refines, so every cut, shift and singular point lives on 1/denom
    denom = math.lcm(b.denominator, *(x.denominator for x in (*part, *flow.singular_points)))
    top = induction_top(base, b, denom)
    cuts = [x.numerator * (denom // x.denominator) for x in part]
    pieces = [bisect.bisect_right(base.breakpoints, x) - 1 for x in part[:-1]]
    shifts = [base.shifts[i] * denom // base.denom for i in pieces]
    sing = [q.numerator * (denom // q.denominator) for q in flow.singular_points]
    rden = math.lcm(*(r.denominator for r in flow.roof))
    rnums = [r.numerator * (rden // r.denominator) for r in flow.roof]
    budget = default_return_budget(base, b)
    pieces, pulled = first_returns(cuts, shifts, rnums, sing, top, budget, b)
    return SuspensionFlow(
        base=return_map(pieces, denom),
        roof=tuple(Fraction(piece[4], rden) for piece in pieces),
        singular_points=tuple(Fraction(q, denom) for q in sorted(pulled)),
        K=flow.K,
        partition=tuple(Fraction(piece[0], denom) for piece in pieces) + (b,),
    )


def _return_maps(base: Iet, p: Fraction) -> Iterator[Iet]:
    """The states of ``probe_walk`` on ``base`` above p, lazily, ending
    after an identity map: every smaller return map of an identity is the
    identity too.

    The return time of every point is kept on integer numerators, as cells
    of constant return time and translation.  Each state is the first
    return of the previous one to its ``shortened_base``, reached within
    two steps, so one ``first_returns`` run weighted by the return times
    gives the state and its cells.  A state whose longest return passes
    ``default_return_budget(base, scale)``, the budget ``induce`` gives
    that scale, raises ReturnTimeExceeded, so a long run of small steps (a
    rotation by 1/N shrinks the base by 1/N a step) ends the walk.
    """
    state, cuts, shifts, times = base, base.cuts, base.shifts, [1] * base.m
    budget = 0
    while state.m > 1:
        top, _ = shortened_base(state)  # on the lattice of ``base``
        b = Fraction(top, base.denom)
        if b <= p:
            return
        pieces, _ = first_returns(cuts, shifts, times, [], top, 2, b)
        state = return_map(pieces, base.denom)
        cuts, _, shifts, _, times = zip(*pieces)
        cuts += (top,)
        # the budget grows as the scale shrinks, so it is re-read only
        # when a return passes the last one read
        if max(times) > budget:
            budget = default_return_budget(base, b)
            if max(times) > budget:
                raise ReturnTimeExceeded(budget, scale=b)
        yield state


def _pick_admissible_edge(flow: SuspensionFlow, blocked: list) -> VirtualEdge | None:
    """Leftmost edge whose strip stays under one roof cell and whose span
    avoids every singular point."""
    part = flow.partition
    singulars = flow.singular_points
    for fam in find_virtual_edges(flow.base):
        span = 2 * fam.offset
        for j in range(len(part) - 1):
            sub_lo = max(fam.s_min, part[j])
            sub_sup = min(fam.s_sup, part[j + 1] - fam.offset)
            if sub_lo >= sub_sup:
                continue
            candidates = [sub_lo]
            for q in singulars:
                if sub_lo <= q < sub_sup:
                    room = sub_sup - q
                    candidates.append(q + min(DEFAULT_WITNESS_GAP, room / 2))
            for s in candidates:
                hit = next((q for q in singulars if s <= q <= s + span), None)
                if hit is None:
                    return fam.edge_at(s)
                blocked.append((fam.edge_at(s), hit))
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
            b = induced.base_length
            count, _ = max_disjoint_edges(induced, with_witness=False)
            if count < criterion.threshold:
                continue
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
