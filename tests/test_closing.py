"""Suspension flow boxes, twisted returns, and the closing parameter."""

import copy
import hashlib
import math
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest

from ietflow import (
    ClosingCriterion,
    ContinuationBroken,
    Iet,
    IetError,
    LeftBoxUndefined,
    NoClosingInRange,
    NoEdgeInNeighborhood,
    OutOfDomain,
    ReturnTimeExceeded,
    SingularityInBox,
    SuspensionFlow,
    build_flow_box,
    close_at_point,
    continuation_curve,
    find_closing_parameter,
    identity_iet,
    make_iet,
    make_twist_family,
    twisted_return,
)
from ietflow import induction
from ietflow.closing import FlowBox, TwistFamily, _pick_admissible_edge, _return_maps, induced_suspension
from ietflow.edges import DEFAULT_WITNESS_GAP, VirtualEdge, find_virtual_edges, max_disjoint_edges
from ietflow.edges import sample_iet, sample_uniform_iet
from ietflow.errors import NotInduced, ReduciblePermutation, TieEncountered
from ietflow.induction import first_returns, induce, probe_counts, probe_walk, rauzy_step
from ietflow.induction import default_return_budget
from ietflow.serialize import flow_from_dict, flow_to_dict
from .test_iet_core import rotation
from .test_induction import miscounted, next_base


def walk_states(entries):
    """The state at each entry of the probe walk's core (``probe_counts``
    or ``_return_maps``): the entry's anchor, or its first return to the
    entry's scale within moves + 1 steps."""
    for top, _, _, anchor, moves, _ in entries:
        yield induce(anchor, F(top, anchor.denom), moves + 1).induced if moves else anchor


def tenth_flow(singular_points=()):
    return SuspensionFlow(rotation(F(1, 10)), (F(1), F(1)), tuple(singular_points))


def tenth_box(flow=None):
    flow = flow or tenth_flow()
    return build_flow_box(flow, VirtualEdge(F(0), F(1, 10), F(1, 5)))


def assert_twist_floats(box):
    """Each float the twist step reads off the box's integers (int / int)
    is the float of the public ``Fraction`` it stands for: a, b, b - a,
    c - a, r1 and r1 + r2."""
    d, rden = box.denom, box.rden
    reads = (box.a / d, box.b / d, (box.b - box.a) / d, (box.c - box.a) / d, box.r1 / rden)
    exact = (box.a_bar, box.b_bar, box.b_bar - box.a_bar, box.c_bar - box.a_bar, box.strip_height)
    assert reads + ((box.r1 + box.r2) / rden,) == tuple(map(float, exact + (box.total_height,)))


def integrate_oracle(flow, box, drift_rate, t, x0, dy=1e-6):
    """Dense explicit integration of the piecewise-constant twisted field
    for one flight, independent of the event-based kernel."""
    a, b = float(box.a_bar), float(box.b_bar)
    tau = b - a
    roof_breaks = [float(p) for p in flow.partition]
    roofs = [float(r) for r in flow.roof]
    x, y = float(x0), 0.0
    while True:
        idx = max(0, min(len(roofs) - 1, _cell(roof_breaks, x)))
        if y >= roofs[idx]:
            break
        if a <= x <= b:
            x += t * drift_rate * dy
        y += dy
    # glue through the roof: the exchange translates the landing fiber
    base = flow.base
    bp = [float(p) for p in base.breakpoints]
    tr = [float(v) for v in base.translations]
    return x + tr[_cell(bp, x)]


def _cell(breaks, x):
    import bisect

    return bisect.bisect_right(breaks, x) - 1


class TestBuildFlowBox:
    def test_rotation_tenth_box(self):
        box = tenth_box()
        assert (box.a_bar, box.b_bar, box.c_bar) == (F(0), F(1, 10), F(1, 5))
        assert box.orthogonal_edge == (F(0), F(1, 5))
        assert box.total_height == 2
        assert box.strip_height == 1
        # two flights of one time unit each; the middle crossing is the
        # figure-eight vertex itself
        assert box.tangent_edge == (((F(0), F(1, 10)), F(1)), ((F(1, 10), F(1, 5)), F(1)))

    def test_singularity_blocks_box(self):
        flow = tenth_flow([F(3, 20)])
        with pytest.raises(SingularityInBox):
            build_flow_box(flow, VirtualEdge(F(0), F(1, 10), F(1, 5)))

    def test_edge_revalidated(self):
        with pytest.raises(ValueError):
            build_flow_box(tenth_flow(), VirtualEdge(F(0), F(1, 10), F(3, 10)))

    def test_roof_flights_accumulate(self):
        flow = SuspensionFlow(rotation(F(1, 10)), (F(2), F(3)))
        box = build_flow_box(flow, VirtualEdge(F(0), F(1, 10), F(1, 5)))
        assert box.total_height == 4  # both flights under the first roof cell

    @pytest.mark.parametrize("s", [F(1, 10), F(1, 10) + F(1, 10**6)])
    def test_singular_point_on_either_end_blocks_the_box(self, s):
        # the edge's ends are closed; off the base lattice too, as a
        # witness-gap edge is
        edge = VirtualEdge(s, s + F(1, 10), s + F(1, 5))
        tiny = F(1, 10**7)
        for q in (s, s + F(1, 5)):
            with pytest.raises(SingularityInBox) as info:
                build_flow_box(tenth_flow([q]), edge)
            assert info.value.point == q and str(info.value) == f"singular point {q} blocks the flow box"
        for q in (s - tiny, s + F(1, 5) + tiny):
            assert build_flow_box(tenth_flow([q]), edge).c_bar == s + F(1, 5)

    @pytest.mark.parametrize("q", [F(0), F(1, 10), F(3, 7), F(7, 11)])
    def test_twist_floats_off_the_lattice(self, q):
        # a witness-gap edge DEFAULT_WITNESS_GAP past a singular point
        flow = SuspensionFlow(rotation(F(1, 10)), (F(1, 3), F(5, 7)), (q,))
        s = q + DEFAULT_WITNESS_GAP
        box = build_flow_box(flow, VirtualEdge(s, s + F(1, 10), s + F(1, 5)))
        assert box.denom == math.lcm(flow.denom, 10**6)
        assert (box.a_bar, box.total_height) == (s, F(2, 3))
        assert_twist_floats(box)

    def test_equal_by_value_across_lattices(self):
        box = tenth_box()
        lifted = tenth_box(tenth_flow([F(7, 11)]))
        assert (box.denom, lifted.denom) == (10, 110)
        for other in (lifted, pickle.loads(pickle.dumps(lifted)), copy.deepcopy(lifted)):
            assert other == box and hash(other) == hash(box)
        taller = tenth_box(SuspensionFlow(rotation(F(1, 10)), (F(2), F(1))))
        assert taller != box and taller.orthogonal_edge == box.orthogonal_edge

    def test_strip_may_end_on_a_cell_end_but_not_one_unit_past_it(self):
        # a singular point away from the box puts the flow on thousandths
        flow = SuspensionFlow(
            rotation(F(1, 10)), (F(1), F(2), F(3)), (F(999, 1000),), 1, (F(0), F(1, 10), F(9, 10), F(1))
        )
        assert flow.denom == 1000
        box = build_flow_box(flow, VirtualEdge(F(0), F(1, 10), F(1, 5)))
        assert box.tangent_edge == (((F(0), F(1, 10)), F(1)), ((F(1, 10), F(1, 5)), F(2)))
        with pytest.raises(ValueError, match="roof is not constant over the box strip"):
            build_flow_box(flow, VirtualEdge(F(1, 1000), F(101, 1000), F(201, 1000)))


class TestSuspensionFlow:
    def test_roof_must_match_partition(self):
        with pytest.raises(ValueError):
            SuspensionFlow(rotation(F(1, 10)), (F(1),))
        with pytest.raises(ValueError):
            SuspensionFlow(rotation(F(1, 10)), (F(1), F(0)))

    @pytest.mark.parametrize(
        "roof, singular, K, partition, message",
        [
            ((F(1),) * 2, (), 0, (F(0), F(1, 2), F(1)), "partition must refine the base breakpoints"),
            ((F(1),) * 2, (), 0, (F(0), F(9, 10), F(11, 10)), "partition must increase from 0"),
            ((F(1),) * 2, (), 0, (F(1, 10), F(9, 10), F(1)), "partition must increase from 0"),
            ((F(1),) * 2, (F(1),), 1, None, "singular points must lie in"),
            ((F(1),) * 2, (F(-1, 3),), 1, None, "singular points must lie in"),
            ((F(1),) * 2, (), -1, None, "K must be >= 0"),
            ((F(1),) * 2, (F(1, 3), F(1, 3)), 2, None, "singular points must be distinct"),
            ((F(1),) * 2, (F(1, 2), "2/4", F(1, 3)), 3, None, "singular points must be distinct"),
            ((F(1),) * 2, (F(1, 5),), 1.5, None, "K must be an integer"),
            ((F(1),) * 2, (F(1, 5),), True, None, "K must be an integer"),
            ((F(1),) * 2, (F(1, 5),), "2", None, "K must be an integer"),
        ],
    )
    def test_constructor_checks(self, roof, singular, K, partition, message):
        with pytest.raises(ValueError, match=message):
            SuspensionFlow(rotation(F(1, 10)), roof, singular, K, partition)

    @pytest.mark.parametrize(
        "roof, partition, message",
        [
            ((F(1),), None, "need one roof value per partition cell"),
            ((F(1),) * 3, None, "need one roof value per partition cell"),
            ((F(1), F(0)), None, "roof values must be strictly positive"),
            ((F(-1), F(1)), None, "roof values must be strictly positive"),
            # the roofs are checked before the partition's shape: this
            # partition has two cells and does not refine the base
            ((F(1),) * 3, (F(0), F(1, 2), F(1)), "need one roof value per partition cell"),
            ((F(1), F(0)), (F(0), F(1, 2), F(1)), "roof values must be strictly positive"),
        ],
    )
    def test_roof_messages(self, roof, partition, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SuspensionFlow(rotation(F(1, 10)), roof, partition=partition)

    def test_both_flow_forms_build_one_flow(self):
        # with no partition a flow's cells are its base's cuts, lifted only
        # where a singular point needs a finer lattice; the base's own
        # breakpoints as the partition give the same flow
        rng = random.Random(28)
        cases = [(rotation(F(1, 10)), (F(3, 5),)), (rotation(F(1, 10)), (F(1, 7), F(1, 2)))]
        cases += [(flow.base, flow.singular_points) for flow in (pool_flow(rng, i) for i in range(64))]
        lifts = Counter()
        for base, sing in cases:
            roof = tuple(F(k + 2, 3) for k in range(base.m))
            plain = SuspensionFlow(base, roof, sing, len(sing))
            given = SuspensionFlow(base, roof, sing, len(sing), partition=base.breakpoints)
            assert plain == given and hash(plain) == hash(given)
            for name in ("denom", "cuts", "sing", "rden", "rnums"):
                assert getattr(plain, name) == getattr(given, name), name
            lift = plain.denom // base.denom
            assert plain.cuts == tuple(c * lift for c in base.cuts)
            lifts[lift > 1] += 1
        assert lifts[False] >= 30 and lifts[True] >= 8

    def test_flow_with_singular_points_and_partition_survives_its_file(self):
        part = (F(0), F(1, 2), F(9, 10), F(1))
        flow = SuspensionFlow(rotation(F(1, 10)), (F(1), F(2), F(3)), (F(2, 3), F(1, 5)), 2, part)
        again = flow_from_dict(flow_to_dict(flow))
        assert again == flow and hash(again) == hash(flow)
        assert (again.partition, again.singular_points, again.K) == (part, (F(1, 5), F(2, 3)), 2)
        assert (again.denom, again.cuts, again.sing) == (flow.denom, flow.cuts, flow.sing)
        assert flow_to_dict(again) == flow_to_dict(flow)

    def test_repeated_partition_cut_rejected(self):
        # a repeated cut would be a zero-width cell with a roof of its own
        part = (F(0), F(1, 2), F(1, 2), F(9, 10), F(1))
        with pytest.raises(ValueError, match="partition must increase"):
            SuspensionFlow(rotation(F(1, 10)), (F(1),) * 4, partition=part)

    def test_roof_at_reads_the_cell_and_types_its_domain_error(self):
        flow = SuspensionFlow(rotation(F(1, 10)), (F(2), F(3)))
        tiny = F(1, 10**12)
        assert [flow.roof_at(x) for x in (F(0), F(9, 10) - tiny, F(9, 10), 1 - tiny)] == [2, 2, 3, 3]
        for x in (-tiny, F(1), F(3, 2)):
            with pytest.raises(OutOfDomain) as info:
                flow.roof_at(x)
            assert str(info.value) == f"{x} is outside [0, 1)"


class TestTwistedReturn:
    def test_zero_twist_matches_exact_map(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow))
        base = flow.base
        for x in (F(0), F(1, 7), F(1, 2), F(17, 20), F(19, 20)):
            pos, flight = twisted_return(family, 0.0, float(x))
            exact = float(base.evaluate(x))
            assert abs(pos - exact) <= 2**-50 * max(1.0, abs(exact))
            assert flight == 1.0

    def test_zero_drift_rate_degenerate(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=0.0)
        pos0, _ = twisted_return(family, 0.0, 0.05)
        pos1, _ = twisted_return(family, family.sigma_max, 0.05)
        assert pos0 == pos1

    def test_positive_drift_displaces_toward_far_endpoint(self):
        # mirrored orientation: rate +1 at twist 0.01 adds 0.01 * (time in
        # the box) to the crossing of the left corner
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=1.0)
        pos, flight = twisted_return(family, 0.01, 0.0)
        assert flight == 1.0
        assert abs(pos - (0.1 + 0.01 * 1.0)) < 1e-15

    def test_against_dense_integration(self):
        flow = tenth_flow()
        box = tenth_box(flow)
        family = make_twist_family(flow, box, drift_rate=1.0)
        pos, _ = twisted_return(family, 0.01, 0.0)
        assert abs(pos - integrate_oracle(flow, box, 1.0, 0.01, 0.0, dy=1e-6)) < 1e-4
        for rate, t, x0 in [(-4.0, 0.02, 0.1), (-4.0, 0.01, 0.05)]:
            family = make_twist_family(flow, box, drift_rate=rate)
            pos, _ = twisted_return(family, t, x0)
            assert abs(pos - integrate_oracle(flow, box, rate, t, x0, dy=1e-5)) < 1e-4

    def test_taller_strip_than_second_flight(self):
        # the strip [0, 1/10] ends on a cell end under roof r1 = 3, and the
        # second flight, over [1/10, 1/5], has roof r2 = 1: the closing
        # orbit reaches the wall exactly at the strip's top, not past it
        part = (F(0), F(1, 10), F(9, 10), F(1))
        flow = SuspensionFlow(rotation(F(1, 10)), (F(3), F(1), F(1)), partition=part)
        box = build_flow_box(flow, VirtualEdge(F(0), F(1, 10), F(1, 5)))
        assert (box.r1 / box.rden, box.r2 / box.rden) == (3.0, 1.0)
        family = make_twist_family(flow, box)
        result = find_closing_parameter(family, 1e-9)
        assert result.sigma1 == pytest.approx(0.1 / (3 * 4))
        assert result.sigma1 / family.sigma_max == pytest.approx((3 + 1) / (4 * 3))
        position, flight = twisted_return(family, result.sigma1, result.periodic_point)
        assert flight == 3.0 and position == pytest.approx(0.1, abs=1e-12)
        # half way to the closing twist the vertex orbit drifts half way to a
        t = result.sigma1 / 2
        position, flight = twisted_return(family, t, 0.1)
        assert flight == 3.0 and position == pytest.approx(0.15, abs=1e-12)
        dense = integrate_oracle(flow, box, family.drift_rate, t, 0.1, dy=1e-4)
        assert position == pytest.approx(dense, abs=1e-4)

    def test_singular_gap_raises(self):
        flow = tenth_flow([F(3, 5)])
        family = make_twist_family(flow, tenth_box(flow))
        with pytest.raises(LeftBoxUndefined):
            twisted_return(family, 0.0, 0.5)  # lands exactly on 3/5
        with pytest.raises(LeftBoxUndefined):
            twisted_return(family, 0.0, 0.6)  # starts in the gap


class TestContinuation:
    def test_zero_twist_endpoint_is_a_bar(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow))
        curve = continuation_curve(family, 5)
        assert curve[0] == (0.0, 0.0)

    def test_zero_drift_constant_curve(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=0.0)
        curve = continuation_curve(family, 7)
        assert {pt for _, pt in curve} == {0.0}

    def test_monotone_and_clamped(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow))
        curve = continuation_curve(family, 33)
        values = [pt for _, pt in curve]
        assert all(b >= a for a, b in zip(values[:-1], values[1:]))
        assert values[-1] == pytest.approx(float(family.box.b_bar))

    def test_incoherent_family_rejected(self):
        other = SuspensionFlow(rotation(F(1, 5)), (F(1), F(1)))
        family = TwistFamily(other, tenth_box(), sigma_max=0.05, drift_rate=-4.0)
        with pytest.raises(ContinuationBroken):
            continuation_curve(family, 4)

    def test_incoherent_box_rejected_on_and_off_the_base_lattice(self):
        # the vertices are read on the least lattice holding base and box,
        # whether the box's denominator is a multiple of the base's, shares
        # a factor with it or is coprime to it; a vertex mapped outside the
        # half-open base raises evaluate's OutOfDomain
        tenth = tenth_flow()
        fifth = SuspensionFlow(Iet.from_lattice(10, [0, 8, 10], [2, -8]), (F(1), F(1)))
        cases = [
            (tenth, FlowBox(10, 0, 1, 2, 1, 1, 1), None),
            (tenth, FlowBox(20, 16, 18, 0, 1, 1, 1), None),
            (tenth, FlowBox(10, 0, 1, 3, 1, 1, 1), ContinuationBroken),
            (tenth, FlowBox(10, 0, 2, 3, 1, 1, 1), ContinuationBroken),
            (tenth, FlowBox(30, 3, 6, 10, 1, 1, 1), ContinuationBroken),
            (tenth, FlowBox(10, 0, 11, 12, 1, 1, 1), ContinuationBroken),
            (tenth, FlowBox(10, -1, 0, 1, 1, 1, 1), OutOfDomain),
            (tenth, FlowBox(10, 10, 11, 12, 1, 1, 1), OutOfDomain),  # the base is half-open
            (tenth, FlowBox(3, 0, 1, 2, 1, 1, 1), ContinuationBroken),  # a coprime denominator
            (fifth, FlowBox(5, 0, 1, 2, 1, 1, 1), None),
            (fifth, FlowBox(15, 0, 3, 6, 1, 1, 1), None),
            (fifth, FlowBox(15, 0, 3, 7, 1, 1, 1), ContinuationBroken),
            (fifth, FlowBox(5, 0, 1, 3, 1, 1, 1), ContinuationBroken),
            (fifth, FlowBox(5, 4, 0, 1, 1, 1, 1), None),
            (fifth, FlowBox(5, 4, 0, 2, 1, 1, 1), ContinuationBroken),
        ]
        for flow, box, error in cases:
            family = TwistFamily(flow, box, sigma_max=0.05, drift_rate=-4.0)
            if error is None:
                assert len(continuation_curve(family, 4)) == 4
                continue
            with pytest.raises(error) as curve:
                continuation_curve(family, 4)
            with pytest.raises(error) as closing:
                find_closing_parameter(family)
            if error is OutOfDomain:  # evaluate's message for the vertex a
                with pytest.raises(OutOfDomain) as oracle:
                    flow.base.evaluate(box.a_bar)
                assert str(curve.value) == str(closing.value) == str(oracle.value)


def sweep_oracle(family, resolution=1e-6, tolerance=1e-9):
    """First sweep parameter at which the forward orbit of the vertex
    returns to itself; independent of the continuation and bisection."""
    b = float(family.box.b_bar)
    t = 0.0
    while t <= family.sigma_max:
        pos, _ = twisted_return(family, t, b)
        if abs(pos - b) <= tolerance:
            return t
        t += resolution
    return None


class TestFindClosingParameter:
    def test_rotation_box_bisection_and_sweep(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow))
        result = find_closing_parameter(family, 1e-9)
        # closed form: (b_bar - a_bar) / (strip_height * 4) = 0.1 / 4
        assert result.sigma1 == 0.025
        assert result.residual == 0.0
        assert result.iterations == 0
        assert 0 <= result.sigma1 <= family.sigma_max
        assert not result.hit_bound
        swept = sweep_oracle(family)
        assert swept is not None
        assert abs(result.sigma1 - swept) <= 1e-5

    def test_orbit_trace_closes(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow))
        result = find_closing_parameter(family, 1e-9)
        (start, t0), (end, t1) = result.orbit_trace
        assert t0 == 0.0 and t1 > 0  # transversal crossings only
        assert start == pytest.approx(float(family.box.b_bar))
        assert abs(end - start) <= 1e-9

    def test_zero_drift_has_no_closing(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=0.0)
        with pytest.raises(NoClosingInRange):
            find_closing_parameter(family, 1e-9)

    def test_wrong_direction_has_no_closing(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=4.0)
        with pytest.raises(NoClosingInRange):
            find_closing_parameter(family, 1e-9)

    def test_budget_too_small_for_box(self):
        # rate -1 needs sigma1 = 0.1, above the default budget 0.2 / (2 * 2)
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), drift_rate=-1.0)
        assert family.sigma_max == 0.05
        with pytest.raises(NoClosingInRange):
            find_closing_parameter(family, 1e-9)

    @pytest.mark.parametrize("r2", [1, 2, 5])
    def test_default_rate_against_the_default_budget(self, r2):
        # at rate -4, sigma1 is (r1 + r2) / (4 * r1) of the default budget:
        # past it once the second flight's roof exceeds three times the first
        part = (F(0), F(1, 10), F(9, 10), F(1))
        flow = SuspensionFlow(rotation(F(1, 10)), (F(1), F(r2), F(1)), partition=part)
        family = make_twist_family(flow, tenth_box(flow))
        assert family.sigma_max == pytest.approx(0.2 / (2 * (1 + r2)))
        if r2 == 5:
            with pytest.raises(NoClosingInRange, match="exceeds sigma_max"):
                find_closing_parameter(family, 1e-9)
        else:
            res = find_closing_parameter(family, 1e-9)
            assert res.sigma1 / family.sigma_max == pytest.approx((1 + r2) / 4)

    def test_zero_sigma_max(self):
        flow = tenth_flow()
        family = make_twist_family(flow, tenth_box(flow), sigma_max=0.0)
        with pytest.raises(NoClosingInRange):
            find_closing_parameter(family, 1e-9)


class TestCloseAtPoint:
    def test_rotation_three_shrink_steps(self):
        results = close_at_point(tenth_flow(), 0, ClosingCriterion(-3, 1), 3)
        assert len(results) == 3
        sigmas = [r.sigma1 for r in results]
        assert sigmas[0] > sigmas[1] > sigmas[2]
        scales = [r.scale for r in results]
        assert scales[0] > scales[1] > scales[2]
        for r in results:
            assert r.residual <= 1e-9
            # independent forward re-integration from the periodic point
            pos, _ = twisted_return(r.family, r.sigma1, r.periodic_point)
            assert abs(pos - r.periodic_point) <= 1e-9

    def test_identity_base_has_no_edges(self):
        flow = SuspensionFlow(identity_iet(), (F(1),))
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(flow, 0, ClosingCriterion(-3, 1), 1)
        assert info.value.step == 1

    def test_singularities_block_every_edge(self):
        singulars = [F(k, 40) for k in range(40)]
        flow = tenth_flow(singulars)
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(flow, 0, ClosingCriterion(-3, 1), 1)
        assert info.value.step == 1
        assert info.value.blocked  # diagnostic lists blocked edges
        assert str(info.value).endswith(f"; blocked candidates: {len(info.value.blocked)}")

    def test_blocked_candidates_stay_on_the_error(self):
        # the message gives a count; the candidates themselves are kept
        base = make_iet([F(412, 1000), F(271, 1000), F(317, 1000)], [3, 2, 1])
        flow = SuspensionFlow(base, (F(2), F(1), F(3)), (F(1, 7),))
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
        assert info.value.step == 3
        assert info.value.blocked == ((VirtualEdge(F(7, 500), F(4, 125), F(1, 20)), F(209, 7000)),)

    def test_each_suspension_checks_the_walk_count(self, monkeypatch):
        # the suspension at 9/10 has the walk's state there as its base, and
        # that state counts 3 edges where the miscounted walk reads 4
        monkeypatch.setattr("ietflow.closing.probe_counts", miscounted(probe_counts))
        with pytest.raises(NotInduced) as info:
            close_at_point(tenth_flow(), 0, ClosingCriterion(-3, 1), 3)
        assert str(info.value) == "a run to 9/10 counts 4 edges, its first return 3"

    def test_induced_suspension_accumulates(self):
        flow = tenth_flow()
        flow_n = induced_suspension(flow, F(1, 2))
        # the slow-return piece spends six flights outside, roof 6
        assert flow_n.base == make_iet([F(2, 5), F(1, 10)], [2, 1])
        assert flow_n.roof == (F(1), F(6))
        assert induce(flow.base, F(1, 2)).return_times == (1, 6)

    def test_induced_suspension_pulls_back_singularities(self):
        flow = tenth_flow([F(3, 5)])
        flow_n = induced_suspension(flow, F(1, 2))
        # the slow piece's orbit reaches 3/5 after two flights, from 2/5
        assert flow.base.iterate(F(2, 5), 2) == F(3, 5)
        assert F(2, 5) in flow_n.singular_points

    def test_invalid_point(self):
        with pytest.raises(ValueError):
            close_at_point(tenth_flow(), F(3, 2), ClosingCriterion(-3, 1), 1)


def unit_roofs(iet):
    return SuspensionFlow(iet, tuple(F(1) for _ in range(iet.m)))


class TestRauzyScaleClosing:
    """Closing walks down the probe scales; unit roofs, p = 0."""

    def test_generic_m3_closes_at_three_rauzy_scales(self):
        flow = unit_roofs(make_iet([F(412, 1000), F(271, 1000), F(317, 1000)], [3, 2, 1]))
        results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
        assert [r.scale for r in results] == [F(113, 1000), F(19, 200), F(77, 1000)]
        for r in results:
            box = r.family.box
            assert box.b_bar - box.a_bar == F(9, 500)
            assert box.strip_height == 10

    def test_rotation_near_the_golden_ratio_closes_twice(self):
        flow = unit_roofs(rotation(F(381966, 10**6)))
        results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 2)
        # with unit roofs the strip height is the return time
        assert [(r.scale, r.family.box.strip_height) for r in results] == [
            (F(221, 500000), 2584),
            (F(7, 500000), 97294),
        ]
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
        assert info.value.step == 3

    def test_rotation_tenth_closes_six_times_then_meets_the_identity(self):
        results = close_at_point(tenth_flow(), 0, ClosingCriterion(-3, 1), 6)
        assert [r.scale for r in results] == [F(k, 10) for k in range(9, 3, -1)]
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(tenth_flow(), 0, ClosingCriterion(-3, 1), 7)
        assert info.value.step == 7
        # the Rauzy states tie at 1/5; the first return to 1/10 is the identity
        maps = list(walk_states(islice(_return_maps(tenth_flow().base, 0), 9)))
        assert maps[:-1] == [rotation(F(1, 10), F(k, 10)) for k in range(9, 1, -1)]
        assert maps[-1] == identity_iet(F(1, 10))

    def test_walk_stops_at_the_point(self):
        results = close_at_point(tenth_flow(), F(1, 2), ClosingCriterion(-3, 1), 4)
        assert [r.scale for r in results] == [F(k, 10) for k in range(9, 5, -1)]
        with pytest.raises(NoEdgeInNeighborhood) as info:
            close_at_point(tenth_flow(), F(1, 2), ClosingCriterion(-3, 1), 5)
        assert info.value.step == 5

    def test_slow_rotation_ends_on_the_return_budget(self):
        # each Rauzy state shrinks the base by 1/10**9 and lengthens the
        # return by one step, and no state carries an edge; the walk stops
        # once the return passes the budget induce would give that scale
        flow = unit_roofs(make_iet([F(1, 10**9), 1 - F(1, 10**9)], [2, 1]))
        # checked on a bounded prefix of the walk first, so that a walk
        # without the budget fails here instead of running for hours
        with pytest.raises(ReturnTimeExceeded):
            list(islice(_return_maps(flow.base, 0), 41))
        with pytest.raises(ReturnTimeExceeded) as info:
            close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
        assert info.value.max_steps == 40
        assert info.value.scale == 1 - F(40, 10**9)
        # a scale <= p ends the walk before its return time is weighed
        with pytest.raises(NoEdgeInNeighborhood):
            close_at_point(flow, 1 - F(40, 10**9), ClosingCriterion(-3, 1), 1)

    def test_walk_raises_where_induce_exceeds_the_budget(self):
        rng = random.Random(5)
        raised = 0
        for i in range(240):
            iet, _ = sample_iet(rng, 2 + i % 4, 1000 if i % 3 else 60)
            maps = walk_states(_return_maps(iet, 0))
            for state, _ in islice(probe_walk(iet), 40):
                try:
                    induce(iet, state.base_length)
                except ReturnTimeExceeded as exc:
                    # the same budget at the same scale, so the same message
                    with pytest.raises(ReturnTimeExceeded) as walk:
                        next(maps)
                    assert (walk.value.max_steps, walk.value.scale) == (exc.max_steps, exc.scale)
                    assert str(walk.value) == str(exc)
                    raised += 1
                    break
                assert next(maps) == state
        assert raised >= 3


def chained_return_walk(base):
    """The closing walk by chained first returns: each state is the first
    return of the one before to its ``next_base``, one ``first_returns``
    run within two steps over cells weighted by return times.  Yields the
    scale's numerator, the state and the longest return to the scale."""
    state, cuts, shifts, times = base, base.cuts, base.shifts, (1,) * base.m
    while state.m > 1:
        top, _ = next_base(state)
        cuts, shifts, times, _ = first_returns(cuts, shifts, times, [], top, 2, base.denom)
        state = Iet.from_lattice(base.denom, cuts, shifts)
        yield top, state, max(times)


def per_entry_return_maps(base, p):
    """``_return_maps`` as it was: p compared and the budget computed at
    every entry."""
    for entry in probe_counts(base, timed=True):
        top, longest = entry[0], entry[5]
        if top * p.denominator <= p.numerator * base.denom:  # b <= p
            return
        budget = default_return_budget(base.m, base.cuts[-1], top)
        if longest > budget:
            raise ReturnTimeExceeded(budget, scale=F(top, base.denom))
        yield entry


def walked(maps, limit=200):
    """The first ``limit`` entries of a closing walk, and the budget, scale
    and message of the ReturnTimeExceeded that ends it, if one does."""
    entries = []
    try:
        entries.extend(islice(maps, limit))
    except ReturnTimeExceeded as exc:
        return entries, (exc.max_steps, exc.scale, str(exc))
    return entries, None


def assert_weighted_walk(base, depth=None):
    """The core's (scale, count, longest return) with unit weights at each
    of the first ``depth`` scales, three ways: against the chained weighted
    walk, ``max_disjoint_edges`` of its state and the return times of one
    direct ``induce`` from ``base``; the state at each entry is the chained
    state.  Returns the core's entries and how many of them are chained
    steps where the unweighted walk runs (cells that refine the state)."""
    core = list(islice(probe_counts(base, timed=True), depth))
    chain = list(islice(chained_return_walk(base), depth))
    assert len(core) == len(chain)
    for entry, state, (top, chained, longest) in zip(core, walk_states(core), chain):
        count, _ = max_disjoint_edges(chained, with_witness=False)
        assert (entry[0], entry[1], entry[5]) == (top, count, longest)
        assert max(induce(base, F(top, base.denom), 10**6).return_times) == longest
        assert (state.denom, state.cuts, state.shifts) == (chained.denom, chained.cuts, chained.shifts)
    unweighted = islice(probe_counts(base), depth)
    refined = sum(weighted[4] == 0 < plain[4] for weighted, plain in zip(core, unweighted))
    return core, refined


class TestWeightedWalk:
    """The closing walk's return times, carried through each run of Rauzy
    moves (a loser's return time gains the winner's)."""

    def test_seeded_exchanges(self):
        # m = 2..6 at resolutions 12, 1000 and 10^6, 40 scales at most
        rng = random.Random(22)
        runs = refined = 0
        for i in range(45):
            iet, _ = sample_uniform_iet(rng, 2 + i % 5, (12, 1000, 10**6)[i // 5 % 3])
            core, fallback = assert_weighted_walk(iet, 40)
            runs += sum(entry[4] > 1 for entry in core)
            refined += fallback
        assert (runs, refined) == (657, 157)

    def test_slow_rotation_is_one_bottom_run(self):
        core, refined = assert_weighted_walk(rotation(F(1, 1000)))
        assert [entry[4] for entry in core] == list(range(1, 999)) + [0]
        assert core[-2][5] == 999 and refined == 0

    def test_merge_refines_the_cells(self):
        # the first move merges, so the cells refine the first state's
        # intervals and the walk takes chained steps where the unweighted
        # walk runs
        core, refined = assert_weighted_walk(make_iet([F(1, 2), F(3, 10), F(1, 5)], [3, 2, 1]))
        assert core[0][3].m == 2 and refined == 1

    def test_budget_raises_inside_a_run(self):
        # one top run shrinks the base by 1/10^9 a move; the return passing
        # its budget, 40, at 1 - 40/10^9 ends the walk before the run does
        base = make_iet([F(1, 10**9), 1 - F(1, 10**9)], [2, 1])
        core, _ = assert_weighted_walk(base, 40)
        assert [entry[4] for entry in core] == list(range(1, 41))
        assert [entry[5] for entry in core] == list(range(2, 42))
        walked = []
        with pytest.raises(ReturnTimeExceeded) as info:
            walked.extend(_return_maps(base, 0))
        assert walked == core[:39]
        assert (info.value.max_steps, info.value.scale) == (40, 1 - F(40, 10**9))

    def test_return_maps_against_the_per_entry_checks(self):
        # ``_return_maps`` floors p onto the base's lattice once and computes
        # a budget only past the least one; the loop that compared p and
        # computed the budget at every entry gives the same entries and errors
        rng = random.Random(22)
        bases = [sample_uniform_iet(rng, 2 + i % 5, (12, 1000, 10**6)[i // 5 % 3])[0] for i in range(45)]
        bases.append(make_iet([F(1, 10**9), 1 - F(1, 10**9)], [2, 1]))
        raised = cut = 0
        for base in bases:
            entries, error = walked(per_entry_return_maps(base, F(0)))
            assert walked(_return_maps(base, F(0))) == (entries, error)
            raised += error is not None
            for k in (1, 6):
                if k >= len(entries):
                    continue
                scale = F(entries[k][0], base.denom)
                # p on a walk scale stops the walk before it; p just below
                # it, off the base's lattice, lets the scale through
                assert walked(_return_maps(base, scale)) == (entries[:k], None)
                below = scale - F(1, 3 * base.denom)
                assert walked(_return_maps(base, below)) == walked(per_entry_return_maps(base, below))
                assert walked(_return_maps(base, below))[0][: k + 1] == entries[: k + 1]
                cut += 1
        assert raised > 10 and cut > 60, (raised, cut)

    def test_run_end_longest_is_checked(self, monkeypatch):
        # the first return that ends a run must return within the run's
        # longest return; here a run end reads one step more
        weighted = induction.first_returns

        def longer(cuts, shifts, weights, singulars, top, max_steps, denom):
            ends, offsets, totals, pulled = weighted(cuts, shifts, weights, singulars, top, max_steps, denom)
            if max_steps > 2:  # a run end
                totals = (*totals[:-1], totals[-1] + 1)
            return ends, offsets, totals, pulled

        monkeypatch.setattr(induction, "first_returns", longer)
        with pytest.raises(NotInduced) as info:
            list(probe_counts(rotation(F(1, 1000)), timed=True))
        assert str(info.value) == "a run to 1/500 returns within 999, its first return within 1000"

    def test_a_moved_offset_is_refused_by_the_exchange_core(self, monkeypatch):
        # the kernel's pieces tile [0, top) by construction; that their
        # images tile it too is checked by ``Iet.from_lattice`` in every
        # caller, here with one offset moved by one lattice step
        kernel = induction.first_returns

        def moved(*args):
            ends, offsets, weights, pulled = kernel(*args)
            return ends, (offsets[0] + 1, *offsets[1:]), weights, pulled

        monkeypatch.setattr(induction, "first_returns", moved)
        iet = make_iet([F(3, 10), F(1, 2), F(1, 5)], [3, 2, 1])
        flow = SuspensionFlow(iet, (F(1), F(2), F(3)), (F(3, 5),))
        for call in (
            lambda: induce(iet, F(2, 5)),
            lambda: induced_suspension(flow, F(2, 5)),
            lambda: list(probe_counts(iet)),
            lambda: list(probe_counts(iet, timed=True)),
        ):
            with pytest.raises(NotInduced, match="^images (overlap|leave a gap) at ") as info:
                call()
            assert [entry.name for entry in info.traceback[-2:]] == ["from_lattice", "_set_lattice"]


def flight_oracle(flow, b, x, max_flights=10_000):
    """Brute-force first return to [0, b) of the suspension flow from x:
    follows the orbit with ``Iet.evaluate`` and sums ``roof_at`` until it
    re-enters, collecting the singular points it meets on the way."""
    singular = set(flow.singular_points)
    roof, met, pos = F(0), [], x
    for _ in range(max_flights):
        if pos in singular:
            met.append(pos)
        roof += flow.roof_at(pos)
        pos = flow.base.evaluate(pos)
        if pos < b:
            return roof, met
    raise AssertionError(f"no return to [0, {b}) from {x}")


def first_entries(flow, b, max_flights=10_000):
    """Where the backward orbit of each singular point first lies in
    [0, b): exactly the points whose flight meets it before returning.
    A singular point whose periodic orbit misses [0, b) has none."""
    inverse = flow.base.invert()
    entries = set()
    for q in flow.singular_points:
        for _ in range(max_flights):
            if q < b:
                entries.add(q)
                break
            q = inverse.evaluate(q)
    return entries


def assert_matches_flights(flow, b, grid=997):
    """Check ``induced_suspension(flow, b)`` against the flight oracle on a
    grid of [0, b), the induced singular points and the first entries."""
    induced = induced_suspension(flow, b)
    singular = set(induced.singular_points)
    points = {b * k / grid for k in range(grid)} | singular | first_entries(flow, b)
    for x in sorted(points):
        roof, met = flight_oracle(flow, b, x)
        assert induced.roof_at(x) == roof, x
        assert (x in singular) == bool(met), x
    return induced


def pool_flow(rng, i):
    """The i-th flow of the benchmark's close mix (a copy of
    perfbench/workloads.py::random_flow): rotations by p/q with q <= 60 at
    even i, generic m=3 or m=4 exchanges at odd i, integer roofs 1..5 and
    one singular point in every fourth pair."""
    if i % 2 == 0:
        q = rng.randint(2, 60)
        a = F(rng.randint(1, q - 1), q)
        base = make_iet([1 - a, a], [2, 1])
    else:
        base, _ = sample_iet(rng, 3 + (i // 2) % 2, 1000)
    roof = tuple(F(rng.randint(1, 5)) for _ in range(base.m))
    singular = (F(rng.randint(1, 999), 1000),) if (i // 2) % 4 == 0 else ()
    return SuspensionFlow(base, roof, singular, K=len(singular))


CHAINED = SuspensionFlow(
    make_iet([F(574, 2109), F(44, 111), F(233, 703)], [3, 2, 1]), (F(2), F(1), F(5))
)


FLOW_PUBLIC = ("roof", "partition", "singular_points")


class TestLatticeFlows:
    """Flows keep their integer lattices; the public ``Fraction``s are
    built on first read, and equality compares values."""

    def induced_flows(self, seed, count):
        rng = random.Random(seed)
        for i in range(count):
            flow = pool_flow(rng, i)
            b = flow.base.base_length * F(rng.randint(30, 95), 97)
            try:
                yield flow, b, induced_suspension(flow, b)
            except IetError:
                continue

    def test_induced_public_values_unset_until_read(self):
        checked = 0
        for flow, b, induced in self.induced_flows(35, 80):
            checked += 1
            assert not set(FLOW_PUBLIC) & set(vars(induced))
            part, roof = induced.partition, induced.roof
            assert part == tuple(F(c, induced.denom) for c in induced.cuts) and part[-1] == b
            assert roof == tuple(flight_oracle(flow, b, x)[0] for x in part[:-1])
            assert set(induced.singular_points) == first_entries(flow, b)
            assert list(induced.singular_points) == sorted(induced.singular_points)
            for name in FLOW_PUBLIC:  # cached once read
                assert vars(induced)[name] is getattr(induced, name)
        assert checked > 60

    def test_induced_singular_points_sorted(self):
        # many pulled-back points over a large denominator: a set of them
        # does not iterate in order
        singular = tuple(F(k, 997) for k in range(50, 997, 37))
        flow = SuspensionFlow(make_iet([F(3, 10), F(1, 2), F(1, 5)], [3, 2, 1]), (F(1), F(2), F(3)), singular)
        induced = assert_matches_flights(flow, F(2, 5))
        assert len(induced.singular_points) > 5
        assert list(induced.singular_points) == sorted(induced.singular_points)

    def test_induced_equals_its_file_and_its_public_construction(self):
        # a return map's base keeps the chain's lattice, while a file or a
        # base rebuilt from lengths starts from the least denominator, and
        # a base may sit on any multiple of it
        finer = 0
        for _, _, induced in self.induced_flows(36, 80):
            base, values = induced.base, (induced.roof, induced.singular_points, induced.K, induced.partition)
            rebuilt = SuspensionFlow(make_iet(base.lengths, base.permutation), *values)
            tripled = Iet.from_lattice(3 * base.denom, [3 * c for c in base.cuts], [3 * t for t in base.shifts])
            coarse = SuspensionFlow(tripled, *values)
            again = flow_from_dict(flow_to_dict(induced))
            assert induced == again == rebuilt == coarse
            assert hash(induced) == hash(again) == hash(rebuilt) == hash(coarse)
            finer += induced.denom != rebuilt.denom
            assert coarse.denom == 3 * induced.denom
        assert finer >= 3
        flow = tenth_flow([F(3, 5)])
        assert induced_suspension(flow, F(1, 2)) != induced_suspension(flow, F(2, 5))
        assert flow != tenth_flow() and flow != SuspensionFlow(flow.base, (F(1), F(2)), (F(3, 5),))

    def test_cells_carry_their_base_translations(self):
        # a cell's shift is the base's translation at its left cut, on the
        # flow's lattice, with the base's cells, a refining partition's or a
        # first return's
        rng = random.Random(37)
        checked = 0
        for flow, b, induced in self.induced_flows(37, 60):
            base = flow.base
            extra = {base.base_length * F(rng.randint(1, 96), 97) for _ in range(3)}
            part = sorted(set(base.breakpoints) | extra)
            roof = tuple(F(rng.randint(1, 5)) for _ in part[1:])
            refined = SuspensionFlow(base, roof, flow.singular_points, flow.K, part)
            assert len(refined.cuts) > len(flow.cuts)
            for cells in (flow, refined, induced, induced_suspension(refined, b)):
                at = cells.base.translations
                shifts = [at[cells.base.piece_index(c)] * cells.denom for c in cells.partition[:-1]]
                assert list(cells.shifts) == shifts
                checked += 1
        assert checked > 200


def pick_oracle(flow, blocked):
    """The edge pick as a scan of every partition cell for every edge
    family, on the public ``Fraction``s."""
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


class TestLatticeEdgePick:
    """``_pick_admissible_edge`` scans only the cells of each family's own
    base piece, on the flow's lattice; the ``Fraction`` scan of every cell
    is the oracle."""

    @staticmethod
    def windows(flow):
        """(start, end of admissible starts, span) of each family in each
        of its cells."""
        part = flow.partition
        for fam in find_virtual_edges(flow.base):
            for lo, hi in zip(part, part[1:]):
                lo, sup = max(fam.s_min, lo), min(fam.s_sup, hi - fam.offset)
                if lo < sup:
                    yield lo, sup, fam.edge_length

    def placed_flows(self, seed, count):
        """Induced pool flows, some with extra partition cuts, carrying 0-4
        singular points on cell ends, on span ends, near a window's end and
        inside the witness gap past another singular point."""
        rng = random.Random(seed)
        for i in range(count):
            flow = pool_flow(rng, i)
            b = flow.base.base_length * F(rng.randint(30, 95), 97)
            try:
                induced = induced_suspension(flow, b)
            except IetError:
                continue
            part, roof = list(induced.partition), list(induced.roof)
            for _ in range(rng.randint(0, 2)):  # refine: a cut inside a cell keeps its roof
                j = rng.randrange(len(roof))
                part.insert(j + 1, part[j] + (part[j + 1] - part[j]) * F(rng.randint(1, 9), 10))
                roof.insert(j + 1, roof[j])
            refined = SuspensionFlow(induced.base, roof, (), 0, part)
            windows = list(self.windows(refined)) or [(F(0), b, b)]
            singular = []
            for _ in range(rng.randint(0, 4)):
                lo, sup, span = rng.choice(windows)
                q = rng.choice(
                    [
                        rng.choice(part[:-1]),
                        lo + span,
                        lo + span + F(1, 10**9),
                        sup - DEFAULT_WITNESS_GAP / 3,
                        b * F(rng.randrange(1000), 1000),
                    ]
                )
                if singular and rng.random() < 0.5:
                    q = rng.choice(singular) + DEFAULT_WITNESS_GAP * rng.choice([F(1, 2), 1, 1 + span / DEFAULT_WITNESS_GAP])
                if 0 <= q < b:
                    singular.append(q)
            yield SuspensionFlow(induced.base, roof, sorted(set(singular)), len(singular), part)

    def test_against_the_fraction_scan(self):
        seen = Counter()
        for flow in self.placed_flows(41, 600):
            blocked, expected = [], []
            box = _pick_admissible_edge(flow, blocked)
            edge = None if box is None else VirtualEdge(box.a_bar, box.b_bar, box.c_bar)
            oracle = pick_oracle(flow, expected)
            assert edge == oracle, flow
            if oracle is not None:  # boxes compare by tangent edge: vertices, r1 and r2
                assert box == build_flow_box(flow, oracle), flow
                assert box.strip_height == flow.roof_at(oracle.s), flow
                assert box.total_height - box.strip_height == flow.roof_at(oracle.e1), flow
            assert blocked == expected, flow
            for found, hit in blocked:
                assert type(hit) is F and hit in flow.singular_points
            seen["none" if edge is None else "edge"] += 1
            seen["blocked"] += bool(blocked)
            seen["witness"] += edge is not None and edge.s not in flow.partition
            seen["refined"] += flow.denom != flow.base.denom
        assert min(seen.values()) >= 20, seen


def random_roofs(rng, iet):
    return [F(rng.randint(1, 9)) for _ in range(iet.m)]


class TestRauzyHeights:
    """Roofs under Rauzy moves: for a flow whose roof is constant on the
    base pieces, a move acts on the roofs h by the transpose of its matrix,
    h' = B^T h, an oracle that propagates no flight."""

    def test_chained_suspension_follows_the_moves(self):
        # 120 flows, m = 2..5, lengths on 10^-6, roofs 1..9, 12 scales each.
        # A tie, a reducible state or merged neighbours is no such move:
        # that state is skipped, and its flow starts afresh from new roofs.
        # Here 17 of the 1440 states are skipped, all of them merges
        rng = random.Random(18)
        checked = skipped = 0
        for i in range(120):
            iet, _ = sample_uniform_iet(rng, 2 + i % 4, 10**6)
            flow = SuspensionFlow(iet, random_roofs(rng, iet))
            for state, _ in islice(probe_walk(iet), 12):
                parent, h = flow.base, list(flow.roof)
                m, beta = parent.m, parent.permutation.index(parent.m)
                flow = induced_suspension(flow, state.base_length)
                try:
                    _, kind = rauzy_step(parent)
                except (TieEncountered, ReduciblePermutation):
                    kind = None
                if kind is None or state.m < m:
                    skipped += 1
                    flow = SuspensionFlow(state, random_roofs(rng, state))
                    continue
                if kind == "top":  # beta's roof gains the last interval's
                    h[beta] += h[m - 1]
                else:  # beta's split-off right part flies on through the last interval
                    h = h[: beta + 1] + [h[beta] + h[m - 1]] + h[beta + 1 : m - 1]
                assert flow.base == state and flow.partition == state.breakpoints
                assert flow.roof == tuple(h)
                checked += 1
        assert (checked, skipped) == (1423, 17)


class TestSuspensionWalk:
    def test_non_integer_roofs(self):
        flow = SuspensionFlow(
            make_iet([F(2, 7), F(3, 7), F(2, 7)], [3, 2, 1]), (F(1, 3), F(5, 7), F(2))
        )
        assert_matches_flights(flow, F(1, 2))
        assert_matches_flights(flow, F(3, 10))

    def test_singular_denominators_coprime_to_the_base(self):
        flow = SuspensionFlow(
            make_iet([F(3, 10), F(1, 2), F(1, 5)], [3, 2, 1]),
            (F(1), F(2), F(3)),
            (F(3, 7), F(8, 11), F(12, 13)),
        )
        induced = assert_matches_flights(flow, F(2, 5))
        assert induced.singular_points

    def test_two_singular_points_in_one_segment(self):
        # the slow piece [2/5, 1/2) of the rotation by 1/10 crosses
        # [3/5, 7/10) on its second flight
        flow = tenth_flow([F(31, 50), F(33, 50)])
        induced = assert_matches_flights(flow, F(1, 2))
        assert induced.singular_points == (F(21, 50), F(23, 50))

    def test_singular_point_at_a_segment_left_end(self):
        # 1/2 opens the slow piece's first image [1/2, 3/5); 2/5 opens the
        # piece itself and closes the fast piece [0, 2/5)
        for q, pulled in ((F(1, 2), F(2, 5)), (F(2, 5), F(2, 5)), (F(7, 10), F(2, 5))):
            induced = assert_matches_flights(tenth_flow([q]), F(1, 2))
            assert induced.singular_points == (pulled,)

    def test_segment_straddling_a_parent_breakpoint(self):
        # the whole of [0, 17/50) returns after two flights with one
        # translation, yet its first image straddles the breakpoint 7/24
        flow = SuspensionFlow(
            make_iet([F(7, 24), F(5, 24), F(5, 24), F(7, 24)], [4, 3, 2, 1]),
            (F(1), F(2), F(3), F(4)),
            (F(1, 2), F(2, 3)),
        )
        assert induce(flow.base, F(17, 50)).return_times == (2,)
        assert_matches_flights(flow, F(17, 50))

    def test_chained_induction_matches_direct(self):
        level1 = induced_suspension(CHAINED, F(7, 10))
        chained = assert_matches_flights(level1, F(2, 5))
        direct = assert_matches_flights(CHAINED, F(2, 5))
        assert chained.roof_at(F(574, 2109)) == direct.roof_at(F(574, 2109)) == 1
        assert chained.singular_points == direct.singular_points

    def test_chained_induction_on_seeded_flows(self):
        rng = random.Random(8)
        for i in range(40):
            flow = pool_flow(rng, i)
            b1 = F(rng.randint(50, 95), 100)
            b2 = b1 * F(rng.randint(30, 95), 100)
            try:
                level1 = induced_suspension(flow, b1)
                chained = induced_suspension(level1, b2)
                direct = induced_suspension(flow, b2)
            except IetError:
                continue
            assert chained.singular_points == direct.singular_points
            for k in range(199):
                x = b2 * k / 199
                assert chained.roof_at(x) == direct.roof_at(x) == flight_oracle(flow, b2, x)[0]

    def test_close_at_point_outcomes_pinned(self):
        # every closing is re-validated before the outcomes are compared:
        # the edge on the induced base, the twisted return onto the vertex,
        # and the chained roofs against flights of the original flow
        rng = random.Random(20)
        rows = []
        for i in range(512):
            flow = pool_flow(rng, i)
            try:
                results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
            except IetError as exc:
                rows.append(type(exc).__name__)
                continue
            for r in results:
                box, induced = r.family.box, r.family.flow
                a, b, c = box.a_bar, box.b_bar, box.c_bar
                VirtualEdge(a, b, c).validate(induced.base)
                assert box.tangent_edge == (((a, b), induced.roof_at(a)), ((b, c), induced.roof_at(b)))
                position, _ = twisted_return(r.family, r.sigma1, float(box.b_bar))
                assert abs(position - float(box.b_bar)) <= 1e-9
                for x in induced.partition[:-1]:
                    assert induced.roof_at(x) == flight_oracle(flow, r.scale, x)[0]
            rows.append(
                "closed "
                + " ".join(
                    f"{r.scale}:{r.sigma1.hex()}:{r.periodic_point.hex()}:{r.residual.hex()}"
                    for r in results
                )
            )
        counts = Counter(row.split()[0] for row in rows)
        assert counts == {"closed": 260, "NoEdgeInNeighborhood": 245, "ReturnTimeExceeded": 7}
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "8d31294989c60d8ec81e81f255395df2ad8a7cdfce3698ebb8cc6b77793cf379"

    def test_close_pool_boxes_and_blocked_edges_pinned(self):
        # every closing's box vertices and sigma1, and every
        # NoEdgeInNeighborhood message with the edges a singular point
        # blocked, in the order the edge pick tried them
        rng = random.Random(21)
        rows, blocked = [], 0
        for i in range(1024):
            flow = pool_flow(rng, i)
            try:
                results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
            except NoEdgeInNeighborhood as exc:
                rows.append(f"{exc} {exc.blocked}")
                blocked += bool(exc.blocked)
                continue
            except IetError as exc:
                rows.append(type(exc).__name__)
                continue
            boxes = [r.family.box for r in results]
            for box in boxes:
                assert_twist_floats(box)
            rows.append(
                "closed "
                + " ".join(f"{x.a_bar},{x.b_bar},{x.c_bar}:{r.sigma1.hex()}" for x, r in zip(boxes, results))
            )
        counts = Counter(row.split()[0] for row in rows)
        assert counts == {"closed": 521, "no": 484, "ReturnTimeExceeded": 19}
        assert blocked == 34
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "24b7cd39e001c255cf3b7fcdabcb27cdd183aba4348970a0ec68ca52db8c4bed"

    def test_benchmark_close_pool_outcomes_pinned(self):
        # the benchmark's seed-101 close pool of 4096 flows: every
        # closing's repr (its floats, scale and hit flag) with its box's
        # tangent edge, and every error's repr with the edges it blocked
        rng = random.Random(101)
        rows = []
        for i in range(4096):
            flow = pool_flow(rng, i)
            try:
                results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)
            except IetError as exc:
                rows.append(f"{exc!r} {getattr(exc, 'blocked', ())!r}")
                continue
            rows.append("closed " + " ".join(f"{r!r} {r.family.box.tangent_edge!r}" for r in results))
        counts = Counter(row.split("(")[0].split()[0] for row in rows)
        assert counts == {"closed": 2028, "NoEdgeInNeighborhood": 2000, "ReturnTimeExceeded": 68}
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "f1b0c815f1f6fedf20b561bf0ecef13d2cf4df92e2bb4e11b146a06f655dc085"


def tenth_family():
    flow = tenth_flow()
    return make_twist_family(flow, tenth_box(flow))  # sigma_max 0.05


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: TwistFamily(tenth_flow(), tenth_box(), -1.0, -4.0),
            ValueError,
            "sigma_max must be a finite nonnegative real",
        ),
        (
            lambda: TwistFamily(tenth_flow(), tenth_box(), math.inf, -4.0),
            ValueError,
            "sigma_max must be a finite nonnegative real",
        ),
        (
            lambda: TwistFamily(tenth_flow(), tenth_box(), 0.05, math.nan),
            ValueError,
            "drift_rate must be finite",
        ),
        (lambda: twisted_return(tenth_family(), -0.1, 0.5), ValueError, "twist -0.1 outside [0, 0.05]"),
        (lambda: twisted_return(tenth_family(), 0.1, 0.5), ValueError, "twist 0.1 outside [0, 0.05]"),
        (lambda: twisted_return(tenth_family(), 0.0, 1.0), ValueError, "1.0 outside the base interval"),
        (lambda: twisted_return(tenth_family(), 0.0, -0.5), ValueError, "-0.5 outside the base interval"),
        (lambda: continuation_curve(tenth_family(), 1), ValueError, "steps must be >= 2"),
        (
            lambda: find_closing_parameter(tenth_family(), tolerance=-1.0),
            NoClosingInRange,
            "closing verification failed: forward residual 0.0 above -1.0",
        ),
        (
            lambda: close_at_point(tenth_flow(), 0, ClosingCriterion(-3, 1), 0),
            ValueError,
            "shrink_steps must be >= 1",
        ),
    ],
    ids=[
        "twist-negative-budget",
        "twist-infinite-budget",
        "twist-nan-drift",
        "twisted-return-t-below-0",
        "twisted-return-t-above-budget",
        "twisted-return-x-at-base",
        "twisted-return-x-below-0",
        "continuation-one-step",
        "closing-negative-tolerance",
        "close-no-shrink-steps",
    ],
)
def test_validation_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
