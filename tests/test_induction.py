"""First-return maps, Rauzy moves, and their cross-validation."""

import bisect
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest

from ietflow import (
    Iet,
    NotInduced,
    ReduciblePermutation,
    ReturnTimeExceeded,
    SuspensionFlow,
    TieEncountered,
    check_induction_consistency,
    identity_iet,
    induce,
    make_iet,
    rauzy_orbit,
    rauzy_step,
    rescale,
)
from ietflow import induction
from ietflow.closing import induced_suspension
from ietflow.edges import default_probe_scales, max_disjoint_edges, sample_uniform_iet
from ietflow.induction import (
    default_return_budget,
    first_returns,
    is_irreducible,
    probe_counts,
    probe_walk,
)
from .test_iet_core import random_iet, rotation


def first_return_oracle(parent, b, x, cap=100000):
    """Pointwise first-return: iterate until the orbit re-enters [0, b)."""
    y = parent.evaluate(x)
    steps = 1
    while y >= b:
        y = parent.evaluate(y)
        steps += 1
        assert steps < cap
    return y, steps


class TestInduce:
    def test_rotation_third_on_two_thirds(self):
        parent = rotation(F(1, 3))
        res = induce(parent, F(2, 3))
        assert res.induced == make_iet([F(1, 3), F(1, 3)], [2, 1])
        assert res.return_times == (1, 2)
        assert res.pieces == ((F(0), F(1, 3)), (F(1, 3), F(2, 3)))
        # brute-force orbit iteration per piece
        for (lo, hi), k in zip(res.pieces, res.return_times):
            mid = (lo + hi) / 2
            value, steps = first_return_oracle(parent, F(2, 3), mid)
            assert steps == k
            assert value == res.induced.evaluate(mid)

    def test_full_base_is_identity_operation(self):
        parent = rotation(F(1, 3))
        res = induce(parent, parent.base_length)
        assert res.induced == parent
        assert res.return_times == (1,) * parent.m

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_full_base_returns_every_parent_piece_at_step_one(self, m):
        rng = random.Random(80 + m)
        for _ in range(10):
            unit = random_iet(rng, m)
            for parent in (unit, rescale(unit, F(5, 7))):
                res = induce(parent, parent.base_length)
                assert res.induced == parent
                assert res.pieces == tuple(zip(parent.breakpoints[:-1], parent.breakpoints[1:]))
                assert res.parent_break_hits == tuple(parent.breakpoints[1:-1])
                assert res.return_times == (1,) * parent.m
                assert res.kac_total == parent.base_length

    def test_rotation_tenth_on_half_pointwise(self):
        parent = rotation(F(1, 10))
        b = F(1, 2)
        res = induce(parent, b)
        rng = random.Random(41)
        for _ in range(500):
            x = F(rng.randrange(0, 1000), 2000)
            value, steps = first_return_oracle(parent, b, x)
            assert value == res.induced.evaluate(x)
            piece = next(i for i, (lo, hi) in enumerate(res.pieces) if lo <= x < hi)
            assert steps == res.return_times[piece]

    def test_kac_identity_on_covering_examples(self):
        # return times weighted by piece lengths sweep the whole parent
        for parent, b in [
            (rotation(F(1, 3)), F(2, 3)),
            (rotation(F(1, 10)), F(1, 2)),
            (make_iet([F(1, 2), F(3, 10), F(1, 5)], [3, 2, 1]), F(7, 10)),
        ]:
            res = induce(parent, b)
            assert res.covers_parent
            assert res.kac_total == parent.base_length

    def test_return_budget(self):
        parent = rotation(F(1, 1000))
        with pytest.raises(ReturnTimeExceeded):
            induce(parent, F(1, 100), max_steps=5)

    def test_default_budget_on_numerators(self):
        # the integer budget must equal the Fraction formula, also for
        # parents on an unreduced lattice and bases whose denominator does
        # not divide the parent's
        rng = random.Random(27)
        foreign = 0
        for n in range(600):
            parent = random_iet(rng, rng.randint(2, 6))
            if n % 2:
                k = rng.randint(2, 12)
                parent = Iet.from_lattice(
                    k * parent.denom, [k * c for c in parent.cuts], [k * t for t in parent.shifts]
                )
            b = parent.base_length * F(rng.randint(1, 1000), rng.randint(1000, 1100))
            foreign += parent.denom % b.denominator != 0
            expected = 10 * (parent.m + int(parent.base_length / b) + 1)
            denom = math.lcm(parent.denom, b.denominator)
            top = b.numerator * (denom // b.denominator)
            parent_top = parent.cuts[-1] * (denom // parent.denom)
            assert default_return_budget(parent.m, parent_top, top) == expected, (parent, b)
        assert foreign > 400

    def test_induced_of_induced(self):
        rng = random.Random(43)
        for _ in range(10):
            parent = random_iet(rng, rng.choice([2, 3]))
            b1 = parent.base_length * F(3, 4)
            b2 = parent.base_length * F(2, 5)
            once = induce(parent, b1).induced
            twice = induce(once, b2).induced
            direct = induce(parent, b2).induced
            assert twice == direct
            for _ in range(20):
                x = b2 * F(rng.randrange(0, 499), 499)
                assert twice.evaluate(x) == direct.evaluate(x)

    def test_pieces_refine_induced_breakpoints(self):
        # a Rauzy-style cut can merge the map but not the return times
        parent = make_iet([F(1, 5), F(3, 10), F(1, 2)], [3, 2, 1])
        res = induce(parent, F(4, 5))
        assert len(res.pieces) >= res.induced.m
        bounds = {lo for lo, _ in res.pieces} | {res.pieces[-1][1]}
        assert set(res.induced.breakpoints) <= bounds
        for (lo, hi), k in zip(res.pieces, res.return_times):
            mid = (lo + hi) / 2
            assert parent.iterate(mid, k) == res.induced.evaluate(mid)


def follow_piece(parent, b, lo, hi, cap=100000):
    """Follow the piece [lo, hi) under ``parent`` with ``Iet.evaluate`` until
    it re-enters [0, b).  Every image must be one interval clear of the
    parent's breakpoints, so the whole piece moves by one translation.
    Returns the image of lo and the number of steps."""
    x, width, steps = lo, hi - lo, 0
    while True:
        assert not any(x < c < x + width for c in parent.breakpoints)
        x = parent.evaluate(x)
        steps += 1
        if x < b:
            assert x + width <= b
            return x, steps
        assert steps < cap


def assert_matches_oracle(parent, b, res):
    """``res`` is the first-return map of ``parent`` to [0, b), piece by piece."""
    assert res.pieces[0][0] == 0 and res.pieces[-1][1] == b
    for (lo, hi), (nxt, _) in zip(res.pieces[:-1], res.pieces[1:]):
        assert hi == nxt
    assert res.parent_break_hits == tuple(lo for lo, _ in res.pieces[1:])
    for (lo, hi), k in zip(res.pieces, res.return_times):
        image, steps = follow_piece(parent, b, lo, hi)
        assert steps == k
        assert res.induced.evaluate(lo) == image
        mid = (lo + hi) / 2
        assert res.induced.evaluate(mid) == image + (mid - lo)


def assert_lowest_terms(values):
    for x in values:
        assert type(x) is F
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


class TestIntegerPath:
    """``induce`` runs on numerators over one common denominator; its
    results must be the exact first-return maps, as Fractions."""

    def test_denominators_coprime_to_the_base(self):
        parent = make_iet([F(1, 3), F(2, 7), F(8, 21)], [3, 2, 1])
        b = F(5, 11)
        res = induce(parent, b)
        assert_matches_oracle(parent, b, res)
        assert res.induced.base_length == b

    def test_tie_continuation_keeps_the_denominator(self):
        # Rauzy induction ties after 19 moves, at 111/250; the walk goes on
        # by exact first returns to a base shortened by whole lattice units,
        # so every map past the tie stays on the denominator 500
        iet = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        scales, tie = default_probe_scales(iet, 24)
        assert tie and scales[17:] == [
            F(223, 500), F(111, 250), F(11, 25), F(219, 500), F(109, 250), F(217, 500), F(54, 125)
        ]
        states = [state for state, _ in islice(probe_walk(iet), 24)]
        for previous, state in zip(states[17:], states[18:]):
            b = state.base_length
            res = induce(previous, b)
            assert_matches_oracle(previous, b, res)
            assert res.induced == state and max(res.return_times) <= 2
            assert math.lcm(*(x.denominator for x in (*state.lengths, *state.translations))) == 500

    @pytest.mark.parametrize("denom", [6, 6 * 10**9])
    def test_base_checked_on_the_lattice(self, denom):
        # the lattice need not be over the least denominator; b must lie in
        # (0, base] exactly, for induce and the first-return suspension alike
        k = denom // 6
        parent = Iet.from_lattice(denom, [0, 4 * k, 6 * k], [2 * k, -4 * k])
        flow = SuspensionFlow(parent, (F(1), F(2)))
        for b in (F(1), F(1, 7), F(1, 10**9)):
            assert induce(parent, b).induced.base_length == b
            assert induced_suspension(flow, b).base.base_length == b
        for b in (F(1) + F(1, 10**12), F(7, 6), F(0), F(-1, 3)):
            for call in (lambda: induce(parent, b), lambda: induced_suspension(flow, b)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"induction base {b} outside (0, 1]"
        assert induce(parent, F(1, 3)).parent_base == 1

    def test_one_range_check_one_message(self):
        # induce and the first-return suspension share one range check:
        # the same text for b <= 0 and b > base, b = base accepted, also
        # where b's denominator divides no lattice (7 and 10^9 against 12,
        # 132 and 60); the strings are pinned
        parent = make_iet([F(1, 3), F(1, 4)], [2, 1])
        lifted = Iet.from_lattice(
            132, [11 * c for c in parent.cuts], [11 * t for t in parent.shifts]
        )
        roof = (F(1), F(2))
        flows = [SuspensionFlow(parent, roof), SuspensionFlow(parent, roof, (F(1, 5),))]
        assert (parent.denom, lifted.denom, flows[1].denom) == (12, 132, 60)
        routes = [lambda b: induce(parent, b).induced, lambda b: induce(lifted, b).induced]
        routes += [lambda b, flow=flow: induced_suspension(flow, b).base for flow in flows]
        rejected = {
            F(0): "induction base 0 outside (0, 7/12]",
            F(-2, 7): "induction base -2/7 outside (0, 7/12]",
            -3: "induction base -3 outside (0, 7/12]",
            F(3, 5): "induction base 3/5 outside (0, 7/12]",
            F(7, 12) + F(1, 10**9): "induction base 1750000003/3000000000 outside (0, 7/12]",
            1: "induction base 1 outside (0, 7/12]",
        }
        for b, message in rejected.items():
            for route in routes:
                with pytest.raises(ValueError) as info:
                    route(b)
                assert str(info.value) == message
        for b in (F(7, 12), F(4, 7), F(1, 10**9)):
            assert [route(b).base_length for route in routes] == [b] * 4

    def test_parent_base_after_a_lift(self):
        # b's denominator does not divide the parent's, so the induced map
        # sits on a finer lattice; the parent base read back from it is
        # the parent's base length in lowest terms
        rng = random.Random(29)
        lifted = 0
        for _ in range(300):
            parent = random_iet(rng, rng.randint(2, 5))
            b = parent.base_length * F(rng.randint(1, 99), rng.randint(100, 130))
            res = induce(parent, b, 10**4)
            lifted += res.induced.denom != parent.denom
            assert res.parent_base == parent.base_length
            assert_lowest_terms([res.parent_base])
        assert lifted > 250

    def test_covers_parent(self):
        m4 = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        res = induce(m4, F(1, 3), max_steps=2000)
        assert res.covers_parent and res.kac_total == 1
        # [0, 1/2) is invariant under the reducible [2, 1, 4, 3]: no return
        # orbit visits [1/2, 1)
        reducible = make_iet([F(1, 5), F(3, 10), F(1, 10), F(2, 5)], [2, 1, 4, 3])
        res = induce(reducible, F(1, 2))
        assert not res.covers_parent and res.kac_total == F(1, 2)

    def test_long_return(self):
        parent = rotation(F(1, 10))
        b = F(1, 1000)
        res = induce(parent, b)
        assert_matches_oracle(parent, b, res)
        assert res.return_times == (10,)

    def test_public_values_are_fractions_in_lowest_terms(self):
        for e in (Iet([1, "4/6", "3/9"], [3, 2, 1]), Iet(["6/4", 2, "2/8"], [2, 3, 1])):
            assert_lowest_terms(e.lengths)
            assert_lowest_terms(e.breakpoints)
            assert_lowest_terms(e.translations)
            assert_lowest_terms([e.base_length])
            res = induce(e, "10/12")
            assert_lowest_terms([x for piece in res.pieces for x in piece])
            assert_lowest_terms(res.parent_break_hits)
            assert_lowest_terms([res.parent_base])
        with pytest.raises(ReturnTimeExceeded) as info:
            induce(rotation(F(1, 10)), "2/4000", max_steps=3)
        assert info.value.scale == F(1, 2000)
        assert_lowest_terms([info.value.scale])
        assert "(inducing on [0, 1/2000))" in str(info.value)


def follow_cells(iet, cells, weights, singulars, b, lo, hi, cap=100000):
    """Follow the piece [lo, hi) under ``iet`` with ``Iet.evaluate`` until it
    re-enters [0, b).  Every image must lie inside one cell, so the whole
    piece moves by one translation and crosses one cell per step.  Returns
    the image of lo, the number of steps, the summed cell weights and the
    points of the piece whose image is a singular point on the way."""
    x, width, steps, weight, met = lo, hi - lo, 0, 0, set()
    while True:
        cell = bisect.bisect_right(cells, x) - 1
        assert x + width <= cells[cell + 1]
        weight += weights[cell]
        met |= {lo + q - x for q in singulars if x <= q < x + width}
        x = iet.evaluate(x)
        steps += 1
        if x < b:
            assert x + width <= b
            return x, steps, weight, met
        assert steps < cap


class TestFirstReturns:
    """``first_returns`` against point-following on cells that refine the
    breakpoints, with integer weights and singular points."""

    def test_pieces_match_point_following(self):
        rng = random.Random(31)
        checked_weights = checked_singulars = 0
        for i in range(150):
            iet = random_iet(rng, 2 + i % 4, rng.choice([30, 500]))
            denom = 2 * math.lcm(*(x.denominator for x in iet.breakpoints))
            length = iet.base_length * denom  # an integer
            assert length.denominator == 1
            top = rng.randint(max(1, int(length) // 8), int(length))
            extra = rng.sample(range(1, int(length)), min(int(length) - 1, rng.randint(0, 6)))
            ints = {x.numerator * (denom // x.denominator) for x in iet.breakpoints}
            ints = sorted(ints | set(extra))
            cuts = [F(c, denom) for c in ints]
            shifts = []
            for c in cuts[:-1]:
                tau = iet.translations[iet.piece_index(c)]
                shifts.append(int(tau * denom))
            weights = [rng.randint(0, 9) for _ in shifts]
            sing_ints = sorted(rng.sample(range(int(length)), rng.randint(0, 3)))
            b = F(top, denom)
            ends, offsets, totals, pulled = first_returns(ints, shifts, weights, sing_ints, top, 10**4, denom)
            # weights of ones count the steps, over the same pieces
            ones = [1] * len(shifts)
            *same, steps, counted = first_returns(ints, shifts, ones, sing_ints, top, 10**4, denom)
            assert (*same, counted) == (ends, offsets, pulled)

            singulars = [F(q, denom) for q in sing_ints]
            assert ends[0] == 0 and ends[-1] == top
            assert len(ends) == len(offsets) + 1 == len(totals) + 1 == len(steps) + 1
            met_all = set()
            for lo, hi, off, k, weight in zip(ends, ends[1:], offsets, steps, totals):
                assert lo < hi
                piece = F(lo, denom), F(hi, denom)
                image, followed, w, met = follow_cells(iet, cuts, weights, singulars, b, *piece)
                assert (F(lo + off, denom), k, weight) == (image, followed, w)
                met_all |= met
                checked_weights += w > 0
            assert {F(q, denom) for q in pulled} == met_all
            checked_singulars += len(met_all)
        assert checked_weights > 100 and checked_singulars > 50

    def test_budget_names_the_scale(self):
        # the rotation by 1/10, in tenths: [0, 1/10) returns after ten steps
        with pytest.raises(ReturnTimeExceeded) as info:
            first_returns([0, 9, 10], [1, -9], [0, 0], [], 1, 9, 10)
        assert (info.value.max_steps, info.value.scale) == (9, F(1, 10))
        assert first_returns([0, 9, 10], [1, -9], [1, 1], [], 1, 10, 10) == ((0, 1), (0,), (10,), set())


def euclid_oracle(a, b):
    """Subtractive Euclid trace for a two-interval exchange: the sequence of
    ("top"/"bottom", lengths-after) pairs, halting at equality."""
    steps = []
    while a != b:
        if b > a:
            b = b - a
            steps.append(("top", (a, b)))
        else:
            a = a - b
            steps.append(("bottom", (a, b)))
    return steps


class TestRauzyStep:
    def test_rotation_bottom_then_tie(self):
        e = rotation(F(1, 3))
        nxt, kind = rauzy_step(e)
        assert kind == "bottom"
        assert nxt == make_iet([F(1, 3), F(1, 3)], [2, 1])
        assert nxt.base_length == F(2, 3)
        with pytest.raises(TieEncountered):
            rauzy_step(nxt)

    def test_exact_tie(self):
        with pytest.raises(TieEncountered):
            rauzy_step(make_iet([F(1, 2), F(1, 2)], [2, 1]))

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePermutation):
            rauzy_step(make_iet([F(1, 2), F(1, 4), F(1, 4)], [1, 3, 2]))
        with pytest.raises(ReduciblePermutation):
            rauzy_step(identity_iet())

    def test_step_is_first_return(self):
        # the combinatorial move must equal the first-return map to the
        # shortened base computed by interval propagation
        rng = random.Random(47)
        for _ in range(30):
            e = random_iet(rng, rng.choice([2, 3, 4]))
            try:
                nxt, _ = rauzy_step(e)
            except TieEncountered:
                continue
            assert nxt == induce(e, nxt.base_length).induced

    def test_m_never_increases(self):
        rng = random.Random(53)
        for _ in range(20):
            e = random_iet(rng, 4)
            orbit = rauzy_orbit(e, 10)
            ms = [e.m] + [s.after.m for s in orbit.steps]
            assert all(b <= a for a, b in zip(ms[:-1], ms[1:]))


class TestRauzyOrbit:
    def test_depth_validated(self):
        with pytest.raises(ValueError):
            rauzy_orbit(rotation(F(1, 3)), 0)

    def test_single_step(self):
        orbit = rauzy_orbit(rotation(F(1, 3)), 1)
        assert len(orbit.steps) == 1
        assert orbit.scales == (F(2, 3),)
        assert orbit.halt_reason == "depth_reached"

    def test_m1_rejected(self):
        with pytest.raises(ReduciblePermutation):
            rauzy_orbit(identity_iet(), 3)

    def test_scales_strictly_decrease(self):
        rng = random.Random(59)
        for _ in range(10):
            orbit = rauzy_orbit(random_iet(rng, 3), 12)
            for a, b in zip(orbit.scales[:-1], orbit.scales[1:]):
                assert b < a

    def test_two_interval_orbit_is_subtractive_euclid(self):
        rng = random.Random(61)
        for _ in range(20):
            q = rng.randint(2, 2000)
            p = rng.randint(1, q - 1)
            e = make_iet([F(p, q), F(q - p, q)], [2, 1])
            expected = euclid_oracle(F(p, q), F(q - p, q))
            orbit = rauzy_orbit(e, len(expected) + 10)
            assert orbit.halt_reason == "tie_encountered"
            assert len(orbit.steps) == len(expected)
            for step, (kind, lengths) in zip(orbit.steps, expected):
                assert step.kind == kind
                assert step.after.lengths == lengths


class TestRescale:
    def test_own_base(self):
        e = rotation(F(1, 3))
        assert rescale(e, e.base_length) == e

    def test_normalize(self):
        e = make_iet([F(1, 3), F(1, 3)], [2, 1])
        assert rescale(e, 1) == make_iet([F(1, 2), F(1, 2)], [2, 1])

    def test_round_trip(self):
        rng = random.Random(67)
        e = random_iet(rng, 3)
        assert rescale(rescale(e, F(5, 7)), e.base_length) == e


class TestInductionConsistency:
    def test_rotation_depth_one_by_hand(self):
        # both routes give the half-half swap after normalization
        report = check_induction_consistency(rotation(F(1, 3)), 1)
        assert report.all_passed
        assert report.entries[0].scale == F(2, 3)
        lhs = rescale(induce(rotation(F(1, 3)), F(2, 3)).induced, 1)
        assert lhs == make_iet([F(1, 2), F(1, 2)], [2, 1])

    def test_random_m3_depth_10(self):
        rng = random.Random(71)
        for _ in range(10):
            report = check_induction_consistency(random_iet(rng, 3), 10)
            assert report.all_passed

    def test_identity_reports_precondition(self):
        report = check_induction_consistency(identity_iet(), 4)
        assert report.halt_reason == "reducible"
        assert report.entries == ()
        assert report.all_passed  # vacuously; no comparison was possible

    @pytest.mark.parametrize("corrupt", ["permutation", "lengths"])
    def test_wrong_rauzy_route_fails_at_every_depth(self, monkeypatch, corrupt):
        # each corrupted state keeps the true base length, so only the exact
        # comparison of the two unnormalized maps can catch it; the moves
        # themselves follow the true states, so the scales stay the true ones
        parent = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        current = [parent]

        def wrong_step(iet):
            after, kind = rauzy_step(current[0])
            current[0] = after
            ls, pm = list(after.lengths), list(after.permutation)
            if corrupt == "permutation":
                pm[0], pm[1] = pm[1], pm[0]
            else:
                shift = min(ls[0], ls[1]) / 2
                ls[0], ls[1] = ls[0] - shift, ls[1] + shift
            wrong = make_iet(ls, pm)
            assert wrong.base_length == after.base_length and wrong != after
            return wrong, kind

        assert check_induction_consistency(parent, 6).all_passed
        monkeypatch.setattr("ietflow.induction.rauzy_step", wrong_step)
        report = check_induction_consistency(parent, 6)
        assert len(report.entries) == 6
        assert not any(e.passed for e in report.entries)

    def test_long_run_passes_at_every_scale(self):
        # the rotation by 1/1000 is one bottom run of 998 moves; each state
        # of it is built from the one before, and each equals its Rauzy state
        report = check_induction_consistency(make_iet([F(999, 1000), F(1, 1000)], [2, 1]), 998)
        assert len(report.entries) == 998 and report.all_passed

    def test_walk_that_skips_a_state_fails(self, monkeypatch):
        # the cross-check reads the walk that probe and measure run, so a
        # walk that loses its first state no longer matches the Rauzy states
        parent = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        walk = induction.probe_walk
        assert len(check_induction_consistency(parent, 6).entries) == 6
        monkeypatch.setattr(induction, "probe_walk", lambda iet: islice(walk(iet), 1, None))
        assert not check_induction_consistency(parent, 6).all_passed

    def test_a_miscounted_state_fails(self, monkeypatch):
        # each state the cross-check builds inside the run is counted again
        parent = make_iet([F(999, 1000), F(1, 1000)], [2, 1])
        monkeypatch.setattr(induction, "probe_counts", miscounted(induction.probe_counts))
        with pytest.raises(NotInduced) as info:
            check_induction_consistency(parent, 20)
        assert str(info.value) == "a run to 999/1000 counts 499 edges, its first return 498"


def miscounted(walk):
    """``walk`` (``probe_counts``) with one more edge counted at every
    scale inside a run, past the walk's own run-end check."""

    def wrong(iet, timed=False):
        for top, count, tied, anchor, moves, longest in walk(iet, timed):
            yield top, count + (moves > 0), tied, anchor, moves, longest

    return wrong


def next_base(state):
    """The base of a Rauzy move from ``state`` on its lattice, b - min(L_last,
    L_beta) with beta the interval whose image is last, and whether
    L_last == L_beta, a tie no Rauzy move passes."""
    cuts, m = state.cuts, state.m
    beta = state.image_order[-1]
    l_last, l_beta = cuts[m] - cuts[m - 1], cuts[beta + 1] - cuts[beta]
    return cuts[m] - min(l_last, l_beta), l_last == l_beta


def chained_walk(iet):
    """The probe walk by chained first returns: each state induced from the
    one before to its ``next_base``, with its scale's numerator, its edge
    count, the sticky tie flag and the state itself."""
    state, tied = iet, False
    while state.m > 1:
        top, tie = next_base(state)
        tied = tied or tie or not is_irreducible(state.permutation)
        state = induce(state, F(top, state.denom), 2).induced
        yield top, max_disjoint_edges(state, with_witness=False)[0], tied, state


def assert_walk_matches_chain(iet, depth=None):
    """The core's (scale, count, tied) at every scale, and the state
    ``probe_walk`` builds there, equal the chained walk's; returns the
    core's entries and why each chained step was taken."""
    core = list(islice(probe_counts(iet), depth))
    chain = list(islice(chained_walk(iet), depth))
    assert [entry[:3] for entry in core] == [entry[:3] for entry in chain]
    for (state, tied), (_, _, chain_tied, chained) in zip(probe_walk(iet), chain):
        assert (state.denom, state.cuts, state.shifts) == (chained.denom, chained.cuts, chained.shifts)
        assert tied == chain_tied
    steps = Counter()
    for (*_, moves, _), previous in zip(core, [iet] + [entry[3] for entry in chain]):
        if not moves:  # a chained step: past a tie, a reducible state or a merge
            if next_base(previous)[1]:
                steps["tie"] += 1
            elif not is_irreducible(previous.permutation):
                steps["reducible"] += 1
            else:
                steps["merge"] += 1
    return core, steps


class TestProbeCounts:
    """The walk's runs of Rauzy moves on integers against chained ``induce``."""

    def test_seeded_exchanges(self):
        # m = 2..6 at resolutions 12, 1000 and 10^6, 120 scales at most;
        # every kind of chained step is met, and most walks end
        rng = random.Random(23)
        runs, steps, longest, whole = 0, Counter(), 0, 0
        for i in range(90):
            m, resolution = 2 + i % 5, (12, 1000, 10**6)[i // 5 % 3]
            iet, _ = sample_uniform_iet(rng, m, resolution)
            core, kinds = assert_walk_matches_chain(iet, 120)
            steps.update(kinds)
            runs += sum(moves == 1 for *_, moves, _ in core)
            longest = max(longest, *(moves for *_, moves, _ in core))
            whole += core[-1][3].m == 1 and not core[-1][4]
        assert (runs, longest, whole) == (770, 117, 76)
        assert steps == {"tie": 127, "merge": 37, "reducible": 1}

    def test_tie_fixture_walks_past_its_tie(self):
        iet = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        core, steps = assert_walk_matches_chain(iet)
        assert len(core) == 239 and sum(tied for _, _, tied, _, _, _ in core) == 220
        assert core[-1][3].m == 1 and steps["tie"] >= 1

    def test_slow_rotation_is_one_bottom_run(self):
        # 998 bottom moves to the tie at 2/1000; the run ends in one first
        # return whose pieces take up to 999 steps, the budget moves + 1
        core, steps = assert_walk_matches_chain(rotation(F(1, 1000)))
        assert [moves for *_, moves, _ in core] == list(range(1, 999)) + [0]
        assert (core[-1][0], core[-1][3].m, steps) == (1, 1, {"tie": 1})

    @pytest.mark.parametrize("lengths", [(F(1, 2), F(3, 10), F(1, 5)), (F(1, 5), F(3, 10), F(1, 2))])
    def test_first_move_merges(self, lengths):
        # on [3, 2, 1] the loser gains the winner's shift, which makes it
        # equal to its neighbour's, in a bottom move (first lengths) and in
        # a top move alike, so the first state is a rotation
        iet = make_iet(lengths, [3, 2, 1])
        core, steps = assert_walk_matches_chain(iet)
        top, _, tied, anchor, moves, _ = core[0]
        assert (moves, anchor.m, tied, F(top, iet.denom)) == (0, 2, False, F(4, 5))
        assert steps["merge"] == 1

    def test_reducible_exchange(self):
        iet = make_iet([F(1, 4), F(1, 4), F(1, 8), F(3, 8)], [2, 1, 4, 3])
        core, steps = assert_walk_matches_chain(iet)
        assert [(F(top, iet.denom), tied, moves) for top, _, tied, _, moves, _ in core] == [
            (F(k, 8), True, 0) for k in (7, 6, 5, 4, 2)
        ]
        assert steps == {"reducible": 2, "tie": 3}

    def test_run_end_count_is_checked(self, monkeypatch):
        # the first return that ends a run must count what the run's
        # arithmetic counted; here every count after the first reads one more
        counted = induction.edge_count
        calls = iter(range(10**6))
        monkeypatch.setattr(induction, "edge_count", lambda c, s: counted(c, s) + (next(calls) > 0))
        with pytest.raises(NotInduced) as info:
            list(probe_counts(rotation(F(1, 1000))))
        assert str(info.value) == "a run to 1/500 counts 0 edges, its first return 1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: rescale(rotation(F(1, 3)), 0), ValueError, "target base must be positive"),
        (lambda: induce(rotation(F(1, 3)), F(2, 3), 0), ValueError, "max_steps must be positive"),
    ],
    ids=["rescale-to-0", "induce-max-steps-0"],
)
def test_validation_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_a_single_label_is_not_irreducible():
    assert is_irreducible([1]) is False
