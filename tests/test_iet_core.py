"""Core exchange construction, evaluation, and continuity structure."""

import random
from fractions import Fraction as F

import pytest

from ietflow import (
    ClosingCriterion,
    FormatError,
    Iet,
    NonPositiveLength,
    OutOfDomain,
    PermutationNotBijective,
    SuspensionFlow,
    close_at_point,
    identity_iet,
    induce,
    make_iet,
    parse_rational,
    probe_edge_criterion,
)


def rotation(alpha, base=F(1)):
    """Rotation by alpha on [0, base): lengths (base - alpha, alpha), swapped."""
    alpha = F(alpha)
    return make_iet([base - alpha, alpha], [2, 1])


def random_iet(rng, m, resolution=500):
    from ietflow.induction import is_irreducible

    while True:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        if is_irreducible(perm):
            break
    raw = [rng.randint(1, resolution) for _ in range(m)]
    total = sum(raw)
    return make_iet([F(x, total) for x in raw], perm)


class TestConstruction:
    def test_identity_single_interval(self):
        e = make_iet([F(1)], [1])
        assert e.m == 1
        assert e.base_length == 1
        assert e.evaluate(F(1, 3)) == F(1, 3)

    def test_rotation_by_third(self):
        e = rotation(F(1, 3))
        assert e.lengths == (F(2, 3), F(1, 3))
        assert e.permutation == (2, 1)
        assert e.translations == (F(1, 3), -F(2, 3))

    def test_fake_discontinuity_merges_to_identity(self):
        # adjacent images stay adjacent, so the breakpoint is not a real
        # discontinuity: direct evaluation on both sides agrees
        e = make_iet([F(1, 2), F(1, 2)], [1, 2])
        assert e.m == 1
        assert e == identity_iet()

    def test_degenerate_three_interval_merges(self):
        # image ranks 2,3 are adjacent: intervals 1 and 2 carry one translation
        e = make_iet([F(1, 2), F(3, 10), F(1, 5)], [2, 3, 1])
        assert e.m == 2
        assert e == rotation(F(1, 5))

    def test_rejects_bad_lengths(self):
        with pytest.raises(NonPositiveLength):
            make_iet([F(1), F(0)], [1, 2])
        with pytest.raises(NonPositiveLength):
            make_iet([], [])

    def test_rejects_bad_permutation(self):
        with pytest.raises(PermutationNotBijective):
            make_iet([F(1, 2), F(1, 2)], [1, 1])
        with pytest.raises(PermutationNotBijective):
            make_iet([F(1, 2), F(1, 2)], [1, 3])

    def test_rejects_non_integer_permutation_entries(self):
        # int() of these entries would give a valid bijection, but a float,
        # a bool or a string is not a rank
        for perm in ([2.7, 1.2], [2.0, 1.0], [True, 2], [2, True], ["2", "1"]):
            with pytest.raises(PermutationNotBijective, match="not an integer"):
                Iet([F(1, 2), F(1, 2)], perm)

    def test_canonical_form_stable(self):
        rng = random.Random(5)
        for _ in range(25):
            e = random_iet(rng, rng.choice([2, 3, 4]))
            again = make_iet(list(e.lengths), list(e.permutation))
            assert again == e


class TestEvaluate:
    def test_rotation_values(self):
        e = rotation(F(1, 3))
        assert e.evaluate(F(1, 2)) == F(5, 6)
        assert e.evaluate(F(2, 3)) == F(0)

    def test_identity(self):
        e = identity_iet()
        for x in (F(0), F(1, 7), F(9, 10)):
            assert e.evaluate(x) == x

    def test_domain_errors(self):
        e = rotation(F(1, 3))
        with pytest.raises(OutOfDomain):
            e.evaluate(F(1))
        with pytest.raises(OutOfDomain):
            e.evaluate(F(-1, 10))

    def test_bijectivity_sampled(self):
        rng = random.Random(17)
        for _ in range(5):
            e = random_iet(rng, rng.choice([2, 3, 4]))
            xs = {F(rng.randrange(0, 3000), 3000) for _ in range(1000)}
            images = {e.evaluate(x) for x in xs}
            assert len(images) == len(xs)
            inv = e.invert()
            for x in list(xs)[:200]:
                assert inv.evaluate(e.evaluate(x)) == x

    def test_measure_preservation_exact(self):
        # image intervals partition the base and their lengths permute the
        # length vector
        rng = random.Random(23)
        for _ in range(20):
            e = random_iet(rng, rng.choice([2, 3, 4]))
            images = sorted(
                (e.evaluate(e.breakpoints[i]), e.lengths[i]) for i in range(e.m)
            )
            cursor = F(0)
            for start, length in images:
                assert start == cursor
                cursor += length
            assert cursor == e.base_length
            assert sorted(l for _, l in images) == sorted(e.lengths)

    def test_piecewise_translation(self):
        rng = random.Random(29)
        e = random_iet(rng, 4)
        for i in range(e.m):
            lo, hi = e.breakpoints[i], e.breakpoints[i + 1]
            offs = {
                e.evaluate(x) - x
                for x in (lo, (lo + hi) / 2, lo + (hi - lo) * F(7, 11))
            }
            assert len(offs) == 1


class TestInvert:
    def test_identity(self):
        assert identity_iet().invert() == identity_iet()

    def test_rotation_third(self):
        # round-trip on all breakpoints and midpoints pins the inverse
        e = rotation(F(1, 3))
        inv = e.invert()
        assert inv == rotation(F(2, 3))
        points = list(e.breakpoints[:-1]) + [
            (a + b) / 2 for a, b in zip(e.breakpoints[:-1], e.breakpoints[1:])
        ]
        for x in points:
            assert inv.evaluate(e.evaluate(x)) == x

    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(5):
            e = random_iet(rng, 3)
            inv = e.invert()
            assert inv.invert() == e
            for _ in range(100):
                x = F(rng.randrange(0, 997), 997)
                assert inv.evaluate(e.evaluate(x)) == x


class TestIterate:
    def test_zero_steps(self):
        e = rotation(F(1, 3))
        assert e.iterate(F(1, 2), 0) == F(1, 2)

    def test_rotation_cycles(self):
        # 3 * (1/3) wraps to the start
        e = rotation(F(1, 3))
        assert e.iterate(F(0), 3) == F(0)

    def test_two_steps_brute(self):
        e = rotation(F(1, 10))
        expected = e.evaluate(e.evaluate(F(0)))
        assert expected == F(1, 5)
        assert e.iterate(F(0), 2) == expected

    def test_negative_steps(self):
        e = rotation(F(1, 10))
        x = F(3, 7)
        assert e.iterate(e.iterate(x, 5), -5) == x


class TestContinuityIntervals:
    def test_single_piece_identity(self):
        assert identity_iet().continuity_intervals(4) == [(F(0), F(1))]

    def test_rotation_first_power(self):
        e = rotation(F(1, 3))
        assert e.continuity_intervals(1) == [(F(0), F(2, 3)), (F(2, 3), F(1))]

    def test_second_power_pulls_back_break(self):
        # oracle: the square's pieces split where the orbit meets the break,
        # i.e. at 9/10 and its preimage under the rotation
        e = rotation(F(1, 10))
        brk = F(9, 10)
        pulled = e.invert().evaluate(brk)
        expected = [(F(0), pulled), (pulled, brk), (brk, F(1))]
        assert e.continuity_intervals(2) == expected
        assert pulled == F(4, 5)

    def test_piece_count_bound(self):
        rng = random.Random(37)
        for _ in range(10):
            e = random_iet(rng, rng.choice([2, 3]))
            for n in (1, 2, 3):
                pieces = e.continuity_intervals(n)
                assert len(pieces) <= 1 + n * (e.m - 1)
                assert pieces[0][0] == 0 and pieces[-1][1] == e.base_length
                # constant translation on each piece
                for lo, hi in pieces:
                    mid = (lo + hi) / 2
                    third = lo + (hi - lo) / 3
                    assert e.iterate(mid, n) - mid == e.iterate(third, n) - third


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: make_iet([0.5, 0.5], [2, 1]), FormatError, "not an exact rational: 0.5"),
        (lambda: rotation(F(1, 3)).continuity_intervals(0), ValueError, "n must be >= 1"),
    ],
    ids=["float-length", "continuity-intervals-n-0"],
)
def test_validation_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: make_iet([True, 2], [2, 1]), True),
        (lambda: induce(rotation(F(1, 3)), True), True),
        (lambda: rotation(F(1, 3)).evaluate(False), False),
        (lambda: SuspensionFlow(rotation(F(1, 10)), (True, F(1))), True),
        (lambda: SuspensionFlow(rotation(F(1, 10)), (F(1), F(1)), (False,)), False),
        (
            lambda: close_at_point(
                SuspensionFlow(rotation(F(1, 10)), (F(1), F(1))), False, ClosingCriterion(-3, 1), 1
            ),
            False,
        ),
        (lambda: probe_edge_criterion(rotation(F(1, 10)), ClosingCriterion(-3, 1), 1, [True]), True),
    ],
    ids=["make-iet-lengths", "induce-b", "evaluate", "flow-roof", "flow-singular-point",
         "close-at-point-p", "probe-scales"],
)
def test_a_bool_is_not_an_exact_rational(call, value):
    # bool subclasses int, but no length, point or scale is a truth value
    with pytest.raises(FormatError) as info:
        call()
    assert str(info.value) == f"not an exact rational: {value}"


@pytest.mark.parametrize(
    "text", ["0.5", "1e3", "1_0/2_0", "1/2_0", "\u0661/\u0662", "\u0663", "1/\uff12"]
)
def test_parse_rational_rejects_decimals_separators_and_other_digits(text):
    with pytest.raises(FormatError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text, value", [("1/2", F(1, 2)), (" -1/2 ", F(-1, 2)), ("+3", F(3)), ("\t4/6\n", F(2, 3))]
)
def test_parse_rational_keeps_sign_and_surrounding_whitespace(text, value):
    assert parse_rational(text) == value
