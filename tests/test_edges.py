"""Virtual edge search, disjoint packing, criterion probes, measure scan."""

import concurrent.futures
import hashlib
import json
import math
import os
import random
from fractions import Fraction as F
from itertools import islice

import pytest

from ietflow import (
    ClosingCriterion,
    estimate_full_measure,
    find_virtual_edges,
    identity_iet,
    in_rotation_band,
    make_iet,
    max_disjoint_edges,
    probe_edge_criterion,
)
from ietflow import induction
from ietflow.cli import run
from ietflow.closing import _return_maps
from ietflow.edges import (
    DEFAULT_WITNESS_GAP,
    VirtualEdge,
    _irreducible_permutation,
    default_probe_scales,
    sample_iet,
    sample_uniform_iet,
)
from ietflow.errors import NotInduced, ReduciblePermutation, ReturnTimeExceeded, TieEncountered
from ietflow.induction import induce, probe_counts, probe_prefix, probe_walk, rauzy_step
from ietflow.measure import _probe_sample
from ietflow.serialize import dump_iet
from .test_closing import walk_states
from .test_iet_core import random_iet, rotation


def grid_edges(iet, resolution):
    """Brute-force edge scan on an even grid, straight from the definition."""
    interior = iet.breakpoints[1:-1]
    found = []
    for j in range(resolution):
        s = iet.base_length * F(j, resolution)
        e1 = iet.evaluate(s)
        if not s < e1:
            continue
        t = iet.evaluate(e1)
        if not e1 < t or t >= iet.base_length:
            continue
        if any(s < c <= t for c in interior):
            continue
        found.append(VirtualEdge(s, e1, t))
    return found


def grid_pack(iet, grid):
    """Greedy interval scheduling over grid-aligned edges (by right endpoint)."""
    edges = sorted((e.t, e.s) for e in grid_edges(iet, grid))
    count, last_t = 0, None
    for t, s in edges:
        if last_t is None or s > last_t:
            count += 1
            last_t = t
    return count


class TestFindVirtualEdges:
    def test_rotation_tenth_family(self):
        fams = find_virtual_edges(rotation(F(1, 10)))
        assert len(fams) == 1
        fam = fams[0]
        assert (fam.s_min, fam.s_sup, fam.offset) == (F(0), F(7, 10), F(1, 10))
        edge = fam.edge_at(F(0))
        assert (edge.s, edge.e1, edge.t) == (F(0), F(1, 10), F(1, 5))
        edge.validate(rotation(F(1, 10)))

    def test_identity_has_none(self):
        assert find_virtual_edges(identity_iet()) == []

    def test_rotation_two_thirds_empty_vs_grid(self):
        e = rotation(F(2, 3))
        assert find_virtual_edges(e) == []
        assert grid_edges(e, 1000) == []

    def test_families_cover_grid_scan(self):
        rng = random.Random(73)
        for _ in range(40):
            e = random_iet(rng, rng.choice([2, 3, 4]), resolution=60)
            fams = find_virtual_edges(e)
            for edge in grid_edges(e, 240):
                assert any(
                    f.s_min <= edge.s < f.s_sup and edge.e1 == edge.s + f.offset
                    for f in fams
                )

    def test_every_family_edge_is_valid(self):
        rng = random.Random(79)
        for _ in range(30):
            e = random_iet(rng, rng.choice([2, 3, 4]))
            for fam in find_virtual_edges(e):
                for frac in (F(0), F(1, 3), F(7, 8)):
                    s = fam.s_min + (fam.s_sup - fam.s_min) * frac
                    fam.edge_at(s).validate(e)


class TestMaxDisjointEdges:
    def test_rotation_tenth_packs_four(self):
        # exhaustive packing over the exact range: edges of length 1/5 with
        # left endpoints in [0, 7/10) admit 4 disjoint representatives
        count, witness = max_disjoint_edges(rotation(F(1, 10)))
        assert count == 4
        assert len(witness) == 4
        for edge in witness:
            edge.validate(rotation(F(1, 10)))
        for a, b in zip(witness[:-1], witness[1:]):
            assert a.t < b.s  # strictly disjoint closed intervals

    def test_identity_zero(self):
        assert max_disjoint_edges(identity_iet())[0] == 0

    def test_matches_grid_oracle(self):
        rng = random.Random(83)
        for _ in range(30):
            e = random_iet(rng, rng.choice([2, 3]), resolution=40)
            denom = e.base_length.denominator
            for x in e.lengths:
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
            count = max_disjoint_edges(e, with_witness=False)[0]
            assert count == grid_pack(e, denom * denom)

    def test_count_only_path_matches_the_families(self):
        # the count-only path works on numerators; it must agree with the
        # witness path and with the families' own packing counts
        exact = make_iet([F(1), F(1, 6)], [2, 1])  # (L - 2 tau) / (2 tau) = 2 exactly
        no_family = [make_iet([F(1), tau], [2, 1]) for tau in (F(1, 2), F(3, 4))]  # tau >= L/2
        # the first piece at L = 2 tau + 1/denom, L = 4 tau and L = 4 tau + 1/denom,
        # then a piece with tau = 0 between pieces with tau < 0 and tau > 0
        boundary = {
            make_iet([F(7, 10), F(3, 10)], [2, 1]): 1,
            make_iet([F(4, 5), F(1, 5)], [2, 1]): 1,
            make_iet([F(9, 11), F(2, 11)], [2, 1]): 2,
            make_iet([F(1, 2), F(1, 8), F(3, 8)], [2, 1, 3]): 1,
        }
        rng = random.Random(91)
        cases = [random_iet(rng, rng.choice([2, 3, 4, 5]), resolution=60) for _ in range(200)]
        for e in cases + [exact, *no_family, *boundary, rotation(F(1, 10)), identity_iet()]:
            count = max_disjoint_edges(e, with_witness=False)[0]
            witnessed, witness = max_disjoint_edges(e)
            assert count == witnessed == len(witness)
            assert count == sum(fam.max_disjoint() for fam in find_virtual_edges(e))
        assert {e: max_disjoint_edges(e, with_witness=False)[0] for e in boundary} == boundary
        assert max_disjoint_edges(exact, with_witness=False)[0] == 2
        assert [fam.max_disjoint() for fam in find_virtual_edges(exact)] == [2]
        for e in no_family:
            assert find_virtual_edges(e) == []
            assert max_disjoint_edges(e, with_witness=False)[0] == 0

    def test_witness_respects_gap(self):
        count, witness = max_disjoint_edges(rotation(F(1, 10)))
        assert count == len(witness) == 4
        for a, b in zip(witness[:-1], witness[1:]):
            assert b.s - a.t <= DEFAULT_WITNESS_GAP


class TestRotationBand:
    def test_rotation_sixteenth(self):
        e = rotation(F(1, 16))
        assert in_rotation_band(e, 1)
        assert not in_rotation_band(e, 2)

    def test_identity_never(self):
        assert not in_rotation_band(identity_iet(), 1)

    def test_band_is_open(self):
        k = 2
        lo = F(1, 16**k) - F(1, 32**k)
        hi = F(1, 16**k) + F(1, 32**k)
        assert not in_rotation_band(rotation(lo), k)
        assert not in_rotation_band(rotation(hi), k)
        assert in_rotation_band(rotation((lo + hi) / 2), k)

    def test_band_members_beat_the_index(self):
        # the band guarantees more than k pairwise disjoint edges
        for k in range(1, 5):
            e = rotation(F(1, 16**k))
            assert in_rotation_band(e, k)
            assert max_disjoint_edges(e, with_witness=False)[0] > k

    def test_a_first_piece_up_to_half_is_never_in_the_band(self):
        assert in_rotation_band(make_iet([F(1, 2), F(1, 2)], [2, 1]), 1) is False

    def test_non_rotation_band_member(self):
        a = F(1, 16)
        e = make_iet([F(9, 16), a, F(1) - F(9, 16) - a], [2, 1, 3])
        assert e.m == 3
        assert in_rotation_band(e, 1)
        assert max_disjoint_edges(e, with_witness=False)[0] > 1


class TestCriterion:
    def test_threshold_formula(self):
        assert ClosingCriterion(-3, 1).threshold == 1
        assert ClosingCriterion(-2, 1).threshold == 2
        assert ClosingCriterion(0, 2).threshold == 5

    def test_clamp_flagged(self):
        crit = ClosingCriterion(-8, 1)
        assert crit.threshold == 1
        assert crit.clamped
        assert not ClosingCriterion(-3, 1).clamped


class TestProbe:
    def test_rotation_sixteenth_explicit_scales(self):
        crit = ClosingCriterion(-2, 1)  # threshold 2
        scales = [F(1, 2), F(1, 4), F(1, 8)]
        report = probe_edge_criterion(rotation(F(1, 16)), crit, 3, scales)
        # per-scale counts re-derived by inducing then packing independently
        expected = []
        for b in scales:
            induced = induce(rotation(F(1, 16)), b).induced
            expected.append(max_disjoint_edges(induced, with_witness=False)[0])
        for probe, want in zip(report.probes, expected):
            assert probe.edge_count == want
            assert probe.passed == (want >= 2)
        assert report.verdict == (
            "certified_to_depth" if all(p.passed for p in report.probes) and len(report.probes) == 3 else "refuted_at_depth"
        )

    def test_identity_refuted_immediately(self):
        # an identity has no scale below its base, so the walk is empty and
        # the empty sweep refutes instead of certifying
        report = probe_edge_criterion(identity_iet(), ClosingCriterion(-3, 1), 3)
        assert report.verdict == "refuted_at_depth"
        assert report.probes == ()
        assert report.used_fallback_scales is False

    def test_fallback_flag_covers_only_the_probed_scales(self):
        # refuted at 17/22, the first Rauzy scale; induction ties later,
        # past the probed scales
        iet = make_iet([F(5, 22), F(17, 22)], [2, 1])
        report = probe_edge_criterion(iet, ClosingCriterion(-3, 1), 8)
        assert report.verdict == "refuted_at_depth"
        assert [p.scale for p in report.probes] == [F(17, 22)]
        assert report.used_fallback_scales is False
        assert default_probe_scales(iet, 8)[1]  # the walk passes a tie within 8 scales

    def test_default_scale_counts_match_recomputation(self):
        rng = random.Random(89)
        for _ in range(5):
            e = random_iet(rng, 4)
            report = probe_edge_criterion(e, ClosingCriterion(-3, 1), 4)
            for probe in report.probes:
                induced = induce(e, probe.scale).induced
                assert probe.edge_count == max_disjoint_edges(induced, with_witness=False)[0]

    def test_threshold_monotone(self):
        rng = random.Random(97)
        scales = [F(1, 3), F(1, 9), F(1, 27)]
        for _ in range(10):
            e = random_iet(rng, 3)
            strict = probe_edge_criterion(e, ClosingCriterion(-2, 1), 3, scales)
            loose = probe_edge_criterion(e, ClosingCriterion(-3, 1), 3, scales)
            if strict.verdict == "certified_to_depth":
                assert loose.verdict == "certified_to_depth"

    def test_scales_validated(self):
        with pytest.raises(ValueError):
            probe_edge_criterion(rotation(F(1, 3)), ClosingCriterion(-3, 1), 2, [F(1, 4), F(1, 2)])
        with pytest.raises(ValueError):
            probe_edge_criterion(rotation(F(1, 3)), ClosingCriterion(-3, 1), 0)

    def test_certified_note_disclaims(self):
        report = probe_edge_criterion(rotation(F(1, 16)), ClosingCriterion(-3, 1), 2)
        assert "probed scales" in report.note


def lattice(iet):
    return iet.denom, iet.cuts, iet.shifts


class TestProbeWalk:
    @pytest.mark.parametrize("sampler", [sample_iet, sample_uniform_iet])
    def test_walk_invariants_on_seeded_exchanges(self, sampler):
        # the walk steps by first returns; wherever a Rauzy move is defined,
        # ``rauzy_step`` reaches the same state on the same lattice by an
        # independent route, and the tie flag turns on where it is not
        rng = random.Random(12)
        raised = moves = continued = 0
        for i in range(48):
            iet, _ = sampler(rng, 2 + i % 4, (60, 1000, 10**6)[i // 4 % 3])
            walk = list(probe_walk(iet))
            assert walk[-1][0].m == 1
            assert all(state.m > 1 for state, _ in walk[:-1])
            # Rauzy moves keep a permutation irreducible, so only a tie or
            # its continuation reaches the identity
            assert walk[-1][1]
            scales = [state.base_length for state, _ in walk]
            assert all(a > b for a, b in zip([iet.base_length] + scales, scales))
            previous, tied = iet, False
            for state, flag in walk:
                try:
                    rauzy, _ = rauzy_step(previous)
                except (TieEncountered, ReduciblePermutation):
                    tied = True
                    continued += 1
                else:
                    assert lattice(state) == lattice(rauzy)
                    moves += 1
                assert state.denom == iet.denom and flag == tied
                previous = state
            maps = walk_states(_return_maps(iet, 0))
            try:
                for state, _ in walk:
                    assert lattice(next(maps)) == lattice(state)
            except ReturnTimeExceeded:
                raised += 1
                continue
            assert next(maps, None) is None
        assert 0 < raised < 48
        assert moves > continued > 0

    def test_reducible_exchange_walks_as_past_a_tie(self):
        # no Rauzy move is defined on [2, 1, 4, 3], though its comparands
        # 3/8 and 1/8 differ: the first step is already flagged
        iet = make_iet([F(1, 4), F(1, 4), F(1, 8), F(3, 8)], [2, 1, 4, 3])
        walk = [(state.base_length, tied) for state, tied in probe_walk(iet)]
        assert walk == [(F(k, 8), True) for k in (7, 6, 5, 4, 2)]


SLOW_ROTATION = rotation(F(1, 1000))
TIE_FIXTURE = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
REDUCIBLE = make_iet([F(1, 4), F(1, 4), F(1, 8), F(3, 8)], [2, 1, 4, 3])

# the three probes that cut the walk, each called on an exchange and a depth
PROBES = {
    "sample": lambda iet, depth: _probe_sample((0, iet, 1, depth)),
    "scales": default_probe_scales,
    "criterion": lambda iet, depth: probe_edge_criterion(iet, ClosingCriterion(-3, 1), depth),
}


class TestLastRunCheck:
    """A probe checks the run its walk stops inside by one ``induce`` from
    that run's anchor; the walk itself calls none."""

    @staticmethod
    def recorded_induce(monkeypatch):
        calls = []

        def recording(parent, b, max_steps=None):
            calls.append((parent, b, max_steps))
            return induce(parent, b, max_steps)

        monkeypatch.setattr(induction, "induce", recording)
        return calls

    @staticmethod
    def stop_entry(probe, iet, depth, result):
        # the criterion's scan stops at its first failing scale
        core = list(islice(probe_counts(iet), depth))
        return core[len(result.probes) - 1] if probe == "criterion" else core[-1]

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize(
        "iet, depth",
        [(SLOW_ROTATION, 5), (TIE_FIXTURE, 19)],
        ids=["rotation-depth-5", "tie-fixture-depth-19"],
    )
    def test_a_stop_inside_a_run_takes_one_induce(self, monkeypatch, probe, iet, depth):
        calls = self.recorded_induce(monkeypatch)
        result = PROBES[probe](iet, depth)
        top, _, _, anchor, moves, _ = self.stop_entry(probe, iet, depth, result)
        assert moves > 0
        assert calls == [(anchor, F(top, iet.denom), moves + 1)]

    def test_the_criterion_checks_the_scale_it_fails_at(self, monkeypatch):
        # the slow rotation's counts reach 0 at 3/1000, 997 moves into its
        # one run, and the scan stops there, short of its depth
        calls = self.recorded_induce(monkeypatch)
        report = probe_edge_criterion(SLOW_ROTATION, ClosingCriterion(-3, 1), 999)
        assert len(report.probes) == 997 and report.probes[-1].scale == F(3, 1000)
        assert calls == [(SLOW_ROTATION, F(3, 1000), 998)]

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize(
        "iet, depth",
        [(TIE_FIXTURE, 20), (REDUCIBLE, 5)],
        ids=["tie-fixture-depth-20", "reducible-depth-5"],
    )
    def test_a_stop_on_an_anchor_takes_none(self, monkeypatch, probe, iet, depth):
        calls = self.recorded_induce(monkeypatch)
        result = PROBES[probe](iet, depth)
        assert self.stop_entry(probe, iet, depth, result)[4] == 0
        assert calls == []

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_a_wrong_state_at_the_stop_raises(self, monkeypatch, probe):
        # the state handed back is the anchor itself, which counts 499 edges
        # where the run's fifth move counts 496
        monkeypatch.setattr(induction, "induce", lambda parent, b, max_steps: induce(parent, 1))
        with pytest.raises(NotInduced) as info:
            PROBES[probe](SLOW_ROTATION, 5)
        assert str(info.value) == "a run to 199/200 counts 496 edges, its first return 499"


class TestProbePrefix:
    """``probe_prefix`` is the walk a probe reads: the first ``depth``
    entries of ``probe_counts``, cut after the first count below the
    threshold."""

    @staticmethod
    def scan(iet, depth, threshold):
        entries = []
        for entry in islice(probe_counts(iet), depth):
            entries.append(entry)
            if entry[1] < threshold:
                break
        return entries

    def test_matches_a_direct_scan(self):
        rng = random.Random(32)
        cut = inside = 0
        for i in range(160):
            iet, _ = sample_uniform_iet(rng, 2 + i % 4, 10**6)
            for depth in (1, 4, 17, 40):
                for threshold in range(4):
                    prefix = probe_prefix(iet, depth, threshold)
                    assert prefix == self.scan(iet, depth, threshold), (iet, depth, threshold)
                    cut += len(prefix) < len(list(islice(probe_counts(iet), depth)))
                    inside += bool(prefix) and prefix[-1][4] > 0
        # both ways to stop, and stops inside a run, are exercised
        assert cut >= 100 and inside >= 100, (cut, inside)


class TestMeasure:
    def test_deterministic_given_seed(self):
        crit = ClosingCriterion(-3, 1)
        a = estimate_full_measure(2, crit, depth=3, samples=40, seed=42, resolution=1000)
        b = estimate_full_measure(2, crit, depth=3, samples=40, seed=42, resolution=1000)
        assert a.counts == b.counts
        assert a.per_sample == b.per_sample

    def test_single_sample_degenerate(self):
        crit = ClosingCriterion(-3, 1)
        report = estimate_full_measure(2, crit, depth=2, samples=1, seed=5, resolution=50)
        assert sum(report.counts.values()) == 1
        frac, lo, hi = report.fractions[report.per_sample[0].verdict]
        assert frac == 1.0 and lo <= frac <= hi

    def test_small_denominators_tie_often(self):
        crit = ClosingCriterion(-3, 1)
        report = estimate_full_measure(2, crit, depth=8, samples=120, seed=9, resolution=12)
        ties = sum(1 for s in report.per_sample if s.tie)
        assert ties > len(report.per_sample) / 3

    def test_refuted_shrinks_with_depth(self):
        crit = ClosingCriterion(-3, 1)
        shallow = estimate_full_measure(2, crit, depth=2, samples=150, seed=42, resolution=997)
        deep = estimate_full_measure(2, crit, depth=6, samples=150, seed=42, resolution=997)
        assert deep.counts["refuted_at_depth"] <= shallow.counts["refuted_at_depth"]

    def test_samples_are_uniform_on_the_simplex(self):
        # under the uniform law on the m=2 simplex the first length is
        # uniform on (0, 1), so a tenth of the samples fall below 1/10
        n = 4000
        report = estimate_full_measure(2, ClosingCriterion(-3, 1), depth=1, samples=n, seed=3)
        low = sum(s.lengths[0] < F(1, 10) for s in report.per_sample)
        se = math.sqrt(0.1 * 0.9 / n)
        assert abs(low / n - 0.1) <= 3 * se, low / n

    def test_sampler_needs_a_positive_composition(self):
        with pytest.raises(ValueError):
            sample_uniform_iet(random.Random(0), 4, 3)
        with pytest.raises(ValueError):
            estimate_full_measure(4, ClosingCriterion(-3, 1), depth=1, samples=1, seed=0, resolution=3)
        iet, _ = sample_uniform_iet(random.Random(0), 2, 2)
        assert iet.lengths == (F(1, 2), F(1, 2))

    def test_lattice_sampler_matches_the_fraction_route(self):
        # the draw builds its exchange on the lattice of the resolution;
        # the route it replaced built Fraction lengths for ``make_iet``.
        # Both make the same rng calls in the same order
        def fraction_route(rng, m, resolution):
            perm, rejected = _irreducible_permutation(rng, m)
            cuts = [0] + sorted(rng.sample(range(1, resolution), m - 1)) + [resolution]
            lengths = [F(hi - lo, resolution) for lo, hi in zip(cuts, cuts[1:])]
            return make_iet(lengths, perm), rejected

        reduced = 0
        for m in range(2, 7):
            for resolution in (m, m + 1, 12, 1000, 10**6):
                ours, theirs = random.Random(m * resolution), random.Random(m * resolution)
                for _ in range(150):
                    iet, rejected = sample_uniform_iet(ours, m, resolution)
                    expected, expected_rejected = fraction_route(theirs, m, resolution)
                    assert iet.denom == resolution and rejected == expected_rejected
                    assert iet == expected and hash(iet) == hash(expected)
                    assert (iet.lengths, iet.permutation) == (expected.lengths, expected.permutation)
                    assert ours.getstate() == theirs.getstate()
                    reduced += expected.denom < resolution
        assert reduced > 400  # many draws have a coarser least lattice

    def test_integer_sampler_draws_are_pinned(self):
        # ``sample_iet`` divides m integer draws by their sum; the exchange
        # is the one ``make_iet`` builds from those Fractions, on the
        # lattice of the raw sum, after the same rng calls in the same order
        def fraction_route(rng, m, resolution):
            perm, rejected = _irreducible_permutation(rng, m)
            raw = [rng.randint(1, resolution) for _ in range(m)]
            return make_iet([F(x, sum(raw)) for x in raw], perm), rejected, sum(raw)

        draws = reduced = 0
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):
                for m in range(2, 6):
                    for resolution in (60, 1000):
                        iet, rejected = sample_iet(ours, m, resolution)
                        expected, expected_rejected, total = fraction_route(theirs, m, resolution)
                        assert iet == expected and hash(iet) == hash(expected)
                        assert (iet.lengths, iet.permutation) == (expected.lengths, expected.permutation)
                        assert rejected == expected_rejected and iet.denom == total
                        assert ours.getstate() == theirs.getstate()
                        draws += 1
                        reduced += expected.denom < total
        assert draws == 8000 and reduced > 1000  # many draws have a coarser least lattice

    def test_benchmark_pool_outcomes_are_pinned(self):
        # 640 samples of the benchmark's configuration; values recorded
        # before the sampler built its exchanges on the lattice
        report = estimate_full_measure(4, ClosingCriterion(-3, 1), 32, 640, 101)
        counts = {"certified_to_depth": 560, "refuted_at_depth": 80, "undecided_tie": 0}
        assert report.counts == counts and report.reducible_draws == 567
        digest = hashlib.sha256(repr(report.per_sample).encode()).hexdigest()
        assert digest == "76ea9fcf4c1ae7766048533718172c00f771a722b2f79e02e09797efc16e6ada"

    def test_probe_and_measure_agree_past_a_tie(self, tmp_path, capsys):
        # Rauzy induction ties after 19 moves; the walk goes on by the exact
        # first return, so probe and measure read the same 20 scales
        iet = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
        path = tmp_path / "m4.json"
        dump_iet(iet, str(path))
        assert run(["probe", "--input", str(path), "--depth", "20"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["verdict"], data["used_fallback_scales"]) == ("undecided_tie", True)
        scales, tie = default_probe_scales(iet, 20)
        assert tie and [p["scale"] for p in data["probes"]] == [str(b) for b in scales]
        assert len(scales) == 20 and all(p["passed"] for p in data["probes"])
        outcome = _probe_sample((0, iet, 1, 20))
        assert (outcome.scales_probed, outcome.scales_passed, outcome.tie) == (20, 20, True)
        assert (outcome.first_pass_index, outcome.verdict) == (1, "certified_to_depth")

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            estimate_full_measure(3, ClosingCriterion(-3, 1), depth=depth, samples=5, seed=1)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected(self, seed):
        # random.Random(-7) draws as Random(7), so a negative seed would
        # report one seed and sample another
        with pytest.raises(ValueError, match="seed must be >= 0"):
            estimate_full_measure(3, ClosingCriterion(-3, 1), depth=2, samples=5, seed=seed)

    def test_benchmark_configuration_is_pinned(self):
        # the benchmark's measure configuration; values recorded before the
        # exchange core moved to integer numerators
        report = estimate_full_measure(4, ClosingCriterion(-3, 1), depth=32, samples=40, seed=101)
        assert report.counts == {"certified_to_depth": 35, "refuted_at_depth": 5, "undecided_tie": 0}
        assert report.reducible_draws == 40
        rows = [
            (s.verdict, s.scales_probed, s.scales_passed, s.first_pass_index, s.tie)
            for s in report.per_sample
        ]
        assert rows[:2] == [
            ("certified_to_depth", 32, 8, 7, False),
            ("refuted_at_depth", 32, 0, None, False),
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "ce5c76cc15aa1c1eae82c274ed673bfce26bcb24e52d57348c871ba9c2cae96d"

    def test_tie_heavy_configuration_is_pinned(self):
        # three samples in four pass a tie within 32 scales; values recorded
        # before the walk stepped by first returns alone
        report = estimate_full_measure(3, ClosingCriterion(-3, 1), 32, 200, 7, resolution=1000)
        assert report.counts == {"certified_to_depth": 159, "refuted_at_depth": 21, "undecided_tie": 20}
        assert sum(s.tie for s in report.per_sample) == 150
        rows = [
            (s.verdict, s.scales_probed, s.scales_passed, s.first_pass_index, s.tie)
            for s in report.per_sample
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "8e378a49de5480218850cabc079254e894fea2bf20c1f0b1688d1c147dacc031"

    def test_worker_pool_matches_sequential(self):
        crit = ClosingCriterion(-3, 1)
        seq = estimate_full_measure(3, crit, depth=3, samples=16, seed=13, resolution=500)
        par = estimate_full_measure(3, crit, depth=3, samples=16, seed=13, resolution=500, workers=2)
        assert seq.counts == par.counts
        assert seq.per_sample == par.per_sample

    @pytest.mark.parametrize(
        "workers, samples, cpus, pool_size",
        [(64, 2, 8, 2), (64, 10, 3, 3), (2, 10, 8, 2), (64, 10, None, None), (4, 1, 8, None)],
    )
    def test_worker_pool_is_bounded(self, monkeypatch, workers, samples, cpus, pool_size):
        # a fork pool starts every worker at the first submit, so the pool
        # is capped by the samples and the CPUs; the fake pool maps in-process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        crit = ClosingCriterion(-3, 1)
        seq = estimate_full_measure(3, crit, depth=3, samples=samples, seed=13, resolution=500)
        par = estimate_full_measure(
            3, crit, depth=3, samples=samples, seed=13, resolution=500, workers=workers
        )
        assert sizes == ([] if pool_size is None else [pool_size])
        assert seq.per_sample == par.per_sample

    @pytest.mark.parametrize(
        "workers, samples, cpus, chunksize",
        [(2, 100, 8, 13), (4, 100, 4, 7), (64, 10, 3, 1), (2, 4, 2, 1)],
    )
    def test_worker_pool_takes_four_chunks_a_worker(
        self, monkeypatch, workers, samples, cpus, chunksize
    ):
        # ceil(samples / (4 * pool size)): few pickling round trips per worker
        chunks = []

        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                chunks.append(chunksize)
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        crit = ClosingCriterion(-3, 1)
        seq = estimate_full_measure(3, crit, depth=3, samples=samples, seed=13, resolution=500)
        par = estimate_full_measure(
            3, crit, depth=3, samples=samples, seed=13, resolution=500, workers=workers
        )
        assert chunks == [chunksize]
        assert seq.per_sample == par.per_sample


TENTH = rotation(F(1, 10))
CRITERION = ClosingCriterion(-3, 1)
NOT_INTEGERS = "euler_characteristic and k must be integers"
WORKERS = "workers must be >= 1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: find_virtual_edges(TENTH)[0].edge_at(F(7, 10)),
            ValueError,
            "7/10 outside admissible range [0, 7/10)",
        ),
        (
            lambda: find_virtual_edges(TENTH)[0].edge_at(F(-1, 10)),
            ValueError,
            "-1/10 outside admissible range [0, 7/10)",
        ),
        (lambda: in_rotation_band(TENTH, 0), ValueError, "k must be >= 1"),
        (
            lambda: in_rotation_band(make_iet([F(1), F(1)], [2, 1]), 1),
            ValueError,
            "rotation band test needs a unit base",
        ),
        (
            lambda: probe_edge_criterion(TENTH, CRITERION, 5, []),
            ValueError,
            "explicit scale list must be nonempty",
        ),
        (
            lambda: probe_edge_criterion(TENTH, CRITERION, 5, [F(2), F(1, 2)]),
            ValueError,
            "scales must lie in (0, base]",
        ),
        (
            lambda: probe_edge_criterion(TENTH, CRITERION, 5, [F(1, 2), F(0)]),
            ValueError,
            "scales must lie in (0, base]",
        ),
        (lambda: estimate_full_measure(1, CRITERION, 4, 5, 1), ValueError, "m must be >= 2"),
        (lambda: estimate_full_measure(3, CRITERION, 4, 0, 1), ValueError, "samples must be >= 1"),
        (lambda: estimate_full_measure(3, CRITERION, 4, 5, 1, workers=0), ValueError, WORKERS),
        (lambda: estimate_full_measure(3, CRITERION, 4, 5, 1, workers=-2), ValueError, WORKERS),
        (lambda: ClosingCriterion(-3, 1.5), ValueError, NOT_INTEGERS),
        (lambda: ClosingCriterion(-3, True), ValueError, NOT_INTEGERS),
        (lambda: ClosingCriterion("-3", 1), ValueError, NOT_INTEGERS),
        (lambda: ClosingCriterion(F(-3), 1), ValueError, NOT_INTEGERS),
    ],
    ids=[
        "edge-at-s-sup",
        "edge-at-below-s-min",
        "rotation-band-k-0",
        "rotation-band-base-2",
        "probe-no-scales",
        "probe-scale-above-base",
        "probe-scale-0",
        "measure-m-1",
        "measure-no-samples",
        "measure-workers-0",
        "measure-workers-negative",
        "criterion-k-float",
        "criterion-k-bool",
        "criterion-chi-str",
        "criterion-chi-fraction",
    ],
)
def test_validation_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
