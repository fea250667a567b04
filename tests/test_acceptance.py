"""Acceptance suite: one test per shipped guarantee, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from ietflow import (
    ClosingCriterion,
    SuspensionFlow,
    build_flow_box,
    check_induction_consistency,
    close_at_point,
    estimate_full_measure,
    find_closing_parameter,
    in_rotation_band,
    make_iet,
    make_twist_family,
    max_disjoint_edges,
    rauzy_orbit,
    twisted_return,
)
from ietflow.cli import run
from ietflow.edges import VirtualEdge
from ietflow.induction import is_irreducible
from ietflow.serialize import dump_iet
from .test_closing import sweep_oracle, tenth_box, tenth_flow
from .test_iet_core import random_iet, rotation
from .test_induction import euclid_oracle


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


def test_criterion_1_induction_cross_validation():
    # 100 seeded random exchanges, m in {2,3,4}: the combinatorial route and
    # the first-return route agree exactly at every depth reached up to 20
    rng = random.Random(11)
    start = time.time()
    failures = []
    for i in range(100):
        m = [2, 3, 4][i % 3]
        e = random_iet(rng, m, resolution=997)
        report = check_induction_consistency(e, 20)
        if not report.all_passed:
            failures.append((e, report))
    elapsed = time.time() - start
    ok = _verdict(
        "1 rauzy/induce agreement",
        not failures,
        f"100 iets, depth<=20, {elapsed:.2f}s (expected < 10s)",
    )
    assert ok, failures[:3]


def test_criterion_2_rotation_band_edge_bound():
    # band members carry more than k pairwise disjoint edges, exactly
    cases = []
    for k in range(1, 5):
        center = F(1, 16**k)
        halfwidth = F(1, 32**k)
        members = [
            rotation(center),
            rotation(center + halfwidth / 2),
            rotation(center - halfwidth / 2),
            # a three-interval member translating [0, 1/2] by the band offset
            make_iet([F(9, 16), center, F(7, 16) - center], [2, 1, 3]),
        ]
        for e in members:
            assert in_rotation_band(e, k), (k, e)
            count = max_disjoint_edges(e, with_witness=False)[0]
            cases.append((k, e, count))
    bad = [(k, e, c) for k, e, c in cases if not c > k]
    ok = _verdict(
        "2 band members beat their index",
        not bad,
        f"{len(cases)} members over k=1..4, zero tolerance",
    )
    assert ok, bad


def test_criterion_3_two_interval_rauzy_is_euclid():
    # the trajectory reproduces subtractive Euclid step for step and ties
    # exactly when the remainders become equal
    rng = random.Random(19)
    start = time.time()
    checked = 0
    for _ in range(50):
        q = rng.randrange(2, 10**4 + 1)
        p = rng.randrange(1, q)
        e = make_iet([F(p, q), F(q - p, q)], [2, 1])
        expected = euclid_oracle(F(p, q), F(q - p, q))
        orbit = rauzy_orbit(e, len(expected) + 5)
        assert orbit.halt_reason == "tie_encountered", (p, q)
        assert len(orbit.steps) == len(expected), (p, q)
        for step, (kind, lengths) in zip(orbit.steps, expected):
            assert step.kind == kind, (p, q)
            assert step.after.lengths == lengths, (p, q)
        checked += 1
    ok = _verdict(
        "3 m=2 rauzy = subtractive euclid",
        checked == 50,
        f"50 rationals q<=10^4, {time.time() - start:.2f}s, zero tolerance",
    )
    assert ok


def _grid_pack_oracle(iet, q):
    # brute force from the definition: edges at grid points 1/q^2, then
    # greedy interval scheduling by right endpoint
    grid = q * q
    interior = iet.breakpoints[1:-1]
    edges = []
    for j in range(grid):
        s = F(j, grid)
        e1 = iet.evaluate(s)
        if not s < e1:
            continue
        t = iet.evaluate(e1)
        if not e1 < t or t >= iet.base_length:
            continue
        if any(s < c <= t for c in interior):
            continue
        edges.append((t, s))
    edges.sort()
    count, last_t = 0, None
    for t, s in edges:
        if last_t is None or s > last_t:
            count += 1
            last_t = t
    return count


def _first_return_oracle(iet, b):
    # first-return map to [0, b) from the definition: follow each piece of
    # [0, b) under iet, cutting at its breakpoints and at b, until it
    # re-enters; returns the continuity pieces (lo, hi, translation) in
    # order, neighbours with equal translation merged
    cuts = iet.breakpoints[1:-1]
    done, work = [], [(F(0), b, F(0))]
    while work:
        lo, hi, shift = work.pop()
        x, y = lo + shift, hi + shift
        cut = next((c for c in cuts if x < c < y), None)
        if cut is not None:
            work += [(lo, cut - shift, shift), (cut - shift, hi, shift)]
            continue
        shift += iet.evaluate(x) - x
        if hi + shift <= b:
            done.append((lo, hi, shift))
        elif lo + shift >= b:
            work.append((lo, hi, shift))
        else:
            done.append((lo, b - shift, shift))
            work.append((b - shift, hi, shift))
    done.sort()
    pieces = [done[0]]
    for lo, hi, tau in done[1:]:
        if tau == pieces[-1][2]:
            pieces[-1] = (pieces[-1][0], hi, tau)
        else:
            pieces.append((lo, hi, tau))
    return pieces


def _probe_oracle(iet, threshold, depth):
    # per-scale pass flags of the probe, or None when Rauzy ties first.
    # Each right-end Rauzy step cuts the shorter of the last domain piece
    # and the last image piece of the current return map; a piece with
    # translation tau > 0 holds the edges [s, s + 2*tau] inside it, and k
    # disjoint closed ones fit exactly when k*2*tau < its length
    b, passes = iet.base_length, []
    pieces = _first_return_oracle(iet, b)
    while len(passes) < depth:
        dom = next(hi - lo for lo, hi, _ in pieces if hi == b)
        img = next(hi - lo for lo, hi, tau in pieces if hi + tau == b)
        if dom == img:
            return None
        b -= min(dom, img)
        pieces = _first_return_oracle(iet, b)
        edges = sum(-((lo - hi) // (2 * tau)) - 1 for lo, hi, tau in pieces if tau > 0)
        passes.append(edges >= threshold)
    return passes


def _negative_part(lo, hi, form):
    # subinterval of (lo, hi) where the linear form u*x + v*(1-x) is
    # negative, or None; boundary points carry no measure
    u, v = form
    at_lo, at_hi = u * lo + v * (1 - lo), u * hi + v * (1 - hi)
    if at_lo >= 0 and at_hi >= 0:
        return None
    if at_lo < 0 and at_hi < 0:
        return lo, hi
    root = F(v, v - u)
    return (lo, root) if at_lo < 0 else (root, hi)


def _rotation_refuted_measure(depth):
    # exact Lebesgue measure of the x in (0, 1) for which none of the first
    # `depth` subtractive Euclid states of the rotation (x, 1-x) has a > 2b.
    # Each state is a pair of linear forms (u, v) = u*x + v*(1-x); a Euclid
    # step splits its Farey cylinder at a = b, and the part with a > 2b
    # (an edge, hence a certified sample) is dropped
    total = F(0)
    stack = [(F(0), F(1), (1, 0), (0, 1), 0)]
    while stack:
        lo, hi, a, b, n = stack.pop()
        if n == depth:
            total += hi - lo
            continue
        a_minus_b = (a[0] - b[0], a[1] - b[1])
        b_minus_a = (-a_minus_b[0], -a_minus_b[1])
        moves = [
            (_negative_part(lo, hi, a_minus_b), a, b_minus_a),  # top: b -= a
            (_negative_part(lo, hi, b_minus_a), a_minus_b, b),  # bottom: a -= b
        ]
        for part, na, nb in moves:
            if part is None:
                continue
            keep = _negative_part(*part, (na[0] - 2 * nb[0], na[1] - 2 * nb[1]))
            if keep is not None:
                stack.append((*keep, na, nb, n + 1))
    return total


def test_criterion_4_edge_oracle_equivalence():
    # exhaustive grid exchanges (q <= 60, m <= 3, irreducible, 5000 cap)
    start = time.time()
    irr3 = [p for p in [(3, 2, 1), (2, 3, 1), (3, 1, 2)] if is_irreducible(p)]
    n, cap, mismatches = 0, 5000, []
    q = 2
    while n < cap and q <= 60:
        for a in range(1, q):
            if n >= cap:
                break
            e = make_iet([F(a, q), F(q - a, q)], [2, 1])
            if max_disjoint_edges(e, with_witness=False)[0] != _grid_pack_oracle(e, q):
                mismatches.append(e)
            n += 1
        for perm in irr3:
            for c1, c2 in combinations(range(1, q), 2):
                if n >= cap:
                    break
                e = make_iet([F(c1, q), F(c2 - c1, q), F(q - c2, q)], list(perm))
                if max_disjoint_edges(e, with_witness=False)[0] != _grid_pack_oracle(e, q):
                    mismatches.append(e)
                n += 1
        q += 1
    elapsed = time.time() - start
    ok = _verdict(
        "4 packing matches brute force",
        not mismatches,
        f"{n} instances, q up to {q - 1}, {elapsed:.1f}s (expected < 60s), zero tolerance",
    )
    assert ok, mismatches[:3]


def test_criterion_5_closing_run():
    # rotation-by-1/10 suspension, constant roof 1: three shrink steps give
    # three independently re-validated closed orbits with shrinking twists
    start = time.time()
    flow = tenth_flow()
    results = close_at_point(flow, 0, ClosingCriterion(-3, 1), 3, tolerance=1e-9)
    elapsed = time.time() - start
    checks = []
    checks.append(("three results", len(results) == 3))
    sigmas = [r.sigma1 for r in results]
    checks.append(("sigma1 strictly decreasing", sigmas == sorted(sigmas, reverse=True) and len(set(sigmas)) == 3))
    for i, r in enumerate(results):
        position, _ = twisted_return(r.family, r.sigma1, r.periodic_point)
        checks.append((f"step {i + 1} forward residual", abs(position - r.periodic_point) <= 1e-9))
        checks.append((f"step {i + 1} reported residual", r.residual <= 1e-9))
    bad = [name for name, passed in checks if not passed]
    ok = _verdict(
        "5 closing pipeline",
        not bad,
        f"sigma1={['%.6f' % s for s in sigmas]}, {elapsed:.2f}s (expected < 5s)",
    )
    assert ok, bad


def test_criterion_6_bisection_vs_sweep():
    # every shipped closing fixture: closed form within 1e-5 of the 1e-6 sweep
    fixtures = []
    flow = tenth_flow()
    fixtures.append(("rot10 box", make_twist_family(flow, tenth_box(flow))))
    three = SuspensionFlow(make_iet([F(4, 5), F(3, 25), F(2, 25)], [2, 1, 3]), (F(2), F(1), F(1)))
    box3 = build_flow_box(three, VirtualEdge(F(0), F(3, 25), F(6, 25)))
    fixtures.append(("m=3 box", make_twist_family(three, box3)))
    for i, result in enumerate(close_at_point(flow, 0, ClosingCriterion(-3, 1), 3)):
        fixtures.append((f"shrink step {i + 1}", result.family))

    deltas = []
    for name, family in fixtures:
        found = find_closing_parameter(family, 1e-9)
        swept = sweep_oracle(family, resolution=1e-6)
        assert swept is not None, name
        deltas.append((name, abs(found.sigma1 - swept)))
    bad = [(name, d) for name, d in deltas if d > 1e-5]
    ok = _verdict(
        "6 bisection vs sweep",
        not bad,
        "; ".join(f"{name}: {d:.2e}" for name, d in deltas),
    )
    assert ok, bad


def test_criterion_7_full_measure_trend():
    # statistical surrogate for the full-measure claim: deeper probing
    # refutes no more samples, every sample's pass data match a brute-force
    # first-return oracle, every rotation sample gets the verdict its Euclid
    # trace dictates, and the rotations' refuted share matches the exact
    # Lebesgue measure of the rotations refuted at that depth
    crit = ClosingCriterion(-3, 1)  # threshold 1
    assert crit.threshold == 1
    # hand check of the measure helper at depth 1: x < 1/2 moves to
    # (x, 1-2x), refuted for x <= 2/5; x > 1/2 moves to (2x-1, 1-x),
    # refuted for x <= 3/4; total 2/5 + 1/4
    assert _rotation_refuted_measure(1) == F(13, 20)
    start = time.time()
    shallow = estimate_full_measure(3, crit, depth=3, samples=500, seed=7)
    deep = estimate_full_measure(3, crit, depth=8, samples=500, seed=7)
    elapsed = time.time() - start
    refuted_shallow = shallow.counts["refuted_at_depth"] / 500
    refuted_deep = deep.counts["refuted_at_depth"] / 500
    cert_und = (deep.counts["certified_to_depth"] + deep.counts["undecided_tie"]) / 500
    _, lo, hi = deep.fractions["refuted_at_depth"]
    trend_ok = refuted_deep <= refuted_shallow

    # a rotation (a, b) carries an edge exactly when a > 2b (criterion 4's
    # definition with threshold 1), and for m=2 the probe scales follow
    # subtractive Euclid (criterion 3); two of the three irreducible m=3
    # permutations canonicalize to rotations, [2,3,1] to (l1+l2, l3) and
    # [3,1,2] to (l1, l2+l3). Under the uniform law on the simplex their
    # first lengths have densities 2a and 2(1-a), so a rotation sample's
    # first length is uniform on (0, 1), which _rotation_refuted_measure
    # assumes
    mismatches, early_ties, bands = [], {}, {}
    probe_mismatches, probe_ties, generic = [], {}, {}
    for report in (shallow, deep):
        depth = report.depth
        # every sample, the [3, 2, 1] ones included: probed/passed/first
        # pass/tie and the verdict must follow from the oracle's flags
        ties = 0
        for s in report.per_sample:
            passes = _probe_oracle(make_iet(s.lengths, s.permutation), crit.threshold, depth)
            if passes is None:
                ties += 1
                continue
            first = passes.index(True) + 1 if any(passes) else None
            verdict = "certified_to_depth" if first else "refuted_at_depth"
            expected = (depth, sum(passes), first, False, verdict)
            if (s.scales_probed, s.scales_passed, s.first_pass_index, s.tie, s.verdict) != expected:
                probe_mismatches.append((depth, s))
        probe_ties[depth] = ties
        others = [s for s in report.per_sample if s.permutation != (2, 1)]
        generic[depth] = (sum(s.verdict == "refuted_at_depth" for s in others), len(others))
        rotations = [s for s in report.per_sample if s.permutation == (2, 1)]
        ties = 0
        for s in rotations:
            trace = euclid_oracle(*s.lengths)
            if len(trace) < depth:
                ties += 1
                continue
            expect_refuted = not any(a > 2 * b for _, (a, b) in trace[:depth])
            if (s.verdict == "refuted_at_depth") != expect_refuted:
                mismatches.append((depth, s))
        early_ties[depth] = ties
        exact = _rotation_refuted_measure(depth)
        n = len(rotations)
        share = sum(s.verdict == "refuted_at_depth" for s in rotations) / n
        se = math.sqrt(float(exact * (1 - exact)) / n)
        bands[depth] = (share, float(exact), se, n)
    bands_ok = all(abs(share - r) <= 3 * se for share, r, se, _ in bands.values())
    r8 = bands[8][1]
    ceiling = 1 - F(2, 3) * _rotation_refuted_measure(8)

    ok = _verdict(
        "7 full-measure trend",
        trend_ok and not probe_mismatches and not mismatches and bands_ok,
        f"refuted {refuted_shallow:.3f}@3 -> {refuted_deep:.3f}@8 "
        f"(CI95 [{lo:.3f}, {hi:.3f}]); rotations refuted "
        + ", ".join(
            f"{share:.3f} vs exact {r:.4f}@{d} (n={n}, z={(share - r) / se:+.2f})"
            for d, (share, r, se, n) in sorted(bands.items())
        )
        + f"; other samples refuted "
        + ", ".join(f"{k}/{n}@{d}" for d, (k, n) in sorted(generic.items()))
        + f"; first-return oracle mismatches {len(probe_mismatches)} (500 samples per depth), "
        f"early ties {sorted(probe_ties.items())}; "
        f"Euclid oracle mismatches {len(mismatches)}, early ties {sorted(early_ties.items())}; "
        f"certified+undecided@8 = {cert_und:.3f} against the ceiling "
        f"1 - (2/3)*R(8) = {float(ceiling):.3f}, R(8) = {r8:.4f}; "
        f"{elapsed:.1f}s (expected < 5min)",
    )
    assert trend_ok, "refuted fraction grew with depth"
    assert not probe_mismatches, probe_mismatches[:3]
    assert not mismatches, mismatches[:3]
    assert bands_ok, bands
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    # repeated seeded CLI runs are byte-identical
    dump_iet(rotation(F(1, 16)), str(tmp_path / "r16.json"))
    flow = tenth_flow()
    from ietflow.serialize import flow_to_dict

    (tmp_path / "flow.json").write_text(json.dumps(flow_to_dict(flow)))
    commands = [
        [
            "measure", "--m", "2", "--samples", "25", "--seed", "7",
            "--depth", "4", "--resolution", "1000",
        ],
        ["probe", "--input", str(tmp_path / "r16.json"), "--depth", "3", "--chi", "-3", "--k", "1"],
        ["close", "--flow", str(tmp_path / "flow.json"), "--point", "0/1", "--shrink-steps", "2"],
    ]
    identical = True
    for i, args in enumerate(commands):
        out1 = tmp_path / f"out{i}a.json"
        out2 = tmp_path / f"out{i}b.json"
        extra1 = ["--csv", str(tmp_path / f"s{i}a.csv")] if args[0] == "measure" else []
        extra2 = ["--csv", str(tmp_path / f"s{i}b.csv")] if args[0] == "measure" else []
        assert run(args + ["--output", str(out1)] + extra1) == 0
        assert run(args + ["--output", str(out2)] + extra2) == 0
        if out1.read_bytes() != out2.read_bytes():
            identical = False
        if extra1 and (tmp_path / f"s{i}a.csv").read_bytes() != (tmp_path / f"s{i}b.csv").read_bytes():
            identical = False
    ok = _verdict("8 CLI determinism", identical, f"{len(commands)} seeded commands, byte-identical")
    assert ok
