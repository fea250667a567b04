"""The integer lattice core: every exchange is built from (denom, cuts, shifts).

The references below are the (lengths, permutation) constructions the
lattice core replaced: the canonical merge by permutation adjacency and the
Rauzy move that renumbers the permutation.  The core must agree with them
exactly.
"""

import ast
import bisect
import copy
import importlib
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from ietflow import (
    Iet,
    NotInduced,
    OutOfDomain,
    ReduciblePermutation,
    SuspensionFlow,
    TieEncountered,
    build_flow_box,
    induce,
    make_iet,
    rauzy_step,
)
from ietflow.edges import VirtualEdge, max_disjoint_edges
from ietflow.induction import is_irreducible

PUBLIC = ("lengths", "breakpoints", "translations", "base_length")


def reference_canonical(lengths, perm):
    """Merge adjacent subintervals whose images are also adjacent
    (perm[i] == perm[i - 1] + 1), renumbering the permutation."""
    ls = list(lengths)
    pm = list(perm)
    i = 1
    while i < len(pm):
        if pm[i] == pm[i - 1] + 1:
            removed = pm[i]
            ls[i - 1] += ls[i]
            del ls[i]
            del pm[i]
            pm = [v - 1 if v > removed else v for v in pm]
            i = max(1, i - 1)
        else:
            i += 1
    return ls, pm


def reference_exchange(lengths, perm):
    """Canonical lengths, permutation, breakpoints and translations in
    ``Fraction`` arithmetic."""
    ls, pm = reference_canonical(lengths, perm)
    breaks = [F(0)]
    for x in ls:
        breaks.append(breaks[-1] + x)
    starts = [F(0)] * len(ls)
    acc = F(0)
    for i in sorted(range(len(ls)), key=pm.__getitem__):
        starts[i] = acc
        acc += ls[i]
    return tuple(ls), tuple(pm), tuple(breaks), tuple(s - a for s, a in zip(starts, breaks))


def reference_rauzy_step(iet):
    """One right-end Rauzy move on the (lengths, permutation) data."""
    m = iet.m
    if m < 2 or not is_irreducible(iet.permutation):
        raise ReduciblePermutation(f"Rauzy step undefined for {iet!r}")
    pm = list(iet.permutation)
    ls = list(iet.lengths)
    beta = pm.index(m)
    l_top = ls[m - 1]
    l_bot = ls[beta]
    if l_top == l_bot:
        raise TieEncountered(f"comparand lengths both equal {l_top}")
    if l_top > l_bot:
        anchor = pm[m - 1]
        new_ls = ls[:]
        new_ls[m - 1] = l_top - l_bot
        new_pm = [0] * m
        for i in range(m):
            if i == beta:
                continue
            v = pm[i]
            new_pm[i] = v if v <= anchor else v + 1
        new_pm[beta] = anchor + 1
        return make_iet(new_ls, new_pm), "top"
    new_ls = ls[:beta] + [l_bot - l_top, l_top] + ls[beta + 1 : m - 1]
    new_pm = [0] * m
    for i in range(m - 1):
        if i == beta:
            continue
        new_pm[i if i < beta else i + 1] = pm[i]
    new_pm[beta] = m
    new_pm[beta + 1] = pm[m - 1]
    return make_iet(new_ls, new_pm), "bottom"


def draw(rng, m, force_runs):
    """Lengths over mixed denominators and a permutation; with
    ``force_runs`` the permutation maps runs of neighbours onto runs of
    adjacent images, so construction has to merge them."""
    lengths = [F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(m)]
    if not force_runs:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        return lengths, perm
    sizes = []
    while sum(sizes) < m:
        sizes.append(rng.randint(1, m - sum(sizes)))
    order = list(range(len(sizes)))
    rng.shuffle(order)
    first_rank, rank = {}, 1
    for block in order:
        first_rank[block] = rank
        rank += sizes[block]
    perm = [first_rank[block] + k for block, size in enumerate(sizes) for k in range(size)]
    return lengths, perm


def outcome(step, iet):
    try:
        nxt, kind = step(iet)
    except (TieEncountered, ReduciblePermutation) as exc:
        return None, type(exc).__name__, str(exc)
    return nxt, kind, None


class TestCanonicalConstruction:
    def test_matches_the_permutation_merge(self):
        rng = random.Random(20)
        merged = 0
        for n in range(2400):
            m = rng.randint(1, 6)
            lengths, perm = draw(rng, m, force_runs=n % 3 == 0)
            iet = make_iet(lengths, perm)
            ls, pm, breaks, trans = reference_exchange(lengths, perm)
            assert (iet.lengths, iet.permutation) == (ls, pm), (lengths, perm)
            assert iet.breakpoints == breaks and iet.translations == trans
            assert iet.base_length == breaks[-1]
            assert iet.breakpoints == tuple(F(c, iet.denom) for c in iet.cuts)
            assert iet.translations == tuple(F(s, iet.denom) for s in iet.shifts)
            merged += iet.m < m
        assert merged > 600  # the forced runs do make construction merge

    def test_from_lattice_merges_equal_shifts(self):
        # [0, 1) and [1, 2) both move by 2: one piece, the breakpoint at 1/4 goes
        iet = Iet.from_lattice(4, [0, 1, 2, 4], [2, 2, -2])
        assert iet == make_iet([F(1, 2), F(1, 2)], [2, 1])
        assert (iet.denom, iet.cuts, iet.shifts) == (4, (0, 2, 4), (2, -2))

    def test_invert_stays_on_the_lattice(self):
        rng = random.Random(21)
        for _ in range(300):
            lengths, perm = draw(rng, rng.randint(1, 6), force_runs=False)
            iet = make_iet(lengths, perm)
            inv = iet.invert()
            assert inv.denom == iet.denom
            ls, pm = reference_canonical(
                [iet.lengths[j] for j in sorted(range(iet.m), key=iet.permutation.__getitem__)],
                [iet.permutation.index(r) + 1 for r in range(1, iet.m + 1)],
            )
            assert (inv.lengths, inv.permutation) == (tuple(ls), tuple(pm))


class TestRauzyOnTranslations:
    def test_matches_the_permutation_move_along_orbits(self):
        rng = random.Random(22)
        kinds = {"top": 0, "bottom": 0, "TieEncountered": 0, "ReduciblePermutation": 0}
        for n in range(400):
            lengths, perm = draw(rng, rng.randint(1, 6), force_runs=n % 3 == 0)
            current = make_iet(lengths, perm)
            for _ in range(60):
                new = outcome(rauzy_step, current)
                assert new == outcome(reference_rauzy_step, current), current
                nxt, kind, _ = new
                kinds[kind] += 1
                if nxt is None:
                    break
                assert nxt.denom == current.denom  # the move keeps the lattice
                current = nxt
        assert min(kinds.values()) > 50, kinds


class TestPickle:
    def test_round_trip_keeps_the_lattice(self):
        # user-built exchanges, Rauzy states and induced maps all cross a
        # process pool as their lattice
        rng = random.Random(23)
        kinds = {"user": 0, "rauzy": 0, "induced": 0}
        for n in range(300):
            lengths, perm = draw(rng, rng.randint(1, 6), force_runs=n % 3 == 0)
            iet = make_iet(lengths, perm)
            values = [("user", iet)]
            state, _, _ = outcome(rauzy_step, iet)
            if state is not None:
                values.append(("rauzy", state))
            b = iet.base_length * F(rng.randint(1, 99), 100)
            values.append(("induced", induce(iet, b, 10**4).induced))
            for kind, x in values:
                kinds[kind] += 1
                for y in (pickle.loads(pickle.dumps(x)), copy.copy(x)):
                    assert type(y) is Iet and y == x
                    assert (y.denom, y.cuts, y.shifts) == (x.denom, x.cuts, x.shifts)
                    assert (y.breakpoints, y.translations) == (x.breakpoints, x.translations)
        assert min(kinds.values()) > 100, kinds


def assert_image_order(iet):
    """``image_order`` lists the intervals left to right by image: the
    inverse of ``permutation``."""
    order = iet.image_order
    assert type(order) is tuple and sorted(order) == list(range(iet.m))
    assert [iet.permutation[i] for i in order] == list(range(1, iet.m + 1))
    assert order == tuple(sorted(range(iet.m), key=iet.permutation.__getitem__))


class TestImageOrder:
    """``Iet`` keeps the order in which ``from_lattice`` ranks the images."""

    def test_inverse_of_the_permutation_everywhere(self):
        rng = random.Random(29)
        kinds = dict.fromkeys(("user", "lattice", "invert", "rauzy", "induced", "pickled"), 0)
        merged = 0
        for n in range(600):
            m = rng.randint(1, 7)
            fractions, perm = draw(rng, m, force_runs=n % 2 == 0)
            user = Iet(fractions, perm)
            denom = math.lcm(*(x.denominator for x in fractions)) * rng.randint(1, 5)
            cuts, shifts = lattice_of(denom, [int(x * denom) for x in fractions], perm)
            core = Iet.from_lattice(denom, cuts, shifts)
            merged += core.m < m
            values = [("user", user), ("lattice", core), ("invert", core.invert())]
            state, _, _ = outcome(rauzy_step, core)
            if state is not None:
                values.append(("rauzy", state))
            b = core.base_length * F(rng.randint(1, 99), 100)
            values.append(("induced", induce(core, b, 10**4).induced))
            values += [("pickled", pickle.loads(pickle.dumps(x))) for _, x in values]
            for kind, x in values:
                kinds[kind] += 1
                assert_image_order(x)
            assert user.image_order == core.image_order
        assert merged > 300 and min(kinds.values()) > 200, (merged, kinds)


class TestLatticeChecks:
    def test_overlapping_images(self):
        with pytest.raises(NotInduced, match="images overlap at 1/4"):
            Iet.from_lattice(4, [0, 2, 4], [0, -1])

    def test_gap_between_images(self):
        with pytest.raises(NotInduced, match="images leave a gap at 1/4"):
            Iet.from_lattice(4, [0, 1, 4], [0, 1])

    def test_cut_that_does_not_increase(self):
        with pytest.raises(NotInduced, match="do not increase"):
            Iet.from_lattice(4, [0, 2, 2, 4], [2, 0, -2])
        with pytest.raises(NotInduced, match="do not increase"):
            Iet.from_lattice(4, [0, 3, 2, 4], [1, 0, -3])
        with pytest.raises(NotInduced, match="do not increase"):
            Iet.from_lattice(4, [1, 2, 4], [1, -1])


def lattice_of(denom, lengths, perm):
    """Cuts and shifts of the exchange with integer ``lengths`` over
    ``denom`` and 1-indexed ``perm``, without merging anything."""
    cuts = [0]
    for x in lengths:
        cuts.append(cuts[-1] + x)
    image_start, acc = {}, 0
    for i in sorted(range(len(lengths)), key=perm.__getitem__):
        image_start[i] = acc
        acc += lengths[i]
    return cuts, [image_start[i] - cuts[i] for i in range(len(lengths))]


class TestOnePassCore:
    """``Iet.from_lattice`` checks the cuts and merges in one pass, then
    ranks the images; it must agree with the (lengths, permutation)
    construction and keep every error message."""

    def test_matches_lengths_and_permutation(self):
        rng = random.Random(28)
        merged = 0
        for n in range(1500):
            m = rng.randint(1, 7)
            fractions, perm = draw(rng, m, force_runs=n % 2 == 0)
            denom = math.lcm(*(x.denominator for x in fractions)) * rng.randint(1, 5)
            lengths = [int(x * denom) for x in fractions]
            cuts, shifts = lattice_of(denom, lengths, perm)
            core = Iet.from_lattice(denom, cuts, shifts)
            expected = Iet(fractions, perm)
            assert core == expected, (denom, cuts, shifts)
            assert core.denom == denom
            ls, pm, breaks, trans = reference_exchange(fractions, perm)
            assert (core.lengths, core.permutation) == (ls, pm)
            assert (core.breakpoints, core.translations) == (breaks, trans)
            merged += core.m < m
        assert merged > 300  # equal-shift neighbours were merged

    def test_each_corruption_raises_its_message(self):
        denom, cuts, shifts = 10, [0, 2, 5, 9, 10], [8, 2, -5, -2]
        assert Iet.from_lattice(denom, cuts, shifts).permutation == (4, 2, 1, 3)
        for j in range(len(cuts)):
            bad = list(cuts)
            bad[j] = bad[j - 1] if j else 1  # equal to its left neighbour, or not 0
            with pytest.raises(NotInduced) as info:
                Iet.from_lattice(denom, bad, shifts)
            assert str(info.value) == f"cuts {bad} over 10 do not increase from 0"
        with pytest.raises(NotInduced) as info:
            Iet.from_lattice(denom, [0], [])  # no piece at all
        assert str(info.value) == "cuts [0] over 10 do not increase from 0"
        bad = [0, 5, 2, 9, 10]  # decreasing inside
        with pytest.raises(NotInduced, match=r"^cuts \[0, 5, 2, 9, 10\] over 10 do not"):
            Iet.from_lattice(denom, bad, shifts)
        with pytest.raises(NotInduced) as info:
            Iet.from_lattice(denom, cuts, [8, 2, -5, -3])  # [6, 7) lies in [4, 7)
        assert str(info.value) == "images overlap at 3/5"
        with pytest.raises(NotInduced) as info:
            Iet.from_lattice(denom, cuts, [8, 3, -5, -2])  # [4, 5) is left empty
        assert str(info.value) == "images leave a gap at 2/5"

    def test_length_mismatch(self):
        # one cut too few, with equal shifts that merging would hide
        with pytest.raises(NotInduced) as info:
            Iet.from_lattice(4, [0, 4], [0, 0])
        assert str(info.value) == "2 cuts for 2 shifts: need one cut more than shifts"
        # one cut too many, which the tiling check would read as an overlap
        with pytest.raises(NotInduced) as info:
            Iet.from_lattice(4, [0, 1, 2, 4], [2, -1])
        assert str(info.value) == "4 cuts for 2 shifts: need one cut more than shifts"


class TestLatticeEquality:
    def test_equal_across_denominators(self):
        iet = Iet.from_lattice(6, [0, 4, 6], [2, -4])
        other = make_iet([F(2, 3), F(1, 3)], [2, 1])
        assert iet.denom != other.denom
        assert iet == other and hash(iet) == hash(other)

    def test_same_lengths_other_permutation(self):
        quarters = [F(1, 4)] * 4
        assert make_iet(quarters, [4, 3, 2, 1]) != make_iet(quarters, [3, 1, 4, 2])

    def test_matches_fraction_equality(self):
        # equality on the lattice agrees with equality of the public
        # values, also when one side sits on a multiple of its denominator
        rng = random.Random(25)
        equal = 0
        for n in range(1500):
            lengths, perm = draw(rng, rng.randint(1, 4), force_runs=n % 3 == 0)
            iet = make_iet(lengths, perm)
            if n % 2:
                k = rng.randint(2, 9)
                other = Iet.from_lattice(
                    k * iet.denom, [k * c for c in iet.cuts], [k * t for t in iet.shifts]
                )
            else:
                other = make_iet(*draw(rng, rng.randint(1, 4), force_runs=n % 3 == 0))
            same = (iet.lengths, iet.permutation) == (other.lengths, other.permutation)
            assert (iet == other) == same, (iet, other)
            if same:
                equal += 1
                assert hash(iet) == hash(other) and iet.image_order == other.image_order
        assert equal > 700


class TestLazyPublicValues:
    """Rauzy states and return maps keep only their lattice; the public
    ``Fraction``s are built on first read."""

    def exchanges(self, rng, count):
        for n in range(count):
            lengths, perm = draw(rng, rng.randint(2, 6), force_runs=n % 3 == 0)
            iet = make_iet(lengths, perm)
            state, _, _ = outcome(rauzy_step, iet)
            if state is not None:
                yield "rauzy", state
            b = iet.base_length * F(rng.randint(1, 99), rng.randint(100, 130))
            yield "induced", induce(iet, b, 10**4).induced

    def test_public_slots_unset_until_read(self):
        kinds = {"rauzy": 0, "induced": 0}
        for kind, x in self.exchanges(random.Random(26), 300):
            kinds[kind] += 1
            for name in PUBLIC:
                with pytest.raises(AttributeError):
                    getattr(Iet, name).__get__(x, Iet)
            expected = {
                "lengths": tuple(F(hi - lo, x.denom) for lo, hi in zip(x.cuts, x.cuts[1:])),
                "breakpoints": tuple(F(c, x.denom) for c in x.cuts),
                "translations": tuple(F(t, x.denom) for t in x.shifts),
                "base_length": F(x.cuts[-1], x.denom),
            }
            for name in PUBLIC:
                value = getattr(x, name)
                assert value == expected[name]
                assert getattr(Iet, name).__get__(x, Iet) is value  # cached in its slot
                for q in value if isinstance(value, tuple) else (value,):
                    assert type(q) is F and math.gcd(q.numerator, q.denominator) == 1
            y = pickle.loads(pickle.dumps(x))
            assert all(getattr(y, name) == getattr(x, name) for name in PUBLIC)
        assert min(kinds.values()) > 100, kinds

    def test_lookups_build_no_public_value(self):
        # piece_index and evaluate bisect the integer cuts
        for _, x in self.exchanges(random.Random(27), 100):
            point = F(x.cuts[-1], 3 * x.denom)
            assert x.evaluate(point) - point == F(x.shifts[x.piece_index(point)], x.denom)
            for name in PUBLIC:
                with pytest.raises(AttributeError):
                    getattr(Iet, name).__get__(x, Iet)

    def test_bare_instance_has_no_attributes(self):
        bare = object.__new__(Iet)
        lattice = ("denom", "cuts", "shifts", "permutation", "image_order")
        for name in (*PUBLIC, *lattice, "m", "other"):
            with pytest.raises(AttributeError):
                getattr(bare, name)


class TestLatticeLookups:
    """``piece_index`` and ``evaluate`` bisect the integer cuts with
    floor(x * denom); a bisection of the ``Fraction`` breakpoints is the
    oracle, off the lattice, at every breakpoint and at both ends."""

    def test_against_the_breakpoint_oracle(self):
        rng = random.Random(32)
        for n in range(300):
            lengths, perm = draw(rng, rng.randint(2, 6), force_runs=n % 3 == 0)
            iet = make_iet(lengths, perm)
            if n % 2:  # over a multiple of the least denominator, as return maps may be
                k = rng.randint(2, 9)
                iet = Iet.from_lattice(k * iet.denom, [k * c for c in iet.cuts], [k * t for t in iet.shifts])
            breaks, base = iet.breakpoints, iet.base_length
            tiny = F(1, 7 * iet.denom * rng.randint(10**6, 10**7))
            points = {base * F(rng.randrange(10**6), 10**6 + 3) for _ in range(20)}
            points |= {c + e for c in breaks for e in (-tiny, 0, tiny) if 0 <= c + e < base}
            for x in sorted(points):
                i = bisect.bisect_right(breaks, x) - 1
                assert iet.piece_index(x) == i, (iet, x)
                assert iet.evaluate(x) == x + iet.translations[i], (iet, x)
            for x in (-tiny, base, base + tiny):
                for lookup in (iet.piece_index, iet.evaluate):
                    with pytest.raises(OutOfDomain) as info:
                        lookup(x)
                    assert str(info.value) == f"{x} is outside [0, {base})"


def lattice_exchanges(rng, count):
    """Drawn exchanges, every other one over a multiple of its least
    denominator, with a point ``tiny`` whose denominator does not divide
    the lattice's."""
    for n in range(count):
        lengths, perm = draw(rng, rng.randint(2, 6), force_runs=n % 3 == 0)
        iet = make_iet(lengths, perm)
        if n % 2:
            k = rng.randint(2, 9)
            iet = Iet.from_lattice(k * iet.denom, [k * c for c in iet.cuts], [k * t for t in iet.shifts])
        yield iet, F(1, 7 * iet.denom * rng.randint(10**6, 10**7))


def validate_oracle(edge, iet):
    """``VirtualEdge.validate`` on the public ``Fraction``s, through
    ``evaluate``."""
    if not edge.s < edge.e1 < edge.t:
        raise ValueError(f"edge ordering violated: {edge}")
    if iet.evaluate(edge.s) != edge.e1 or iet.evaluate(edge.e1) != edge.t:
        raise ValueError(f"edge {edge} does not follow the exchange")
    if edge.t >= iet.breakpoints[iet.piece_index(edge.s) + 1]:
        raise ValueError(f"edge {edge} leaves its continuity interval")


def raised(check, *args):
    try:
        check(*args)
    except (ValueError, OutOfDomain) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestImageCheck:
    """``VirtualEdge.validate`` and the flow box core's integer check of an
    edge against ``evaluate`` as the oracle, on and off the lattice."""

    def test_validate_against_the_evaluate_oracle(self):
        # the flow box core checks the same conditions on integers and
        # raises validate's errors; under one roof per piece and with no
        # singular point, it builds a box exactly for the valid edges
        rng = random.Random(34)
        passed = failed = 0
        for iet, tiny in lattice_exchanges(rng, 300):
            flow = SuspensionFlow(iet, [1] * iet.m)
            _, witnesses = max_disjoint_edges(iet)
            edges = list(witnesses)
            for s in (iet.base_length * F(rng.randrange(10**6), 10**6 + 3) for _ in range(5)):
                e1 = iet.evaluate(s)
                edges.append(VirtualEdge(s, e1, iet.evaluate(e1)))
            for edge in list(edges):
                s, e1, t = edge.s, edge.e1, edge.t
                edges += [
                    VirtualEdge(s, e1 + tiny, t),
                    VirtualEdge(s, e1, t + tiny),
                    VirtualEdge(s, e1, t - tiny),
                    VirtualEdge(s + tiny, e1 + tiny, t + tiny),
                    VirtualEdge(s - tiny, e1 - tiny, t - tiny),
                ]
            for edge in edges:
                expected = raised(validate_oracle, edge, iet)
                assert raised(edge.validate, iet) == expected, (iet, edge)
                assert raised(build_flow_box, flow, edge) == expected, (iet, edge)
                passed += expected is None
                failed += expected is not None
        assert passed > 500 and failed > 1000


def float_uses(source: str) -> list[int]:
    """Lines of ``source`` holding a float literal or a ``float(`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]


class TestExactness:
    def test_scan_finds_floats(self):
        assert float_uses("a = 1\nb = 0.5\nc = 1e-9\nd = float(a)\ne = 2j\n") == [2, 3, 4, 5]

    @pytest.mark.parametrize("module", ["iet", "induction"])
    def test_exchange_layer_has_no_floats(self, module):
        path = Path(importlib.import_module(f"ietflow.{module}").__file__)
        assert float_uses(path.read_text()) == []
