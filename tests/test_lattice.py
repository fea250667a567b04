"""The integer lattice core: every exchange is built from (denom, cuts, shifts).

The references below are the (lengths, permutation) constructions the
lattice core replaced: the canonical merge by permutation adjacency and the
Rauzy move that renumbers the permutation.  The core must agree with them
exactly.
"""

import random
from fractions import Fraction as F

import pytest

from ietflow import Iet, NotInduced, ReduciblePermutation, TieEncountered, make_iet, rauzy_step
from ietflow.induction import is_irreducible


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
