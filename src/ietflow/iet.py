"""Exact interval exchange transformations on [0, b).

An interval exchange transformation (iet) is a bijection of a half-open
interval that translates each of finitely many subintervals.  It is stored
on one integer lattice: a common denominator, the cuts (the breakpoints
times it) and the shifts (the translations times it).  Every exchange, from
lengths and a permutation or from a kernel's pieces, goes through one core,
``Iet.from_lattice``: it merges neighbours with equal shift, whose images
abut, so the stored breakpoints are exactly the discontinuities of the
map; it ranks the image starts into the permutation; and it checks that
the images tile the base.

Every public value is a ``Fraction`` in lowest terms, built once from the
lattice.  Rauzy moves, first returns and the edge count read the lattice.

Permutations are 1-indexed: ``permutation[i]`` is the rank of the image of
the (i+1)-th subinterval among all image subintervals, counted from the
left.  ``[2, 1]`` with lengths ``[2/3, 1/3]`` is the rotation by 1/3.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FormatError, NonPositiveLength, NotInduced, OutOfDomain, PermutationNotBijective

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction, rejecting floats and decimal strings."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise FormatError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or integer string; decimal and float forms are rejected."""
    stripped = text.strip()
    if any(c in stripped for c in ".eE"):
        raise FormatError(f"rational {text!r} must be a decimal-free p/q string")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse rational {text!r}: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as a "p/q" (or bare integer) string."""
    return str(value)


class Iet:
    """An interval exchange transformation in canonical form.

    Besides the public ``Fraction`` values, an exchange keeps its integer
    lattice: ``denom`` is a common denominator (not necessarily the least
    one), ``cuts`` are the breakpoints times ``denom`` and ``shifts[i]`` is
    the translation of subinterval i times ``denom``.  Kernel code reads
    these instead of re-deriving them from the ``Fraction``s.

    Values are immutable after construction and safe to share between
    concurrent workers.
    """

    __slots__ = ("lengths", "permutation", "base_length", "breakpoints", "translations")
    __slots__ += ("denom", "cuts", "shifts")  # the integer lattice

    def __init__(self, lengths: Sequence[RationalLike], permutation: Sequence[int]):
        ls = [as_rational(x) for x in lengths]
        if not ls:
            raise NonPositiveLength("need at least one interval")
        for x in ls:
            if x.numerator <= 0:
                raise NonPositiveLength(f"interval length {x} is not positive")
        pm = list(permutation)
        for p in pm:
            if type(p) is not int:
                raise PermutationNotBijective(f"permutation entry {p!r} is not an integer")
        if sorted(pm) != list(range(1, len(ls) + 1)):
            raise PermutationNotBijective(
                f"permutation {pm} is not a bijection of 1..{len(ls)}"
            )
        denom = math.lcm(*(x.denominator for x in ls))
        cuts = [0]
        for x in ls:
            cuts.append(cuts[-1] + x.numerator * (denom // x.denominator))
        # the image of i starts after the intervals whose image sits left of i's
        shifts = [0] * len(ls)
        acc = 0
        for i in sorted(range(len(ls)), key=pm.__getitem__):
            shifts[i] = acc - cuts[i]
            acc += cuts[i + 1] - cuts[i]
        self._set_lattice(denom, cuts, shifts)

    @classmethod
    def from_lattice(cls, denom: int, cuts: Sequence[int], shifts: Sequence[int]) -> Iet:
        """The canonical exchange moving [cuts[i], cuts[i + 1]) by shifts[i],
        over ``denom``; neighbours with equal shift merge.  Raises NotInduced
        unless the cuts increase from 0 and the images tile [0, cuts[-1])."""
        iet = object.__new__(cls)
        iet._set_lattice(denom, cuts, shifts)
        return iet

    def _set_lattice(self, denom: int, cuts: Sequence[int], shifts: Sequence[int]) -> None:
        if cuts[0] != 0 or any(lo >= hi for lo, hi in zip(cuts, cuts[1:])):
            raise NotInduced(f"cuts {list(cuts)} over {denom} do not increase from 0")
        # neighbours with equal shift have abutting images, so the
        # breakpoint between them is removable
        keep = [i for i in range(1, len(shifts)) if shifts[i] != shifts[i - 1]]
        cuts = (0, *(cuts[i] for i in keep), cuts[-1])
        shifts = (shifts[0], *(shifts[i] for i in keep))
        # rank the image starts; the images must tile [0, base)
        starts = [c + s for c, s in zip(cuts, shifts)]
        perm = [0] * len(shifts)
        end = 0
        for rank, i in enumerate(sorted(range(len(shifts)), key=starts.__getitem__), start=1):
            if starts[i] != end:
                where = "overlap" if starts[i] < end else "leave a gap"
                raise NotInduced(f"images {where} at {Fraction(min(starts[i], end), denom)}")
            end = cuts[i + 1] + shifts[i]
            perm[i] = rank

        lengths = tuple(Fraction(hi - lo, denom) for lo, hi in zip(cuts, cuts[1:]))
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "permutation", tuple(perm))
        object.__setattr__(self, "base_length", Fraction(end, denom))
        object.__setattr__(self, "breakpoints", tuple(Fraction(c, denom) for c in cuts))
        object.__setattr__(self, "translations", tuple(Fraction(s, denom) for s in shifts))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "shifts", shifts)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Iet values are immutable")

    @property
    def m(self) -> int:
        """Number of exchanged subintervals."""
        return len(self.lengths)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Iet)
            and self.lengths == other.lengths
            and self.permutation == other.permutation
        )

    def __hash__(self) -> int:
        return hash((self.lengths, self.permutation))

    def __repr__(self) -> str:
        ls = ", ".join(format_rational(x) for x in self.lengths)
        return f"Iet([{ls}], {list(self.permutation)})"

    # -- evaluation ---------------------------------------------------------

    def piece_index(self, x: Fraction) -> int:
        """Index of the subinterval [a_i, a_{i+1}) containing x."""
        x = as_rational(x)
        if x < 0 or x >= self.base_length:
            raise OutOfDomain(f"{x} is outside [0, {self.base_length})")
        return bisect.bisect_right(self.breakpoints, x) - 1

    def evaluate(self, x: RationalLike) -> Fraction:
        """Image of x under the exchange."""
        x = as_rational(x)
        return x + self.translations[self.piece_index(x)]

    __call__ = evaluate

    def invert(self) -> Iet:
        """The inverse exchange: each image moved back by its translation."""
        order = sorted(range(self.m), key=self.permutation.__getitem__)
        cuts = [self.cuts[i] + self.shifts[i] for i in order] + [self.cuts[-1]]
        return Iet.from_lattice(self.denom, cuts, [-self.shifts[i] for i in order])

    def iterate(self, x: RationalLike, n: int) -> Fraction:
        """n-th forward (or backward, for n < 0) image of x."""
        x = as_rational(x)
        if x < 0 or x >= self.base_length:
            raise OutOfDomain(f"{x} is outside [0, {self.base_length})")
        if n >= 0:
            for _ in range(n):
                x = self.evaluate(x)
            return x
        inverse = self.invert()
        for _ in range(-n):
            x = inverse.evaluate(x)
        return x

    def continuity_intervals(self, n: int) -> list[tuple[Fraction, Fraction]]:
        """Half-open intervals on which the orbit segments of length n stay
        clear of breakpoints, so the n-th power acts by one translation.

        The cut points are the breakpoints pulled back through up to n-1
        applications of the map; there are at most 1 + n*(m-1) pieces.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        interior = set(self.breakpoints[1:-1])
        cuts = set(interior)
        inverse = self.invert() if n > 1 else None
        level = set(interior)
        for _ in range(n - 1):
            level = {inverse.evaluate(p) for p in level}
            cuts |= level
        points = sorted(p for p in cuts if 0 < p < self.base_length)
        bounds = [Fraction(0)] + points + [self.base_length]
        return list(zip(bounds[:-1], bounds[1:]))


def make_iet(lengths: Iterable[RationalLike], permutation: Iterable[int]) -> Iet:
    """Build the canonical iet for the given lengths and permutation."""
    return Iet(list(lengths), list(permutation))


def identity_iet(base_length: RationalLike = 1) -> Iet:
    """The identity exchange on [0, base_length)."""
    return Iet([as_rational(base_length)], [1])
