"""Exact interval exchange transformations on [0, b).

An interval exchange transformation (iet) is a bijection of a half-open
interval that translates each of finitely many subintervals.  It is stored
as a length vector together with the permutation that reorders the
subintervals, everything in exact rational arithmetic.  Construction
canonicalizes: adjacent subintervals whose images stay adjacent are merged,
so the stored breakpoints are exactly the discontinuities of the map.

Every public value is a ``Fraction`` in lowest terms.  Construction (and,
in the sibling modules, ``induce`` and the edge count) computes on integer
numerators over one common denominator instead: sums and differences of
lengths stay on that lattice, and each ``Fraction`` is built once.

Permutations are 1-indexed: ``permutation[i]`` is the rank of the image of
the (i+1)-th subinterval among all image subintervals, counted from the
left.  ``[2, 1]`` with lengths ``[2/3, 1/3]`` is the rotation by 1/3.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FormatError, NonPositiveLength, OutOfDomain, PermutationNotBijective

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


def _canonical(lengths: list[Fraction], perm: list[int]) -> tuple[list[Fraction], list[int]]:
    """Merge adjacent subintervals whose images are also adjacent.

    The map is continuous across the common endpoint of subintervals i and
    i+1 exactly when perm[i+1] == perm[i] + 1, in which case both carry the
    same translation and the stored breakpoint is fake.
    """
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


class Iet:
    """An interval exchange transformation in canonical form.

    Values are immutable after construction and safe to share between
    concurrent workers.
    """

    __slots__ = ("lengths", "permutation", "base_length", "breakpoints", "translations")

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
        ls, pm = _canonical(ls, pm)

        # prefix sums and translations as numerators over the common
        # denominator, turned into Fractions once at the end
        denom = math.lcm(*(x.denominator for x in ls))
        nums = [x.numerator * (denom // x.denominator) for x in ls]
        breaks = [0]
        for n in nums:
            breaks.append(breaks[-1] + n)
        # image_start[i] = total length of intervals whose image sits left of i's
        starts = [0] * len(nums)
        acc = 0
        for i in sorted(range(len(nums)), key=pm.__getitem__):
            starts[i] = acc
            acc += nums[i]

        object.__setattr__(self, "lengths", tuple(ls))
        object.__setattr__(self, "permutation", tuple(pm))
        object.__setattr__(self, "base_length", Fraction(acc, denom))
        object.__setattr__(self, "breakpoints", tuple(Fraction(a, denom) for a in breaks))
        object.__setattr__(
            self, "translations", tuple(Fraction(s - a, denom) for s, a in zip(starts, breaks))
        )

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
        """The inverse exchange (reorder the lengths by image rank)."""
        m = self.m
        inv = [0] * m
        for i, rank in enumerate(self.permutation):
            inv[rank - 1] = i + 1
        return Iet([self.lengths[j - 1] for j in inv], inv)

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
