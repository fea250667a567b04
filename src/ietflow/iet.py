"""Exact interval exchange transformations on [0, b).

An interval exchange transformation (iet) is a bijection of a half-open
interval that translates each of finitely many subintervals.  It is stored
on one integer lattice: a common denominator, the cuts (the breakpoints
times it) and the shifts (the translations times it).  Every exchange, from
lengths and a permutation or from a kernel's pieces, goes through one core,
``Iet.from_lattice``.  In one pass over the cuts it checks that they
increase from 0 and merges neighbours with equal shift, whose images abut,
so the stored breakpoints are exactly the discontinuities of the map.  It
then ranks the image starts, sorted as (start, index) pairs, into the
permutation and its inverse, the image order, checking on the way that
the images tile the base.

Every public value is a ``Fraction`` in lowest terms, built from the
lattice on first read, then cached.  Rauzy moves, first returns, the edge
count and point lookups (``lattice_cell``) read the lattice, so the states
they pass along build no ``Fraction`` that nothing reads.

Permutations are 1-indexed: ``permutation[i]`` is the rank of the image of
the (i+1)-th subinterval among all image subintervals, counted from the
left.  ``[2, 1]`` with lengths ``[2/3, 1/3]`` is the rotation by 1/3.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

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
    """Parse a "p/q" or integer string of ASCII digits; decimals, floats and
    digit separators (``Fraction`` takes "1_0/2" from Python 3.11) are rejected."""
    stripped = text.strip()
    if not stripped.isascii() or any(c in stripped for c in "._eE"):
        raise FormatError(f"rational {text!r} must be a decimal-free p/q string of ASCII digits")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"cannot parse rational {text!r}: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as a "p/q" (or bare integer) string."""
    return str(value)


def lattice_cell(cuts: Sequence[int], denom: int, x: Fraction) -> int:
    """The i with cuts[i] <= x * denom < cuts[i + 1], by bisecting the cuts
    with floor(x * denom); OutOfDomain outside [0, cuts[-1] / denom)."""
    n = x.numerator * denom // x.denominator
    if not 0 <= n < cuts[-1]:
        raise OutOfDomain(f"{x} is outside [0, {Fraction(cuts[-1], denom)})")
    return bisect.bisect_right(cuts, n) - 1


class Iet:
    """An interval exchange transformation in canonical form.

    An exchange is stored as its integer lattice: ``denom`` is a common
    denominator (not necessarily the least one), ``cuts`` are the
    breakpoints times ``denom`` and ``shifts[i]`` is the translation of
    subinterval i times ``denom``.  Kernel code reads these.  Construction
    checks the cuts and merges equal-shift neighbours in one pass, then
    ranks the images by one sort (see ``from_lattice``); that sort's order
    is kept as ``image_order``, the 0-based intervals left to right by
    image, the inverse of ``permutation``.  The public
    ``Fraction`` values ``lengths``, ``breakpoints``, ``translations`` and
    ``base_length`` are built from the lattice on first read and cached;
    equality and hashing compare the lattice over its least denominator,
    so they build none.

    Values are immutable after construction and safe to share between
    concurrent workers (a first read racing another only builds equal
    values twice); they pickle as their lattice.
    """

    __slots__ = ("lengths", "permutation", "base_length", "breakpoints", "translations")
    __slots__ += ("denom", "cuts", "shifts", "image_order")  # the integer lattice

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
        self._set_lattice(denom, cuts, image_shifts(cuts, pm))

    @classmethod
    def from_lattice(cls, denom: int, cuts: Sequence[int], shifts: Sequence[int]) -> Iet:
        """The canonical exchange moving [cuts[i], cuts[i + 1]) by shifts[i],
        over ``denom``; neighbours with equal shift merge.  Raises NotInduced
        unless there is one cut more than shifts, the cuts increase from 0
        and the images tile [0, cuts[-1])."""
        iet = object.__new__(cls)
        iet._set_lattice(denom, cuts, shifts)
        return iet

    def _set_lattice(self, denom: int, cuts: Sequence[int], shifts: Sequence[int]) -> None:
        if len(cuts) != len(shifts) + 1:
            raise NotInduced(
                f"{len(cuts)} cuts for {len(shifts)} shifts: need one cut more than shifts"
            )
        # one pass: the cuts must increase from 0, and neighbours with equal
        # shift merge (their images abut, so the breakpoint between them is
        # removable); each merged piece's image start is noted with its index
        lo = cuts[0]
        if lo != 0 or not shifts:
            raise NotInduced(f"cuts {list(cuts)} over {denom} do not increase from 0")
        out_cuts, out_shifts, starts = [0], [], []
        prev = None
        for hi, s in zip(cuts[1:], shifts):
            if hi <= lo:
                raise NotInduced(f"cuts {list(cuts)} over {denom} do not increase from 0")
            if s == prev:
                out_cuts[-1] = hi
            else:
                starts.append((lo + s, len(out_shifts)))
                out_cuts.append(hi)
                out_shifts.append(s)
                prev = s
            lo = hi
        # rank the image starts; the images must tile [0, base)
        starts.sort()
        perm = [0] * len(out_shifts)
        order = []
        end = 0
        for rank, (start, i) in enumerate(starts, start=1):
            if start != end:
                where = "overlap" if start < end else "leave a gap"
                raise NotInduced(f"images {where} at {Fraction(min(start, end), denom)}")
            end = out_cuts[i + 1] + out_shifts[i]
            perm[i] = rank
            order.append(i)

        _set_permutation(self, tuple(perm))
        _set_image_order(self, tuple(order))
        _set_denom(self, denom)
        _set_cuts(self, tuple(out_cuts))
        _set_shifts(self, tuple(out_shifts))

    def __getattr__(self, name: str):
        # reached only for an unset slot: the public Fractions are built
        # from the lattice on first read, then cached in their slots
        if name == "lengths":
            cuts = self.cuts
            value = tuple(Fraction(hi - lo, self.denom) for lo, hi in zip(cuts, cuts[1:]))
        elif name == "breakpoints":
            value = tuple(Fraction(c, self.denom) for c in self.cuts)
        elif name == "translations":
            value = tuple(Fraction(s, self.denom) for s in self.shifts)
        elif name == "base_length":
            value = Fraction(self.cuts[-1], self.denom)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Iet values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Iet values are immutable")

    def __reduce__(self):
        # pickled as its lattice, so unpickling goes through the checking core
        return (Iet.from_lattice, (self.denom, self.cuts, self.shifts))

    @property
    def m(self) -> int:
        """Number of exchanged subintervals."""
        return len(self.shifts)

    def _key(self) -> tuple:
        # the lattice over its least denominator is canonical, and with
        # the permutation it fixes the map
        g = math.gcd(self.denom, *self.cuts)
        return self.permutation, self.denom // g, tuple(c // g for c in self.cuts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Iet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        ls = ", ".join(format_rational(x) for x in self.lengths)
        return f"Iet([{ls}], {list(self.permutation)})"

    # -- evaluation ---------------------------------------------------------

    def piece_index(self, x: RationalLike) -> int:
        """Index of the subinterval [a_i, a_{i+1}) containing x."""
        return lattice_cell(self.cuts, self.denom, as_rational(x))

    def evaluate(self, x: RationalLike) -> Fraction:
        """Image of x under the exchange."""
        x = as_rational(x)
        shift, q = self.shifts[self.piece_index(x)], x.denominator
        return Fraction(x.numerator * self.denom + shift * q, q * self.denom)

    __call__ = evaluate

    def invert(self) -> Iet:
        """The inverse exchange: each image moved back by its translation."""
        order = self.image_order
        cuts = [self.cuts[i] + self.shifts[i] for i in order] + [self.cuts[-1]]
        return Iet.from_lattice(self.denom, cuts, [-self.shifts[i] for i in order])

    def iterate(self, x: RationalLike, n: int) -> Fraction:
        """n-th forward (or backward, for n < 0) image of x."""
        x = as_rational(x)
        self.piece_index(x)  # raises OutOfDomain outside the base
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


# the lattice slots' own setters, which pass the guard in ``Iet.__setattr__``
_set_permutation, _set_image_order, _set_denom, _set_cuts, _set_shifts = (
    getattr(Iet, name).__set__ for name in ("permutation", "image_order", "denom", "cuts", "shifts")
)


def image_shifts(cuts: Sequence[int], permutation: Sequence[int]) -> list[int]:
    """The shifts that lay the intervals [cuts[i], cuts[i + 1]) side by side
    from 0 in the image order of the 1-indexed ``permutation``: the image
    of i starts after the intervals whose image sits left of i's."""
    shifts = [0] * len(permutation)
    acc = 0
    for i in sorted(range(len(permutation)), key=permutation.__getitem__):
        shifts[i] = acc - cuts[i]
        acc += cuts[i + 1] - cuts[i]
    return shifts


def make_iet(lengths: Iterable[RationalLike], permutation: Iterable[int]) -> Iet:
    """Build the canonical iet for the given lengths and permutation."""
    return Iet(list(lengths), list(permutation))


def identity_iet(base_length: RationalLike = 1) -> Iet:
    """The identity exchange on [0, base_length)."""
    return Iet([as_rational(base_length)], [1])
