"""Typed errors raised by the library.

Every domain failure derives from IetError so callers (and the CLI) can
distinguish bad inputs from genuine dynamical obstructions.
"""


class IetError(Exception):
    """Base class for all library errors."""


class NonPositiveLength(IetError):
    """An interval length is zero or negative."""


class PermutationNotBijective(IetError):
    """The permutation data is not a bijection of {1..m}."""


class OutOfDomain(IetError):
    """A point lies outside the half-open interval of definition."""


class FormatError(IetError):
    """A serialized object does not match the wire format."""


class ReturnTimeExceeded(IetError):
    """First-return computation exceeded its step budget."""

    def __init__(self, max_steps, scale):
        self.max_steps = max_steps
        self.scale = scale
        super().__init__(f"no return within {max_steps} steps (inducing on [0, {scale}))")


class NotInduced(IetError):
    """Internal consistency failure while assembling a first-return map."""


class TieEncountered(IetError):
    """The two comparand lengths of a Rauzy step are equal.

    Rational data always reach such a tie; it is the boundary of the set
    on which the induction operator is defined.
    """


class ReduciblePermutation(IetError):
    """The permutation fixes a proper prefix {1..j}, so Rauzy induction
    is undefined (this includes the single-interval identity map)."""


class SingularityInBox(IetError):
    """A declared singular point lies on the candidate flow box."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"singular point {point} blocks the flow box")


class LeftBoxUndefined(IetError):
    """A twisted orbit ran into a singular gap of the cross-section."""


class ContinuationBroken(IetError):
    """The continuation arc is inconsistent with the box geometry."""


class NoClosingInRange(IetError):
    """The continuation endpoint never reaches the vertex within the
    allowed twist range."""


class NoEdgeInNeighborhood(IetError):
    """No admissible virtual orthogonal edge exists at a shrink step."""

    def __init__(self, step, blocked=()):
        self.step = step
        self.blocked = tuple(blocked)
        msg = f"no admissible virtual edge at shrink step {step}"
        if self.blocked:
            msg += "; blocked candidates: " + ", ".join(str(b) for b in self.blocked)
        super().__init__(msg)
