"""Exact interval exchange dynamics with a twist-closing simulator.

Rational-exact interval exchange transformations, first-return maps and
Rauzy-Veech induction, virtual orthogonal edge detection with a depth
bounded closing criterion, and a suspension-flow simulator that finds the
twist parameter producing a closed orbit.
"""

__version__ = "0.1.0"

from .errors import (
    ContinuationBroken,
    FormatError,
    IetError,
    LeftBoxUndefined,
    NoClosingInRange,
    NoEdgeInNeighborhood,
    NonPositiveLength,
    NotInduced,
    OutOfDomain,
    PermutationNotBijective,
    ReduciblePermutation,
    ReturnTimeExceeded,
    SingularityInBox,
    TieEncountered,
)
from .iet import Iet, format_rational, identity_iet, make_iet, parse_rational
from .induction import (
    ConsistencyReport,
    InducedResult,
    RauzyTrajectory,
    check_induction_consistency,
    induce,
    is_irreducible,
    rauzy_orbit,
    rauzy_step,
    rescale,
)
from .edges import (
    ClosingCriterion,
    EdgeCriterionReport,
    EdgeFamily,
    MeasureReport,
    VirtualEdge,
    estimate_full_measure,
    find_virtual_edges,
    in_rotation_band,
    max_disjoint_edges,
    probe_edge_criterion,
)
from .closing import (
    ClosingResult,
    FlowBox,
    SuspensionFlow,
    TwistFamily,
    build_flow_box,
    close_at_point,
    continuation_curve,
    find_closing_parameter,
    induced_suspension,
    make_twist_family,
    twisted_return,
)

__all__ = [name for name in dir() if not name.startswith("_")]
