"""Exact interval exchange dynamics with a twist-closing simulator.

Rational-exact interval exchange transformations, first-return maps and
Rauzy-Veech induction, virtual orthogonal edge detection with a depth
bounded closing criterion, and a suspension-flow simulator that finds the
twist parameter producing a closed orbit.

``import ietflow`` loads none of these layers.  Each public name is looked
up in its home module on every access (PEP 562), which imports that module
the first time; the package never keeps the name itself, so a function
rebound in its home module (by a tracer, say) is what ``ietflow.<name>``
gives.  ``ietflow eval`` thereby imports only the exchange and file layers.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by its home module
_EXPORTS = {
    "errors": (
        "ContinuationBroken", "FormatError", "IetError", "LeftBoxUndefined", "NoClosingInRange",
        "NoEdgeInNeighborhood", "NonPositiveLength", "NotInduced", "OutOfDomain",
        "PermutationNotBijective", "ReduciblePermutation", "ReturnTimeExceeded",
        "SingularityInBox", "TieEncountered",
    ),
    "iet": ("Iet", "format_rational", "identity_iet", "make_iet", "parse_rational"),
    "induction": (
        "ConsistencyReport", "InducedResult", "RauzyTrajectory", "check_induction_consistency",
        "induce", "is_irreducible", "rauzy_orbit", "rauzy_step", "rescale",
    ),
    "edges": (
        "ClosingCriterion", "EdgeCriterionReport", "EdgeFamily", "VirtualEdge",
        "estimate_full_measure", "find_virtual_edges", "in_rotation_band", "max_disjoint_edges",
        "probe_edge_criterion",
    ),
    "measure": ("MeasureReport",),
    "closing": (
        "ClosingResult", "FlowBox", "SuspensionFlow", "TwistFamily", "build_flow_box",
        "close_at_point", "continuation_curve", "find_closing_parameter", "induced_suspension",
        "make_twist_family", "twisted_return",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
