"""The package surface: ``ietflow.<name>`` for every public name."""

import sys

import pytest

import ietflow

# the public names, as the package exported them when it imported every layer
PUBLIC_NAMES = [
    "ClosingCriterion", "ClosingResult", "ConsistencyReport", "ContinuationBroken",
    "EdgeCriterionReport", "EdgeFamily", "FlowBox", "FormatError", "Iet", "IetError",
    "InducedResult", "LeftBoxUndefined", "MeasureReport", "NoClosingInRange",
    "NoEdgeInNeighborhood", "NonPositiveLength", "NotInduced", "OutOfDomain",
    "PermutationNotBijective", "RauzyTrajectory", "ReduciblePermutation",
    "ReturnTimeExceeded", "SingularityInBox", "SuspensionFlow", "TieEncountered",
    "TwistFamily", "VirtualEdge", "build_flow_box", "check_induction_consistency",
    "close_at_point", "closing", "continuation_curve", "edges", "errors",
    "estimate_full_measure", "find_closing_parameter", "find_virtual_edges",
    "format_rational", "identity_iet", "iet", "in_rotation_band", "induce",
    "induced_suspension", "induction", "is_irreducible", "make_iet",
    "make_twist_family", "max_disjoint_edges", "parse_rational",
    "probe_edge_criterion", "rauzy_orbit", "rauzy_step", "rescale", "twisted_return",
]
SUBMODULES = {"closing", "edges", "errors", "iet", "induction"}


def test_public_names_are_pinned():
    assert sorted(ietflow.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(ietflow))


def test_every_name_is_the_object_of_its_home_module():
    for name in PUBLIC_NAMES:
        value = getattr(ietflow, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"ietflow.{name}"]
        else:
            assert value.__module__.startswith("ietflow."), name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from ietflow import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ietflow, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ietflow.no_such_name  # noqa: B018


def test_a_name_rebound_in_its_home_module_is_what_the_package_gives(monkeypatch):
    # a tracer rebinds functions in their home modules and restores them
    original = ietflow.induce

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr("ietflow.induction.induce", replacement)
    assert ietflow.induce is replacement
    monkeypatch.undo()
    assert ietflow.induce is original
    assert "induce" not in vars(ietflow)
