"""The package surface: ``ietflow.<name>`` for every public name."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import ietflow
from ietflow.edges import EdgeCriterionReport
from ietflow.induction import Record

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
    "make_twist_family", "max_disjoint_edges", "measure", "parse_rational",
    "probe_edge_criterion", "rauzy_orbit", "rauzy_step", "rescale", "twisted_return",
]
SUBMODULES = {"closing", "edges", "errors", "iet", "induction", "measure"}


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


def test_a_submodule_is_imported_on_first_read():
    # in a fresh interpreter no layer is loaded until its name is read
    code = (
        "import sys, ietflow\n"
        "assert 'ietflow.closing' not in sys.modules and 'closing' not in vars(ietflow)\n"
        "module = ietflow.closing\n"
        "assert module is sys.modules['ietflow.closing']\n"
        "print(module.__name__, module.SuspensionFlow.__module__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ietflow.__file__))),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ietflow.closing ietflow.closing\n"


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


# -- the result records of the walk and edge layers --------------------------


def _record_cases():
    """One instance of each result record of ``induction`` and ``edges``,
    built through the library where it builds them, with its field names
    and its repr, recorded when the records were dataclasses."""
    rot13 = ietflow.make_iet([F(2, 3), F(1, 3)], [2, 1])
    m3 = ietflow.make_iet([F(1, 2), F(1, 3), F(1, 6)], [3, 2, 1])
    tenth = ietflow.make_iet([F(9, 10), F(1, 10)], [2, 1])
    orbit = ietflow.rauzy_orbit(m3, 2)
    consistency = ietflow.check_induction_consistency(m3, 2)
    family = ietflow.find_virtual_edges(tenth)[0]
    report = ietflow.probe_edge_criterion(tenth, ietflow.ClosingCriterion(-3, 1), 2)
    note = (
        "certified_to_depth covers only the probed scales; membership in the full "
        "criterion would require every scale of an infinite sequence"
    )
    return [
        (
            ietflow.induce(rot13, F(2, 3)),
            ("induced", "return_times", "ends", "parent_top"),
            "InducedResult(induced=Iet([1/3, 1/3], [2, 1]), return_times=(1, 2), "
            "ends=(0, 1, 2), parent_top=3)",
        ),
        (
            orbit.steps[0],
            ("kind", "after"),
            "RauzyStep(kind='bottom', after=Iet([1/3, 1/2], [2, 1]))",
        ),
        (
            orbit,
            ("steps", "scales", "halt_reason"),
            "RauzyTrajectory(steps=(RauzyStep(kind='bottom', after=Iet([1/3, 1/2], [2, 1])), "
            "RauzyStep(kind='top', after=Iet([1/3, 1/6], [2, 1]))), "
            "scales=(Fraction(5, 6), Fraction(1, 2)), halt_reason='depth_reached')",
        ),
        (
            consistency.entries[1],
            ("n", "scale", "passed"),
            "ConsistencyEntry(n=2, scale=Fraction(1, 2), passed=True)",
        ),
        (
            consistency,
            ("entries", "halt_reason"),
            "ConsistencyReport(entries=(ConsistencyEntry(n=1, scale=Fraction(5, 6), passed=True), "
            "ConsistencyEntry(n=2, scale=Fraction(1, 2), passed=True)), "
            "halt_reason='depth_reached')",
        ),
        (
            family.edge_at(0),
            ("s", "e1", "t"),
            "VirtualEdge(s=Fraction(0, 1), e1=Fraction(1, 10), t=Fraction(1, 5))",
        ),
        (
            family,
            ("s_min", "s_sup", "offset", "piece"),
            "EdgeFamily(s_min=Fraction(0, 1), s_sup=Fraction(7, 10), "
            "offset=Fraction(1, 10), piece=0)",
        ),
        (
            report.criterion,
            ("euler_characteristic", "k"),
            "ClosingCriterion(euler_characteristic=-3, k=1)",
        ),
        (
            report.probes[1],
            ("scale", "edge_count", "passed"),
            "ProbeEntry(scale=Fraction(4, 5), edge_count=3, passed=True)",
        ),
        (
            report,
            ("criterion", "probes", "verdict", "used_fallback_scales", "note"),
            "EdgeCriterionReport(criterion=ClosingCriterion(euler_characteristic=-3, k=1), "
            "probes=(ProbeEntry(scale=Fraction(9, 10), edge_count=3, passed=True), "
            "ProbeEntry(scale=Fraction(4, 5), edge_count=3, passed=True)), "
            f"verdict='certified_to_depth', used_fallback_scales=False, note={note!r})",
        ),
    ]


RECORD_CASES = _record_cases()
RECORD_IDS = [type(record).__name__ for record, _, _ in RECORD_CASES]
records = pytest.mark.parametrize("record, names, text", RECORD_CASES, ids=RECORD_IDS)


def _compared(record, names):
    """The values equality and hashing read: every field but a report's note."""
    return tuple(getattr(record, name) for name in names if name != "note")


class TestResultRecords:
    """The result records of the walk and edge layers behave as the frozen
    dataclasses they once were: repr, equality and hash over the compared
    fields, positional and keyword construction, immutability, pickling."""

    def test_the_ten_records_are_covered(self):
        assert sorted(RECORD_IDS) == [
            "ClosingCriterion", "ConsistencyEntry", "ConsistencyReport", "EdgeCriterionReport",
            "EdgeFamily", "InducedResult", "ProbeEntry", "RauzyStep", "RauzyTrajectory",
            "VirtualEdge",
        ]

    @records
    def test_repr_is_pinned(self, record, names, text):
        assert repr(record) == text
        assert str(record) == text

    @records
    def test_positional_and_keyword_construction(self, record, names, text):
        cls, values = type(record), tuple(getattr(record, name) for name in names)
        for rebuilt in (cls(*values), cls(**dict(zip(names, values)))):
            assert type(rebuilt) is cls
            assert tuple(getattr(rebuilt, name) for name in names) == values
            assert rebuilt == record and not rebuilt != record
            assert hash(rebuilt) == hash(record) == hash(_compared(record, names))
            assert repr(rebuilt) == text

    @records
    def test_construction_rejects_wrong_arguments(self, record, names, text):
        cls, values = type(record), [getattr(record, name) for name in names]
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[-1]: values[-1]}, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[0]: values[0]})
        if names[-1] != "note":  # every field but the note is required
            with pytest.raises(TypeError):
                cls(*values[:-1])

    @records
    def test_each_compared_field_decides_equality(self, record, names, text):
        cls, values = type(record), [getattr(record, name) for name in names]
        for i, name in enumerate(names):
            if name == "note":
                continue
            changed = list(values)
            changed[i] = values[i] + 6 if type(values[i]) is int else object()
            assert cls(*changed) != record, name
            assert not cls(*changed) == record, name

    @records
    def test_records_are_not_tuples(self, record, names, text):
        assert not isinstance(record, tuple)
        assert record != tuple(getattr(record, name) for name in names)
        assert record.__eq__(_compared(record, names)) is NotImplemented

    @records
    def test_assignment_raises(self, record, names, text):
        for name in (*names, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    @records
    def test_pickle_and_copy_round_trips(self, record, names, text):
        for twin in (
            pickle.loads(pickle.dumps(record)),
            copy.deepcopy(record),
            copy.copy(record),
        ):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == text

    def test_note_is_neither_compared_nor_hashed_but_shown(self):
        report = RECORD_CASES[-1][0]
        bare = EdgeCriterionReport(
            report.criterion, report.probes, report.verdict, report.used_fallback_scales
        )
        assert bare.note == ""
        assert bare == report and hash(bare) == hash(report)
        assert repr(bare).endswith("used_fallback_scales=False, note='')")
        other = EdgeCriterionReport(*_compared(bare, RECORD_CASES[-1][1]), note="x")
        assert other == report == bare and len({other, report, bare}) == 1

    def test_a_record_compares_at_least_two_fields(self):
        with pytest.raises(TypeError, match="at least two fields"):
            type("Single", (Record,), {"__slots__": ("x",)})
        with pytest.raises(TypeError, match="at least two fields"):
            type("Noted", (Record,), {"__slots__": ("x", "note"), "_uncompared": ("note",)})

    def test_closing_criterion_needs_k_at_least_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ietflow.ClosingCriterion(-3, 0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            ietflow.ClosingCriterion(euler_characteristic=2, k=-1)


def test_measure_report_pickles_with_its_samples():
    # a worker pool pickles each sample's outcome back from ``ietflow.measure``
    report = ietflow.estimate_full_measure(
        3, ietflow.ClosingCriterion(-3, 1), depth=4, samples=6, seed=3, resolution=500
    )
    twin = pickle.loads(pickle.dumps(report))
    assert type(twin) is ietflow.MeasureReport and twin.__module__ == "ietflow.measure"
    assert twin == report and repr(twin) == repr(report)
    assert len(twin.per_sample) == 6
    for sample, original in zip(twin.per_sample, report.per_sample):
        assert type(sample) is type(original) and sample.__module__ == "ietflow.measure"
        assert sample == original and hash(sample) == hash(original)


def _values():
    """One instance of each value class: the exchange, the ten result
    records, the closing layer's four values and the experiment's two."""
    iet = ietflow.make_iet([F(2, 3), F(1, 3)], [2, 1])
    flow = ietflow.SuspensionFlow(ietflow.make_iet([F(9, 10), F(1, 10)], [2, 1]), (F(1), F(1)))
    box = ietflow.build_flow_box(flow, ietflow.VirtualEdge(F(0), F(1, 10), F(1, 5)))
    family = ietflow.make_twist_family(flow, box)
    report = ietflow.estimate_full_measure(
        3, ietflow.ClosingCriterion(-3, 1), depth=4, samples=6, seed=3, resolution=500
    )
    records = [record for record, _, _ in RECORD_CASES]
    closing = [box, family, flow, ietflow.find_closing_parameter(family)]
    return [iet, *records, *closing, report.per_sample[0], report]


VALUES = _values()


@pytest.mark.parametrize("value", VALUES, ids=[type(value).__name__ for value in VALUES])
def test_every_value_is_immutable(value):
    # every field is read first, so a cached one is set when it is deleted
    names = getattr(type(value), "__slots__", ())
    if dataclasses.is_dataclass(value):
        names = sorted({f.name for f in dataclasses.fields(value)} | set(vars(value)))
    assert names
    text = repr(value)
    for name in names:
        getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
