"""CLI behavior, wire formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import ietflow
from ietflow import FormatError, IetError, SuspensionFlow, make_iet
from ietflow.cli import run
from ietflow.closing import induced_suspension
from ietflow.edges import sample_iet
from ietflow.serialize import (
    dump_iet,
    flow_from_dict,
    flow_to_dict,
    iet_from_dict,
    iet_to_dict,
    load_iet,
)
from .test_iet_core import rotation


@pytest.fixture
def rot13_path(tmp_path):
    path = tmp_path / "rot13.json"
    dump_iet(rotation(F(1, 3)), str(path))
    return str(path)


@pytest.fixture
def flow_path(tmp_path):
    flow = SuspensionFlow(rotation(F(1, 10)), (F(1), F(1)))
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(flow_to_dict(flow)))
    return str(path)


def _child_stdout(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this ietflow."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ietflow.__file__))),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# exchange data that names no exchange: a repeated rank, a negative or a
# zero length, no interval at all
INVALID_EXCHANGES = [
    (["1/2", "1/2"], [1, 1]),
    (["-1/2", "3/2"], [2, 1]),
    (["0", "1"], [2, 1]),
    ([], []),
]
INVALID_IDS = ["repeated-rank", "negative-length", "zero-length", "no-intervals"]

NEEDS_EXCHANGE_KEYS = "exchange JSON needs 'lengths' and 'permutation'"
NEEDS_FLOW_KEYS = "flow JSON needs 'base' and 'roof'"


class TestWireFormat:
    def test_iet_round_trip(self, tmp_path):
        e = make_iet([F(1, 5), F(3, 10), F(1, 2)], [3, 2, 1])
        path = tmp_path / "e.json"
        dump_iet(e, str(path))
        assert load_iet(str(path)) == e

    def test_rationals_as_pq_strings(self):
        data = iet_to_dict(rotation(F(1, 3)))
        assert data == {"lengths": ["2/3", "1/3"], "permutation": [2, 1]}

    def test_rejects_decimals(self):
        with pytest.raises(FormatError):
            iet_from_dict({"lengths": ["0.5", "0.5"], "permutation": [2, 1]})

    @pytest.mark.parametrize("length", ["1_0/2_0", "\u0661/\u0662"], ids=["separators", "arabic-indic"])
    def test_rejects_separators_and_non_ascii_digits(self, length):
        with pytest.raises(FormatError, match="ASCII digits"):
            iet_from_dict({"lengths": [length, "1/2"], "permutation": [2, 1]})

    def test_rejects_non_canonical_permutation(self):
        with pytest.raises(FormatError, match="canonical"):
            iet_from_dict({"lengths": ["1/2", "1/2"], "permutation": [1, 2]})

    @pytest.mark.parametrize("lengths, perm", INVALID_EXCHANGES, ids=INVALID_IDS)
    def test_rejects_bad_permutation(self, lengths, perm):
        with pytest.raises(FormatError):
            iet_from_dict({"lengths": lengths, "permutation": perm})

    @pytest.mark.parametrize("perm", [[2.0, 1.0], [2.5, 1], ["2", "1"], [True, 2], "21"])
    def test_rejects_non_integer_permutation_entries(self, perm):
        with pytest.raises(FormatError, match="permutation entries must be integers"):
            iet_from_dict({"lengths": ["1/2", "1/2"], "permutation": perm})

    @pytest.mark.parametrize("lengths", ["12", 5, {"1/2": "1/2"}, None])
    def test_rejects_lengths_that_are_not_a_list(self, lengths):
        with pytest.raises(FormatError, match="'lengths' must be a list"):
            iet_from_dict({"lengths": lengths, "permutation": [2, 1]})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("roof", "12", "'roof' must be a list"),
            ("roof", 3, "'roof' must be a list"),
            ("singular_points", "1/4", "'singular_points' must be a list"),
            ("singular_points", 0, "'singular_points' must be a list"),
            ("K", 2.7, "'K' must be an integer"),
            ("K", True, "'K' must be an integer"),
            ("K", "1", "'K' must be an integer"),
            ("partition", "0", "'partition' must be a list"),
        ],
    )
    def test_rejects_mistyped_flow_fields(self, field, value, message):
        data = flow_to_dict(SuspensionFlow(rotation(F(1, 10)), (F(2), F(1)), (F(1, 4),), K=1))
        data[field] = value
        with pytest.raises(FormatError, match=message):
            flow_from_dict(data)

    def test_rejects_repeated_singular_points(self):
        # a repeated point would be stored twice, and 'K' would default to 2
        data = flow_to_dict(SuspensionFlow(rotation(F(1, 10)), (F(2), F(1)), (F(1, 3),), K=1))
        data["singular_points"] = ["1/3", "1/3"]
        del data["K"]
        with pytest.raises(FormatError, match="singular points must be distinct"):
            flow_from_dict(data)

    @pytest.mark.parametrize(
        "load, data, message",
        [
            (iet_from_dict, {"lengths": ["1/2", "1/2"]}, NEEDS_EXCHANGE_KEYS),
            (iet_from_dict, {"permutation": [2, 1]}, NEEDS_EXCHANGE_KEYS),
            (iet_from_dict, [["1/2", "1/2"], [2, 1]], NEEDS_EXCHANGE_KEYS),
            (flow_from_dict, {"roof": ["1"]}, NEEDS_FLOW_KEYS),
            (flow_from_dict, {"base": {"lengths": ["1"], "permutation": [1]}}, NEEDS_FLOW_KEYS),
        ],
        ids=[
            "exchange-no-permutation",
            "exchange-no-lengths",
            "exchange-not-an-object",
            "flow-no-base",
            "flow-no-roof",
        ],
    )
    def test_rejects_missing_keys(self, load, data, message):
        with pytest.raises(FormatError) as info:
            load(data)
        assert str(info.value) == message

    def test_flow_round_trip(self):
        flow = SuspensionFlow(rotation(F(1, 10)), (F(2), F(1)), (F(1, 4),), K=1)
        again = flow_from_dict(flow_to_dict(flow))
        assert again.base == flow.base
        assert again.roof == flow.roof
        assert again.singular_points == flow.singular_points
        assert again.K == 1
        assert "partition" not in flow_to_dict(flow)

    def test_first_return_flows_round_trip(self):
        # induced suspensions carry roofs per return-time cell, which can
        # refine the base breakpoints; the file must keep that partition
        rng = random.Random(3)
        refined = 0
        for n in range(200):
            iet, _ = sample_iet(rng, 3 + n % 2, 1000)
            roof = tuple(F(rng.randint(1, 5)) for _ in range(iet.m))
            flow = SuspensionFlow(iet, roof, (iet.base_length * F(rng.randrange(97), 97),))
            try:
                flow = induced_suspension(flow, iet.base_length * F(rng.randint(30, 90), 100))
            except IetError:
                continue
            data = json.loads(json.dumps(flow_to_dict(flow)))
            assert flow_from_dict(data) == flow
            refined += "partition" in data
        assert refined > 20


class TestCli:
    def test_eval_prints_value(self, rot13_path, capsys):
        assert run(["eval", "--input", rot13_path, "--x", "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "5/6"

    def test_induce_rejects_a_step_budget_below_one(self, rot13_path, capsys):
        assert run(["induce", "--input", rot13_path, "--b", "2/3", "--max-steps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: max_steps must be positive\n"

    def test_usage_error_exit_1(self, capsys):
        assert run(["eval", "--input"]) == 1
        assert run(["nonsense"]) == 1

    def test_missing_file_exit_1(self, capsys):
        assert run(["eval", "--input", "/nonexistent.json", "--x", "1/2"]) == 1

    def test_malformed_rational_exit_1(self, rot13_path, capsys):
        assert run(["eval", "--input", rot13_path, "--x", "0.5"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["1_0/2_0", "\u0661/\u0662"], ids=["separators", "arabic-indic"])
    def test_separators_and_non_ascii_digits_exit_1(self, rot13_path, capsys, x):
        # Fraction reads both as 1/2 from Python 3.11 on; a file or option
        # must mean the same on every Python
        assert run(["eval", "--input", rot13_path, "--x", x]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: rational {x!r} must be a decimal-free p/q string of ASCII digits\n"

    def test_non_canonical_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lengths": ["1/2", "1/2"], "permutation": [1, 2]}))
        assert run(["eval", "--input", str(path), "--x", "1/4"]) == 1
        assert "canonical" in capsys.readouterr().err

    @pytest.mark.parametrize("perm", [[2.0, 1.0], ["2", "1"]])
    def test_non_integer_permutation_file_exit_1(self, tmp_path, capsys, perm):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lengths": ["1/2", "1/2"], "permutation": perm}))
        assert run(["eval", "--input", str(path), "--x", "1/4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: permutation entries must be integers\n"

    @pytest.mark.parametrize("lengths, perm", INVALID_EXCHANGES, ids=INVALID_IDS)
    def test_invalid_exchange_file_exit_1(self, tmp_path, capsys, lengths, perm):
        # a file that names no exchange is a usage error, not a domain error
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lengths": lengths, "permutation": perm}))
        assert run(["eval", "--input", str(path), "--x", "1/4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1

    def test_string_lengths_file_exit_1(self, tmp_path, capsys):
        # a string is not read character by character as lengths [1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lengths": "12", "permutation": [2, 1]}))
        assert run(["eval", "--input", str(path), "--x", "1/4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: 'lengths' must be a list of p/q strings\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("roof", "11", "'roof' must be a list of p/q strings"),
            ("K", 2.7, "'K' must be an integer"),
            ("K", True, "'K' must be an integer"),
        ],
    )
    def test_mistyped_flow_file_exit_1(self, tmp_path, capsys, field, value, message):
        data = flow_to_dict(SuspensionFlow(rotation(F(1, 10)), (F(1), F(1))))
        data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["close", "--flow", str(path), "--point", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_repeated_partition_cut_in_flow_file_exit_1(self, tmp_path, capsys):
        data = flow_to_dict(SuspensionFlow(rotation(F(1, 10)), (F(1), F(1))))
        data["partition"] = ["0", "1/2", "1/2", "9/10", "1"]
        data["roof"] = ["1"] * 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["close", "--flow", str(path), "--point", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: partition must increase from 0 to the base length\n"

    def test_repeated_singular_point_in_flow_file_exit_1(self, tmp_path, capsys):
        data = flow_to_dict(SuspensionFlow(rotation(F(1, 10)), (F(1), F(1)), (F(1, 3),), K=1))
        data["singular_points"] = ["1/3", "1/3"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["close", "--flow", str(path), "--point", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: singular points must be distinct\n"

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_measure_depth_below_one_exit_1(self, capsys, depth):
        argv = ["measure", "--m", "3", "--samples", "5", "--seed", "1", "--depth", depth]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: depth must be >= 1\n"

    def test_measure_negative_seed_exit_1(self, capsys, tmp_path):
        csv_path = tmp_path / "b.csv"
        argv = ["measure", "--m", "4", "--samples", "50", "--seed", "-7", "--depth", "8"]
        assert run(argv + ["--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: seed must be >= 0\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_measure_workers_below_one_exit_1(self, capsys, monkeypatch, tmp_path, workers):
        # a pool of no workers used to run sequentially and exit 0
        monkeypatch.setenv("IETFLOW_WORKERS", workers)
        csv_path = tmp_path / "w.csv"
        argv = ["measure", "--m", "3", "--samples", "5", "--seed", "1", "--depth", "4"]
        assert run(argv + ["--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: workers must be >= 1\n"
        assert not csv_path.exists()

    def test_measure_worker_pool_bytes(self, tmp_path):
        # the worker count comes from the environment and never changes
        # the report; a count that is not an integer is a usage error
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ietflow.__file__)))
        env.pop("IETFLOW_WORKERS", None)
        argv = [sys.executable, "-m", "ietflow", "measure", "--m", "3", "--samples", "40"]
        argv += ["--seed", "5", "--depth", "6", "--resolution", "1000", "--csv"]
        runs = []
        for workers in (None, "2", "two"):
            if workers is not None:
                env["IETFLOW_WORKERS"] = workers
            csv_path = tmp_path / f"{workers}.csv"
            done = subprocess.run(
                argv + [str(csv_path)], env=env, capture_output=True, timeout=120
            )
            runs.append((done, csv_path))
        (seq, seq_csv), (par, par_csv), (bad, _) = runs
        assert seq.returncode == par.returncode == 0, (seq.stderr, par.stderr)
        assert seq.stdout == par.stdout and json.loads(seq.stdout)["samples"] == 40
        assert seq_csv.read_bytes() == par_csv.read_bytes()
        assert bad.returncode == 1 and bad.stdout == b""
        assert bad.stderr.startswith(b"usage error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "--input", "{rot13}", "--singularities", "1"],
            ["measure", "--m", "2", "--samples", "5", "--seed", "1", "--singularities", "1"],
            ["close", "--flow", "{flow}", "--point", "0", "--singularities", "1"],
            ["close", "--flow", "{flow}", "--point", "0", "--tolerance", "1e-9"],
            ["eval", "--input", "{rot13}", "--x", "1/2", "--output", "x.out"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, rot13_path, flow_path, capsys, argv):
        argv = [a.format(rot13=rot13_path, flow=flow_path) for a in argv]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1

    def test_import_leaves_the_worker_pool_unloaded(self):
        code = "import sys, ietflow.cli; print('concurrent.futures.process' in sys.modules)"
        assert _child_stdout(code) == "False\n"

    def test_domain_error_exit_2(self, rot13_path, capsys):
        assert run(["eval", "--input", rot13_path, "--x", "3/2"]) == 2
        assert "OutOfDomain" in capsys.readouterr().err

    def test_induce_report(self, rot13_path, capsys):
        assert run(["induce", "--input", rot13_path, "--b", "2/3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["induced"]["lengths"] == ["1/3", "1/3"]
        assert data["return_times"] == [1, 2]
        assert data["covers_parent"] is True

    def test_rauzy_report_with_cross_check(self, rot13_path, capsys):
        assert run(["rauzy", "--input", rot13_path, "--depth", "3", "--cross-check"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["halt_reason"] == "tie_encountered"
        assert data["steps"] == ["bottom"]
        assert data["scales"] == ["2/3"]
        assert data["cross_check"]["all_passed"] is True

    def test_edges_report(self, tmp_path, capsys):
        path = tmp_path / "r10.json"
        dump_iet(rotation(F(1, 10)), str(path))
        assert run(["edges", "--input", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_disjoint"] == 4
        assert data["families"][0]["offset"] == "1/10"

    def test_probe_report(self, tmp_path, capsys):
        path = tmp_path / "r16.json"
        dump_iet(rotation(F(1, 16)), str(path))
        assert run([
            "probe", "--input", str(path), "--chi", "-2", "--k", "1",
            "--depth", "3", "--scales", "1/2,1/4,1/8",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["threshold"] == 2
        assert data["verdict"] == "refuted_at_depth"

    def test_probe_empty_scales_is_a_usage_error(self, rot13_path, capsys):
        # an empty list names no scale; it must not fall back to the walk
        assert run(["probe", "--input", rot13_path, "--scales", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: cannot parse rational '': Invalid literal for Fraction: ''\n"

    def test_probe_stops_at_the_first_failing_scale(self, tmp_path, capsys):
        # the first scale refutes, and probing stops there
        path = tmp_path / "m4.json"
        dump_iet(make_iet([F(181, 1000), F(319, 500), F(1, 1000), F(9, 50)], [4, 3, 2, 1]), str(path))
        assert run(["probe", "--input", str(path), "--depth", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "refuted_at_depth"
        assert data["probes"] == [{"edge_count": 0, "passed": False, "scale": "41/50"}]
        assert data["used_fallback_scales"] is False

    def test_probe_identity_prints_no_probes(self, tmp_path, capsys):
        # an identity has no scale below its base, so the walk is empty
        path = tmp_path / "id.json"
        dump_iet(make_iet([F(1)], [1]), str(path))
        assert run(["probe", "--input", str(path), "--depth", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["verdict"], data["probes"]) == ("refuted_at_depth", [])
        assert data["used_fallback_scales"] is False

    def test_close_identity_base_exit_2(self, tmp_path, capsys):
        flow = SuspensionFlow(make_iet([F(1)], [1]), (F(1),))
        path = tmp_path / "idflow.json"
        path.write_text(json.dumps(flow_to_dict(flow)))
        code = run(["close", "--flow", str(path), "--point", "0/1"])
        assert code == 2
        assert "NoEdgeInNeighborhood" in capsys.readouterr().err

    def test_close_rotation_flow(self, flow_path, capsys):
        code = run([
            "close", "--flow", flow_path, "--point", "0/1",
            "--shrink-steps", "2", "--chi", "-3", "--k", "1",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["results"]) == 2
        assert data["results"][0]["sigma1"] > data["results"][1]["sigma1"]

    def test_measure_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "measure", "--m", "2", "--samples", "10", "--seed", "7",
            "--depth", "3", "--resolution", "1000",
        ]
        assert run(args + ["--output", str(out1), "--csv", str(csv1)]) == 0
        assert run(args + ["--output", str(out2), "--csv", str(csv2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_measure_seed_echoed(self, tmp_path, capsys):
        assert run([
            "measure", "--m", "2", "--samples", "5", "--seed", "99",
            "--depth", "2", "--resolution", "100",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 99

    def test_emitted_iet_reparses(self, tmp_path):
        # every emitted exchange JSON parses back to an equal value
        e = make_iet([F(1, 5), F(3, 10), F(1, 2)], [3, 2, 1])
        path = tmp_path / "x.json"
        dump_iet(e, str(path))
        blob = json.loads(path.read_text())
        assert iet_from_dict(blob) == e

    def test_trace_csv_written(self, flow_path, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run([
            "close", "--flow", flow_path, "--point", "0/1",
            "--shrink-steps", "1", "--trace-csv", str(trace),
        ]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,position,accumulated_time"
        assert len(lines) >= 3


# runs argv through ``run`` in a fresh interpreter, then prints the exit
# code and the ietflow modules loaded; stdlib modules are not asserted on,
# since a site hook may import some of them first
_IMPORT_GRAPH = """
import contextlib, io, json, sys
from ietflow.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = run(sys.argv[1:])
    except SystemExit as exc:  # --version
        code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "ietflow")
print(json.dumps([code, loaded, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""
FRONT = ["ietflow", "ietflow.cli", "ietflow.errors", "ietflow.iet", "ietflow.serialize"]
WALK = FRONT + ["ietflow.induction"]
EDGES = WALK + ["ietflow.edges"]
MEASURE = EDGES + ["ietflow.measure"]
EVERY = EDGES + ["ietflow.closing"]

# the records of the walk and edge layers are slotted classes; ``dataclasses``,
# which imports ``inspect``, loads with the experiment and closing records only
HEAVY_STDLIB = {"measure", "close"}


class TestImportGraph:
    """Each command imports only the layers it runs."""

    def test_package_import_loads_no_submodule(self):
        code = "import sys, ietflow; print([m for m in sys.modules if m.split('.')[0] == 'ietflow'])"
        assert _child_stdout(code) == "['ietflow']\n"

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["--version"], FRONT),
            (["eval", "--input", "{iet}", "--x", "1/2"], FRONT),
            (["induce", "--input", "{iet}", "--b", "2/3"], WALK),
            (["rauzy", "--input", "{iet}", "--depth", "3", "--cross-check"], WALK),
            (["edges", "--input", "{iet}"], EDGES),
            (["probe", "--input", "{iet}", "--depth", "2"], EDGES),
            (["measure", "--m", "3", "--samples", "2", "--seed", "1", "--depth", "2"], MEASURE),
            (["close", "--flow", "{flow}", "--point", "0", "--shrink-steps", "1"], EVERY),
        ],
        ids=["version", "eval", "induce", "rauzy", "edges", "probe", "measure", "close"],
    )
    def test_command_loads_only_its_layers(self, rot13_path, flow_path, argv, modules):
        argv = [a.format(iet=rot13_path, flow=flow_path) for a in argv]
        code, loaded, heavy = json.loads(_child_stdout(_IMPORT_GRAPH, *argv))
        assert code == 0
        assert loaded == sorted(modules)
        if argv[0].lstrip("-") not in HEAVY_STDLIB:
            assert heavy == []


@pytest.fixture
def pinned_inputs(tmp_path):
    flows = {
        "tenth.json": SuspensionFlow(rotation(F(1, 10)), (F(1), F(1))),
        "m3.json": SuspensionFlow(
            make_iet([F(412, 1000), F(271, 1000), F(317, 1000)], [3, 2, 1]),
            (F(2), F(1), F(3)),
            (F(1, 7),),
        ),
    }
    for name, flow in flows.items():
        (tmp_path / name).write_text(json.dumps(flow_to_dict(flow)))
    m4 = make_iet([F(217, 500), F(17, 125), F(107, 250), F(1, 500)], [2, 4, 3, 1])
    dump_iet(m4, str(tmp_path / "m4.json"))
    dump_iet(rotation(F(1, 10)), str(tmp_path / "rot10.json"))
    return tmp_path


class TestPinnedBytes:
    """Exit code, stdout sha256 and stderr of fixed invocations.

    The ``close`` rows were re-pinned when closing moved to the Rauzy
    scales, after every closing of the pool in ``tests/test_closing.py``
    was re-validated; the m3 flow closes twice and then finds every edge
    at 77/1000 blocked by the pulled-back singular point 209/7000.  Its
    stderr counts the blocked candidates; ``tests/test_closing.py`` checks
    the candidates themselves on the error.  The ``edges``, ``probe``,
    ``measure`` (with its CSV) and ``eval`` rows pin every other command's
    report, so a change behind them must leave those bytes as they are; the
    clamped-quota ``probe`` row pins ``threshold_clamped`` and the note's
    clamp suffix."""

    @pytest.mark.parametrize(
        "argv, code, stdout_sha256, stderr",
        [
            (
                ["close", "--flow", "tenth.json", "--point", "0"],
                0,
                "7b9ecf9caa8e5da26b4d4bdbe1c5d4c476738243890641f96f8111515ccd08f4",
                "",
            ),
            (
                ["close", "--flow", "tenth.json", "--point", "1/7"],
                0,
                "7b9ecf9caa8e5da26b4d4bdbe1c5d4c476738243890641f96f8111515ccd08f4",
                "",
            ),
            (
                ["close", "--flow", "m3.json", "--point", "0"],
                2,
                hashlib.sha256(b"").hexdigest(),
                "NoEdgeInNeighborhood: no admissible virtual edge at shrink step 3; "
                "blocked candidates: 1\n",
            ),
            (
                ["rauzy", "--input", "m4.json", "--depth", "25", "--cross-check"],
                0,
                "156a33182afc9a5a326cba7a4792699a8e696a8d20faef762edb827dcaaa016a",
                "",
            ),
            (
                ["induce", "--input", "m4.json", "--b", "1"],
                0,
                "2f4d73176e5c2cab8188b2c9608d296e0d5ebcdbfb3ce65db84006481035deaa",
                "",
            ),
            (
                ["induce", "--input", "m4.json", "--b", "1/3"],
                2,
                hashlib.sha256(b"").hexdigest(),
                "ReturnTimeExceeded: no return within 80 steps (inducing on [0, 1/3))\n",
            ),
            (
                ["induce", "--input", "m4.json", "--b", "1/3", "--max-steps", "2000"],
                0,
                "962ecbdd925cace748512cd5af0364ba0fb1f18a81f47b165954d8f65cfce318",
                "",
            ),
            (
                ["edges", "--input", "m4.json"],
                0,
                "40c8f24dd560dd9b5e43e1b2f1393b1cb4c6710a54e8442bf46985f16c1904c9",
                "",
            ),
            (
                ["edges", "--input", "rot10.json"],
                0,
                "3d4c76aea68466e9666848ff1295646f73f48a8a1b1c55af1e06d1d1f91ea381",
                "",
            ),
            (
                ["probe", "--input", "m4.json", "--depth", "8"],
                0,
                "12b00609741759560cf314fcb9679e4aaa6088ed1f1d944f735dffb8cdbee426",
                "",
            ),
            (
                ["probe", "--input", "m4.json", "--depth", "8", "--chi", "-5", "--k", "1"],
                0,
                "52b83b9081da4c828c2ad018c9784277ab65d6de4c432cb46d0644f12d0c22bd",
                "",
            ),
            (
                ["probe", "--input", "m4.json", "--scales", "9/10,3/4,1/2,2/5"],
                0,
                "c39af91a02698016766311d7214226723872b5123449b6cac24364fcfb873f5e",
                "",
            ),
            (
                ["probe", "--input", "m4.json", "--scales", "1/2,1/4,1/8,1/16"],
                2,
                hashlib.sha256(b"").hexdigest(),
                "ReturnTimeExceeded: no return within 80 steps (inducing on [0, 1/4))\n",
            ),
            (
                ["eval", "--input", "m4.json", "--x", "1/3"],
                0,
                hashlib.sha256(b"503/1500\n").hexdigest(),
                "",
            ),
            (
                ["eval", "--input", "m4.json", "--x", "1"],
                2,
                hashlib.sha256(b"").hexdigest(),
                "OutOfDomain: 1 is outside [0, 1)\n",
            ),
        ],
        ids=[
            "close-tenth-at-0",
            "close-tenth-at-1_7",
            "close-m3-blocked",
            "rauzy-m4-cross-check",
            "induce-m4-b-1",
            "induce-m4-b-1_3-over-budget",
            "induce-m4-b-1_3-max-steps-2000",
            "edges-m4",
            "edges-rot10",
            "probe-m4-depth-8",
            "probe-m4-depth-8-clamped-quota",
            "probe-m4-scales",
            "probe-m4-scales-over-budget",
            "eval-m4-1_3",
            "eval-m4-out-of-domain",
        ],
    )
    def test_pinned_invocation(
        self, pinned_inputs, monkeypatch, capsys, argv, code, stdout_sha256, stderr
    ):
        monkeypatch.chdir(pinned_inputs)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256
        assert captured.err == stderr

    def test_pinned_measure_and_its_csv(self, pinned_inputs, monkeypatch, capsys):
        monkeypatch.chdir(pinned_inputs)
        argv = ["measure", "--m", "4", "--samples", "40", "--seed", "101", "--depth", "32"]
        assert run(argv + ["--csv", "samples.csv"]) == 0
        captured = capsys.readouterr()
        stdout_sha256 = "8f91e4f41cfa63df7c510f6d86935936185cfe82b95aec4bfa682b02a4263ba2"
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256
        assert captured.err == ""
        csv_sha256 = "680d505edb91ce2af08e4ea1869427ae8c3eb9eda79c5d4ec08f6017c9ce8b68"
        assert hashlib.sha256((pinned_inputs / "samples.csv").read_bytes()).hexdigest() == csv_sha256
