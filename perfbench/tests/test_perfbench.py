"""Tests of the benchmark itself: smoke runs and gates that must fire.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
from tracer import Tracer  # noqa: E402

import ietflow  # noqa: E402
from ietflow import (  # noqa: E402
    ClosingCriterion,
    SuspensionFlow,
    close_at_point,
    estimate_full_measure,
    induce,
    make_iet,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CRITERION = ClosingCriterion(-3, 1)


def run_bench(workload: str, trace: int, cwd: Path = ROOT, runner: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# -- smoke mode ----------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("measure", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_cli_inputs_redraw_an_exchange_that_ends_in_a_domain_error(tmp_path):
    import random

    import workloads
    from ietflow.edges import sample_iet
    from ietflow.errors import ReturnTimeExceeded

    # with seed 39 the first input set's first exchange cannot be induced
    # on the drawn interval within the return-time budget
    rng = random.Random(39)
    iet, _ = sample_iet(rng, 4, 1000)
    rng.randrange(1000)
    with pytest.raises(ReturnTimeExceeded):
        induce(iet, F(rng.randint(200, 800), 1000))

    workload = workloads.CliWorkload(39, False, tmp_path)
    invocations = workload._input_set(random.Random(39), 0)
    assert [command for command, _, _ in invocations] == list(workloads.CLI_SCRIPT)
    assert (tmp_path / "iet0.json").is_file() and (tmp_path / "flow0.json").is_file()


# -- gates that must fire ------------------------------------------------------


def tenth_flow():
    return SuspensionFlow(make_iet([F(9, 10), F(1, 10)], [2, 1]), (F(1), F(1)))


def test_closing_gate_passes_a_real_result_and_fires_on_a_perturbed_sigma1():
    flow = tenth_flow()
    results = close_at_point(flow, F(0), CRITERION, 3)
    assert gates.check_closing(flow, F(0), 3, results, 1e-9) == []
    bent = [dataclasses.replace(results[0], sigma1=results[0].sigma1 * 0.5)] + results[1:]
    assert gates.check_closing(flow, F(0), 3, bent, 1e-9)


def test_closing_gate_fires_on_scales_out_of_order():
    flow = tenth_flow()
    results = close_at_point(flow, F(0), CRITERION, 3)
    assert gates.check_closing(flow, F(0), 3, [results[1], results[0], results[2]], 1e-9)
    assert gates.check_closing(flow, F(0), 3, results[:2], 1e-9)


def test_measure_gates_fire_on_a_changed_verdict_count():
    report = estimate_full_measure(4, CRITERION, depth=8, samples=6, seed=5)
    assert gates.check_measure_report(report) == []
    counts = dict(report.counts)
    counts["refuted_at_depth"] += 1
    counts["certified_to_depth"] -= 1
    changed = dataclasses.replace(report, counts=counts)
    assert gates.check_measure_report(changed)
    assert gates.check_pool_agreement(report, report) == []
    assert gates.check_pool_agreement(report, changed)


def test_measure_sample_gate_fires_on_a_wrong_pass_count():
    report = estimate_full_measure(4, CRITERION, depth=8, samples=2, seed=5)
    sample = report.per_sample[0]
    assert gates.check_measure_sample(sample, 8, CRITERION.threshold) == []
    wrong = dataclasses.replace(sample, scales_passed=sample.scales_passed + 1)
    assert gates.check_measure_sample(wrong, 8, CRITERION.threshold)


def _cli_bytes(argv):
    done = subprocess.run(
        [sys.executable, "-m", "ietflow", *argv],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=60,
    )
    return done.returncode, done.stdout


def test_cli_gate_fires_on_altered_bytes_and_exit_codes(tmp_path):
    iet = make_iet([F(3, 10), F(1, 2), F(1, 5)], [3, 1, 2])
    path = tmp_path / "iet.json"
    path.write_text(json.dumps({"lengths": [str(x) for x in iet.lengths], "permutation": list(iet.permutation)}))
    argv = ["induce", "--input", str(path), "--b", "1/2"]
    expected = gates.library_summary("induce", induce(iet, F(1, 2)))
    code, out = _cli_bytes(argv)
    assert gates.check_cli_output("induce", code, out, expected, out) == []
    altered = out.replace(b"1/", b"2/", 1)
    assert gates.check_cli_output("induce", code, altered, expected, out)
    assert gates.check_cli_output("induce", code, altered, expected, altered)
    assert gates.check_cli_output("induce", 2, out, expected, out)


# -- tracer --------------------------------------------------------------------


def test_tracer_rebinds_every_import_site_and_restores_them():
    original = ietflow.induction.induce
    assert ietflow.edges.induce is original
    tracer = Tracer()
    with tracer:
        assert ietflow.edges.induce is ietflow.induction.induce is not original
        with tracer.request("op"):
            ietflow.estimate_full_measure(4, CRITERION, depth=4, samples=2, seed=1)
        ietflow.induce(make_iet([F(1, 2), F(1, 2)], [2, 1]), F(1, 2))  # outside a request
    assert ietflow.edges.induce is original and ietflow.closing.induce is original
    assert all(tracer._root), "a span was recorded outside a request"
    spans = tracer.summary()
    assert spans["edges.estimate_full_measure"]["calls"] == 1
    assert spans["induction.induce"]["calls"] >= 1
    for entry in spans.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    assert len(tracer.observed["edges.estimate_full_measure"]) == 2
