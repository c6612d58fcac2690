"""Tests of the benchmark itself, on the 186-state reference scenario.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import reference  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = (
    "statespace.states",
    "statespace.reachable_ratio",
    "markov.rate_nnz",
    "markov.expm_action_calls",
    "analysis.solve_iterations",
    "markov.integrate_calls",
    "analysis.time_average_calls",
    "des.events",
)
# Layer metrics that partition one traced call: leaf totals and self times.
PARTITION = (
    "statespace.build_s",
    "markov.rate_matrix_s",
    "markov.grant_matrix_s",
    "markov.partition_s",
    "markov.expm_action_s",
    "analysis.solve_s",
    "markov.integrate_s",
    "analysis.time_average_s",
    "analysis.class_metrics_s",
    "analysis.occupancy_s",
    "des.simulate_s",
    "des.batch_confidence_s",
    "cli.self_s",
)


@pytest.fixture(scope="module")
def toy():
    scenario = WORKLOADS["sim_compare"].scenario(ROOT, 3)
    scenario["simulation"]["horizon"] = 100_000
    return scenario, bench.Reference(reference.compute(scenario))


def _measure(toy, tmp_path, trace):
    scenario, ref = toy
    run = bench.measure(scenario, ref, 0.0, trace, tmp_path, log=pytest.fail)
    assert run["failed"] == 0
    return run


def test_every_named_metric_is_emitted(toy, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = bench.end_to_end(_measure(toy, tmp_path, False), [0.5])
    traced = bench.per_layer(_measure(toy, tmp_path, True))
    assert set(untraced) == set(bench.END_TO_END)
    assert set(traced) == set(bench.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(v > 0 for v in untraced.values())


def test_counts_repeat_and_match_the_untraced_run(toy, tmp_path):
    first = bench.per_layer(_measure(toy, tmp_path, True))
    second = bench.per_layer(_measure(toy, tmp_path, True))
    untraced = _measure(toy, tmp_path, False)["counts"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert untraced == {k: first[k] for k in untraced}
    assert first["analysis.solve_iterations"] == 143
    assert first["analysis.time_average_calls"] == 2


def test_self_times_add_up_to_the_traced_call(toy, tmp_path):
    from tbstat.cli import parse_scenario, run_scenario

    scenario, _ = toy
    tracer = Tracer()
    with instrument({}, tracer):
        tracer.call(ROOT_SPAN, run_scenario, parse_scenario(scenario), tmp_path)
    row = bench._layer_row(tracer)
    assert sum(row[name] for name in PARTITION) == pytest.approx(
        row["trace.run_s"], rel=1e-9
    )
    assert all(row[name] > 0 for name in PARTITION)


def test_instrument_restores_the_namespaces(toy, tmp_path):
    import tbstat.analysis
    import tbstat.cli

    before = (tbstat.cli.solve_stationary, tbstat.analysis.expm_action)
    _measure(toy, tmp_path, True)
    assert (tbstat.cli.solve_stationary, tbstat.analysis.expm_action) == before


def test_gate_rejects_a_wrong_answer(toy, tmp_path):
    from tbstat.cli import parse_scenario, run_scenario

    scenario, ref = toy
    captured: dict = {}
    with instrument(captured):
        report = run_scenario(parse_scenario(scenario), tmp_path)

    def complaints():
        return " ".join(bench.check_call(report, captured, ref, tmp_path)[1])

    assert complaints() == ""
    report["classes_analytic"][1]["mean_wait"] *= 1 + 1e-4
    assert "class_rel_err" in complaints()
    report["classes_analytic"][1]["mean_wait"] /= 1 + 1e-4
    captured["solve_stationary"].pi[[0, 1]] += [1e-6, -1e-6]
    assert "pi_l1_err" in complaints()


def test_reference_paths_agree_on_unit_sizes():
    scenario = {
        "traffic": {"sizes": [1], "probs": [1.0], "rate": 0.9},
        "filter": {"bucket": 4, "buffer": 6, "period": 1.0},
    }
    ref = reference.compute(scenario)
    assert str(ref["method"]) == "transfer_chain"
    assert float(ref["cross_check_l1"]) < 1e-12
    assert np.isclose(ref["pi"].sum(), 1.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
