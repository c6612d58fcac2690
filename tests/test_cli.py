"""Tests for scenario parsing, report generation and the sweep runner."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tbstat
from tbstat import ConvergenceError
from tbstat.cli import (
    Scenario,
    ScenarioError,
    load_scenario,
    main,
    parse_scenario,
    run_scenario,
    run_sweep,
)


def small_raw(**overrides) -> dict:
    raw = {
        "traffic": {"sizes": [1, 2], "probs": [0.6, 0.4], "rate": 0.8},
        "filter": {"bucket": 2, "buffer": 3, "period": 1.0},
    }
    raw.update(overrides)
    return raw


def read_csv(path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseScenario:
    def test_defaults(self):
        s = parse_scenario(small_raw())
        assert s.mode == "analytic"
        assert s.horizon == 100_000
        assert s.seed == 0
        assert s.warmup is None
        assert s.batches == 10
        assert s.bounds == (3, 10)
        assert s.tolerance == 1e-10

    def test_round_trips_through_its_echo(self):
        s = parse_scenario(
            small_raw(mode="compare", simulation={"horizon": 5_000, "seed": 3})
        )
        assert parse_scenario(s.as_dict()) == s

    def test_unknown_key_is_named(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(small_raw(color="red"))
        assert err.value.fieldname == "scenario.color"

    def test_unknown_nested_key_is_named(self):
        raw = small_raw()
        raw["traffic"]["burst"] = 4
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic.burst"

    def test_missing_section_is_named(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario({"traffic": {"sizes": [1], "probs": [1.0], "rate": 1.0}})
        assert err.value.fieldname == "scenario.filter"

    def test_bad_probability_sum_is_rejected(self):
        raw = small_raw()
        raw["traffic"]["probs"] = [0.6, 0.6]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic"

    def test_bad_mode_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(small_raw(mode="prophesy"))
        assert err.value.fieldname == "mode"

    def test_oversized_packets_rejected_when_the_filter_runs(self):
        raw = small_raw()
        raw["traffic"]["sizes"] = [1, 9]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic.sizes"

    @pytest.mark.parametrize("mode", ["analytic", "compare", "simulate"])
    def test_packets_the_bucket_can_never_pay_for_are_rejected(self, mode):
        # tokens cap at one, so a size-3 head never completes its price
        raw = small_raw(mode=mode, filter={"bucket": 1, "buffer": 3, "period": 1.0})
        raw["traffic"]["sizes"] = [1, 3]
        with pytest.raises(ScenarioError, match=r"filter\.bucket \+ 1 = 2") as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic.sizes"

    def test_oversized_packets_fine_for_counting(self):
        raw = small_raw(mode="count-states")
        raw["traffic"]["sizes"] = [1, 9]
        assert parse_scenario(raw).mode == "count-states"

    @pytest.mark.parametrize(
        "patch,fieldname",
        [
            ({"simulation": {"horizon": 0}}, "simulation.horizon"),
            ({"simulation": {"warmup": 200_000}}, "simulation.warmup"),
            ({"simulation": {"batches": 1}}, "simulation.batches"),
            ({"simulation": {"batches": 101}}, "simulation.batches"),
            ({"simulation": {"horizon": 1.5}}, "simulation.horizon"),
            ({"bounds": [5]}, "bounds"),
            ({"bounds": [7, 3]}, "bounds"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"tolerance": 2.0}, "tolerance"),
            ({"simulation": {"seed": -1}}, "simulation.seed"),
            # a singleton alphabet never overflows the estimate
            (
                {
                    "mode": "count-states",
                    "traffic": {"sizes": [1], "probs": [1.0], "rate": 0.8},
                    "bounds": [0, 200_000],
                },
                "bounds",
            ),
            ({"filter": {"bucket": -1, "buffer": 3, "period": 1.0}}, "filter"),
            ({"filter": {"bucket": 2, "buffer": 3, "period": 0}}, "filter"),
            ({"filter": {"bucket": "2", "buffer": 3, "period": 1.0}}, "filter.bucket"),
            (
                {"traffic": {"sizes": [1, 1.5], "probs": [0.6, 0.4], "rate": 0.8}},
                "traffic.sizes",
            ),
        ],
    )
    def test_field_bounds(self, patch, fieldname):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(small_raw(**patch))
        assert err.value.fieldname == fieldname

    @pytest.mark.parametrize(
        "sizes,buffer,bucket,count",
        [
            # counted: 15,701,951 strings at each of 6 token levels
            ([1, 2, 3, 4], 25, 5, "has 94,211,706 states"),
            # over budget on repeats of size 5 alone, so not counted
            ([5], 6_000_000, 4, "has at least 6,000,005 states"),
        ],
    )
    def test_analytic_chain_over_the_state_budget(self, sizes, buffer, bucket, count):
        raw = small_raw(mode="compare")
        raw["traffic"] = {
            "sizes": sizes,
            "probs": [1 / len(sizes)] * len(sizes),
            "rate": 0.5,
        }
        raw["filter"].update(buffer=buffer, bucket=bucket)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert count in str(err.value)
        # the simulator never builds the chain
        raw["mode"] = "simulate"
        assert parse_scenario(raw).config.buffer == buffer

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(bad)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("analytic")
    report = run_scenario(parse_scenario(small_raw()), out)
    return out, report


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    raw = small_raw(mode="compare", simulation={"horizon": 40_000, "seed": 1})
    report = run_scenario(parse_scenario(raw), out)
    return out, report


class TestRunAnalytic:
    def test_artifacts_written(self, run):
        out, _ = run
        assert (out / "report.json").exists()
        assert (out / "occupancy_analytic.csv").exists()
        assert (out / "class_metrics_analytic.csv").exists()

    def test_report_echo_reparses(self, run):
        _, report = run
        echoed = parse_scenario(report["scenario"])
        assert isinstance(echoed, Scenario)
        assert echoed.traffic.rate == 0.8

    def test_solver_diagnostics(self, run):
        _, report = run
        # 7 strings of total <= 3 over sizes {1, 2}, at 3 token levels
        assert report["solver"]["states"] == 21
        assert report["solver"]["residual"] <= 1e-10
        assert report["solver"]["iterations"] > 0

    def test_solver_work_is_itemised(self, run):
        _, report = run
        solver = report["solver"]
        # 3 idle states, then heads the banked tokens cannot pay for: size 1
        # at no token over 4 strings, size 2 at 0 or 1 token over 2 strings
        assert solver["reachable_states"] == 11
        assert solver["power_steps"] >= 1
        assert solver["iterations"] == solver["solve_matvecs"] + solver["power_steps"]
        # a column holds at most 3 queued packets' prefixes and 3 idle states
        assert 0 < solver["period_nnz"] <= 11 * 6

    def test_deep_chain_reports_no_assembled_operator(self, tmp_path):
        raw = {
            "traffic": {"sizes": [1], "probs": [1.0], "rate": 200.0},
            "filter": {"bucket": 5, "buffer": 600, "period": 1.0},
        }
        report = run_scenario(parse_scenario(raw), tmp_path)
        assert report["solver"]["period_nnz"] is None
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["solver"]["period_nnz"] is None

    def test_solve_time_is_part_of_the_wall_time(self, run):
        _, report = run
        solver = report["solver"]
        assert 0.0 < solver["solve_s"] <= solver["wall_time_s"]

    def test_occupancy_grid_is_a_distribution(self, run):
        _, report = run
        cells = [x for row in report["occupancy_analytic"] for x in row]
        assert all(0.0 <= x <= 1.0 for x in cells)
        assert sum(cells) == pytest.approx(1.0, abs=1e-8)

    def test_csv_headers_are_stable(self, run):
        out, _ = run
        header, rows = read_csv(out / "occupancy_analytic.csv")
        assert header == ["tokens", "backlog", "probability"]
        assert len(rows) == 3 * 4
        header, rows = read_csv(out / "class_metrics_analytic.csv")
        assert header == [
            "size",
            "probability",
            "loss_ratio",
            "mean_backlog",
            "mean_wait",
            "throughput",
        ]
        assert [r[0] for r in rows] == ["1", "2"]

    def test_values_carry_twelve_significant_digits(self, run):
        _, report = run
        for entry in report["classes_analytic"]:
            x = entry["loss_ratio"]
            assert x == float(f"{x:.12g}")


class TestRunCountStates:
    def test_table_spans_the_bounds(self, tmp_path):
        raw = {
            "traffic": {"sizes": [1, 2, 3, 4], "probs": [0.4, 0.3, 0.2, 0.1],
                        "rate": 0.5},
            "filter": {"bucket": 5, "buffer": 5, "period": 1.0},
            "mode": "count-states",
            "bounds": [3, 10],
        }
        report = run_scenario(parse_scenario(raw), tmp_path)
        counts = report["state_counts"]
        assert [c["limit"] for c in counts] == list(range(3, 11))
        assert counts[-1]["counted"] == 833
        for c in counts:
            assert c["counted"] <= c["estimate"]
        header, rows = read_csv(tmp_path / "state_counts.csv")
        assert header == ["limit", "counted", "estimate"]
        assert len(rows) == 8


    def test_every_limit_is_read_off_one_count(self, tmp_path, monkeypatch):
        tops = []
        count = tbstat.cli.count_by_total
        monkeypatch.setattr(
            tbstat.cli, "count_by_total", lambda s, n: tops.append(n) or count(s, n)
        )
        sizes = [1, 2, 3, 4]
        raw = {
            "traffic": {"sizes": sizes, "probs": [0.4, 0.3, 0.2, 0.1], "rate": 0.5},
            "filter": {"bucket": 5, "buffer": 5, "period": 1.0},
            "mode": "count-states",
            "bounds": [0, 511],
        }
        counts = run_scenario(parse_scenario(raw), tmp_path)["state_counts"]
        assert tops == [511]
        assert len(counts) == 512
        for c in counts[:12] + counts[-1:]:
            assert c["counted"] == tbstat.count_strings(sizes, c["limit"])

    def test_an_estimate_past_the_float_range_is_rejected(self):
        raw = {
            "traffic": {"sizes": [1, 2, 3, 4], "probs": [0.4, 0.3, 0.2, 0.1],
                        "rate": 0.5},
            "filter": {"bucket": 5, "buffer": 5, "period": 1.0},
            "mode": "count-states",
            # 4.0 ** 512 is past the largest float
            "bounds": [3, 512],
        }
        with pytest.raises(ScenarioError, match="upper limit 512") as err:
            parse_scenario(raw)
        assert err.value.fieldname == "bounds"


class TestRunFixedLength:
    def test_chain_tables_and_distance(self, tmp_path):
        raw = {
            "traffic": {"sizes": [1], "probs": [1.0], "rate": 0.5},
            "filter": {"bucket": 5, "buffer": 5, "period": 1.0},
            "mode": "fixed-length",
        }
        report = run_scenario(parse_scenario(raw), tmp_path)
        block = report["fixed_length"]
        assert block["mean_arrivals"] == pytest.approx(0.5)
        assert block["tv_distance_to_md1"] > 1e-3
        assert sum(block["periodic_transfer"]) == pytest.approx(1.0, abs=1e-9)
        header, rows = read_csv(tmp_path / "fixed_length.csv")
        assert header == ["coord", "prob_periodic_transfer", "prob_md1"]
        assert len(rows) == 11
        header, rows = read_csv(tmp_path / "backlog_distribution.csv")
        assert header == ["backlog", "prob_periodic_transfer", "prob_md1"]
        assert len(rows) == 6


class TestRunSimulateAndCompare:
    def test_simulated_artifacts(self, compare_run):
        out, report = compare_run
        assert (out / "occupancy_simulated.csv").exists()
        assert (out / "class_metrics_simulated.csv").exists()
        assert (out / "compare_classes.csv").exists()
        assert report["simulation"]["horizon"] == 40_000
        header, _ = read_csv(out / "class_metrics_simulated.csv")
        assert header == [
            "size",
            "arrivals",
            "losses",
            "loss_ratio",
            "loss_half_width",
            "mean_wait",
            "wait_half_width",
            "mean_backlog",
            "backlog_half_width",
        ]

    def test_comparison_block(self, compare_run):
        _, report = compare_run
        comparison = report["comparison"]
        assert 0.0 <= comparison["occupancy_tv"] <= 1.0
        assert comparison["occupancy_tv"] < 0.05
        if comparison["flagged"]:
            assert comparison["status"] == "analytic_outside_confidence_band"
        else:
            assert comparison["status"] == "consistent"

    def test_compare_csv_headers(self, compare_run):
        out, _ = compare_run
        header, rows = read_csv(out / "compare_classes.csv")
        assert header == [
            "size",
            "loss_analytic",
            "loss_simulated",
            "loss_half_width",
            "loss_in_band",
            "wait_analytic",
            "wait_simulated",
            "wait_half_width",
            "wait_in_band",
        ]
        assert len(rows) == 2

    def test_simulator_rate_is_reported(self, compare_run):
        _, report = compare_run
        block = report["simulation"]
        assert block["wall_time_s"] > 0.0
        assert block["events_per_s"] > 0.0
        assert block["events_per_s"] * block["wall_time_s"] == pytest.approx(
            block["events"], rel=1e-9
        )

    def test_simulate_mode_skips_analytic_tables(self, tmp_path):
        raw = small_raw(mode="simulate", simulation={"horizon": 5_000})
        report = run_scenario(parse_scenario(raw), tmp_path)
        assert "occupancy_analytic" not in report
        assert (tmp_path / "occupancy_simulated.csv").exists()


class TestSweep:
    def test_grid_points_and_index(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.25, 0.5]}))
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert len(index["points"]) == 2
        assert all(e["status"] == "ok" for e in index["points"])
        assert (tmp_path / "sweep" / "point_000" / "report.json").exists()
        assert (tmp_path / "sweep" / "index.json").exists()
        loaded = json.loads((tmp_path / "sweep" / "index.json").read_text())
        assert loaded["points"][1]["overrides"] == {"traffic.rate": 0.5}

    def test_empty_grid_writes_an_empty_index(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert index["points"] == []

    def test_failing_point_is_isolated(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.5, -1.0]}))
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert [e["status"] for e in index["points"]] == ["ok", "error"]
        assert "rate" in index["points"][1]["error"]

    def test_cartesian_product_over_two_axes(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"traffic.rate": [0.25, 0.5], "filter.bucket": [1, 2]})
        )
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert len(index["points"]) == 4
        combos = {
            (e["overrides"]["traffic.rate"], e["overrides"]["filter.bucket"])
            for e in index["points"]
        }
        assert combos == {(0.25, 1), (0.25, 2), (0.5, 1), (0.5, 2)}

    def test_point_over_the_state_budget_is_isolated(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"filter.buffer": [3, 26]}))
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert [e["status"] for e in index["points"]] == ["ok", "error"]
        # 514,228 strings of total <= 26 over sizes {1, 2}, at 3 token levels
        assert index["points"][1]["error"].startswith("filter.buffer:")
        assert "1,542,684 states" in index["points"][1]["error"]

    def test_invalid_baseline_fails_fast(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw(color="red")))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.5]}))
        with pytest.raises(ScenarioError):
            run_sweep(scenario, grid, tmp_path / "sweep")


class TestMainEntry:
    def test_successful_run_exits_zero(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "report written" in capsys.readouterr().out

    def test_cli_overrides_reach_the_report(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        out = tmp_path / "out"
        code = main(
            [
                "run",
                str(scenario),
                "--out",
                str(out),
                "--mode",
                "simulate",
                "--horizon",
                "4000",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "simulate"
        assert report["simulation"]["horizon"] == 4000
        assert report["simulation"]["seed"] == 7

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{broken")
        code = main(["run", str(scenario)])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw(color="red")))
        code = main(["run", str(scenario)])
        assert code == 2
        assert "scenario.color" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch,flags,fieldname",
        [
            (
                {"simulation": {"warmup": 1000}},
                ["--horizon", "500"],
                "simulation.warmup",
            ),
            (
                {
                    "mode": "count-states",
                    "traffic": {"sizes": [1, 9], "probs": [0.6, 0.4], "rate": 0.8},
                },
                ["--mode", "analytic"],
                "traffic.sizes",
            ),
            ({}, ["--seed", "-1"], "simulation.seed"),
            (
                {"mode": "count-states", "filter": {"bucket": 0, "buffer": 3,
                                                    "period": 1.0}},
                ["--mode", "compare"],
                "traffic.sizes",
            ),
            (
                {"mode": "analytic", "bounds": [3, 1500]},
                ["--mode", "count-states"],
                "bounds",
            ),
        ],
    )
    def test_flags_are_validated_like_the_file(
        self, tmp_path, capsys, patch, flags, fieldname
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw(**patch)))
        code = main(["run", str(scenario), "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert f"scenario error: {fieldname}:" in capsys.readouterr().err

    def test_solver_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))

        def explode(scenario, out_dir):
            raise ConvergenceError("residual stalled", 0.25, 1000)

        monkeypatch.setattr("tbstat.cli.run_scenario", explode)
        code = main(["run", str(scenario)])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err

    def test_sweep_subcommand(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.5]}))
        code = main(
            [
                "sweep",
                str(scenario),
                "--grid",
                str(grid),
                "--out",
                str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        assert "1/1 points ok" in capsys.readouterr().out


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # modes without a sparse matrix (simulate, count-states) should not pay
    # for importing scipy.sparse
    src = str(Path(tbstat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tbstat.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
