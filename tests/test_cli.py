"""Tests for scenario parsing, report generation and the sweep runner."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tbstat
from tbstat import ConvergenceError
from tbstat.cli import (
    Scenario,
    ScenarioError,
    _cell,
    _dumps,
    _fixed_length,
    _occupancy,
    _sig,
    _write,
    _write_csv,
    load_scenario,
    main,
    parse_scenario,
    run_scenario,
    run_sweep,
)
from tbstat.markov import (
    _gth,
    build_md1_chain,
    build_periodic_transfer_chain,
    stationary_dense,
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
            # Python's json reads the literal NaN
            (
                {"traffic": {"sizes": [1, 2], "probs": [math.nan, 0.5], "rate": 0.8}},
                "traffic",
            ),
            # power steps cannot certify a residual this far below rounding
            ({"tolerance": 1e-300}, "tolerance"),
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
            # refused on the occupancy table's cells before any count
            ([5], 6_000_000, 4, "has 30,000,005 cells"),
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
        raw["mode"] = "simulate"
        if "cells" in count:  # a simulated table of 30M cells needs about 10 GB
            with pytest.raises(ScenarioError, match=count) as err:
                parse_scenario(raw)
            assert err.value.fieldname == "filter.buffer"
        else:  # the simulator never builds the chain
            assert parse_scenario(raw).config.buffer == buffer

    def test_analytic_string_tables_over_the_row_budget(self):
        # 500,001 states, but the string tables copy 1.25e11 rows
        raw = small_raw(mode="analytic")
        raw["traffic"] = {"sizes": [1], "probs": [1.0], "rate": 0.5}
        raw["filter"].update(buffer=500_000, bucket=0)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert "125,000,750,001 rows" in str(err.value)

    def test_a_count_past_the_budget_squared_stops(self):
        # the exact count has over 6,000 digits; counting stops past 10**12
        raw = small_raw(mode="analytic")
        raw["traffic"] = {"sizes": [1, 2], "probs": [0.5, 0.5], "rate": 0.5}
        raw["filter"].update(buffer=30_000, bucket=1)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert "at least 1,182,573,459,756 states" in str(err.value)

    @pytest.mark.parametrize(
        "mode, rate, period, horizon, fieldname",
        [
            # the mean overflows, and the report would carry Infinity
            ("fixed-length", 1e300, 1e300, 5, "traffic.rate"),
            # uniformization would cut the period into 8e297 pieces
            ("analytic", 1e300, 1.0, 5, "traffic.rate"),
            ("analytic", 1.0, 1e300, 5, "traffic.rate"),
            # each draw of 16,384 arrivals would span about 1e-296 periods
            ("simulate", 1e300, 1.0, 10, "simulation.horizon"),
        ],
    )
    def test_arrival_rates_no_mode_can_finish(
        self, mode, rate, period, horizon, fieldname
    ):
        raw = small_raw(mode=mode, simulation={"horizon": horizon})
        raw["traffic"] = {"sizes": [1], "probs": [1.0], "rate": rate}
        raw["filter"] = {"bucket": 5, "buffer": 5, "period": period}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == fieldname

    def test_the_heaviest_runs_in_use_stay_admitted(self):
        # the deep chain of the CLI tests, the reference scenario's 1.5M
        # simulated events, and fixed-length laws just inside the float
        # range of the Poisson law and past it
        deep = small_raw(mode="analytic")
        deep["traffic"] = {"sizes": [1], "probs": [1.0], "rate": 200.0}
        deep["filter"] = {"bucket": 5, "buffer": 600, "period": 1.0}
        assert parse_scenario(deep).traffic.rate == 200.0
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        assert load_scenario(scenarios / "reference.json").horizon == 1_000_000
        fixed = small_raw(mode="fixed-length")
        for rate in (700.0, 1000.0):
            fixed["traffic"] = {"sizes": [1], "probs": [1.0], "rate": rate}
            assert parse_scenario(fixed).mode == "fixed-length"

    @pytest.mark.parametrize(
        "buffer, rate, work",
        [
            # one period product takes 1.4 s: 79 pieces of 322 terms
            (20_000, 1e4, "20,001 states times 10000"),
            # one period product takes 33 s: 782 pieces of 230 terms
            (60_000, 1e5, "60,001 states times 100000"),
        ],
        ids=["buffer_20000", "buffer_60000"],
    )
    def test_analytic_work_over_the_budget(self, buffer, rate, work):
        raw = small_raw(mode="analytic")
        raw["traffic"] = {"sizes": [1], "probs": [1.0], "rate": rate}
        raw["filter"].update(buffer=buffer, bucket=0)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic.rate"
        assert work in str(err.value)

    def test_fixed_length_chains_over_the_cap(self):
        # two dense chains of 200,006 states: LU would ask for 298 GiB
        raw = small_raw(mode="fixed-length")
        raw["traffic"] = {"sizes": [1], "probs": [1.0], "rate": 0.5}
        raw["filter"].update(buffer=200_000, bucket=5)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert "200,006 states" in str(err.value)
        raw["filter"].update(buffer=99_995)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert "100,001 states" in str(err.value)
        # the cap itself: 100,000 coordinates
        raw["filter"].update(buffer=99_994)
        assert parse_scenario(raw).config.buffer == 99_994

    @pytest.mark.parametrize(
        "sizes, bucket, buffer",
        [([1, 2], 5, 5), ([7], 2, 3), ([2], 5, 5)],
        ids=["two_sizes", "unpayable", "one_size_of_two"],
    )
    def test_fixed_length_chains_take_unit_sizes_only(self, sizes, bucket, buffer):
        # the chains are the unit-size filter's, and no other sizes have one
        raw = small_raw(mode="fixed-length")
        probs = [1 / len(sizes)] * len(sizes)
        raw["traffic"] = {"sizes": sizes, "probs": probs, "rate": 0.5}
        raw["filter"].update(bucket=bucket, buffer=buffer)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "traffic.sizes"

    @pytest.mark.parametrize(
        "mode, sizes, bucket, buffer, cells",
        [
            # numpy refused the array as too big
            ("simulate", [1, 2], 3, 10**18, "4,000,000,000,000,000,004 cells"),
            # the simulator's int64 state table overflowed
            ("simulate", [1, 2], 3, 2**63 - 1, "36,893,488,147,419,103,232 cells"),
            # a 29.8 GiB occupancy array, and a second beside it
            ("simulate", [1, 2], 3, 10**9, "4,000,000,004 cells"),
            # 100,000 states pass the analytic budget, not the table's cells
            ("compare", [1000], 999, 99_999, "100,000,000 cells"),
            # unchecked, writing the table ended in a MemoryError at 2 GB
            ("analytic", [1000], 999, 99_999, "100,000,000 cells"),
        ],
        ids=["1e18", "int64_max", "1e9", "compare", "analytic"],
    )
    def test_simulated_occupancy_over_the_budget(
        self, mode, sizes, bucket, buffer, cells
    ):
        raw = small_raw(mode=mode)
        probs = [1 / len(sizes)] * len(sizes)
        raw["traffic"] = {"sizes": sizes, "probs": probs, "rate": 0.5}
        raw["filter"].update(buffer=buffer, bucket=bucket)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert cells in str(err.value)

    @pytest.mark.parametrize("mode", ["analytic", "simulate", "compare"])
    def test_one_budget_bounds_the_occupancy_table_in_every_mode(self, mode):
        # the cap itself, 1,000,000 cells, and one more row of 10 cells
        raw = small_raw(mode=mode)
        raw["traffic"] = {"sizes": [10], "probs": [1.0], "rate": 0.5}
        raw["filter"].update(bucket=9, buffer=99_999)
        assert parse_scenario(raw).config.buffer == 99_999
        raw["filter"].update(buffer=100_000)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.fieldname == "filter.buffer"
        assert "1,000,010 cells" in str(err.value)

    def test_every_scenario_and_workload_stays_admitted(self):
        # the scenario files, the benchmark's analytic workloads, and the
        # state budget's 988,704-state run
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        for path in sorted(scenarios.glob("*.json")):
            if path.name != "rate_grid.json":
                assert load_scenario(path).mode
        sizes, probs = [1, 2, 3, 4], [0.4, 0.3, 0.2, 0.1]
        for traffic, bucket, buffer in [
            ({"sizes": [1], "probs": [1.0], "rate": 0.99}, 20, 40),
            ({"sizes": sizes, "probs": probs, "rate": 0.45}, 8, 12),
            ({"sizes": sizes, "probs": probs, "rate": 0.45}, 11, 17),
        ]:
            raw = small_raw(mode="analytic", traffic=traffic)
            raw["filter"].update(bucket=bucket, buffer=buffer)
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
        assert solver["route"] == "gth"
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
        # unit sizes start from the transfer chain's law
        assert written["solver"]["route"] == "transfer"

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


def csv_module_bytes(rows) -> bytes:
    """What ``csv.writer`` writes for these rows."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


def occupancy_rows(table) -> list[list]:
    rows = [["tokens", "backlog", "probability"]]
    for tokens, row in enumerate(table):
        rows += [[tokens, b, f"{p:.12g}"] for b, p in enumerate(row)]
    return rows


def test_occupancy_csv_matches_the_csv_module(tmp_path):
    rng = np.random.default_rng(3)
    table = rng.random((5, 7)) ** 9
    table[0, 0], table[1, 1], table[2, 2], table[3, 3] = 0.0, 1e-300, 1 / 3, -0.0
    grid = _occupancy(table, tmp_path / "fast.csv")
    want = [[float(f"{x:.12g}") for x in row] for row in table]
    assert grid == want
    assert math.copysign(1, grid[3][3]) == -1
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == csv_module_bytes(occupancy_rows(want))


def test_csv_cells_match_the_csv_module(tmp_path):
    records = [
        {"size": 1, "in_band": True, "mean": -0.0, "loss": 1e-300, "half": None},
        {"size": 20, "in_band": False, "mean": 1 / 3, "loss": float("nan"),
         "half": float("inf")},
        {"size": 3, "in_band": None, "mean": 0.0, "loss": -2.5e-17,
         "half": 12345678.9},
    ]
    _write_csv(tmp_path / "table.csv", records)
    rows = [list(records[0])] + [[_cell(x) for x in r.values()] for r in records]
    assert (tmp_path / "table.csv").read_bytes() == csv_module_bytes(rows)
    assert rows[1] == ["1", "true", "-0", "1e-300", ""]


# One scenario per mode, small enough for a unit test; at a horizon of 60
# some of the reference's batches meet no sample, so the compare tables of
# "compare-no-band" hold empty cells where "compare" holds bools.
MODE_SCENARIOS = {
    "analytic": small_raw(),
    "compare": small_raw(mode="compare", simulation={"horizon": 20_000, "seed": 1}),
    "compare-no-band": {
        **json.loads(
            (Path(__file__).resolve().parents[1] / "scenarios" / "reference.json")
            .read_text()
        ),
        "simulation": {"horizon": 60, "seed": 1},
    },
    "simulate": small_raw(mode="simulate", simulation={"horizon": 5_000}),
    "fixed-length": {
        "traffic": {"sizes": [1], "probs": [1.0], "rate": 0.5},
        "filter": {"bucket": 5, "buffer": 5, "period": 1.0},
        "mode": "fixed-length",
    },
    "count-states": small_raw(mode="count-states", bounds=[0, 12]),
}


@pytest.fixture(scope="module", params=sorted(MODE_SCENARIOS))
def written(request, tmp_path_factory):
    """A run of each mode, with the rows ``csv.writer`` would have written
    for the records and tables behind each CSV."""
    out = tmp_path_factory.mktemp(request.param)
    tables = {}
    write_csv, occupancy = tbstat.cli._write_csv, tbstat.cli._occupancy

    def spy_csv(path, records):
        tables[path.name] = [list(records[0])] + [
            [_cell(x) for x in r.values()] for r in records
        ]
        write_csv(path, records)

    def spy_occupancy(table, path):
        tables[path.name] = occupancy_rows(table)
        return occupancy(table, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tbstat.cli, "_write_csv", spy_csv)
        patch.setattr(tbstat.cli, "_occupancy", spy_occupancy)
        report = run_scenario(parse_scenario(MODE_SCENARIOS[request.param]), out)
    return out, report, tables


def test_report_is_json_dumps_with_an_indent(written):
    out, report, _ = written
    assert (out / "report.json").read_text() == json.dumps(report, indent=2) + "\n"
    assert _dumps(report) == json.dumps(report, indent=2)


def test_every_csv_matches_the_csv_module(written):
    out, _, tables = written
    assert set(tables) == {p.name for p in out.glob("*.csv")}
    for name, rows in tables.items():
        assert (out / name).read_bytes() == csv_module_bytes(rows), name


def test_dumps_matches_json_dumps_with_an_indent():
    obj = {
        "ints": [0, -3, 10**20],
        "bools": [True, False, None],
        "floats": [0.1, -0.0, 1e-300, float("nan"), float("inf"), -float("inf")],
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "tuple": (1, (2.0, None), "a, b"),
        "grid": [[0.25, 0.0], [], [[1, 2], [3]], [{}]],
        "text": ["a, b", "ü: é, ñ", 'a quote " and a \\ and a \n'],
        "ключ, и запятая": {"nested": [{"deep": [1, "x, y"]}, None]},
        "leaf": 2.5,
    }
    assert _dumps(obj) == json.dumps(obj, indent=2)
    for leaf in (1, 2.5, None, True, "a, b", [], {}, (), [[]], float("nan")):
        assert _dumps(leaf) == json.dumps(leaf, indent=2)
    # the edges of the leaves written with no json call, and of the rest
    edges = [
        -0.0, 5e-324, 1e-5, 1e16, 10**20, -(10**20), float("nan"), float("inf"),
        -float("inf"), True, False, None, np.float64(0.1), np.float64(-0.0),
        "ü, é", "中文 \u2028 \x00", "",
    ]
    for x in edges:
        for shape in (x, [x], [x, 1.5], [[x], "s"], {"k": x}, {"ключ é": [x]}):
            assert _dumps(shape) == json.dumps(shape, indent=2), shape
    keyed = {"ü": "é", "中文": ["中文", 1e16], "\u2028": {"\x00": 10**20}}
    assert _dumps(keyed) == json.dumps(keyed, indent=2)


class TestWrite:
    def test_a_longer_file_is_cut_to_the_new_bytes_in_place(self, tmp_path):
        path, link = tmp_path / "a.txt", tmp_path / "link.txt"
        path.write_bytes(b"x" * 10_000)
        os.link(path, link)
        inode = path.stat().st_ino
        _write(path, "new\r\ntext ü\n")
        assert path.read_bytes() == "new\r\ntext ü\n".encode()
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes()

    def test_a_missing_file_is_created(self, tmp_path):
        _write(tmp_path / "new.csv", "a,b\r\n")
        assert (tmp_path / "new.csv").read_bytes() == b"a,b\r\n"

    @pytest.mark.parametrize(
        "stop", [OSError(28, "No space left on device"), KeyboardInterrupt()]
    )
    def test_a_write_cut_short_leaves_a_prefix_of_the_new_bytes(
        self, stop, tmp_path, monkeypatch
    ):
        path = tmp_path / "report.json"
        path.write_bytes(b"old run " * 1_000)
        write, calls = os.write, []

        def short_then_stop(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise stop
            return write(fd, data[:5])  # a short write, as a full disk gives

        monkeypatch.setattr(tbstat.cli.os, "write", short_then_stop)
        with pytest.raises(type(stop)):
            _write(path, "new text")
        monkeypatch.undo()
        assert calls == [8, 3]
        # what a truncating write leaves when it stops at the same byte
        assert path.read_bytes() == b"new t"

    def test_an_artifact_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        taken = tmp_path / "out" / "report.json"
        taken.mkdir(parents=True)
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(taken) in capsys.readouterr().err

    @pytest.mark.parametrize("mode", sorted(MODE_SCENARIOS))
    def test_a_run_over_padded_artifacts_writes_a_fresh_runs_bytes(
        self, mode, tmp_path, monkeypatch
    ):
        def run_into(out):
            clock = iter(range(10**6))  # the same wall times in each run
            monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
            run_scenario(parse_scenario(MODE_SCENARIOS[mode]), out)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        fresh = run_into(tmp_path / "fresh")
        (tmp_path / "stale").mkdir()
        for name, data in fresh.items():
            (tmp_path / "stale" / name).write_bytes(data + b"junk" * 5_000)
        assert run_into(tmp_path / "stale") == fresh


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

    @pytest.mark.parametrize("bucket", [0, 5])
    @pytest.mark.parametrize("buffer_cap", [5, 40, 1000])
    @pytest.mark.parametrize("mean", [0.1, 0.5, 0.99, 2.0, 20.0, 700.0])
    def test_both_laws_are_probabilities(self, tmp_path, mean, buffer_cap, bucket):
        raw = {
            "traffic": {"sizes": [1], "probs": [1.0], "rate": mean},
            "filter": {"bucket": bucket, "buffer": buffer_cap, "period": 1.0},
            "mode": "fixed-length",
        }
        block = run_scenario(parse_scenario(raw), tmp_path)["fixed_length"]
        _, rows = read_csv(tmp_path / "fixed_length.csv")
        assert min(block["periodic_transfer"] + block["md1"]) >= 0
        assert min(float(p) for row in rows for p in row[1:]) >= 0
        for key, build in (
            ("periodic_transfer", build_periodic_transfer_chain),
            ("md1", build_md1_chain),
        ):
            chain = build(mean, buffer_cap, bucket)
            pi = _gth(chain, 0)
            assert block[key] == [_sig(x) for x in pi]  # the law reported
            assert np.abs(pi @ chain - pi).sum() <= 1e-14
            assert np.abs(pi - stationary_dense(chain)).sum() <= 1e-10

    @pytest.mark.parametrize("rate", [1e3, 1e300])
    def test_a_rate_past_the_poisson_law_fills_the_buffer(self, tmp_path, rate):
        # no arrival has a chance a float can hold: a packet lands in every
        # period and each law sits where the last packet that fits leaves it
        raw = {
            "traffic": {"sizes": [1], "probs": [1.0], "rate": rate},
            "filter": {"bucket": 5, "buffer": 40, "period": 1.0},
            "mode": "fixed-length",
        }
        block = run_scenario(parse_scenario(raw), tmp_path)["fixed_length"]
        for key in ("periodic_transfer", "md1"):
            assert block[key] == [float(i == 40 + 5 - 1) for i in range(46)]

    def test_each_chain_is_held_once(self, tmp_path):
        # 1,006 states: each law is read off one array of Poisson tails, so
        # the run holds a few vectors of the states, no n-by-n array
        raw = {
            "traffic": {"sizes": [1], "probs": [1.0], "rate": 0.5},
            "filter": {"bucket": 5, "buffer": 1000, "period": 1.0},
            "mode": "fixed-length",
        }
        scenario = parse_scenario(raw)
        n = 1006
        tracemalloc.start()
        try:
            block = _fixed_length(scenario, tmp_path)["fixed_length"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block["md1"]) == n
        assert peak < 100 * n * 8, peak / (n * 8)


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

    def test_the_walk_is_reported(self, tmp_path):
        # the reference's 58 reachable states fit a word table; a buffer of
        # 200 does not, and its walk steps one event at a time
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        out = tmp_path / "ref"
        flags = ["--mode", "simulate", "--out", str(out)]
        assert main(["run", str(scenarios / "reference.json"), *flags]) == 0
        block = json.loads((out / "report.json").read_text())["simulation"]
        assert block["events"] == 1_500_602
        assert block["states_met"] == 58
        assert block["word_length"] > 1
        assert block["invariants_checked"] == 0
        raw = {
            "traffic": {
                "sizes": [1, 2, 3, 4],
                "probs": [0.4, 0.3, 0.2, 0.1],
                "rate": 1,
            },
            "filter": {"bucket": 8, "buffer": 200, "period": 1.0},
            "mode": "simulate",
            "simulation": {"horizon": 2_000},
        }
        report = run_scenario(parse_scenario(raw), tmp_path / "long")
        assert report["simulation"]["word_length"] == 1
        assert report["simulation"]["states_met"] > 1_000

    def test_a_batch_without_samples_leaves_no_band(self, tmp_path):
        # at horizon 60 one of the ten batches meets no size-1 arrival
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        raw = json.loads((scenarios / "reference.json").read_text())
        raw["simulation"]["horizon"] = 60
        report = run_scenario(parse_scenario(raw), tmp_path)
        unavailable = report["simulation"]["confidence_unavailable"]
        assert set(unavailable) == {"loss", "wait"}
        assert "size 1" in unavailable["loss"]
        header, rows = read_csv(tmp_path / "class_metrics_simulated.csv")
        loss, wait = header.index("loss_half_width"), header.index("wait_half_width")
        for record, row in zip(report["classes_simulated"], rows):
            assert record["loss_half_width"] is record["wait_half_width"] is None
            assert record["backlog_half_width"] is not None
            assert row[loss] == row[wait] == ""
        # a class with arrivals still reports its point estimate
        assert report["classes_simulated"][0]["loss_ratio"] is not None
        # and without a band there is no verdict
        assert report["comparison"]["status"] == "no_band"
        header, rows = read_csv(tmp_path / "compare_classes.csv")
        loss, wait = header.index("loss_in_band"), header.index("wait_in_band")
        assert all(row[loss] == row[wait] == "" for row in rows)

    def test_main_prints_no_band(self, tmp_path, capsys):
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "reference.json"
        args = ["run", str(scenario), "--out", str(tmp_path / "out")]
        assert main([*args, "--mode", "compare", "--horizon", "60"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "comparison status: no_band"

    def test_a_loss_outside_the_band_is_flagged(
        self, tmp_path, monkeypatch, capsys
    ):
        solved = tbstat.cli.class_metrics

        def shifted(result):
            metrics = solved(result)
            last = metrics[-1]
            metrics[-1] = replace(last, loss_ratio=last.loss_ratio + 0.5)
            return metrics

        monkeypatch.setattr(tbstat.cli, "class_metrics", shifted)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        out = tmp_path / "out"
        flags = ["--mode", "compare", "--horizon", "20000", "--seed", "1"]
        assert main(["run", str(scenario), "--out", str(out), *flags]) == 0
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        assert comparison["status"] == "analytic_outside_confidence_band"
        assert {"size": 2, "metric": "loss"} in comparison["flagged"]
        header, rows = read_csv(out / "compare_classes.csv")
        assert rows[-1][header.index("loss_in_band")] == "false"
        printed = capsys.readouterr().out
        assert "comparison status: analytic_outside_confidence_band" in printed

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

    def test_index_is_json_dumps_with_an_indent(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        # failing points, and an override holding ", " and non-ASCII text
        modes = ["analytic", "prophesy, née"]
        grid.write_text(json.dumps({"traffic.rate": [0.5, -1.0], "mode": modes}))
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert [e["status"] for e in index["points"]] == ["ok"] + ["error"] * 3
        written = (tmp_path / "sweep" / "index.json").read_text()
        assert written == json.dumps(index, indent=2) + "\n"

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

    def test_every_point_fails_alone(self, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.25, 0.5, 0.75]}))
        run = tbstat.cli.run_scenario

        def flaky(scenario, out_dir):
            if scenario.traffic.rate == 0.5:
                raise RuntimeError("lost the point")
            return run(scenario, out_dir)

        monkeypatch.setattr(tbstat.cli, "run_scenario", flaky)
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        points = index["points"]
        assert [e["status"] for e in points] == ["ok", "error", "ok"]
        assert points[1]["error"] == "lost the point"
        assert points[1]["error_class"] == "RuntimeError"
        assert "error_class" not in points[0]
        loaded = json.loads((tmp_path / "sweep" / "index.json").read_text())
        assert loaded == index

    def test_the_index_lists_each_point_as_it_finishes(self, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.25, 0.5]}))
        path = tmp_path / "sweep" / "index.json"
        run, seen = tbstat.cli.run_scenario, {}

        def watched(scenario, out_dir):
            listed = json.loads(path.read_text())["points"] if path.exists() else []
            seen[Path(out_dir).name] = [e["point"] for e in listed]
            return run(scenario, out_dir)

        monkeypatch.setattr(tbstat.cli, "run_scenario", watched)
        run_sweep(scenario, grid, tmp_path / "sweep")
        assert seen == {"point_000": [], "point_001": ["point_000"]}

    def test_the_index_is_built_from_each_entry_encoded_once(
        self, tmp_path, monkeypatch
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.25, -1.0, 0.5]}))
        path = tmp_path / "sweep" / "index.json"
        write, dumps, texts, encoded = tbstat.cli._write, tbstat.cli._dumps, [], []

        def watched(target, text):
            write(target, text)
            if target == path:
                texts.append(path.read_text())

        def spy(obj, *args):
            if isinstance(obj, dict) and "point" in obj:
                encoded.append(obj["point"])
            return dumps(obj, *args)

        monkeypatch.setattr(tbstat.cli, "_write", watched)
        monkeypatch.setattr(tbstat.cli, "_dumps", spy)
        index = run_sweep(scenario, grid, tmp_path / "sweep")
        assert [e["status"] for e in index["points"]] == ["ok", "error", "ok"]
        # the file before the first point and after each is the index so far
        assert len(texts) == 4
        for done, text in enumerate(texts):
            so_far = {**index, "points": index["points"][:done]}
            assert text == json.dumps(so_far, indent=2) + "\n"
        assert encoded == ["point_000", "point_001", "point_002"]

    def test_invalid_baseline_fails_fast(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw(color="red")))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"traffic.rate": [0.5]}))
        with pytest.raises(ScenarioError):
            run_sweep(scenario, grid, tmp_path / "sweep")


def test_a_mean_arrival_count_that_underflows_keeps_the_mass(tmp_path):
    # 1e-30 * 1e-300 rounds to 0: no arrival is expected within a period
    raw = small_raw(traffic={"sizes": [1], "probs": [1.0], "rate": 1e-30})
    raw["filter"]["period"] = 1e-300
    report = run_scenario(parse_scenario(raw), tmp_path)
    total = sum(map(sum, report["occupancy_analytic"]))
    assert abs(total - 1) <= 1e-12, total


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

    def test_a_directory_exits_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path)])
        assert code == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_a_scenario_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(json.dumps(small_raw()).encode("utf-16"))
        code = main(["run", str(scenario)])
        assert code == 2
        assert "scenario error: scenario:" in capsys.readouterr().err

    def test_an_out_path_that_is_a_file_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(small_raw()))
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["run", str(scenario), "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err

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

    def test_a_subnormal_period_exits_two_naming_filter(self, tmp_path, capsys):
        # the simulator's segments of the window would underflow to length 0
        raw = small_raw(mode="simulate", simulation={"horizon": 100})
        raw["filter"]["period"] = 5e-324
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "scenario error: filter:" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "mode, traffic, filter_, loaded",
    [
        ("analytic", None, None, False),
        ("compare", None, None, False),
        ("analytic", ([1], [1.0], 0.99), (20, 40), False),
        ("analytic", ([1, 2, 3, 4], [0.4, 0.3, 0.2, 0.1], 0.45), (8, 12), True),
        ("simulate", None, None, False),
        ("count-states", None, None, False),
        ("fixed-length", ([1], [1.0], 0.5), (5, 5), False),
    ],
    ids=[
        "reference", "reference_compare", "critical_unit", "large_space",
        "simulate", "count_states", "fixed_length",
    ],
)
def test_only_a_sparse_chain_loads_scipy_sparse(tmp_path, mode, traffic, filter_, loaded):
    # chains of at most 81 reachable states (58 and 61 here) are built,
    # solved and reported with numpy alone; large_space has 5,473.  Modes
    # without a chain load it neither, though ``import tbstat`` loads oracle
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    raw = json.loads((scenarios / "reference.json").read_text())
    raw["mode"] = mode
    if mode in ("simulate", "count-states", "fixed-length"):
        raw["simulation"]["horizon"] = 1_000
    if traffic is not None:
        raw["traffic"] = dict(zip(("sizes", "probs", "rate"), traffic))
        raw["filter"].update(bucket=filter_[0], buffer=filter_[1])
    src = str(Path(tbstat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from tbstat.cli import parse_scenario, run_scenario\n"
        "run_scenario(parse_scenario(json.loads(sys.argv[1])), sys.argv[2])\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(raw), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == str(loaded)
