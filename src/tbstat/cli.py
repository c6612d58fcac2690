"""Command line front end.

``tbstat run scenario.json`` evaluates one scenario and writes a JSON report
plus plot-ready CSV tables; ``tbstat sweep scenario.json --grid grid.json``
repeats that over a cartesian parameter grid, isolating per-point failures.
Scenario files are strictly validated: unknown keys and malformed values are
rejected with the offending field named, exit code 2.  Solver failures exit
with code 1.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .statespace import (
    FilterConfig,
    TrafficSpec,
    build_state_space,
    cardinality_bound,
    count_strings,
)
from .markov import (
    ConvergenceError,
    build_md1_chain,
    build_periodic_transfer_chain,
    stationary_dense,
)
from .analysis import (
    class_metrics,
    net_to_backlog_distribution,
    occupancy_table,
    solve_stationary,
    time_average_distribution,
)
from .des import InsufficientData, batch_confidence, simulate

__all__ = ["main", "load_scenario", "parse_scenario", "run_scenario", "ScenarioError"]

MODES = ("analytic", "simulate", "compare", "count-states", "fixed-length")


class ScenarioError(ValueError):
    """Scenario file failed validation; ``field`` names the culprit."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


@dataclass
class Scenario:
    traffic: TrafficSpec
    config: FilterConfig
    mode: str
    horizon: int
    seed: int
    warmup: int | None
    batches: int
    bounds: tuple[int, int]
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "traffic": {
                "sizes": list(self.traffic.sizes),
                "probs": list(self.traffic.probs),
                "rate": self.traffic.rate,
            },
            "filter": {
                "bucket": self.config.bucket,
                "buffer": self.config.buffer,
                "period": self.config.period,
            },
            "mode": self.mode,
            "simulation": {
                "horizon": self.horizon,
                "seed": self.seed,
                **({"warmup": self.warmup} if self.warmup is not None else {}),
                "batches": self.batches,
            },
            "bounds": list(self.bounds),
            "tolerance": self.tolerance,
        }


def _require(section: dict, fieldname: str, keys: dict) -> None:
    unknown = set(section) - set(keys)
    if unknown:
        raise ScenarioError(
            f"{fieldname}.{sorted(unknown)[0]}", "unknown key"
        )
    for key, required in keys.items():
        if required and key not in section:
            raise ScenarioError(f"{fieldname}.{key}", "missing required key")


def _as_int(value, fieldname: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(fieldname, f"expected an integer, got {value!r}")
    return value


def _as_number(value, fieldname: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(fieldname, f"expected a number, got {value!r}")
    return float(value)


def parse_scenario(raw: dict) -> Scenario:
    """Validate a scenario dictionary and build the domain objects."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario", "top level must be an object")
    _require(
        raw,
        "scenario",
        {
            "traffic": True,
            "filter": True,
            "mode": False,
            "simulation": False,
            "bounds": False,
            "tolerance": False,
        },
    )

    traffic_raw = raw["traffic"]
    if not isinstance(traffic_raw, dict):
        raise ScenarioError("traffic", "must be an object")
    _require(traffic_raw, "traffic", {"sizes": True, "probs": True, "rate": True})
    sizes = traffic_raw["sizes"]
    probs = traffic_raw["probs"]
    if not isinstance(sizes, list) or not sizes:
        raise ScenarioError("traffic.sizes", "expected a nonempty list")
    if not isinstance(probs, list):
        raise ScenarioError("traffic.probs", "expected a list")
    try:
        traffic = TrafficSpec(
            tuple(_as_int(s, "traffic.sizes") for s in sizes),
            tuple(_as_number(p, "traffic.probs") for p in probs),
            _as_number(traffic_raw["rate"], "traffic.rate"),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError("traffic", str(exc)) from None

    filter_raw = raw["filter"]
    if not isinstance(filter_raw, dict):
        raise ScenarioError("filter", "must be an object")
    _require(filter_raw, "filter", {"bucket": True, "buffer": True, "period": True})
    try:
        config = FilterConfig(
            _as_int(filter_raw["bucket"], "filter.bucket"),
            _as_int(filter_raw["buffer"], "filter.buffer"),
            _as_number(filter_raw["period"], "filter.period"),
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError("filter", str(exc)) from None

    mode = raw.get("mode", "analytic")
    if mode not in MODES:
        raise ScenarioError("mode", f"must be one of {', '.join(MODES)}")

    sim_raw = raw.get("simulation", {})
    if not isinstance(sim_raw, dict):
        raise ScenarioError("simulation", "must be an object")
    _require(
        sim_raw,
        "simulation",
        {"horizon": False, "seed": False, "warmup": False, "batches": False},
    )
    horizon = _as_int(sim_raw.get("horizon", 100_000), "simulation.horizon")
    if horizon < 1:
        raise ScenarioError("simulation.horizon", "must be >= 1")
    seed = _as_int(sim_raw.get("seed", 0), "simulation.seed")
    warmup = sim_raw.get("warmup")
    if warmup is not None:
        warmup = _as_int(warmup, "simulation.warmup")
        if not 0 <= warmup < horizon:
            raise ScenarioError("simulation.warmup", "must lie within the horizon")
    batches = _as_int(sim_raw.get("batches", 10), "simulation.batches")
    if not 2 <= batches <= 100:
        raise ScenarioError(
            "simulation.batches", "must lie in 2..100 (the run's segment count)"
        )

    bounds_raw = raw.get("bounds", [3, 10])
    if (
        not isinstance(bounds_raw, list)
        or len(bounds_raw) != 2
        or not all(isinstance(b, int) and not isinstance(b, bool) for b in bounds_raw)
        or bounds_raw[0] > bounds_raw[1]
        or bounds_raw[0] < 0
    ):
        raise ScenarioError("bounds", "expected [low, high] with 0 <= low <= high")

    tolerance = _as_number(raw.get("tolerance", 1e-10), "tolerance")
    if not 0 < tolerance < 1:
        raise ScenarioError("tolerance", "must be in (0, 1)")

    if mode not in ("count-states", "fixed-length"):
        if max(traffic.sizes) > config.buffer:
            raise ScenarioError(
                "traffic.sizes",
                f"largest size {max(traffic.sizes)} exceeds filter.buffer "
                f"{config.buffer}",
            )

    return Scenario(
        traffic=traffic,
        config=config,
        mode=mode,
        horizon=horizon,
        seed=seed,
        warmup=warmup,
        batches=batches,
        bounds=(bounds_raw[0], bounds_raw[1]),
        tolerance=tolerance,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario", f"invalid JSON: {exc}") from None
    return parse_scenario(raw)


def _sig(x: float | None) -> float | None:
    """Round to 12 significant digits for stable, compact reports."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def _cell(x: float | None) -> str:
    """CSV cell text; unavailable values become the empty string."""
    if x is None:
        return ""
    return f"{x:.12g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _occupancy_rows(table: np.ndarray) -> list[list]:
    rows = []
    for tokens in range(table.shape[0]):
        for queued in range(table.shape[1]):
            rows.append([tokens, queued, f"{table[tokens, queued]:.12g}"])
    return rows


def _analytic_block(scenario: Scenario) -> tuple[dict, np.ndarray, list]:
    space = build_state_space(scenario.traffic, scenario.config)
    began = time.perf_counter()
    result = solve_stationary(space, tol=scenario.tolerance)
    averaged = time_average_distribution(result)
    table = occupancy_table(result, averaged=averaged)
    metrics = class_metrics(result, averaged=averaged)
    wall = time.perf_counter() - began
    block = {
        "states": space.n_states,
        "iterations": result.iterations,
        "residual": _sig(result.residual),
        "wall_time_s": _sig(wall),
    }
    return block, table, metrics


def _simulated_block(scenario: Scenario) -> tuple[dict, np.ndarray, dict]:
    began = time.perf_counter()
    stats = simulate(
        scenario.traffic,
        scenario.config,
        horizon=scenario.horizon,
        seed=scenario.seed,
        warmup=scenario.warmup,
    )
    wall = time.perf_counter() - began
    table = stats.occupancy_distribution()
    confidence: dict = {}
    unavailable: dict = {}
    for name in ("loss", "wait", "backlog"):
        try:
            confidence.update(
                batch_confidence(stats, scenario.batches, metrics=(name,))
            )
        except InsufficientData as exc:
            confidence[name] = None
            unavailable[name] = str(exc)
    block = {
        "horizon": stats.horizon,
        "warmup": stats.warmup,
        "seed": stats.seed,
        "batches": scenario.batches,
        "events": stats.events,
        "wall_time_s": _sig(wall),
        "events_per_s": _sig(stats.events / wall),
        "elapsed_model_time": _sig(stats.elapsed),
    }
    if unavailable:
        block["confidence_unavailable"] = unavailable
    return block, table, {"stats": stats, "confidence": confidence}


def run_scenario(scenario: Scenario, out_dir: str | Path) -> dict:
    """Evaluate one scenario, write its artifacts, return the report dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"scenario": scenario.as_dict(), "mode": scenario.mode}

    if scenario.mode == "count-states":
        lo, hi = scenario.bounds
        rows = []
        counts = []
        for limit in range(lo, hi + 1):
            counted = count_strings(scenario.traffic.sizes, limit)
            estimate = cardinality_bound(scenario.traffic.sizes, limit)
            counts.append(
                {"limit": limit, "counted": counted, "estimate": _sig(estimate)}
            )
            rows.append([limit, counted, f"{estimate:.12g}"])
        report["state_counts"] = counts
        _write_csv(out / "state_counts.csv", ["limit", "counted", "estimate"], rows)

    elif scenario.mode == "fixed-length":
        mean = scenario.traffic.rate * scenario.config.period
        buffer_cap = scenario.config.buffer
        bucket = scenario.config.bucket
        transfer = stationary_dense(
            build_periodic_transfer_chain(mean, buffer_cap, bucket)
        )
        md1 = stationary_dense(build_md1_chain(mean, buffer_cap, bucket))
        tv = 0.5 * float(np.abs(transfer - md1).sum())
        rows = [
            [s, f"{transfer[s]:.12g}", f"{md1[s]:.12g}"]
            for s in range(len(transfer))
        ]
        _write_csv(
            out / "fixed_length.csv",
            ["coord", "prob_periodic_transfer", "prob_md1"],
            rows,
        )
        t_back = net_to_backlog_distribution(transfer, buffer_cap, bucket)
        m_back = net_to_backlog_distribution(md1, buffer_cap, bucket)
        _write_csv(
            out / "backlog_distribution.csv",
            ["backlog", "prob_periodic_transfer", "prob_md1"],
            [
                [q, f"{t_back[q]:.12g}", f"{m_back[q]:.12g}"]
                for q in range(buffer_cap + 1)
            ],
        )
        report["fixed_length"] = {
            "mean_arrivals": _sig(mean),
            "tv_distance_to_md1": _sig(tv),
            "periodic_transfer": [_sig(x) for x in transfer],
            "md1": [_sig(x) for x in md1],
        }

    else:
        if scenario.mode in ("analytic", "compare"):
            solver, table, metrics = _analytic_block(scenario)
            report["solver"] = solver
            report["occupancy_analytic"] = [
                [_sig(x) for x in row] for row in table
            ]
            report["classes_analytic"] = [
                {
                    "size": m.size,
                    "probability": _sig(m.probability),
                    "loss_ratio": _sig(m.loss_ratio),
                    "mean_backlog": _sig(m.mean_backlog),
                    "mean_wait": _sig(m.mean_wait),
                    "throughput": _sig(m.throughput),
                }
                for m in metrics
            ]
            _write_csv(
                out / "occupancy_analytic.csv",
                ["tokens", "backlog", "probability"],
                _occupancy_rows(table),
            )
            _write_csv(
                out / "class_metrics_analytic.csv",
                [
                    "size",
                    "probability",
                    "loss_ratio",
                    "mean_backlog",
                    "mean_wait",
                    "throughput",
                ],
                [
                    [
                        m.size,
                        f"{m.probability:.12g}",
                        f"{m.loss_ratio:.12g}",
                        f"{m.mean_backlog:.12g}",
                        "" if m.mean_wait is None else f"{m.mean_wait:.12g}",
                        f"{m.throughput:.12g}",
                    ]
                    for m in metrics
                ],
            )

        if scenario.mode in ("simulate", "compare"):
            sim_block, sim_table, sim = _simulated_block(scenario)
            stats = sim["stats"]
            confidence = sim["confidence"]
            report["simulation"] = sim_block
            report["occupancy_simulated"] = [
                [_sig(x) for x in row] for row in sim_table
            ]
            sim_classes = []
            for k, size in enumerate(scenario.traffic.sizes):
                if confidence["loss"] is not None:
                    loss_m, loss_h = confidence["loss"][size]
                elif stats.arrivals[k] > 0:
                    loss_m, loss_h = stats.loss_ratio(size), None
                else:
                    loss_m = loss_h = None
                if confidence["wait"] is not None:
                    wait_m, wait_h = confidence["wait"][size]
                elif stats.departures[k] > 0:
                    wait_m, wait_h = stats.mean_wait(size), None
                else:
                    wait_m = wait_h = None
                if confidence["backlog"] is not None:
                    back_m, back_h = confidence["backlog"][size]
                else:
                    back_m, back_h = stats.mean_class_backlog(size), None
                sim_classes.append(
                    {
                        "size": size,
                        "arrivals": int(stats.arrivals[k]),
                        "losses": int(stats.losses[k]),
                        "loss_ratio": _sig(loss_m),
                        "loss_half_width": _sig(loss_h),
                        "mean_wait": _sig(wait_m),
                        "wait_half_width": _sig(wait_h),
                        "mean_backlog": _sig(back_m),
                        "backlog_half_width": _sig(back_h),
                    }
                )
            report["classes_simulated"] = sim_classes
            _write_csv(
                out / "occupancy_simulated.csv",
                ["tokens", "backlog", "probability"],
                _occupancy_rows(sim_table),
            )
            _write_csv(
                out / "class_metrics_simulated.csv",
                [
                    "size",
                    "arrivals",
                    "losses",
                    "loss_ratio",
                    "loss_half_width",
                    "mean_wait",
                    "wait_half_width",
                    "mean_backlog",
                    "backlog_half_width",
                ],
                [
                    [
                        c["size"],
                        c["arrivals"],
                        c["losses"],
                        _cell(c["loss_ratio"]),
                        _cell(c["loss_half_width"]),
                        _cell(c["mean_wait"]),
                        _cell(c["wait_half_width"]),
                        _cell(c["mean_backlog"]),
                        _cell(c["backlog_half_width"]),
                    ]
                    for c in sim_classes
                ],
            )

        if scenario.mode == "compare":
            tv = 0.5 * float(
                np.abs(np.array(report["occupancy_analytic"]) - sim_table).sum()
            )
            flagged = []
            compare_rows = []
            for m, c in zip(metrics, report["classes_simulated"]):
                # A disagreement can only be established against a formed
                # band; classes whose band is unavailable are not flagged.
                loss_ok = None
                if c["loss_half_width"] is not None:
                    loss_ok = (
                        abs(m.loss_ratio - c["loss_ratio"])
                        <= c["loss_half_width"]
                    )
                wait_ok = None
                if (
                    m.mean_wait is not None
                    and c["mean_wait"] is not None
                    and c["wait_half_width"] is not None
                ):
                    wait_ok = (
                        abs(m.mean_wait - c["mean_wait"])
                        <= c["wait_half_width"]
                    )
                if loss_ok is False:
                    flagged.append({"size": m.size, "metric": "loss"})
                if wait_ok is False:
                    flagged.append({"size": m.size, "metric": "wait"})
                compare_rows.append(
                    [
                        m.size,
                        f"{m.loss_ratio:.12g}",
                        _cell(c["loss_ratio"]),
                        _cell(c["loss_half_width"]),
                        "" if loss_ok is None else str(loss_ok).lower(),
                        _cell(m.mean_wait),
                        _cell(c["mean_wait"]),
                        _cell(c["wait_half_width"]),
                        "" if wait_ok is None else str(wait_ok).lower(),
                    ]
                )
            status = (
                "consistent" if not flagged else "analytic_outside_confidence_band"
            )
            report["comparison"] = {
                "occupancy_tv": _sig(tv),
                "status": status,
                "flagged": flagged,
            }
            _write_csv(
                out / "compare_classes.csv",
                [
                    "size",
                    "loss_analytic",
                    "loss_simulated",
                    "loss_half_width",
                    "loss_in_band",
                    "wait_analytic",
                    "wait_simulated",
                    "wait_half_width",
                    "wait_in_band",
                ],
                compare_rows,
            )

    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _set_by_path(raw: dict, path: str, value) -> None:
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ScenarioError(path, "path does not address an object")
    node[keys[-1]] = value


def run_sweep(scenario_path: Path, grid_path: Path, out_dir: Path) -> dict:
    """Run the scenario once per grid point; failures stay per-point."""
    raw = json.loads(scenario_path.read_text())
    parse_scenario(raw)  # validate the baseline before spending any work
    grid_raw = json.loads(grid_path.read_text())
    if not isinstance(grid_raw, dict):
        raise ScenarioError("grid", "top level must be an object")
    for key, values in grid_raw.items():
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"grid.{key}", "expected a nonempty list of values")

    names = sorted(grid_raw)
    points = list(itertools.product(*(grid_raw[n] for n in names)))
    if not grid_raw:
        points = []

    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, combo in enumerate(points):
        overrides = dict(zip(names, combo))
        point_name = f"point_{i:03d}"
        point_dir = out_dir / point_name
        entry = {"point": point_name, "overrides": overrides}
        try:
            candidate = json.loads(scenario_path.read_text())
            for path, value in overrides.items():
                _set_by_path(candidate, path, value)
            scenario = parse_scenario(candidate)
            run_scenario(scenario, point_dir)
            entry["status"] = "ok"
            entry["report"] = f"{point_name}/report.json"
        except (ScenarioError, ConvergenceError, InsufficientData, ValueError) as exc:
            entry["status"] = "error"
            entry["error"] = str(exc)
        entries.append(entry)

    index = {
        "scenario": str(scenario_path),
        "grid": grid_raw,
        "points": entries,
    }
    (out_dir / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    return index


def _apply_cli_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    updates = {}
    if args.mode is not None:
        if args.mode not in MODES:
            raise ScenarioError("mode", f"must be one of {', '.join(MODES)}")
        updates["mode"] = args.mode
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.horizon is not None:
        if args.horizon < 1:
            raise ScenarioError("simulation.horizon", "must be >= 1")
        updates["horizon"] = args.horizon
    if args.batches is not None:
        if not 2 <= args.batches <= 100:
            raise ScenarioError(
                "simulation.batches",
                "must lie in 2..100 (the run's segment count)",
            )
        updates["batches"] = args.batches
    if args.tol is not None:
        if not 0 < args.tol < 1:
            raise ScenarioError("tolerance", "must be in (0, 1)")
        updates["tolerance"] = args.tol
    if not updates:
        return scenario
    return replace(scenario, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tbstat",
        description="Token bucket filter statistics: exact model and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one scenario file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("out"))
    p_run.add_argument("--mode", choices=MODES, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--horizon", type=int, default=None)
    p_run.add_argument("--batches", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario over a grid")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.add_argument("--grid", type=Path, required=True)
    p_sweep.add_argument("--out", type=Path, default=Path("sweep"))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            scenario = _apply_cli_overrides(scenario, args)
            report = run_scenario(scenario, args.out)
            print(f"report written to {args.out / 'report.json'}")
            if "comparison" in report:
                print(f"comparison status: {report['comparison']['status']}")
            return 0
        if args.command == "sweep":
            index = run_sweep(args.scenario, args.grid, args.out)
            good = sum(1 for e in index["points"] if e["status"] == "ok")
            print(
                f"{good}/{len(index['points'])} points ok; "
                f"index at {args.out / 'index.json'}"
            )
            return 0
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except InsufficientData as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
