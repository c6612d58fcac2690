"""Command line front end.

``tbstat run scenario.json`` evaluates one scenario and writes a JSON report
plus plot-ready CSV tables; ``tbstat sweep scenario.json --grid grid.json``
repeats that over a cartesian parameter grid, isolating per-point failures.
Every scenario goes through ``parse_scenario``: the ``run`` flags and each
grid point are written into their dotted scenario fields and validated like
the file itself.  Unknown keys, malformed values, packets the bucket can
never pay for (in the analytic, simulate and compare modes), analytic
chains over ``STATE_BUDGET`` states, and ``count-states`` limits over
``BOUNDS_LIMIT`` or past the float range of the estimate are rejected with
the offending field named, exit code 2.  Solver
failures exit with code 1.  Each table is built once as a list of records
rounded to 12 significant digits; the report and the CSV files are written
from the same records.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .statespace import (
    FilterConfig,
    TrafficSpec,
    build_state_space,
    cardinality_bound,
    count_by_total,
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
)
from .des import InsufficientData, batch_confidence, simulate

__all__ = ["main", "load_scenario", "parse_scenario", "run_scenario", "ScenarioError"]

MODES = ("analytic", "simulate", "compare", "count-states", "fixed-length")
# Most states an analytic chain may have.  Enumerating the states and filling
# their transition table takes about 0.6 us and 0.14 KB per state (988,704
# states: 0.6 s, 138 MB peak RSS, and the whole analytic run over their
# 145,490 reachable states 7.4 s, 243 MB; Python 3.11.7 on a 2-vCPU Xeon host).
STATE_BUDGET = 1_000_000

# Largest ``bounds`` upper limit.  ``count-states`` counts strings of every
# total up to it and writes one row per limit, so its cost grows with the
# limit: sizes (1,) over [0, 100000] take about 1.6 s and 133 MB and write
# 9.2 MB, over [0, 300000] 4.1 s and 342 MB (Python 3.11.7, 2-vCPU Xeon).
BOUNDS_LIMIT = 100_000


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
    sizes = tuple(_as_int(s, "traffic.sizes") for s in sizes)
    probs = tuple(_as_number(p, "traffic.probs") for p in probs)
    rate = _as_number(traffic_raw["rate"], "traffic.rate")
    try:
        traffic = TrafficSpec(sizes, probs, rate)
    except ValueError as exc:
        raise ScenarioError("traffic", str(exc)) from None

    filter_raw = raw["filter"]
    if not isinstance(filter_raw, dict):
        raise ScenarioError("filter", "must be an object")
    _require(filter_raw, "filter", {"bucket": True, "buffer": True, "period": True})
    bucket = _as_int(filter_raw["bucket"], "filter.bucket")
    buffer_cap = _as_int(filter_raw["buffer"], "filter.buffer")
    period = _as_number(filter_raw["period"], "filter.period")
    try:
        config = FilterConfig(bucket, buffer_cap, period)
    except ValueError as exc:
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
    if seed < 0:
        raise ScenarioError("simulation.seed", "must be >= 0")
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
    if bounds_raw[1] > BOUNDS_LIMIT:
        raise ScenarioError(
            "bounds", f"upper limit {bounds_raw[1]} is over the cap of {BOUNDS_LIMIT:,}"
        )

    tolerance = _as_number(raw.get("tolerance", 1e-10), "tolerance")
    if not 0 < tolerance < 1:
        raise ScenarioError("tolerance", "must be in (0, 1)")

    largest = max(traffic.sizes)
    if mode not in ("count-states", "fixed-length"):
        if largest > config.buffer:
            raise ScenarioError(
                "traffic.sizes",
                f"largest size {largest} exceeds filter.buffer {config.buffer}",
            )
        # tokens cap at the bucket, so such a head packet waits forever
        if largest > config.bucket + 1:
            raise ScenarioError(
                "traffic.sizes",
                f"largest size {largest} exceeds filter.bucket + 1 = "
                f"{config.bucket + 1}, so it can never be paid for",
            )
    if mode in ("analytic", "compare"):
        _check_state_budget(traffic, config)
    if mode == "count-states":
        try:
            cardinality_bound(traffic.sizes, bounds_raw[1])
        except OverflowError:
            raise ScenarioError(
                "bounds",
                f"upper limit {bounds_raw[1]} overflows the cardinality "
                f"estimate for sizes {list(traffic.sizes)}",
            ) from None

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


def _check_state_budget(traffic: TrafficSpec, config: FilterConfig) -> None:
    levels = config.bucket + 1
    # Repeats of the smallest size alone make buffer // size + 1 strings; a
    # buffer over budget on those is not counted, since the exact count takes
    # time and memory linear in the buffer.
    states = (config.buffer // traffic.sizes[0] + 1) * levels
    exact = states <= STATE_BUDGET
    if exact:
        states = count_strings(traffic.sizes, config.buffer) * levels
    if states > STATE_BUDGET:
        raise ScenarioError(
            "filter.buffer",
            f"the chain has {'' if exact else 'at least '}{states:,} states, "
            f"over the analytic budget of {STATE_BUDGET:,}",
        )


def _read_json(path: str | Path, fieldname: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(fieldname, f"invalid JSON: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(_read_json(path, "scenario"))


def _sig(x: float | None) -> float | None:
    """Round to 12 significant digits for stable, compact reports."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def _cell(x) -> str:
    """CSV cell text; unavailable values become the empty string."""
    if x is None:
        return ""
    if isinstance(x, int):  # bools too: True -> "true"
        return str(x).lower()
    return f"{x:.12g}"


def _write_csv(path: Path, records: list[dict]) -> None:
    """One row per record, under a header of the record keys."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(records[0])
        writer.writerows([_cell(x) for x in r.values()] for r in records)


def _occupancy(table: np.ndarray, path: Path) -> list[list[float]]:
    """Write the (tokens, backlog) table as records; return its rounded grid."""
    grid = [[_sig(x) for x in row] for row in table]
    records = [
        {"tokens": tokens, "backlog": queued, "probability": p}
        for tokens, row in enumerate(grid)
        for queued, p in enumerate(row)
    ]
    _write_csv(path, records)
    return grid


def _laws(key: str, transfer: np.ndarray, md1: np.ndarray) -> list[dict]:
    return [
        {key: i, "prob_periodic_transfer": _sig(t), "prob_md1": _sig(m)}
        for i, (t, m) in enumerate(zip(transfer, md1))
    ]


def _count_states(scenario: Scenario, out: Path) -> dict:
    sizes = scenario.traffic.sizes
    lo, hi = scenario.bounds
    counted = list(itertools.accumulate(count_by_total(sizes, hi)))
    counts = [
        {
            "limit": limit,
            "counted": counted[limit],
            "estimate": _sig(cardinality_bound(sizes, limit)),
        }
        for limit in range(lo, hi + 1)
    ]
    _write_csv(out / "state_counts.csv", counts)
    return {"state_counts": counts}


def _fixed_length(scenario: Scenario, out: Path) -> dict:
    mean = scenario.traffic.rate * scenario.config.period
    buffer_cap = scenario.config.buffer
    bucket = scenario.config.bucket
    transfer = stationary_dense(build_periodic_transfer_chain(mean, buffer_cap, bucket))
    md1 = stationary_dense(build_md1_chain(mean, buffer_cap, bucket))
    tv = 0.5 * float(np.abs(transfer - md1).sum())
    _write_csv(out / "fixed_length.csv", _laws("coord", transfer, md1))
    _write_csv(
        out / "backlog_distribution.csv",
        _laws(
            "backlog",
            net_to_backlog_distribution(transfer, buffer_cap, bucket),
            net_to_backlog_distribution(md1, buffer_cap, bucket),
        ),
    )
    return {
        "fixed_length": {
            "mean_arrivals": _sig(mean),
            "tv_distance_to_md1": _sig(tv),
            "periodic_transfer": [_sig(x) for x in transfer],
            "md1": [_sig(x) for x in md1],
        }
    }


def _analytic(scenario: Scenario, out: Path) -> tuple[dict, list]:
    """The solved chain's report blocks, and its unrounded class metrics."""
    space = build_state_space(scenario.traffic, scenario.config)
    began = time.perf_counter()
    result = solve_stationary(space, tol=scenario.tolerance)
    table = occupancy_table(result)
    metrics = class_metrics(result)
    wall = time.perf_counter() - began
    classes = [
        {k: v if k == "size" else _sig(v) for k, v in asdict(m).items()}
        for m in metrics
    ]
    _write_csv(out / "class_metrics_analytic.csv", classes)
    report = {
        "solver": {
            "states": space.n_states,
            "reachable_states": len(result.chain.keep),
            "solve_matvecs": result.solve_matvecs,
            "power_steps": result.power_steps,
            "iterations": result.iterations,
            "residual": _sig(result.residual),
            "period_nnz": result.period_nnz,
            "solve_s": _sig(result.wall_time),
            "wall_time_s": _sig(wall),
        },
        "occupancy_analytic": _occupancy(table, out / "occupancy_analytic.csv"),
        "classes_analytic": classes,
    }
    return report, metrics


def _simulated(scenario: Scenario, out: Path) -> tuple[dict, np.ndarray]:
    """The simulation's report blocks, and its unrounded occupancy table."""
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
            confidence[name] = batch_confidence(stats, scenario.batches, (name,))[name]
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
    classes = []
    for k, size in enumerate(scenario.traffic.sizes):
        record = {
            "size": size,
            "arrivals": int(stats.arrivals[k]),
            "losses": int(stats.losses[k]),
        }
        for name, key, samples, point in (
            ("loss", "loss_ratio", stats.arrivals[k], stats.loss_ratio),
            ("wait", "mean_wait", stats.departures[k], stats.mean_wait),
            ("backlog", "mean_backlog", 1, stats.mean_class_backlog),
        ):
            # without a band, the point estimate where the class has samples
            if confidence[name] is not None:
                mean, half = confidence[name][size]
            else:
                mean, half = (point(size) if samples > 0 else None), None
            record[key] = _sig(mean)
            record[f"{name}_half_width"] = _sig(half)
        classes.append(record)
    _write_csv(out / "class_metrics_simulated.csv", classes)
    report = {
        "simulation": block,
        "occupancy_simulated": _occupancy(table, out / "occupancy_simulated.csv"),
        "classes_simulated": classes,
    }
    return report, table


def _compare(report: dict, metrics: list, sim_table: np.ndarray, out: Path) -> dict:
    # The gap is taken from the reported (rounded) analytic table, and the
    # verdicts from the unrounded analytic metrics.
    tv = 0.5 * float(np.abs(np.array(report["occupancy_analytic"]) - sim_table).sum())
    flagged = []
    rows = []
    for m, c in zip(metrics, report["classes_simulated"]):
        row = {"size": m.size}
        for name, key in (("loss", "loss_ratio"), ("wait", "mean_wait")):
            analytic, mean, half = getattr(m, key), c[key], c[f"{name}_half_width"]
            # A disagreement can only be established against a formed band;
            # classes whose band is unavailable are not flagged.
            in_band = None
            if analytic is not None and mean is not None and half is not None:
                in_band = abs(analytic - mean) <= half
            if in_band is False:
                flagged.append({"size": m.size, "metric": name})
            row[f"{name}_analytic"] = _sig(analytic)
            row[f"{name}_simulated"] = mean
            row[f"{name}_half_width"] = half
            row[f"{name}_in_band"] = in_band
        rows.append(row)
    _write_csv(out / "compare_classes.csv", rows)
    status = "consistent" if not flagged else "analytic_outside_confidence_band"
    return {
        "comparison": {"occupancy_tv": _sig(tv), "status": status, "flagged": flagged}
    }


def run_scenario(scenario: Scenario, out_dir: str | Path) -> dict:
    """Evaluate one scenario, write its artifacts, return the report dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"scenario": scenario.as_dict(), "mode": scenario.mode}
    if scenario.mode == "count-states":
        report.update(_count_states(scenario, out))
    elif scenario.mode == "fixed-length":
        report.update(_fixed_length(scenario, out))
    else:
        if scenario.mode in ("analytic", "compare"):
            analytic, metrics = _analytic(scenario, out)
            report.update(analytic)
        if scenario.mode in ("simulate", "compare"):
            simulated, sim_table = _simulated(scenario, out)
            report.update(simulated)
        if scenario.mode == "compare":
            report.update(_compare(report, metrics, sim_table, out))
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


def _with_overrides(raw: dict, overrides: dict) -> Scenario:
    """Validate a copy of ``raw`` with each dotted field set to its override."""
    candidate = copy.deepcopy(raw)
    for path, value in overrides.items():
        _set_by_path(candidate, path, value)
    return parse_scenario(candidate)


def run_sweep(scenario_path: Path, grid_path: Path, out_dir: Path) -> dict:
    """Run the scenario once per grid point; failures stay per-point."""
    raw = _read_json(scenario_path, "scenario")
    parse_scenario(raw)  # validate the baseline before spending any work
    grid_raw = _read_json(grid_path, "grid")
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
            run_scenario(_with_overrides(raw, overrides), point_dir)
            entry["status"] = "ok"
            entry["report"] = f"{point_name}/report.json"
        except (ConvergenceError, InsufficientData, ValueError) as exc:
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


# The dotted scenario field each ``run`` flag overrides.
RUN_FLAGS = {
    "mode": "mode",
    "seed": "simulation.seed",
    "horizon": "simulation.horizon",
    "batches": "simulation.batches",
    "tol": "tolerance",
}


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
            raw = _read_json(args.scenario, "scenario")
            parse_scenario(raw)  # the file must stand on its own
            overrides = {
                path: getattr(args, flag)
                for flag, path in RUN_FLAGS.items()
                if getattr(args, flag) is not None
            }
            report = run_scenario(_with_overrides(raw, overrides), args.out)
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
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except InsufficientData as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
