"""Command line front end.

``tbstat run scenario.json`` evaluates one scenario and writes a JSON report
plus plot-ready CSV tables; ``tbstat sweep scenario.json --grid grid.json``
repeats that over a cartesian parameter grid, isolating per-point failures
and rewriting its ``index.json`` as each point finishes, from the text of
each finished entry kept as it was encoded.
Every scenario goes through ``parse_scenario``: the ``run`` flags and each
grid point are written into their dotted scenario fields and validated like
the file itself.  Unknown keys, malformed values, packets the bucket can
never pay for (in the analytic, simulate and compare modes), analytic
chains over ``STATE_BUDGET`` states, ``STRING_ROW_BUDGET`` table rows or
``WORK_BUDGET`` states times mean arrivals a period, simulations over
``EVENT_BUDGET`` expected events or ``OCCUPANCY_CELLS`` occupancy cells,
fixed-length chains whose Poisson law underflows or that hold over
``FIXED_LENGTH_STATES`` states, ``count-states`` limits over
``BOUNDS_LIMIT`` or past the float range of the estimate, and tolerances
below ``TOLERANCE_FLOOR`` are rejected with the offending field named, exit
code 2, as are paths that cannot be read or written, with the path named.  Solver failures exit with code 1.
``markov._fixed_length_law`` solves both fixed-length chains with no matrix.
Each table is built once as records rounded to 12 significant digits, and
written from them to the report and the CSV files as ``json.dumps(indent=2)``
and ``csv.writer`` would.  Every artifact is written over in place and cut to
its new length (``_write``), never truncated to zero first; ``_write`` says
what that trades in crash consistency.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .statespace import (
    FilterConfig, TrafficSpec, build_state_space, cardinality_bound, count_by_total
)
from .markov import ConvergenceError, _fixed_length_law
from .analysis import (
    TOLERANCE_FLOOR,
    class_metrics,
    net_to_backlog_distribution,
    occupancy_table,
    solve_stationary,
)
from .des import InsufficientData, batch_confidence, simulate

__all__ = ["main", "load_scenario", "parse_scenario", "run_scenario", "ScenarioError"]

MODES = ("analytic", "simulate", "compare", "count-states", "fixed-length")
# Most states an analytic chain may have: sizes 1..4 at M=11 L=17, 988,704
# states of which 145,490 are reachable, run in 1.6 s at 181 MB peak RSS.
STATE_BUDGET = 1_000_000
# Most rows the string tables may copy, once per size for each string of total
# at most r, r = 0..buffer: at 1 to 2.3 ns a row, unit sizes take 0.20 s at
# buffer 20,000 (2.0e8 rows) and 3.2 s at 63,000 (2.0e9).  Both figures are
# for Python 3.11.7 on a 2-vCPU Xeon host.
STRING_ROW_BUDGET = 2_000_000_000
# Most states times mean arrivals a period, states * rate * period, an
# analytic chain may have: one period product sums about two series terms a
# mean arrival, each a pass over the chain, and the solve may make 811 of
# them.  A product on unit sizes at bucket 0 and buffer 20,000 takes 0.095 s
# at rate 500 (1e7), 2.5 s at 1e4 (2e8), and 43 s at buffer 60,000 and rate
# 1e5 (6e9); small chains add about 4 us a series term, 0.78 s a product on
# the 36- and 186-state spaces at rate 1e5 (Python 3.11.7, Xeon host).
WORK_BUDGET = 10_000_000
# Most states, buffer + bucket + 1, of the fixed-length chains.  Their laws
# hold no matrix, but back substitution takes time about squared: at bucket 5
# and buffer 16,000 ``tbstat run`` takes 0.29 to 0.47 s in process (0.44 to
# 0.70 s with start-up) and 36 to 38 MB at rates 0.5, 0.97 and 700; 5 runs
# each, on the same host with BLAS on one thread.
FIXED_LENGTH_STATES = 16_384
# Most events a simulation may expect, horizon * (1 + rate * period): at 0.13
# to 0.29 us an event (the reference scenario, and unit sizes or sizes 1..4
# at M=L=5 up to rate 1e6) that is 2 to 5 minutes.  Long overloaded buffers
# run 34 to 77 us an event, which the count alone does not bound.
EVENT_BUDGET = 1_000_000_000
# Most cells, (bucket + 1) * (buffer + 1), of the occupancy table a simulation
# tallies and writes.  A run holds about 340 bytes a cell: sizes (5,) at
# bucket 4 and buffer 199,999 (10^6 cells), horizon 100, take 1.7 s and
# 340 MB.  The cap admits buffer 6,000,000 at bucket 4 (30,000,005 cells),
# whose admission the parser's tests pin, and refuses buffer 10^9 at bucket
# 3, whose tables alone would take 2 * 29.8 GiB.
OCCUPANCY_CELLS = 32_000_000

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
    if not TOLERANCE_FLOOR <= tolerance < 1:
        raise ScenarioError("tolerance", f"must be in [{TOLERANCE_FLOOR:g}, 1)")

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
    mean = traffic.rate * config.period
    if mode in ("analytic", "compare"):
        states = _check_state_budget(traffic, config)
        if states * mean > WORK_BUDGET:
            raise ScenarioError(
                "traffic.rate",
                f"{states:,} states times {mean:g} mean arrivals a period "
                f"(rate * filter.period) are over the analytic budget of "
                f"{WORK_BUDGET:,}",
            )
    if mode == "fixed-length":
        if math.exp(-mean) == 0.0:
            raise ScenarioError(
                "traffic.rate",
                f"{mean:g} mean arrivals a period underflow the Poisson law of "
                f"the fixed-length chains (exp(-mean) is 0 past about 745)",
            )
        states = config.buffer + config.bucket + 1
        if states > FIXED_LENGTH_STATES:
            raise ScenarioError(
                "filter.buffer",
                f"the fixed-length chains have {states:,} states, buffer + "
                f"bucket + 1, over the cap of {FIXED_LENGTH_STATES:,}",
            )
    cells = (config.bucket + 1) * (config.buffer + 1)
    if mode in ("simulate", "compare") and cells > OCCUPANCY_CELLS:
        raise ScenarioError(
            "filter.buffer",
            f"the occupancy table has {cells:,} cells, (filter.bucket + 1) * "
            f"(filter.buffer + 1), over the budget of {OCCUPANCY_CELLS:,}",
        )
    events = horizon * (1 + mean)
    if mode in ("simulate", "compare") and events > EVENT_BUDGET:
        raise ScenarioError(
            "simulation.horizon",
            f"the run expects {events:.3g} events, horizon * (1 + rate * "
            f"filter.period), over the budget of {EVENT_BUDGET:,}",
        )
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


def _check_state_budget(traffic: TrafficSpec, config: FilterConfig) -> int:
    """The analytic chain's state count, refused over either budget."""
    levels = config.bucket + 1
    # Repeats of the smallest size alone make buffer // size + 1 strings; a
    # buffer over budget on those is not counted.  Otherwise within[r], the
    # strings of total at most r (the empty one, and each size followed by
    # those of total at most r - size), is counted until the chain passes the
    # budget squared, so the counts stay small numbers.
    states = (config.buffer // traffic.sizes[0] + 1) * levels
    within = [1]
    if states <= STATE_BUDGET:
        while len(within) <= config.buffer and within[-1] * levels <= STATE_BUDGET**2:
            r = len(within)
            within.append(1 + sum(within[r - s] for s in traffic.sizes if s <= r))
        states = within[-1] * levels
    exact = len(within) == config.buffer + 1
    if states > STATE_BUDGET:
        raise ScenarioError(
            "filter.buffer",
            f"the chain has {'' if exact else 'at least '}{states:,} states, "
            f"over the analytic budget of {STATE_BUDGET:,}",
        )
    rows = sum(within) * len(traffic.sizes)
    if rows > STRING_ROW_BUDGET:
        raise ScenarioError(
            "filter.buffer",
            f"building the string tables copies {rows:,} rows, over the "
            f"budget of {STRING_ROW_BUDGET:,}",
        )
    return states


def _read_json(path: str | Path, fieldname: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _leaf(x) -> str:
    """``json.dumps(x)`` for a leaf; a string or a finite number takes no json
    call (``float.__repr__``, as json's, also writes a numpy float)."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return json.dumps(x)  # NaN, Infinity, and what json alone may refuse


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for string keys.  An indent sends json to
    its Python encoder, so each list of numbers goes to the C one in one call."""
    if not isinstance(obj, (dict, list, tuple)):
        return _leaf(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    if isinstance(obj, dict):
        quote = encode_basestring_ascii
        items = [f"{quote(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if {*map(type, obj)} <= {int, float, bool, type(None)}:
        # no number's text holds ", "
        items = json.dumps(obj)[1:-1].replace(", ", "," + inner)
    else:
        items = ("," + inner).join([_dumps(x, inner) for x in obj])
    return "[" + inner + items + indent + "]"


def _write(path: Path, text: str) -> None:
    """Write ``text`` over ``path`` in place, then cut the file to its length.

    Opening without ``O_TRUNC`` keeps the inode, its permissions and links, and
    spares ext4 the flush it makes at close after a truncate to zero (its
    ``auto_da_alloc``), most of the cost of rewriting a file.  The trade is
    crash consistency: after a power loss or OS crash in the middle of a
    rewrite, the file may hold new bytes followed by the earlier run's tail,
    where a truncating write would leave it empty or short.  A file that did
    not exist has no old bytes to show.  An error or interrupt during the
    write cuts the file to the bytes written so far, a prefix of the new text,
    as a truncating write leaves it.
    """
    data = memoryview(text.encode())
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    finally:
        try:
            os.ftruncate(fd, done)  # at most the bytes written, if cut short
        finally:
            os.close(fd)


def _write_csv(path: Path, records: list[dict]) -> None:
    """Rows of records under their keys, as ``csv.writer`` writes them."""
    # CRLF line ends, and no quotes: no key or cell holds ',', '"' or a newline
    lines = [",".join(records[0])]
    lines += [",".join([_cell(x) for x in r.values()]) for r in records]
    _write(path, "\r\n".join(lines) + "\r\n")


def _occupancy(table: np.ndarray, path: Path) -> list[list[float]]:
    """Write the table as ``_write_csv`` would; return the grid its cells read."""
    width = table.shape[1]
    flat = table.ravel().tolist()
    for i in np.flatnonzero(table).tolist():
        flat[i] = float(f"{flat[i]:.12g}")  # _sig, whose .12g text is x's
    grid = [flat[start : start + width] for start in range(0, len(flat), width)]
    # a row's lines "t,b,cell" from one template, each cell as _cell writes it
    cells = ["", *[f"{b},%.12g" for b in range(width)]]
    lines = [f"\r\n{t},".join(cells) % tuple(row) for t, row in enumerate(grid)]
    _write(path, "tokens,backlog,probability" + "".join(lines) + "\r\n")
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
    # root 0, the idle full bucket: every coordinate falls to it
    transfer = _fixed_length_law(mean, buffer_cap, bucket, md1=False)
    md1 = _fixed_length_law(mean, buffer_cap, bucket, md1=True)
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
    result = solve_stationary(space, tol=scenario.tolerance)
    # from the solve's clock, which leaves out a sparse chain's scipy import
    solved = time.perf_counter()
    table = occupancy_table(result)
    metrics = class_metrics(result)
    wall = result.wall_time + (time.perf_counter() - solved)
    classes = [
        {k: v if k == "size" else _sig(v) for k, v in asdict(m).items()}
        for m in metrics
    ]
    _write_csv(out / "class_metrics_analytic.csv", classes)
    report = {
        "solver": {
            "states": space.n_states,
            "reachable_states": len(result.chain.keep),
            "route": result.route,
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
        "states_met": stats.states_met,
        "word_length": stats.word_length,
        "invariants_checked": stats.invariants_checked,
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
    formed = False
    for m, c in zip(metrics, report["classes_simulated"]):
        row = {"size": m.size}
        for name, key in (("loss", "loss_ratio"), ("wait", "mean_wait")):
            analytic, mean, half = getattr(m, key), c[key], c[f"{name}_half_width"]
            # A disagreement can only be established against a formed band;
            # classes whose band is unavailable are not flagged.
            in_band = None
            if analytic is not None and mean is not None and half is not None:
                in_band = abs(analytic - mean) <= half
                formed = True
            if in_band is False:
                flagged.append({"size": m.size, "metric": name})
            row[f"{name}_analytic"] = _sig(analytic)
            row[f"{name}_simulated"] = mean
            row[f"{name}_half_width"] = half
            row[f"{name}_in_band"] = in_band
        rows.append(row)
    _write_csv(out / "compare_classes.csv", rows)
    # without a single band nothing was compared, which is not agreement
    if flagged:
        status = "analytic_outside_confidence_band"
    else:
        status = "consistent" if formed else "no_band"
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
    _write(out / "report.json", _dumps(report) + "\n")
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
    """Run the scenario once per grid point; failures stay per-point.

    Any exception a point raises is recorded as its ``error``, with its type
    name as ``error_class``, and the sweep goes on.  ``index.json`` is
    rewritten after every point, so it lists each point finished so far;
    each entry is encoded once, and the file is built from the kept texts.
    """
    raw = _read_json(scenario_path, "scenario")
    parse_scenario(raw)  # validate the baseline before spending any work
    grid_raw = _read_json(grid_path, "grid")
    if not isinstance(grid_raw, dict):
        raise ScenarioError("grid", "top level must be an object")
    for key, values in grid_raw.items():
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"grid.{key}", "expected a nonempty list of values")

    names = sorted(grid_raw)
    points = list(itertools.product(*(grid_raw[n] for n in names))) if grid_raw else []

    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    index = {"scenario": str(scenario_path), "grid": grid_raw, "points": entries}
    # _dumps(index): its head without the closing "\n}", then the points
    # from the text each entry was encoded to once, when it finished
    head = _dumps({"scenario": index["scenario"], "grid": grid_raw})[:-2]
    texts: list[str] = []
    path = out_dir / "index.json"
    _write(path, head + ',\n  "points": []\n}\n')
    for i, combo in enumerate(points):
        overrides = dict(zip(names, combo))
        point_name = f"point_{i:03d}"
        point_dir = out_dir / point_name
        entry = {"point": point_name, "overrides": overrides}
        try:
            run_scenario(_with_overrides(raw, overrides), point_dir)
            entry["status"] = "ok"
            entry["report"] = f"{point_name}/report.json"
        except Exception as exc:
            entry["status"] = "error"
            entry["error"] = str(exc)
            entry["error_class"] = type(exc).__name__
        entries.append(entry)
        texts.append(_dumps(entry, "\n    "))
        listed = ",\n    ".join(texts)
        _write(path, head + ',\n  "points": [\n    ' + listed + "\n  ]\n}\n")
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
    except OSError as exc:  # a directory read as a file, a file as --out
        print(f"file error: {exc}", file=sys.stderr)
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
