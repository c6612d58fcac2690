"""Benchmark of tbstat: time to an exact stationary answer and its error.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload critical_unit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

One workload prints a table of its metrics, by name and with their unit,
then, as the last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones.  ``--workload all`` runs every workload
in turn.  The exit code is 0 only when every timed call passed its
correctness gate; it is 2 when the checkout has no ``src/tbstat``.

Everything runs in this process, with BLAS and OpenMP pinned to one thread,
except the set-up probes (fresh interpreters timing ``import tbstat.cli``
and ``load_scenario``) and the one-off reference computation.  The
reference and all outputs live in ``.bench_build/perfbench`` in the
checkout, the reference cached there by scenario.  Times that carry a bound
are rescaled for the host's speed at the moment they were taken; see
``speed.py``.  Wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Bump when reference.py changes what it computes, to invalidate caches.
REFERENCE_VERSION = 1
SETUP_PROBES = 9
PROBE = (
    "import sys, time\n"
    "from speed import kernel_seconds\n"
    "before = kernel_seconds()\n"
    "began = time.perf_counter()\n"
    "import tbstat.cli\n"
    "tbstat.cli.load_scenario(sys.argv[1])\n"
    "elapsed = time.perf_counter() - began\n"
    "print(elapsed, (before + kernel_seconds()) / 2)\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def reference_path(scenario: dict) -> Path:
    """Compute the scenario's reference once; later runs read the cache."""
    model = {k: scenario[k] for k in ("traffic", "filter")}
    key = json.dumps([REFERENCE_VERSION, model], sort_keys=True)
    path = WORK / f"ref-{hashlib.sha256(key.encode()).hexdigest()[:16]}.npz"
    if not path.exists():
        spec = WORK / f"{path.stem}.json"
        spec.write_text(json.dumps(scenario))
        subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(spec), str(path)],
            env=_child_env(),
            check=True,
            timeout=170,
        )
    return path


def setup_seconds(scenario_path: Path) -> list[float]:
    """Speed-calibrated set-up times of fresh interpreters."""
    from speed import calibrated

    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(scenario_path)],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed, kernel = map(float, done.stdout.split()[-2:])
        out.append(calibrated(elapsed, kernel))
    return out


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g} {q3:.4g}"


def _print_table(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {values[name]:>14.6g} {unit}{note}")


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    from bench import END_TO_END, PER_LAYER, Reference, end_to_end, measure, per_layer
    import numpy as np

    WORK.mkdir(parents=True, exist_ok=True)
    scenario = workload.scenario(ROOT, seed)
    scenario_path = WORK / f"{workload.name}-seed{seed}.json"
    scenario_path.write_text(json.dumps(scenario))
    with np.load(reference_path(scenario)) as cached:
        ref = Reference({k: cached[k] for k in cached.files})
    setup = [] if trace else setup_seconds(scenario_path)

    sys.path.insert(0, str(SRC))
    import tbstat

    if Path(tbstat.__file__).resolve().parent != SRC / "tbstat":
        raise RuntimeError(f"imported tbstat from {tbstat.__file__}, not {SRC}")
    log = functools.partial(print, file=sys.stderr)
    run = measure(scenario, ref, seconds, trace, WORK / f"out-{workload.name}", log)

    passed = run["attempted"] - run["failed"]
    notes = {}
    if run["calibrated"] and not trace:
        cal, wall = run["calibrated"], run["times"]["untraced"]
        notes["run_cal_s"] = (
            f"median of {len(cal)} calls, quartiles {_quartiles(cal)}; "
            f"wall median {statistics.median(wall):.4g} s, quartiles {_quartiles(wall)}"
        )
    if setup:
        notes["setup_s"] = f"median of {len(setup)} fresh interpreters, calibrated"
    metrics = {}
    if run["failed"] == 0:
        units = PER_LAYER if trace else END_TO_END
        values = per_layer(run) if trace else end_to_end(run, setup)
        title = f"{workload.name} seed {seed}: {passed}/{run['attempted']} passed"
        if trace:
            title += f"; medians over {len(run['layers'])} traced calls"
        _print_table(title, values, units, notes)
        if run.get("counts"):
            counts = ", ".join(f"{k} {v}" for k, v in run["counts"].items())
            print(f"  counts: {counts}")
        metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if run["failed"] == 0 else 1


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    status = 0
    results = {}
    for name in names:
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args, "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tbstat" / "__init__.py").is_file():
        print(f"no tbstat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
