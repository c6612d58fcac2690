"""A seeded fuzz of the scenario contract: every run exits 0 or 2.

Run as a script, this file draws scenarios over all five modes and runs each
through ``tbstat.cli.main`` in one process under an address-space cap,
printing one JSON record a run; the test starts it as a child and checks
the records, and that each report is ``json.dumps(indent=2)`` of itself.
Each field is drawn from a small pool of sane values or, now and then, from
a pool of edge values.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import traceback
from pathlib import Path

SEED = 32
SCENARIOS = 1_200
ADDRESS_SPACE = 2 << 30  # bytes, the child's cap
EDGE_SHARE = 0.06  # chance that a field draws from ``EDGE``
EDGE = [0, 5e-324, 1e300, math.inf, math.nan, -1, True, "1", None, 2**63 - 1]
MODES = ["analytic", "simulate", "compare", "count-states", "fixed-length"]
PROBS = {1: [[1.0]], 2: [[0.5, 0.5], [0.9, 0.1]], 3: [[0.4, 0.3, 0.3]]}
# an exit 2 names the field at fault, dotted from the scenario's top level
NAMED = re.compile(
    r"scenario error: (scenario|traffic|filter|mode|simulation|bounds|tolerance)"
    r"(\.\w+)*: "
)


def _pick(rng: random.Random, sane: list):
    """A sane value, else an edge one; a list may lose one element to it."""
    value = rng.choice(sane)
    if rng.random() < EDGE_SHARE:
        return rng.choice(EDGE)
    if isinstance(value, list) and value and rng.random() < EDGE_SHARE:
        value = list(value)
        value[rng.randrange(len(value))] = rng.choice(EDGE)
    return value


def draw(rng: random.Random) -> dict:
    sizes = _pick(rng, [[1], [1, 2], [2, 3], [1, 2, 3]])
    width = len(sizes) if isinstance(sizes, list) and sizes else 1
    simulation = {
        "horizon": _pick(rng, [100, 500, 2_000]),
        "seed": _pick(rng, [0, 1, 7]),
        "batches": _pick(rng, [2, 5, 10]),
    }
    if rng.random() < 0.3:
        simulation["warmup"] = _pick(rng, [0, 10, 50])
    return {
        "traffic": {
            "sizes": sizes,
            "probs": _pick(rng, PROBS[min(width, 3)]),
            "rate": _pick(rng, [0.1, 0.5, 0.95, 3.0]),
        },
        "filter": {
            "bucket": _pick(rng, [0, 1, 3, 6]),
            "buffer": _pick(rng, [1, 3, 5, 8]),
            "period": _pick(rng, [0.5, 1.0, 2.0]),
        },
        "mode": _pick(rng, MODES),
        "simulation": simulation,
        "bounds": _pick(rng, [[0, 5], [3, 10], [0, 30]]),
        "tolerance": _pick(rng, [1e-10, 1e-8, 1e-6]),
    }


def run_all(seed: int, count: int, out: Path) -> None:
    """Draw and run ``count`` scenarios, one JSON record a line on stdout."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    from tbstat.cli import main

    rng = random.Random(seed)
    for i in range(count):
        raw = draw(rng)
        path = out / f"scenario_{i}.json"
        path.write_text(json.dumps(raw))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            stderr
        ):
            try:
                code = main(["run", str(path), "--out", str(out / f"run_{i}")])
                message = stderr.getvalue()
            except Exception:
                code, message = None, traceback.format_exc()
        record = {"scenario": raw, "code": code, "stderr": message}
        print(json.dumps(record), flush=True)


def _laws(report: dict) -> list:
    """Every probability law in a report, as flat lists."""
    laws = [
        sum(report[key], [])
        for key in ("occupancy_analytic", "occupancy_simulated")
        if key in report
    ]
    block = report.get("fixed_length", {})
    return laws + [block[key] for key in ("periodic_transfer", "md1") if key in block]


def test_random_scenarios_exit_0_or_2_naming_a_field(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, str(SEED), str(SCENARIOS), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    records = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(records) == SCENARIOS

    failed = [r for r in records if r["code"] not in (0, 2)]
    assert not failed, failed[:3]
    unnamed = [r for r in records if r["code"] == 2 and not NAMED.match(r["stderr"])]
    assert not unnamed, unnamed[:3]
    passed = [i for i, r in enumerate(records) if r["code"] == 0]
    # both outcomes occur, and every mode runs to a report
    assert 0 < len(passed) < SCENARIOS
    assert {records[i]["scenario"]["mode"] for i in passed} == set(MODES)
    for i in passed:
        text = (tmp_path / f"run_{i}" / "report.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n", records[i]["scenario"]
        for law in _laws(report):
            assert all(p >= 0 for p in law), (records[i]["scenario"], min(law))
            assert abs(sum(law) - 1) <= 1e-9, (records[i]["scenario"], sum(law))


if __name__ == "__main__":
    run_all(int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]))
