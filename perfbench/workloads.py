"""The benchmark's workloads: one scenario each, generated from the seed.

Each workload is a closed loop with one caller: the next ``run_scenario``
call starts when the previous one has returned.  The seed is written into
the scenario's ``simulation.seed``; it changes the simulated stream of
``sim_compare`` and leaves the analytic workloads' inputs unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: Callable[[Path, int], dict]


def _analytic(sizes, probs, rate, bucket, buffer_cap):
    def scenario(root: Path, seed: int) -> dict:
        return {
            "traffic": {"sizes": list(sizes), "probs": list(probs), "rate": rate},
            "filter": {"bucket": bucket, "buffer": buffer_cap, "period": 1.0},
            "mode": "analytic",
            "simulation": {"seed": seed},
            "tolerance": 1e-10,
        }

    return scenario


def _committed_reference(root: Path, seed: int) -> dict:
    raw = json.loads((root / "scenarios" / "reference.json").read_text())
    raw["simulation"]["seed"] = seed
    return raw


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "critical_unit",
            "unit sizes at load 0.99: 61 reachable states but 11,641 power "
            "steps, so the solve is over 90% of the run and its error is the "
            "largest; assembly is under 1%",
            _analytic((1,), (1.0,), 0.99, 20, 40),
        ),
        Workload(
            "large_space",
            "sizes 1..4, M=8, L=12: 27,864 states, 526 steps; per-state "
            "Python assembly and wide sparse matvecs split the run",
            _analytic((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 0.45, 8, 12),
        ),
        Workload(
            "sim_compare",
            "scenarios/reference.json in compare mode: the 1M-period "
            "simulation is about 95% of the run and the 186-state solve is "
            "small, so solver changes should not move it",
            _committed_reference,
        ),
    )
}
