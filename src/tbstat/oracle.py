"""Full-space references for the reachable-chain run path.

A run builds, solves and averages the chain on the states reachable from
the full-bucket idle state alone (``markov.reachable_chain``,
``analysis.solve_stationary``).  This module keeps the constructions over
every enumerated state that the tests and acceptance criteria check it
against: the full arrival rate matrix and 0/1 replenishment matrix, read off
the state space's transition table, a partitioned form of the rate matrix,
and the time spent in a set of states integrated blockwise through it.  No
run calls them.

Partitioned form.  Idle-buffer states evolve autonomously: between grants
the buffer can only gain packets, never lose them, so probability flows from
idle states into occupied ones and never back.  Occupied states at token
level T form a closed block fed only by the idle state at the same level.
The assembled generator for level T therefore acts on the idle block, the
level-T occupied block, and one explicit overflow coordinate that absorbs
the flow leaving idle states toward other levels' queues.  The overflow
coordinate keeps every row sum at zero, which the exponential kernels
require, without touching the dynamics of the tracked coordinates.  The
blocks are slices of the rate matrix: occupied rows at every level carry the
same block, so the level-0 slice stands for all of them, and each level's
generator is assembled from the slices when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .analysis import StationaryResult

from .statespace import StateSpace
from .markov import _grant_matrix, _rate_entries, integrate_expm_action

__all__ = [
    "build_replenishment_matrix",
    "build_rate_matrix",
    "PartitionedGenerator",
    "build_partitioned_generator",
    "time_average_distribution",
    "time_average",
    "waiting_time",
]


def build_replenishment_matrix(space: StateSpace) -> sp.csr_matrix:
    """Deterministic token-grant jump as a 0/1 stochastic matrix."""
    return _grant_matrix(space.transitions.grant)


def build_rate_matrix(space: StateSpace) -> sp.csr_matrix:
    """Generator of the arrival process between token grants.

    Each traffic class moves a state to its arrival target at rate
    ``probability * rate``.  A dropped packet leaves the state unchanged and
    so contributes nothing.  Each diagonal entry balances its row, summing
    the class rates in class order, and no explicit zero is stored.
    """
    import scipy.sparse as sp

    entries = _rate_entries(space, space.transitions.arrive)
    return sp.csr_matrix(entries, shape=(space.n_states,) * 2)


@dataclass(frozen=True)
class PartitionedGenerator:
    """Blockwise view of the rate matrix.

    ``idle_rows`` are the rate matrix's rows of the idle-buffer states.
    ``idle_block`` couples the idle-buffer states across token levels,
    ``queue_block`` couples occupied buffer strings (shared by every level),
    and ``coupling(level)`` injects idle-state probability into that level's
    queue.  All three are slices of the rate matrix.  ``gamma(level)``
    assembles them into one conservative generator with a trailing overflow
    coordinate; see the module docstring.
    """

    space: StateSpace
    idle_rows: sp.csr_matrix
    idle_block: np.ndarray
    queue_block: sp.csr_matrix

    @property
    def n_idle(self) -> int:
        return self.space.config.bucket + 1

    def coupling(self, level: int) -> sp.csr_matrix:
        return self.idle_rows[:, self.space.nonempty_slice(level)]

    def gamma(self, level: int) -> sp.csr_matrix:
        import scipy.sparse as sp

        idle = sp.csr_matrix(self.idle_block)
        coupling = self.coupling(level)
        leak = -np.asarray(idle.sum(axis=1) + coupling.sum(axis=1))
        return sp.bmat(
            [
                [idle, coupling, sp.csr_matrix(leak)],
                [None, self.queue_block, None],
                [None, None, sp.csr_matrix((1, 1))],
            ],
            format="csr",
        )


def build_partitioned_generator(space: StateSpace) -> PartitionedGenerator:
    """Split the rate matrix into idle, queue and per-level coupling blocks."""
    rates = build_rate_matrix(space)
    idle_rows = rates[space.empty_indices]
    queue = space.nonempty_slice(0)
    return PartitionedGenerator(
        space,
        idle_rows,
        idle_rows[:, space.empty_indices].toarray(),
        rates[queue, queue],
    )


def time_average_distribution(
    result: StationaryResult, part: PartitionedGenerator | None = None
) -> np.ndarray:
    """Time-averaged probability of every state over one period.

    The result's read-only ``averaged`` vector, integrated once per result.
    ``part`` is ignored and kept for callers that pass it; the blockwise
    propagation it describes gives the same vector (see ``time_average``).
    """
    return result.averaged


def _membership(space: StateSpace, members) -> np.ndarray:
    if isinstance(members, np.ndarray) and members.dtype == bool:
        if members.shape != (space.n_states,):
            raise ValueError("membership mask has wrong length")
        return members
    mask = np.zeros(space.n_states, dtype=bool)
    for state in members:
        mask[space.index_of(state)] = True
    return mask


def time_average(
    result: StationaryResult,
    part: PartitionedGenerator,
    members,
    idle_term_level: int = 0,
) -> float:
    """Fraction of time the system spends in a set of states.

    ``members`` is a boolean mask over the state space or an iterable of
    states.  Occupied-buffer members are integrated level by level; the
    idle-buffer members are read from the block of ``idle_term_level``,
    whose choice cannot matter because the idle dynamics are shared.
    """
    space = result.space
    mask = _membership(space, members)
    n_idle = part.n_idle
    idle = result.pi[space.empty_indices]
    idle_mask = mask[space.empty_indices]
    levels = [
        level for level in range(n_idle) if mask[space.nonempty_slice(level)].any()
    ]
    if idle_mask.any() and idle_term_level not in levels:
        levels.append(idle_term_level)
    queued = idle_part = 0.0
    for level in levels:
        rows = space.nonempty_slice(level)
        start = np.concatenate([idle, result.pi[rows], [0.0]])
        block = integrate_expm_action(part.gamma(level), start, space.config.period)
        queued += float(block[n_idle:-1][mask[rows]].sum())
        if level == idle_term_level:
            idle_part = float(block[:n_idle][idle_mask].sum())
    return queued + idle_part


def waiting_time(
    mean_backlog: float, loss: float, rate: float, probability: float
) -> float | None:
    """Mean queueing delay of accepted packets of one class, by Little's law.

    Returns None when the class has no accepted throughput (fully blocked or
    silenced), where the mean wait is undefined.  Kept for callers that hold
    only a loss ratio; nothing in the package calls it.  Its throughput,
    ``(1 - loss) * rate * probability``, cancels where the loss is within a
    few ulps of 1, leaving a wait that is rounding noise;
    ``analysis.class_metrics`` sums the accepted mass directly instead and
    is the figure to use.
    """
    effective = (1.0 - loss) * rate * probability
    if effective <= 0.0:
        return None
    return mean_backlog / effective
