"""Stationary performance statistics of the token bucket filter.

The embedded chain observes the system immediately after each token grant.
It is solved on the states reachable from the full-bucket idle state, the
only ones carrying mass, as ``markov.reachable_chain`` builds it.  Its
stationary vector is integrated once through the arrival generator on the
same states, giving the time-averaged law over one replenishment period
that every statistic below reads
(``StationaryResult.averaged``; ``time_average`` integrates blockwise
through the partitioned generator instead, for the time spent in a chosen
set of states).  Because arrivals are Poisson, an arriving packet sees
exactly those time-averaged probabilities, so the blocking probability of a
size class is the time-averaged mass of the states whose buffer cannot fit
one more packet of that size.  Waiting times then follow from the
time-averaged per-class backlog and the accepted rate by Little's law.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .statespace import StateSpace
from .markov import (
    PartitionedGenerator,
    ReachableChain,
    expm_action,  # unused; perfbench's layer spans look it up here
    integrate_expm_action,
    reachable_chain,
    stationary_power,
    uniformize,
)

__all__ = [
    "StationaryResult",
    "solve_stationary",
    "net_to_backlog_distribution",
    "time_average_distribution",
    "time_average",
    "occupancy_table",
    "loss_ratio",
    "class_backlog",
    "waiting_time",
    "ClassMetrics",
    "class_metrics",
]


# Operator entries the stationary solve holds per state: a chain of at most
# this many states is eliminated densely, and a larger one's period operator
# is assembled only when its columns fit in this many entries.
_ENTRIES_PER_STATE = 81
# Products the iterative solve may make before power steps take over.
_MAX_MATVECS = 811


@dataclass
class StationaryResult:
    """Stationary distribution over the full state space, with diagnostics.

    Built by ``solve_stationary``.  ``chain`` is the reachable chain the
    solve ran on, ``solve_matvecs`` and ``power_steps`` the period-operator
    products of BiCGSTAB (0 after a GTH elimination) and of the certifying
    power steps, ``period_nnz`` the nonzero entries of the assembled period
    operator (None when the solve stepped vector by vector), and
    ``averaged`` the time-averaged law over one period that the statistics
    of this module read.
    """

    space: StateSpace
    pi: np.ndarray
    residual: float
    wall_time: float
    solve_matvecs: int
    power_steps: int
    period_nnz: int | None
    chain: ReachableChain = field(repr=False)

    @property
    def iterations(self) -> int:
        """Period-operator applications, ``solve_matvecs + power_steps``."""
        return self.solve_matvecs + self.power_steps

    @cached_property
    def averaged(self) -> np.ndarray:
        """Time-averaged probability of every state over one period.

        One integration of the stationary vector through the arrival
        generator of ``chain``, made on first use and kept read-only, then
        scattered to full length; states outside the chain stay at zero, as
        no mass reaches them.
        """
        keep = self.chain.keep
        out = np.zeros(self.space.n_states)
        out[keep] = integrate_expm_action(
            self.chain.rates, self.pi[keep], self.space.config.period
        )
        out.flags.writeable = False
        return out

    def idle_distribution(self) -> np.ndarray:
        """Mass of the idle-buffer state at each token level."""
        return self.pi[self.space.empty_indices].copy()

    def level_queue(self, level: int) -> np.ndarray:
        """Mass of the occupied-buffer strings at one token level."""
        return self.pi[self.space.nonempty_slice(level)].copy()


def _gth(chain: np.ndarray, root: int) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by GTH elimination
    (Grassmann, Taksar & Heyman 1985), ``root`` eliminated last.

    Each censored row's exit mass is summed from its entries toward the
    states left, so no step subtracts, and none vanishes when every state
    reaches ``root``.  One below the smallest normal float means the floats
    lost the way back: elimination stops there and the states left get no
    mass.  Back substitution keeps the largest mass at 1, so masses
    spanning more than the float range do not overflow.
    """
    n = chain.shape[0]
    order = np.r_[root, np.delete(np.arange(n), root)]
    a = chain[np.ix_(order, order)]
    last = 0
    for k in range(n - 1, 0, -1):
        leave = a[k, :k].sum()
        if leave < np.finfo(float).tiny:
            last = k
            break
        a[:k, k] /= leave
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[last] = 1.0
    for k in range(last + 1, n):
        pi[k] = pi[:k] @ a[:k, k]
        if pi[k] > 1.0:
            pi[: k + 1] /= pi[k]
    out = np.empty(n)
    out[order] = pi / pi.sum()
    return out


def _bicgstab(apply, rhs: np.ndarray, start: np.ndarray, rtol: float,
              max_calls: int) -> tuple[np.ndarray, int]:
    """BiCGSTAB (van der Vorst 1992) for ``apply(x) = rhs`` from ``start``.

    A cycle ends when the recurrence's residual is within ``rtol * |rhs|``
    or at a breakdown (``rho``, ``omega`` or the pivot zero).  The true
    residual then ends the solve or restarts the recurrence from itself.
    Whenever the solve stops, at the target, at a true residual no smaller
    than the last or after ``max_calls`` applications (two per step, one
    per true residual), it returns the iterate with the smallest true
    residual seen and the applications made.
    """
    target = rtol * float(np.linalg.norm(rhs))
    x = start.astype(float, copy=True)
    r = rhs - apply(x)
    calls, last, best = 1, math.inf, x
    while target < (norm := float(np.linalg.norm(r))) < last and calls + 3 <= max_calls:
        best, last = x.copy(), norm
        shadow, p, v = r.copy(), np.zeros_like(r), np.zeros_like(r)
        rho = alpha = omega = 1.0
        while calls + 3 <= max_calls and (rho_next := float(shadow @ r)) != 0.0:
            p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
            v = apply(p)
            calls += 1
            pivot = float(shadow @ v)
            if pivot == 0.0:
                break
            rho, alpha = rho_next, rho_next / pivot
            x += alpha * p
            r -= alpha * v
            if float(np.linalg.norm(r)) <= target:
                break
            t = apply(r)
            calls += 1
            omega = float(t @ r) / float(t @ t) if t.any() else 0.0
            if omega == 0.0:
                break
            x += omega * r
            r -= omega * t
            if float(np.linalg.norm(r)) <= target:
                break
        r = rhs - apply(x)
        calls += 1
    return (x if norm < last else best), calls


def solve_stationary(space: StateSpace, tol: float = 1e-10) -> StationaryResult:
    """Stationary vector of the per-period operator, certified by power steps.

    A step propagates through the arrival generator for a period, then
    applies the token grant, on the states reachable from the full-bucket
    idle state (``markov.reachable_chain``).  The period's exponential is
    uniformized once, truncated at ``min(1e-14, tol / 10)``, and the solve
    holds at most ``_ENTRIES_PER_STATE`` operator entries per state.  A
    chain of at most that many states runs the series densely into
    ``P^T = G^T exp(R t)^T`` and solves ``P`` exactly by GTH elimination,
    rooted at the full-bucket idle state that every state returns to.  A
    larger chain assembles ``P^T`` sparsely when its columns fit: between
    grants the buffer only gains packets, so a state is reached only from
    its nonempty prefixes, one per queued packet and per series jump at
    most, and from the ``bucket + 1`` idle states.  Past that bound it
    steps vector by vector (``period_nnz`` None).  BiCGSTAB then solves
    ``x - P^T x + (1^T x) u = u``, the balance equations with the
    normalization added for the uniform ``u``, from ``x = u`` to
    ``tol / 100`` relative to ``|u|`` in at most ``_MAX_MATVECS`` products.
    Either answer, clipped at zero and renormalized, starts power
    iteration, which stops at the first iterate that one step moves by at
    most ``tol`` in L1, so ``residual`` is verified whatever the solver
    reached; a chain it cannot settle raises ``ConvergenceError``.  No mass
    leaves the reachable set, so that is the residual of a step on the
    full space, and ``pi`` is exactly zero on every other state.  A packet
    size above ``bucket + 1`` is never paid for, leaving several absorbing
    laws: it raises ``ValueError`` before anything is built.
    """
    config = space.config
    largest = max(space.traffic.sizes)
    if largest > config.bucket + 1:
        raise ValueError(
            f"largest size {largest} exceeds bucket + 1 = {config.bucket + 1}, "
            f"so it can never be paid for"
        )
    began = time.perf_counter()
    chain = reachable_chain(space)
    grant_t = chain.grant_t
    n = len(chain.keep)
    dense = n <= _ENTRIES_PER_STATE
    kernel = uniformize(
        chain.rates.toarray() if dense else chain.rates,
        config.period,
        min(1e-14, tol / 10),
    )
    jumps = kernel.pieces * (len(kernel.point_weights) - 1)
    packets = config.buffer // min(space.traffic.sizes)
    if dense:
        period_t = grant_t @ kernel.point(np.eye(n))
        period_nnz = int(np.count_nonzero(period_t))
    elif min(packets, jumps) + config.bucket + 1 <= _ENTRIES_PER_STATE:
        period_t = grant_t @ kernel.operator()
        period_nnz = period_t.nnz
    else:
        period_t = period_nnz = None

    def step(vec: np.ndarray) -> np.ndarray:
        if period_t is None:
            return grant_t @ kernel.point(vec)
        return period_t @ vec

    if dense:
        root = int(np.searchsorted(chain.keep, space.empty_indices[-1]))
        kept, matvecs = _gth(period_t.T, root), 0
    else:
        uniform = np.full(n, 1.0 / n)
        kept, matvecs = _bicgstab(
            lambda vec: vec - step(vec) + vec.sum() * uniform,
            uniform, uniform, tol / 100, _MAX_MATVECS,
        )
    kept = np.clip(kept, 0.0, None)
    solve = stationary_power(step, n, kept / kept.sum(), tol)
    pi = np.zeros(space.n_states)
    pi[chain.keep] = solve.pi
    elapsed = time.perf_counter() - began
    return StationaryResult(
        space, pi, solve.residual, elapsed, matvecs, solve.iterations,
        period_nnz, chain,
    )


def net_to_backlog_distribution(
    pi_net: np.ndarray, buffer_cap: int, bucket: int
) -> np.ndarray:
    """Backlog distribution from a net-coordinate distribution.

    Coordinates up to the bucket size all mean an empty buffer (they differ
    only in banked tokens); coordinates above it are backlog plus bucket.
    """
    pi_net = np.asarray(pi_net, dtype=float)
    if pi_net.shape != (buffer_cap + bucket + 1,):
        raise ValueError("net-coordinate vector has wrong length")
    out = np.zeros(buffer_cap + 1)
    out[0] = pi_net[: bucket + 1].sum()
    out[1:] = pi_net[bucket + 1 :]
    return out


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


def occupancy_table(
    result: StationaryResult, part: PartitionedGenerator | None = None
) -> np.ndarray:
    """Joint time-averaged distribution of (token level, backlog).

    Rows index token levels 0..bucket, columns backlog 0..buffer.  Read off
    ``result.averaged``; ``part`` is ignored.
    """
    space = result.space
    table = np.zeros((space.config.bucket + 1, space.config.buffer + 1))
    np.add.at(
        table,
        (space.token_of_state, space.backlog_of_state),
        result.averaged,
    )
    return table


def loss_ratio(
    result: StationaryResult, part: PartitionedGenerator | None = None, size: int = 1
) -> float:
    """Stationary loss probability for packets of one size.

    A Poisson arrival samples the time-averaged state, so the loss ratio is
    the mass of ``result.averaged`` on states whose buffer lacks room for
    the packet.  An idle buffer always has room because sizes never exceed
    the buffer.  ``part`` is ignored.
    """
    space = result.space
    if size not in space.traffic.sizes:
        raise ValueError(f"size {size} is not a traffic class")
    blocking = space.backlog_of_state > space.config.buffer - size
    blocking &= space.backlog_of_state > 0
    return float(result.averaged[blocking].sum())


def class_backlog(
    result: StationaryResult, part: PartitionedGenerator | None = None, size: int = 1
) -> float:
    """Time-averaged number of queued packets of one size.

    Read off ``result.averaged``; ``part`` is ignored.
    """
    space = result.space
    counts = space.string_class_counts[:, space.traffic.class_index(size)]
    weights = np.tile(counts, space.config.bucket + 1)
    return float(result.averaged @ weights)


def waiting_time(
    mean_backlog: float, loss: float, rate: float, probability: float
) -> float | None:
    """Mean queueing delay of accepted packets of one class, by Little's law.

    Returns None when the class has no accepted throughput (fully blocked or
    silenced), where the mean wait is undefined.
    """
    effective = (1.0 - loss) * rate * probability
    if effective <= 0.0:
        return None
    return mean_backlog / effective


@dataclass(frozen=True)
class ClassMetrics:
    """Per-size stationary performance figures."""

    size: int
    probability: float
    loss_ratio: float
    mean_backlog: float
    mean_wait: float | None
    throughput: float


def class_metrics(
    result: StationaryResult, part: PartitionedGenerator | None = None
) -> list[ClassMetrics]:
    """Loss, backlog, wait and throughput for every traffic class.

    All read off ``result.averaged``; ``part`` is ignored.
    """
    space = result.space
    rate = space.traffic.rate
    out = []
    for size, prob in zip(space.traffic.sizes, space.traffic.probs):
        loss = loss_ratio(result, part, size)
        queued = class_backlog(result, part, size)
        wait = waiting_time(queued, loss, rate, prob)
        out.append(
            ClassMetrics(
                size=size,
                probability=prob,
                loss_ratio=loss,
                mean_backlog=queued,
                mean_wait=wait,
                throughput=(1.0 - loss) * rate * prob,
            )
        )
    return out
