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


# Krylov basis size of the stationary solve; the basis costs
# (restart + 1) * n * 8 bytes, and the assembled period operator is held to
# (restart + 1) * n entries.
_GMRES_RESTART = 80
# Restart cycles before power iteration takes over.  Convergent solves need
# one or two; more only help when ``tol / 100`` lies below what the kernel
# tolerance lets GMRES resolve, and there they stagnate.
_GMRES_CYCLES = 10


@dataclass
class StationaryResult:
    """Stationary distribution over the full state space, with diagnostics.

    Built by ``solve_stationary``.  ``chain`` is the reachable chain the
    solve ran on, ``gmres_matvecs`` and ``power_steps`` the period-operator
    applications of each kind it made, ``period_nnz`` the entries of the
    assembled period operator (None when the solve stepped vector by
    vector), and ``averaged`` the time-averaged law over one period that
    the statistics of this module read.
    """

    space: StateSpace
    pi: np.ndarray
    residual: float
    wall_time: float
    gmres_matvecs: int
    power_steps: int
    period_nnz: int | None
    chain: ReachableChain = field(repr=False)

    @property
    def iterations(self) -> int:
        """Period-operator applications, ``gmres_matvecs + power_steps``."""
        return self.gmres_matvecs + self.power_steps

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


def _gmres(apply, rhs: np.ndarray, start: np.ndarray, rtol: float,
           restart: int, cycles: int) -> np.ndarray:
    """Restarted GMRES for ``apply(x) = rhs`` from ``start``.

    Arnoldi by classical Gram-Schmidt applied twice, as matrix products;
    the residual tracked by Givens rotations on Python floats.  A cycle
    ends at ``rtol * |rhs|``, at a breakdown (an exhausted Krylov space)
    or after ``restart`` steps, and one least-squares solve updates ``x``.
    ``apply`` runs once per step, once per cycle and once at the start.
    """
    n = len(rhs)
    restart = min(restart, n)
    target = rtol * float(np.linalg.norm(rhs))
    eps = np.finfo(float).eps
    basis = np.empty((restart + 1, n))
    hess = np.zeros((restart + 1, restart))
    x = start.astype(float, copy=True)
    resid = rhs - apply(x)
    for _ in range(cycles):
        beta = float(np.linalg.norm(resid))
        if beta <= target:
            break
        basis[0] = resid / beta
        rotations = []
        g = beta
        k = 0
        while k < restart:
            w = apply(basis[k])
            before = float(np.linalg.norm(w))
            done = basis[: k + 1]
            h = done @ w
            w -= h @ done
            again = done @ w
            w -= again @ done
            h += again
            norm = float(np.linalg.norm(w))
            hess[: k + 1, k] = h
            hess[k + 1, k] = norm
            col = h.tolist() + [norm]
            for i, (c, s) in enumerate(rotations):
                a, b = col[i], col[i + 1]
                col[i], col[i + 1] = c * a + s * b, c * b - s * a
            r = math.hypot(col[k], col[k + 1])
            c, s = (col[k] / r, col[k + 1] / r) if r else (1.0, 0.0)
            rotations.append((c, s))
            g = -s * g
            k += 1
            if abs(g) <= target or norm <= eps * before:
                break
            basis[k] = w / norm
        e1 = np.zeros(k + 1)
        e1[0] = beta
        y = np.linalg.lstsq(hess[: k + 1, :k], e1, rcond=None)[0]
        x += y @ basis[:k]
        resid = rhs - apply(x)
    return x


def solve_stationary(space: StateSpace, tol: float = 1e-10) -> StationaryResult:
    """Stationary vector of the per-period operator, certified by power steps.

    One step propagates through the arrival generator for a full period and
    then applies the token grant.  Everything runs on the states reachable
    from the full-bucket idle state (``markov.reachable_chain``), which the
    dynamics never leave.  The period's exponential is uniformized once and,
    when it fits, assembled with the grant into one sparse matrix
    ``P^T = G^T exp(R t)^T``, so each step is one product.  It fits when
    ``n`` times the entries a column of ``exp(R t)`` can hold stays within
    the ``(restart + 1) * n`` floats of the Krylov basis.  Between grants
    the buffer only gains packets, so a target state is reached only from
    its own nonempty prefixes, at most one per queued packet and one per
    series jump, and from the ``bucket + 1`` idle states; a column never
    holds more than ``n`` entries either.  A chain past that bound steps
    with the uniformized kernel vector by vector instead (``period_nnz`` is
    then None).  ``_gmres`` solves the balance equations with the
    normalization added, ``x - P^T x + (1^T x) u = u`` for the uniform
    vector ``u``, from ``x = u`` to ``tol / 100`` relative to ``|u|``.  Its
    answer, clipped at zero and renormalized, starts power iteration,
    which stops at the first iterate that one step moves by at most
    ``tol`` in L1.  So ``residual`` is
    verified whatever GMRES reached, and power iteration finishes the job
    should GMRES fall short.  As no mass leaves the reachable set, that
    residual is the one of a step on the full space.  The answer is
    scattered into a full-length ``pi``, exactly zero on every other state.
    The exponential kernel runs to ``min(1e-12, tol / 10)``, and a chain
    that power iteration cannot settle raises ``ConvergenceError`` after
    ``stationary_power``'s default step budget.  A packet size above
    ``bucket + 1`` can never be paid for, so the chain has several
    absorbing laws and no single answer: such a space raises
    ``ValueError`` before anything is built.  The time average is left
    to the result, which integrates it on first use.
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
    kernel = uniformize(chain.rates, config.period, min(1e-12, tol / 10))
    n = len(chain.keep)
    uniform = np.full(n, 1.0 / n)
    matvecs = 0
    jumps = kernel.pieces * (len(kernel.point_weights) - 1)
    packets = config.buffer // min(space.traffic.sizes)
    per_column = min(packets, jumps) + config.bucket + 1
    if min(per_column, n) <= _GMRES_RESTART + 1:
        period_t = grant_t @ kernel.operator()
        period_nnz = period_t.nnz

        def step(vec: np.ndarray) -> np.ndarray:
            return period_t @ vec
    else:
        period_nnz = None

        def step(vec: np.ndarray) -> np.ndarray:
            return grant_t @ kernel.point(vec)

    def balance(vec: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return vec - step(vec) + vec.sum() * uniform

    kept = _gmres(balance, uniform, uniform, tol / 100,
                  _GMRES_RESTART, _GMRES_CYCLES)
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
