"""Stationary performance statistics of the token bucket filter.

The embedded chain observes the system immediately after each token grant.
It is solved on the states reachable from the full-bucket idle state, the
only ones carrying mass, as ``markov.reachable_chain`` builds it.  Its
stationary vector is integrated once through the solve's uniformization of
the arrival generator on the same states, giving the time-averaged law over
one replenishment period (``StationaryResult.averaged``).  The occupancy
table reads it at the kept states; every class statistic reads one mass per
buffer string, summed over token levels, as loss, backlog and delay depend
on the buffer content alone.  Because arrivals are Poisson, an arriving
packet sees exactly those time-averaged probabilities, so the blocking
probability of a size class is the time-averaged mass of the buffer strings
that cannot fit one more packet of that size.  Waiting times then follow
from the time-averaged per-class backlog and the accepted rate by Little's
law.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .oracle import PartitionedGenerator

from .statespace import StateSpace, reachable_indices
from .markov import (
    ReachableChain,
    SERIES_TOL,
    Uniformization,
    _DENSE_STATES,
    _fixed_length_law,
    _gth,
    expm_action,  # unused; perfbench's layer spans look it up here
    reachable_chain,
    reachable_period,
    stationary_power,
    uniformize,
)

__all__ = [
    "TOLERANCE_FLOOR",
    "StationaryResult",
    "solve_stationary",
    "net_to_backlog_distribution",
    "occupancy_table",
    "loss_ratio",
    "class_backlog",
    "ClassMetrics",
    "class_metrics",
]


# Smallest ``tol`` a solve accepts: at 1e-300 sizes (1, 2), M=3, L=12, rate 20
# stall at 2.2e-16 for a million power steps (24 s), but reach 1e-15 in 0.26 s
# (Python 3.11.7, 2-vCPU Xeon host).
TOLERANCE_FLOOR = 1e-15
# Most entries a column of the sparse period operator may hold for the solve
# to assemble it; past that it steps vector by vector.
_ENTRIES_PER_STATE = 81
# Products the iterative solve may make before power steps take over.
_MAX_MATVECS = 811


@dataclass
class StationaryResult:
    """Stationary distribution over the full state space, with diagnostics.

    Built by ``solve_stationary``.  ``chain`` is the reachable chain the
    solve ran on, ``kernel`` its period's uniformization, ``route`` the
    solver that gave the power steps their start (``"transfer"``, ``"gth"``
    or ``"bicgstab"``), ``solve_matvecs`` and ``power_steps`` the
    period-operator products of BiCGSTAB (0 on the other routes) and of the
    certifying power steps, ``period_nnz`` the nonzero entries of the
    assembled period operator (None when the solve stepped vector by
    vector), and ``averaged`` the time-averaged law over one period, which
    this module's statistics read at ``chain.keep`` alone.
    ``pi`` and ``averaged`` are the only full-length float arrays a run builds.
    """

    space: StateSpace
    pi: np.ndarray
    residual: float
    wall_time: float
    solve_matvecs: int
    power_steps: int
    period_nnz: int | None
    route: str
    chain: ReachableChain = field(repr=False)
    kernel: Uniformization = field(repr=False)

    @property
    def iterations(self) -> int:
        """Period-operator applications, ``solve_matvecs + power_steps``."""
        return self.solve_matvecs + self.power_steps

    @cached_property
    def averaged(self) -> np.ndarray:
        """Time-averaged probability of every state over one period.

        The stationary vector averaged through ``kernel``, the solve's own
        uniformization, on first use and kept read-only, then scattered to
        full length; states outside the chain stay at zero, as no mass
        reaches them.
        """
        keep = self.chain.keep
        out = np.zeros(self.space.n_states)
        out[keep] = self.kernel.average(self.pi[keep])
        out.flags.writeable = False
        return out

    def idle_distribution(self) -> np.ndarray:
        """Mass of the idle-buffer state at each token level."""
        return self.pi[self.space.empty_indices].copy()

    def level_queue(self, level: int) -> np.ndarray:
        """Mass of the occupied-buffer strings at one token level."""
        return self.pi[self.space.nonempty_slice(level)].copy()


def _bicgstab(apply, rhs: np.ndarray, start: np.ndarray, rtol: float,
              max_calls: int, precondition=np.asarray) -> tuple[np.ndarray, int]:
    """BiCGSTAB (van der Vorst 1992) for ``apply(x) = rhs`` from ``start``.

    Right-preconditioned: the recurrence runs on ``apply(precondition(.))``
    and ``x`` advances by ``precondition`` of its search direction and of
    its residual, so the residuals are those of ``apply(x) = rhs`` itself;
    the identity (the default) leaves the plain method.  A cycle ends when
    the recurrence's residual is within ``rtol * |rhs|`` or at a breakdown
    (``rho``, ``omega`` or the pivot zero).  The true residual then ends the
    solve or restarts the recurrence from itself.  Whenever the solve stops,
    at the target, at a true residual no smaller than the last or after
    ``max_calls`` applications of ``apply`` (two per step, one per true
    residual; ``precondition`` is not counted), it returns the iterate with
    the smallest true residual seen and the applications made.
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
            y = precondition(p)
            v = apply(y)
            calls += 1
            pivot = float(shadow @ v)
            if pivot == 0.0:
                break
            rho, alpha = rho_next, rho_next / pivot
            x += alpha * y
            r -= alpha * v
            if float(np.linalg.norm(r)) <= target:
                break
            z = precondition(r)
            t = apply(z)
            calls += 1
            # ``t @ t`` may underflow to 0 while ``t`` is not: a breakdown too
            tt = float(t @ t)
            omega = float(t @ r) / tt if tt else 0.0
            if omega == 0.0:
                break
            x += omega * z
            r -= omega * t
            if float(np.linalg.norm(r)) <= target:
                break
        r = rhs - apply(x)
        calls += 1
    return (x if norm < last else best), calls


def _grant_forest(chain: ReachableChain, period: float):
    """Right preconditioner ``(I + F)(I + F^2)`` of ``I - P^T``, in O(n).

    ``F``, the grant forest, holds in column ``i`` one entry, at row
    ``grant[i]``: ``stay[i] = exp(period * R[i, i])``, the chance that no
    arrival moves state ``i`` within a period.  Arrivals only append packets
    or spend tokens, raising the debt (backlog minus tokens), so a state
    left is not re-entered before the grant, which lowers the debt by one:
    that is exactly the one entry of column ``i`` of ``P^T`` on a row of
    lower debt.  The root, the full-bucket idle state and the grant's one
    fixed point, has none, so every path of ``F`` ends there, ``F`` is
    nilpotent and ``(I + F)(I + F^2)`` is the degree-3 Neumann polynomial of
    ``(I - F)^-1``; ``F^2`` holds one entry a column too, at
    ``grant[grant[i]]``.  The diagonal stays at one, not ``1 - P_ii``:
    states whose every arrival is lost have ``P_ii`` near 1, and dividing by
    it stalls BiCGSTAB on overloaded chains (sizes 1..4 at rates 200, 300).
    """
    grant = chain.grant
    n = len(grant)
    stay = np.exp(period * chain.rates.diagonal())
    stay[grant == np.arange(n)] = 0.0
    twice, stay_twice = grant[grant], stay * stay[grant]

    def precondition(vec: np.ndarray) -> np.ndarray:
        vec = vec + np.bincount(grant, stay * vec, n)
        return vec + np.bincount(twice, stay_twice * vec, n)

    return precondition


def _debt_order(space: StateSpace, chain: ReachableChain) -> np.ndarray:
    """The chain's positions by debt, backlog minus tokens, ties kept in
    place.  The full-bucket idle state alone has the least debt, so it
    comes first."""
    level, string = np.divmod(chain.keep, space.n_strings)
    return np.argsort(space.string_backlogs[string] - level, kind="stable")


def solve_stationary(space: StateSpace, tol: float = 1e-10) -> StationaryResult:
    """Stationary vector of the per-period operator, certified by power steps.

    A step propagates through the arrival generator for a period, then
    applies the token grant, on the states reachable from the full-bucket
    idle state (``markov.reachable_chain``).  The period's exponential is
    uniformized once, as ``kernel``, cut at ``min(SERIES_TOL, tol / 10)``,
    in the form the chain was built in.  Three routes give the power steps
    their start, named by ``route``.

    ``"transfer"``: traffic of one size of ``s`` tokens, at any rate,
    follows the periodic transfer chain of its coordinate ``backlog -
    tokens + bucket``, the debt plus the bucket, raised ``s`` by each
    packet that fits and lowered one by each grant.  The coordinate is
    one-to-one on the reachable states, as a waiting packet leaves fewer
    than ``s`` tokens banked.  Its law is read off the Poisson tails, cut
    where the kernel is, by ``markov._fixed_length_law`` at each kept
    state's coordinate, with no period operator and no elimination.  The
    steps that certify it run vector by vector, each entry of
    ``kernel.point`` added at its grant target (``period_nnz`` None), so
    the transfer law must pass the reachable chain's own step or be moved
    by it.

    A chain of two or more sizes has ``P^T = G^T exp(R t)^T`` built by
    ``markov.reachable_period``, each row of ``exp(R t)^T`` added at its
    grant target, to the bits of ``grant_t @ kernel.operator()``: a dense
    chain's whole, a sparse chain's when a column holds at most
    ``_ENTRIES_PER_STATE`` entries.  Between grants the buffer only gains
    packets, so a state is reached only from itself and its nonempty
    prefixes, one per series jump and per queued packet at most, and from
    idle states at most ``kernel.jumps * max(sizes)`` tokens above it.

    ``"gth"``: a dense ``P^T`` is permuted into debt order
    (``_debt_order``), the full-bucket idle state first, without
    renumbering the chain itself, and ``P`` is solved exactly by GTH
    elimination (``markov._gth``), rooted at that state, which every state
    returns to.  A period lowers the debt by at most one, so the
    elimination stays in a band.  The power steps run in debt order too.

    ``"bicgstab"``: BiCGSTAB solves a sparse chain's
    ``x - P^T x + (1^T x) u = u``, the balance equations with the
    normalization added for the uniform ``u``, from ``x = u`` to
    ``tol / 100`` relative to ``|u|`` in at most ``_MAX_MATVECS`` products,
    with the grant forest (``_grant_forest``) as right preconditioner:
    sizes 1..4 at M=8, L=12 take 49 products where the plain method took
    116, and at L=16 71 where it took 161.  A sparse chain past the entry
    bound steps vector by vector, as the transfer route does.

    Each start, clipped at zero and renormalized, begins power iteration,
    which stops at the first iterate that one step moves by at most ``tol``
    in L1, so ``residual`` is verified whatever the route reached; a chain
    it cannot settle raises ``ConvergenceError``.  No mass leaves the
    reachable set, so that is the residual of a step on the full space, and
    ``pi`` is exactly zero on every other state.  A packet size above
    ``bucket + 1`` is never paid for, leaving several absorbing laws: it
    raises ``ValueError`` before anything is built, as does a ``tol`` below
    ``TOLERANCE_FLOOR`` or NaN.  The reachable set is found once, and only
    a sparse chain loads scipy.sparse, both before ``wall_time`` starts.
    """
    if not tol >= TOLERANCE_FLOOR:
        raise ValueError(f"tol {tol!r} is below the floor {TOLERANCE_FLOOR:g}")
    config, traffic = space.config, space.traffic
    largest = max(traffic.sizes)
    if largest > config.bucket + 1:
        raise ValueError(
            f"largest size {largest} exceeds bucket + 1 = {config.bucket + 1}, "
            f"so it can never be paid for"
        )
    keep = reachable_indices(space)
    if len(keep) > _DENSE_STATES:
        import scipy.sparse  # noqa: F401  untimed: loaded before the clock
    began = time.perf_counter()
    chain = reachable_chain(space, keep)
    n = len(chain.keep)
    dense = isinstance(chain.rates, np.ndarray)
    series_tol = min(SERIES_TOL, tol / 10)
    kernel = uniformize(chain.rates, config.period, series_tol)
    labels, period_t, period_nnz = chain.keep, None, None
    route = "transfer" if len(traffic.sizes) == 1 else "gth" if dense else "bicgstab"
    if route != "transfer":
        jumps, packets = kernel.jumps, config.buffer // min(traffic.sizes)
        sources = min(packets, jumps + 1) + min(config.bucket, jumps * largest) + 1
        if dense or sources <= _ENTRIES_PER_STATE:
            period_t = reachable_period(space, chain, kernel)
            if dense:
                order = _debt_order(space, chain)
                labels, period_t = labels[order], period_t[np.ix_(order, order)]
            period_nnz = int(np.count_nonzero(period_t)) if dense else period_t.nnz

    def step(vec: np.ndarray) -> np.ndarray:
        if period_t is None:
            return np.bincount(chain.grant, kernel.point(vec), n)
        return period_t @ vec

    matvecs = 0
    if route == "transfer":
        level, string = np.divmod(chain.keep, space.n_strings)
        net = space.string_backlogs[string] - level + config.bucket
        mean = traffic.rate * config.period
        kept = _fixed_length_law(
            mean, config.buffer, config.bucket, md1=False, size=largest, tol=series_tol
        )[net]
    elif route == "gth":
        kept = _gth(period_t.T)
    else:
        uniform = np.full(n, 1.0 / n)
        kept, matvecs = _bicgstab(
            lambda vec: vec - step(vec) + vec.sum() * uniform,
            uniform, uniform, tol / 100, _MAX_MATVECS,
            _grant_forest(chain, config.period),
        )
    kept = np.clip(kept, 0.0, None)
    solve = stationary_power(step, n, kept / kept.sum(), tol)
    pi = np.zeros(space.n_states)
    pi[labels] = solve.pi
    elapsed = time.perf_counter() - began
    return StationaryResult(
        space, pi, solve.residual, elapsed, matvecs, solve.iterations,
        period_nnz, route, chain, kernel,
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


def _string_mass(result: StationaryResult) -> np.ndarray:
    """Time-averaged mass of each buffer string, summed over token levels."""
    keep, n_strings = result.chain.keep, result.space.n_strings
    return np.bincount(keep % n_strings, result.averaged[keep], n_strings)


def occupancy_table(
    result: StationaryResult, part: PartitionedGenerator | None = None
) -> np.ndarray:
    """Joint time-averaged distribution of (token level, backlog).

    Rows index token levels 0..bucket, columns backlog 0..buffer.  Read off
    ``result.averaged`` at the kept states; ``part`` is ignored.
    """
    space, keep = result.space, result.chain.keep
    shape = (space.config.bucket + 1, space.config.buffer + 1)
    level, string = np.divmod(keep, space.n_strings)
    cells = level * shape[1] + space.string_backlogs[string]
    return np.bincount(cells, result.averaged[keep], shape[0] * shape[1]).reshape(shape)


def loss_ratio(
    result: StationaryResult, part: PartitionedGenerator | None = None, size: int = 1
) -> float:
    """Stationary loss probability for packets of one size.

    A Poisson arrival samples the time-averaged state, so the loss ratio is
    the time-averaged mass of the buffer strings that lack room for the
    packet.  An idle buffer always has room because sizes never exceed the
    buffer.  ``part`` is ignored.
    """
    space = result.space
    if size not in space.traffic.sizes:
        raise ValueError(f"size {size} is not a traffic class")
    blocking = space.string_backlogs > space.config.buffer - size
    return float(_string_mass(result)[blocking].sum())


def class_backlog(
    result: StationaryResult, part: PartitionedGenerator | None = None, size: int = 1
) -> float:
    """Time-averaged number of queued packets of one size.

    Read off each buffer string's time-averaged mass; ``part`` is ignored.
    """
    space = result.space
    counts = space.string_class_counts[:, space.traffic.class_index(size)]
    return float(_string_mass(result) @ counts)


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

    All read off one time-averaged mass per buffer string, every class at
    once through a classes-by-strings room mask; ``part`` is ignored.  A
    class's throughput is ``rate * prob`` times its accepted mass, the mass
    of the strings with room for its size, summed directly: ``1 - loss``
    cancels where almost every packet is lost.  Its mean wait is None, as in
    ``oracle.waiting_time``, when there is no throughput, and also when the
    accepted mass is at most ``result.residual``, the least mass the solve
    certifies, as the wait would then be rounding noise.
    """
    space, traffic = result.space, result.space.traffic
    mass = _string_mass(result)
    free = space.config.buffer - space.string_backlogs
    room = free >= np.array(traffic.sizes)[:, None]
    accepted = np.where(room, mass, 0.0).sum(axis=1).tolist()
    lost = np.where(room, 0.0, mass).sum(axis=1).tolist()
    queued = [float(mass @ counts) for counts in space.string_class_counts.T]
    out = []
    rows = zip(traffic.sizes, traffic.probs, accepted, lost, queued)
    for size, prob, kept, loss, queue in rows:
        throughput = traffic.rate * prob * kept
        certified = throughput > 0.0 and kept > result.residual
        wait = queue / throughput if certified else None
        out.append(ClassMetrics(size, prob, loss, queue, wait, throughput))
    return out
