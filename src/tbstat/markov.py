"""Markov machinery for the token bucket filter.

Between token grants the variable-size filter is a continuous-time chain
driven by Poisson arrivals; each grant applies a deterministic jump.  This
module builds the pieces: the arrival rate matrix and the 0/1 replenishment
matrix, both read off the state space's transition table, and the same two
on the reachable states alone (``reachable_chain``, which relabels the
table onto ``reachable_indices`` and hands it to the same private
builders), small per-period chains for the unit-size filter, and a
partitioned form of the rate matrix that exploits the block structure of
the dynamics.
Matrix exponential actions use uniformization, with the generator
uniformized once per chain (``uniformize``).  Applied to one vector, each
series term is one product and an axpy; ``Uniformization.operator`` sums
the series once into a sparse matrix, and ``point`` of the identity gives
it densely, so the stationary solve applies the whole period as one
matrix.  ``stationary_power`` iterates a per-period operator to a verified
fixed point from a start index or a start vector, so the exact elimination
or iterative solve of ``analysis.solve_stationary`` can hand it a law to
certify; a dense linear solve is kept as an independent cross-check.

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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .statespace import StateSpace, reachable_indices
from .dynamics import md1_step, periodic_transfer_step

__all__ = [
    "ArrivalDistribution",
    "build_replenishment_matrix",
    "build_rate_matrix",
    "ReachableChain",
    "reachable_chain",
    "PartitionedGenerator",
    "build_partitioned_generator",
    "build_periodic_transfer_chain",
    "build_md1_chain",
    "Uniformization",
    "uniformize",
    "expm_action",
    "integrate_expm_action",
    "StationarySolve",
    "ConvergenceError",
    "stationary_power",
    "stationary_dense",
    "row_sum_defect",
]

GENERATOR_ROW_TOL = 1e-9

# Uniformization steps this many mean events at a time; larger horizons are
# split so the Poisson weights stay far from underflow.
_MAX_RATE_HORIZON = 128.0


@dataclass(frozen=True)
class ArrivalDistribution:
    """Truncated Poisson count distribution for arrivals in one period."""

    mean: float
    pmf: np.ndarray
    tail: float

    @classmethod
    def from_mean(cls, mean: float, tol: float = 1e-14) -> "ArrivalDistribution":
        if mean < 0 or not math.isfinite(mean):
            raise ValueError("mean arrival count must be finite and >= 0")
        if mean == 0:
            return cls(0.0, np.array([1.0]), 0.0)
        if math.exp(-mean) == 0.0:
            raise ValueError("mean arrival count too large for a dense pmf")
        terms = [math.exp(-mean)]
        cum = terms[0]
        k = 0
        cap = int(mean + 12 * math.sqrt(mean) + 60)
        while 1.0 - cum >= tol and k < cap:
            k += 1
            terms.append(terms[-1] * mean / k)
            cum += terms[-1]
        return cls(mean, np.array(terms), max(0.0, 1.0 - cum))


def build_replenishment_matrix(space: StateSpace) -> sp.csr_matrix:
    """Deterministic token-grant jump as a 0/1 stochastic matrix."""
    return _grant_matrix(space.transitions.grant)


def _grant_matrix(grant: np.ndarray) -> sp.csr_matrix:
    """``build_replenishment_matrix`` for any table of grant targets.

    ``grant[i]`` indexes the rows of the matrix itself, like the arrival
    table of ``_rate_matrix``.
    """
    import scipy.sparse as sp

    n = len(grant)
    return sp.csr_matrix((np.ones(n), (np.arange(n), grant)), shape=(n, n))


def build_rate_matrix(space: StateSpace) -> sp.csr_matrix:
    """Generator of the arrival process between token grants.

    Each traffic class moves a state to its arrival target at rate
    ``probability * rate``.  A dropped packet leaves the state unchanged and
    so contributes nothing.  Each diagonal entry balances its row, summing
    the class rates in class order, and no explicit zero is stored.
    """
    class_rates = space.traffic.rate * np.asarray(space.traffic.probs)
    return _rate_matrix(space.transitions.arrive, class_rates)


def _rate_matrix(arrive: np.ndarray, class_rates: np.ndarray) -> sp.csr_matrix:
    """``build_rate_matrix`` for any table of arrival targets.

    ``arrive[i, k]`` indexes the rows of the matrix itself, so a table
    relabelled onto a closed subset of states gives that subset's generator.
    """
    import scipy.sparse as sp

    n, n_classes = arrive.shape
    rows = np.repeat(np.arange(n), n_classes)
    cols = arrive.ravel()
    data = np.tile(class_rates, n)
    moves = cols != rows
    rows, data = rows[moves], data[moves]
    jumps = sp.csr_matrix((data, (rows, cols[moves])), shape=(n, n))
    # Sparse subtraction prunes zero results, so silent rows store nothing.
    return jumps - sp.diags(np.bincount(rows, weights=data, minlength=n), format="csr")


class ReachableChain(NamedTuple):
    """The per-period chain on the states reachable from the full bucket.

    ``keep`` lists their indices in the full space, ascending; ``rates`` is
    the arrival generator and ``grant_t`` the transposed grant map on them,
    both indexed by position in ``keep``.  ``rates`` is stored in CSC form,
    so the transpose the exponential kernels take is a CSR view of it.
    """

    keep: np.ndarray
    rates: sp.csc_matrix
    grant_t: sp.csr_matrix


def reachable_chain(space: StateSpace) -> ReachableChain:
    """Relabel the transition table onto ``reachable_indices`` and build on it.

    The reachable set is closed, so no transition leaves it, and every idle
    state in it moves at the full arrival rate, so the uniformization rate
    is that of the full space.
    """
    keep = reachable_indices(space)
    label = np.zeros(space.n_states, dtype=np.intp)
    label[keep] = np.arange(len(keep))
    table = space.transitions
    class_rates = space.traffic.rate * np.asarray(space.traffic.probs)
    rates = _rate_matrix(label[table.arrive[keep]], class_rates).tocsc()
    grant_t = _grant_matrix(label[table.grant[keep]]).T.tocsr()
    return ReachableChain(keep, rates, grant_t)


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


def _chain_from_step(
    step: Callable[[int, int], int], mean_arrivals: float, n_states: int
) -> np.ndarray:
    arr = ArrivalDistribution.from_mean(mean_arrivals)
    chain = np.zeros((n_states, n_states))
    saturating = n_states  # enough arrivals to pin the capped sum at its max
    for s in range(n_states):
        for a, p in enumerate(arr.pmf):
            chain[s, step(s, a)] += p
        chain[s, step(s, saturating)] += arr.tail
    return chain


def build_periodic_transfer_chain(
    mean_arrivals: float, buffer_cap: int, bucket: int
) -> np.ndarray:
    """Per-period chain of the unit-size filter's net coordinate."""
    n = buffer_cap + bucket + 1
    return _chain_from_step(
        lambda s, a: periodic_transfer_step(s, a, buffer_cap, bucket),
        mean_arrivals,
        n,
    )


def build_md1_chain(mean_arrivals: float, buffer_cap: int, bucket: int) -> np.ndarray:
    """Per-period chain of the finite M/D/1 contrast queue."""
    n = buffer_cap + bucket + 1
    return _chain_from_step(
        lambda s, a: md1_step(s, a, buffer_cap, bucket), mean_arrivals, n
    )


def row_sum_defect(mat) -> float:
    """Largest absolute row sum; zero for a conservative generator."""
    ones = np.ones(mat.shape[1])
    return float(np.abs(mat @ ones).max())


def _check_generator(gen) -> float:
    if gen.shape[0] != gen.shape[1]:
        raise ValueError("generator must be square")
    # a product with ones: sparse ``sum(axis=1)`` costs several matvecs
    sums = np.asarray(gen @ np.ones(gen.shape[1])).ravel()
    excess = float(sums.max()) if sums.size else 0.0
    if excess > GENERATOR_ROW_TOL:
        raise ValueError(
            f"generator rows must not create probability mass "
            f"(excess {excess:.3e})"
        )
    rate = float(np.abs(gen.diagonal()).max()) if gen.shape[0] else 0.0
    return rate


@dataclass(frozen=True)
class Uniformization:
    """exp(gen * t) and its time average over [0, t], made by ``uniformize``.

    ``step`` is ``I + gen^T / rate`` (CSR, or an ndarray for a dense
    generator; None when nothing moves) on ``dim`` states.  Each of
    ``pieces`` equal pieces sums the Poisson ``point_weights``, or the
    ``average_weights`` that integrate them over the piece, against the
    powers of ``step``.  ``point`` and ``average`` apply the series to one
    vector, a product with ``step`` per term; ``operator`` sums the point
    series once into a matrix, for callers that apply it many times.
    """

    step: object
    dim: int
    pieces: int
    point_weights: tuple[float, ...]
    average_weights: tuple[float, ...]

    def _series(self, vec: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
        acc = weights[0] * vec
        for w in weights[1:]:
            vec = self.step @ vec
            acc += w * vec
        return acc

    def point(self, vec: np.ndarray) -> np.ndarray:
        """The row vector ``vec @ exp(gen * t)``."""
        out = np.asarray(vec, dtype=float)
        for _ in range(self.pieces):
            out = self._series(out, self.point_weights)
        return out

    def average(self, vec: np.ndarray) -> np.ndarray:
        """``vec @ exp(gen * s)`` averaged over s in [0, t], piece by piece
        from the action at each piece's left end."""
        current = np.asarray(vec, dtype=float)
        acc = self._series(current, self.average_weights)
        for _ in range(1, self.pieces):
            current = self._series(current, self.point_weights)
            acc += self._series(current, self.average_weights)
        return acc / self.pieces

    def operator(self) -> sp.csr_matrix:
        """``exp(gen * t)^T`` as a CSR matrix ``K``, so ``K @ vec`` is
        ``point(vec)``.

        The point series is run on the identity, each power of ``step``
        dropped once it is summed, so column ``j`` is ``point`` of the
        ``j``-th basis vector.  The matrix stores an entry for every pair
        of states the series' jumps connect; callers bound that count
        before asking.
        """
        import scipy.sparse as sp

        if isinstance(self.step, np.ndarray):
            out = np.eye(self.dim)
        else:
            out = sp.identity(self.dim, format="csr")
        for _ in range(self.pieces):
            out = self._series(out, self.point_weights)
        return sp.csr_matrix(out)


def _poisson_weights(m: float, tol: float, average: bool) -> tuple[float, ...]:
    """One piece's series weights for ``m`` mean jumps, cut once the weight
    left is below ``tol`` or after ``m + 12 sqrt(m) + 60`` terms."""
    term = math.exp(-m)
    survival = 1.0 - term
    w = survival / m if average else term
    remaining = 1.0 - w if average else survival
    weights = [w]
    k = 0
    cap = int(m + 12 * math.sqrt(m) + 60)
    while remaining >= tol and k < cap:
        k += 1
        term = term * m / k
        survival -= term
        w = max(0.0, survival) / m if average else term
        weights.append(w)
        remaining -= w
    return tuple(weights)


def uniformize(gen, t: float, tol: float = 1e-12) -> Uniformization:
    """Prepare exp(gen * t) by uniformization, checking ``gen`` once.

    Rows of ``gen`` may sum to zero (mass-conserving) or to a negative
    value (leaky, as in a killed process), but never to a positive one
    beyond 1e-9.  Each piece's series is truncated at ``tol / pieces``.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    rate = _check_generator(gen)
    if rate == 0.0 or t == 0.0:
        return Uniformization(None, gen.shape[0], 1, (1.0,), (1.0,))
    if isinstance(gen, np.ndarray):
        step = np.eye(gen.shape[0]) + gen.T / rate
    else:
        import scipy.sparse as sp

        step = (gen.T / rate + sp.identity(gen.shape[0], format="csr")).tocsr()
    pieces = max(1, math.ceil(rate * t / _MAX_RATE_HORIZON))
    m = rate * (t / pieces)
    return Uniformization(
        step,
        gen.shape[0],
        pieces,
        _poisson_weights(m, tol / pieces, average=False),
        _poisson_weights(m, tol / pieces, average=True),
    )


def expm_action(gen, vec: np.ndarray, t: float, tol: float = 1e-12) -> np.ndarray:
    """Propagate a row vector through exp(gen * t) by uniformization.

    For a conserving generator the total mass of ``vec`` is preserved up to
    the truncation ``tol``.  Callers that apply one operator many times keep
    ``uniformize``'s result instead.
    """
    return uniformize(gen, t, tol).point(vec)


def integrate_expm_action(
    gen, vec: np.ndarray, horizon: float, tol: float = 1e-12
) -> np.ndarray:
    """Time average of ``vec @ exp(gen * s)`` for s in [0, horizon].

    The Poisson weights of uniformization integrate in closed form to scaled
    survival probabilities, so the average needs no quadrature grid.  Both
    series of each piece run to ``tol / 2`` over the piece count.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return uniformize(gen, horizon, tol / 2).average(vec)


class StationarySolve(NamedTuple):
    pi: np.ndarray
    iterations: int
    residual: float


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def stationary_power(
    step: Callable[[np.ndarray], np.ndarray],
    dim: int,
    start: int | np.ndarray = 0,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
) -> StationarySolve:
    """Fixed point of a stochastic map by power iteration.

    ``start`` is a state index (a point mass there) or a start vector of
    length ``dim``.  Returns the first iterate whose image moves it by at
    most ``tol`` in L1, along with the verified residual, so a start that is
    already a fixed point comes back after one verifying step.  Periodic
    chains never settle from a point mass: the residual stalls at a positive
    value until ``max_iters`` trips and a ConvergenceError carrying that
    residual is raised.  A step that yields a non-finite residual, as a NaN
    in the start or the step does, raises at once.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if isinstance(start, np.ndarray):
        if start.shape != (dim,):
            raise ValueError("start vector must have length dim")
        current = start.astype(float, copy=True)
    else:
        if not 0 <= start < dim:
            raise ValueError("start index outside state range")
        current = np.zeros(dim)
        current[start] = 1.0
    residual = math.inf
    for iteration in range(1, max_iters + 1):
        nxt = step(current)
        residual = float(np.abs(nxt - current).sum())
        if residual <= tol:
            return StationarySolve(current, iteration, residual)
        if not math.isfinite(residual):
            raise ConvergenceError(f"non-finite residual at step {iteration}",
                                   residual, iteration)
        current = nxt
    raise ConvergenceError(
        f"no fixed point within {max_iters} iterations "
        f"(residual {residual:.3e}, tol {tol:.1e})",
        residual=residual,
        iterations=max_iters,
    )


def stationary_dense(chain: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by direct linear solve.

    Cross-check for modest sizes; replaces one balance equation with the
    normalization constraint.
    """
    chain = np.asarray(chain, dtype=float)
    n = chain.shape[0]
    system = chain.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    return pi / pi.sum()
