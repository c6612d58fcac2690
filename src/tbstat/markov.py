"""Markov machinery for the token bucket filter.

Between token grants the variable-size filter is a continuous-time chain
driven by Poisson arrivals; each grant applies a deterministic jump.  This
module builds the pieces: the arrival generator and the grant targets on the
states reachable from the full-bucket idle state (``reachable_chain``, which
asks ``dynamics.var_rows`` for the rows of ``reachable_indices`` only), and
small per-period chains for the unit-size filter.  ``oracle`` builds the
same generator and grant over the full space, from the same entries.
Matrix exponential actions use uniformization, the generator uniformized
once per chain (``uniformize``) and each series summed by Horner's rule.
Where the stationary solve applies the whole period as one matrix,
``reachable_period`` builds it, dense or sparse, to the bits
of the grant applied to ``Uniformization.operator``: a dense chain runs the
series on the identity, a sparse one a series a free room and dense blocks
for the idle states, and ``_fold`` adds each row of a dense series at its
grant target.  ``stationary_power`` iterates a per-period operator to a
verified fixed point from a start index or a start vector, so the transfer
law, exact elimination or iterative solve of ``analysis.solve_stationary``
can hand it a law to certify.  ``_gth`` solves the dense reachable chain
exactly in debt order (backlog minus tokens), pivot by pivot on its
envelope (``_eliminate``).  A chain of one packet size falls one state a
period in debt order (skip-free to the left, Neuts 1989), as both
fixed-length chains do, so ``_fixed_length_law`` reads its cut equations
off the Poisson tails with no matrix; the built chains are its reference.
That law is the start of every one-size solve, at any rate, read at each
reachable state's debt plus the bucket, so only chains of two or more
sizes reach ``reachable_period`` and ``_gth``.  A dense linear solve is
kept as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .statespace import StateSpace, reachable_indices
from .dynamics import md1_steps, periodic_transfer_steps, var_rows

__all__ = [
    "ArrivalDistribution",
    "ReachableChain",
    "reachable_chain",
    "build_periodic_transfer_chain",
    "build_md1_chain",
    "Uniformization",
    "uniformize",
    "reachable_period",
    "expm_action",
    "integrate_expm_action",
    "StationarySolve",
    "ConvergenceError",
    "stationary_power",
    "stationary_dense",
    "row_sum_defect",
]

GENERATOR_ROW_TOL = 1e-9
# Poisson weight a series may leave out, the one truncation of every series.
SERIES_TOL = 1e-14

# Uniformization steps this many mean events at a time; larger horizons are
# split so the Poisson weights stay far from underflow.
_MAX_RATE_HORIZON = 128.0
# Most states a reachable chain holds densely, to be eliminated by GTH.  The
# preconditioned BiCGSTAB wins between 65 and 108 states: sizes 1 and 2 at
# load 0.99 solve by BiCGSTAB or GTH in 2.9 or 1.4 ms at 65 states (M=20
# L=6) and 3.2 or 5.0 ms at 131 (M=10 L=8), the reference chain (58 states)
# in 2.3 or 1.4 ms, and sizes 1..4 at rate 0.45 in 2.1 or 3.2 ms at 108 (M=4
# L=6) and 1.7 or 12.4 ms at 208 (M=5 L=7), most of GTH's time spent
# building the dense period; median of 11, Python 3.11 on a shared 2-vCPU
# Xeon host with BLAS on one thread.
_DENSE_STATES = 81


@dataclass(frozen=True)
class ArrivalDistribution:
    """Poisson arrival counts in one period, cut at ``tol``: ``pmf`` holds
    the weights of 0 to ``len(pmf) - 1`` arrivals, and ``tail`` the mass
    left, which the fixed-length chains count as ``len(pmf)`` arrivals."""

    mean: float
    pmf: np.ndarray
    tail: float

    @classmethod
    def from_mean(cls, mean: float, tol: float = SERIES_TOL) -> "ArrivalDistribution":
        if mean < 0 or not math.isfinite(mean):
            raise ValueError("mean arrival count must be finite and >= 0")
        if math.exp(-mean) == 0.0:
            raise ValueError("mean arrival count too large for a dense pmf")
        pmf = np.array(_poisson_weights(mean, tol, average=False))
        return cls(mean, pmf, max(0.0, 1.0 - pmf.sum()))


def _grant_matrix(grant: np.ndarray) -> sp.csr_matrix:
    """A table of grant targets as a 0/1 stochastic matrix.

    ``grant[i]`` indexes the rows of the matrix itself, like the arrival
    table of ``_rate_entries``.
    """
    import scipy.sparse as sp

    n = len(grant)
    return sp.csr_matrix((np.ones(n), (np.arange(n), grant)), shape=(n, n))


def _rate_entries(space: StateSpace, arrive: np.ndarray) -> tuple:
    """The arrival generator's nonzero entries, ``(data, (rows, cols))``,
    for any table of arrival targets: ``arrive[i, k]`` indexes the rows of
    the matrix itself, so a table relabelled onto a closed subset of states
    gives that subset's generator.  No two entries name one cell."""
    n, n_classes = arrive.shape
    rows = np.repeat(np.arange(n), n_classes)
    cols = arrive.ravel()
    data = np.tile(space.traffic.rate * np.asarray(space.traffic.probs), n)
    moves = cols != rows
    rows, cols, data = rows[moves], cols[moves], data[moves]
    data = np.r_[data, -np.bincount(rows, weights=data, minlength=n)]
    rows, cols = np.r_[rows, np.arange(n)], np.r_[cols, np.arange(n)]
    nonzero = data != 0
    return data[nonzero], (rows[nonzero], cols[nonzero])


class ReachableChain(NamedTuple):
    """The per-period chain on the states reachable from the full bucket.

    ``keep`` lists their indices in the full space, ascending; ``rates`` is
    the arrival generator on them and ``grant[i]`` the grant target of state
    ``i``, both indexed by position in ``keep``.  ``rates`` is a dense array
    on at most ``_DENSE_STATES`` states, else CSC, whose transpose the
    kernels take as a CSR view; every later stage reads it in that one form.
    ``grant_t``, the transposed grant map as CSR, is built when asked for.
    """

    keep: np.ndarray
    rates: np.ndarray | sp.csc_matrix
    grant: np.ndarray

    @property
    def grant_t(self) -> sp.csr_matrix:
        return _grant_matrix(self.grant).T.tocsr()


def reachable_chain(space: StateSpace, keep=None) -> ReachableChain:
    """Build the chain on ``keep``, ``reachable_indices`` unless given.

    ``dynamics.var_rows`` gives the states' targets, relabelled by position
    in ``keep``.  The set is closed, so no transition leaves it, and every
    idle state in it moves at the full arrival rate, so the uniformization
    rate is that of the full space.  A chain of at most ``_DENSE_STATES``
    states scatters its generator's entries into an array, a larger one hands
    them to one CSC constructor.
    """
    keep = reachable_indices(space) if keep is None else keep
    table = var_rows(space, keep)
    n = len(keep)
    where = np.empty(space.n_states, np.intp)
    where[keep] = np.arange(n)
    data, cells = _rate_entries(space, where[table.arrive])
    if n <= _DENSE_STATES:
        rates = np.zeros((n, n))
        rates[cells] = data
    else:
        import scipy.sparse as sp

        rates = sp.csc_matrix((data, cells), shape=(n, n))
    return ReachableChain(keep, rates, where[table.grant])


def _chain_from_step(
    steps: Callable[[np.ndarray, int], np.ndarray],
    mean_arrivals: float,
    n_states: int,
) -> np.ndarray:
    """The dense chain stepping each state by ``steps(states, arrivals)``,
    the cut's mass at ``len(pmf)`` arrivals, the first count past the cut."""
    arr = ArrivalDistribution.from_mean(mean_arrivals)
    # Fortran order, so each column GTH passes over is contiguous
    chain = np.zeros((n_states, n_states), order="F")
    states = np.arange(n_states)
    # one target per state and count, so no cell is named twice in one sum;
    # each cell adds its counts' weights in increasing order, then the tail
    for a, p in enumerate(arr.pmf):
        chain[states, steps(states, a)] += p
    chain[states, steps(states, len(arr.pmf))] += arr.tail
    return chain


def build_periodic_transfer_chain(
    mean_arrivals: float, buffer_cap: int, bucket: int
) -> np.ndarray:
    """Per-period chain of the unit-size filter's net coordinate."""
    n = buffer_cap + bucket + 1
    return _chain_from_step(
        lambda s, a: periodic_transfer_steps(s, a, buffer_cap, bucket),
        mean_arrivals,
        n,
    )


def build_md1_chain(mean_arrivals: float, buffer_cap: int, bucket: int) -> np.ndarray:
    """Per-period chain of the finite M/D/1 contrast queue."""
    n = buffer_cap + bucket + 1
    return _chain_from_step(
        lambda s, a: md1_steps(s, a, buffer_cap, bucket), mean_arrivals, n
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
    powers of ``step`` by Horner's rule, one accumulator multiplied by
    ``step`` per term, or once for all pieces of a dense ``step``.  ``point``
    and ``average`` apply the series to one vector; ``operator`` sums the
    point series once into a matrix, for callers that apply it many times.
    """

    step: object
    dim: int
    pieces: int
    point_weights: tuple[float, ...]
    average_weights: tuple[float, ...]

    @property
    def jumps(self) -> int:
        """Most jumps the series follows: pieces times the terms past the first."""
        return self.pieces * (len(self.point_weights) - 1)

    def _series(self, vec: np.ndarray, average: bool) -> np.ndarray:
        if self.pieces > 1 and isinstance(self.step, np.ndarray):
            return self._piece_matrices[average] @ vec
        weights = self.average_weights if average else self.point_weights
        acc = weights[-1] * vec
        for w in reversed(weights[:-1]):
            acc = self.step @ acc + w * vec
        return acc

    @cached_property
    def _piece_matrices(self) -> list[np.ndarray]:
        """Both series of a piece by Horner's rule on ``step - I``, the
        identity's share added once, capped at the 1 a cut Poisson law sums
        to at most: a state nothing leaves keeps its mass through every piece."""
        identity = np.eye(self.dim)
        moves = self.step - identity
        out = []
        for weights in (self.point_weights, self.average_weights):
            acc = np.zeros_like(moves)
            for rest in np.cumsum(weights[:0:-1]):  # the weights past each term
                acc = self.step @ acc + rest * moves
            out.append(min(1.0, math.fsum(weights)) * identity + acc)
        return out

    def point(self, vec: np.ndarray) -> np.ndarray:
        """The row vector ``vec @ exp(gen * t)``."""
        out = np.asarray(vec, dtype=float)
        for _ in range(self.pieces):
            out = self._series(out, False)
        return out

    def average(self, vec: np.ndarray) -> np.ndarray:
        """``vec @ exp(gen * s)`` averaged over s in [0, t], piece by piece
        from the action at each piece's left end."""
        current = np.asarray(vec, dtype=float)
        acc = self._series(current, True)
        for _ in range(1, self.pieces):
            current = self._series(current, False)
            acc += self._series(current, True)
        return acc / self.pieces

    def operator(self) -> sp.csr_matrix:
        """``exp(gen * t)^T`` as a CSR matrix ``K``, so ``K @ vec`` is
        ``point(vec)``, for any generator: the reference of
        ``reachable_period``.  The series runs on the identity, holding no
        power of ``step`` beside the sum, and stores an entry for every pair
        of states its jumps connect."""
        import scipy.sparse as sp

        dense = isinstance(self.step, np.ndarray)
        out = np.eye(self.dim) if dense else sp.identity(self.dim, format="csr")
        for _ in range(self.pieces):
            out = self._series(out, False)
        return sp.csr_matrix(out)


def reachable_period(
    space: StateSpace, chain: ReachableChain, kernel: Uniformization
) -> np.ndarray | sp.csr_matrix:
    """``chain.grant_t @ kernel.operator()``, ``P^T``, of any reachable chain
    to the same bits: an array for a dense chain, else CSR with each row's
    columns ascending.

    Column ``j`` of ``exp(R t)^T`` is ``point`` of the ``j``-th basis vector,
    each row added at its grant target by ``_fold``.  A dense chain runs the
    series on the identity, each piece summed once, and folds it whole.  In
    a sparse chain an occupied source's arrivals only append to its string,
    and whether one fits depends on the free room ``buffer - backlog``
    alone; its extensions are the block of positions after it, so the
    column is the same for every source with the same room, shifted.  One
    source a room runs the series in pull form over the states its jumps
    reach: each has one predecessor, its prefix, and a term is ``p *
    acc[prefix] + d * acc + w * vec``, ``p`` and ``d`` the step's entries.
    They keep the source's level and head, so no two share a grant target.
    Idle sources run it as a dense block: below ``jumps * max(sizes)`` tokens
    over the whole chain, above it over the idle states, whose rows read no
    others and whose grants stay idle, each block folded whole.
    """
    n, grant = len(chain.keep), chain.grant
    if isinstance(chain.rates, np.ndarray):
        return _fold(kernel.point(np.eye(n)), grant).T
    import scipy.sparse as sp

    step = kernel.step
    if step is None:
        return chain.grant_t
    level, string = np.divmod(chain.keep, space.n_strings)
    idle, occupied = np.flatnonzero(string == 0), np.flatnonzero(string)

    # one root a room and the states its series' jumps reach, each with its
    # prefix's node; a root's is -1, the last node, which stays 0
    room = space.config.buffer - space.string_backlogs[string[occupied]]
    _, first, which = np.unique(room, return_index=True, return_inverse=True)
    roots = occupied[first]
    # how far after a string its child by each size sits, 0 past the buffer
    grow = space.string_appends - np.arange(space.n_strings)[:, None]
    at, up, tree = [roots], [np.full(len(roots), -1)], [np.arange(len(roots))]
    for _ in range(kernel.jumps):
        shift = grow[string[at[-1]]]
        parent, k = np.nonzero(shift)
        if not len(parent):
            break
        up.append(parent + sum(map(len, at[:-1])))
        at.append(at[-1][parent] + shift[parent, k])
        tree.append(tree[-1][parent])
    at, slot, tree = (np.concatenate(a) for a in (at, up + [[-1]], tree))
    # the step's entries each node reads: its prefix's, and its own
    p = np.append(np.asarray(step[at, at[slot[:-1]]]).ravel(), 0.0)
    d = np.append(step.diagonal()[at], 0.0)
    vec = _basis_point(
        kernel, lambda acc: p * acc[slot] + d * acc, len(at) + 1, np.arange(len(roots))
    )

    # each room's nonzeros, grouped by room, as offsets from its root
    hit = np.flatnonzero(vec[:-1])
    hit = hit[np.argsort(tree[hit], kind="stable")]
    per_room = np.bincount(tree[hit], minlength=len(roots))
    room_start = np.cumsum(per_room) - per_room
    offset, value = (at[hit] - roots[tree[hit]]).astype(np.int32), vec[hit]
    counts = np.zeros(n, np.intp)
    counts[occupied] = per_room[which]

    # idle sources: below ``jumps * max(sizes)`` tokens over the whole chain,
    # above it over the idle rows, which read no other rows
    low = level[idle] < kernel.jumps * max(space.traffic.sizes)
    blocks = []
    for kept, within in ((low, np.arange(n)), (~low, idle)):
        sources = idle[kept]
        if not len(sources):
            continue
        full, m = len(within) == n, len(sources)
        sub = step if full else step[within][:, within]
        target = grant if full else np.searchsorted(within, grant[within])
        cells = (np.searchsorted(within, sources), np.arange(m))
        out = _basis_point(kernel, lambda acc: sub @ acc, (len(within), m), cells)
        out = _fold(out, target)
        nonzero = out != 0
        blocks.append((sources, within, out, nonzero))
        counts[sources] = nonzero.sum(axis=1)

    # the columns end to end, as CSC, each kind written through a mask of its
    # columns' entries; what is written is dropped before the one CSR copy
    indptr = np.append(0, np.cumsum(counts))
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])

    def entries_of(columns: np.ndarray) -> np.ndarray:
        mask = np.zeros(n, bool)
        mask[columns] = True
        return np.repeat(mask, counts)

    while blocks:
        sources, within, out, nonzero = blocks.pop()
        mine = entries_of(sources)
        indices[mine] = np.broadcast_to(within.astype(np.int32), nonzero.shape)[nonzero]
        data[mine] = out[nonzero]
    del out, nonzero
    # an occupied source's entries are its room's, each taken from the room's
    # run of nonzeros, shifted by the source's position and granted
    lengths = counts[occupied]
    take = np.repeat(
        (room_start[which] - np.cumsum(lengths) + lengths).astype(np.int32), lengths
    )
    take += np.arange(len(take), dtype=np.int32)
    mine = entries_of(occupied)
    data[mine] = value[take]
    take = offset[take]
    take += np.repeat(occupied.astype(np.int32), lengths)
    indices[mine] = grant[take]
    del mine, take
    return sp.csc_matrix((data, indices, indptr), shape=(n, n)).tocsr()


def _fold(columns: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The rows of ``columns`` added at their ``target`` rows, transposed:
    row ``j`` of the result is column ``j`` folded.  One ``bincount`` over
    (column, target) adds each target's rows in ascending order, as
    ``grant_t @`` does, to the same bits."""
    rows, m = columns.shape
    key = np.arange(m) * rows + target[:, None]
    return np.bincount(key.ravel(), columns.ravel(), columns.size).reshape(m, -1)


def _basis_point(kernel: Uniformization, apply, shape, cells) -> np.ndarray:
    """``kernel.point`` of the unit vectors at ``cells`` of a zero array of
    ``shape``, ``apply(acc)`` standing for ``kernel.step @ acc``.

    Each Horner term is ``apply(acc) + w * vec``, summed in that order; in
    the first piece ``vec`` is the basis, so ``w`` is added at its cells alone.
    """
    out = np.zeros(shape)
    out[cells] = 1.0
    for piece in range(kernel.pieces):
        vec, acc = out, kernel.point_weights[-1] * out
        for w in reversed(kernel.point_weights[:-1]):
            acc = apply(acc)
            if piece:
                acc += w * vec
            else:
                acc[cells] += w
        out = acc
    return out


def _poisson_weights(m: float, tol: float, average: bool) -> tuple[float, ...]:
    """One piece's series weights for ``m`` mean jumps, cut once the weight
    left is below ``tol`` or after ``m + 12 sqrt(m) + 60`` terms.

    A subnormal ``exp(-m)`` would carry its lost digits through every term
    of the recurrence, so there the terms run from ``exp(-m / 2)`` and each
    is scaled back by ``exp(-m / 2)``; elsewhere the scale is 1.
    """
    shift = m / 2 if math.exp(-m) < np.finfo(float).tiny else 0.0
    term, scale = math.exp(shift - m), math.exp(-shift)
    # ``1 - exp(-m)`` cancels for small m and the average's first weight,
    # survival / m, magnifies the error: that series starts from expm1
    survival = -math.expm1(-m) if average else 1.0 - term * scale
    w = survival / m if average else term * scale
    remaining = 1.0 - w if average else survival
    weights = [w]
    k = 0
    cap = int(m + 12 * math.sqrt(m) + 60)
    while remaining >= tol and k < cap:
        k += 1
        term = term * m / k
        survival -= term * scale
        w = max(0.0, survival) / m if average else term * scale
        weights.append(w)
        remaining -= w
    return tuple(weights)


def uniformize(gen, t: float, tol: float = SERIES_TOL) -> Uniformization:
    """Prepare exp(gen * t) by uniformization, checking ``gen`` once.

    Rows of ``gen`` may sum to zero (mass-conserving) or to a negative
    value (leaky, as in a killed process), but never to a positive one
    beyond 1e-9.  Each piece's series is truncated at ``tol / pieces``.
    When no jump is expected, ``rate * t`` zero or underflowing to zero, the
    kernel is the identity.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    rate = _check_generator(gen)
    if rate == 0.0 or rate * t == 0.0:
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


def expm_action(gen, vec: np.ndarray, t: float) -> np.ndarray:
    """Propagate a row vector through exp(gen * t) by uniformization.

    For a conserving generator the total mass of ``vec`` is preserved up to
    the truncation at ``SERIES_TOL``.  Callers that apply one operator many
    times keep ``uniformize``'s result instead.
    """
    return uniformize(gen, t).point(vec)


def integrate_expm_action(gen, vec: np.ndarray, horizon: float) -> np.ndarray:
    """Time average of ``vec @ exp(gen * s)`` for s in [0, horizon].

    The Poisson weights of uniformization integrate in closed form to scaled
    survival probabilities, so the average needs no quadrature grid.  Both
    series of each piece run to ``SERIES_TOL`` over the piece count.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return uniformize(gen, horizon).average(vec)


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


def _envelope(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each pivot's column and row of GTH elimination start.

    ``rows[k]`` bounds the first nonzero above the diagonal of column ``k``,
    ``cols[k]`` the first left of it in row ``k``.  Both are suffix minima
    of the first nonzeros, so the rank-1 update of pivot ``k`` fills only
    cells within the envelopes of the pivots still to eliminate, those
    before it.
    """
    n = a.shape[0]
    mask = a != 0
    first_col = np.where(mask.any(axis=1), mask.argmax(axis=1), n)
    first_row = np.where(mask.any(axis=0), mask.argmax(axis=0), n)
    diagonal = np.arange(n)
    rows = np.minimum.accumulate(np.minimum(first_row, diagonal)[::-1])[::-1]
    cols = np.minimum.accumulate(np.minimum(first_col, diagonal)[::-1])[::-1]
    return rows, cols


def _gth(chain: np.ndarray, root: int = 0) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by GTH elimination
    (Grassmann, Taksar & Heyman 1985), ``root`` eliminated last.

    Each censored row's exit mass is summed, exactly rounded, from its
    entries toward the states left, so no step subtracts, and none vanishes
    when every state reaches ``root``.  One below the smallest normal float
    means the floats lost the way back: elimination stops there and the
    states left get no mass.  Each pivot's division and rank-1 update run on
    its envelope (``_envelope``): rows from each column's first nonzero,
    columns from each row's, so only exact zeros are skipped
    (``_eliminate``).  Back substitution reads each column from its first
    nonzero and rescales past ``_rescale_limit`` of n times the largest
    entry, so masses spanning more than the float range do not overflow.
    """
    n = chain.shape[0]
    order = np.r_[root, np.delete(np.arange(n), root)]
    a = chain[np.ix_(order, order)] if root else chain.copy(order="K")
    rows, cols = (starts.tolist() for starts in _envelope(a))
    last = _eliminate(a, rows, cols)
    limit = _rescale_limit(n * float(a.max()))
    pi = np.zeros(n)
    pi[last] = 1.0
    for k in range(last + 1, n):
        r = rows[k]
        pi[k] = np.dot(pi[r:k], a[r:k, k])
        if pi[k] > limit:
            pi[: k + 1] /= pi[k]
    out = np.empty(n)
    out[order] = pi / pi.sum()
    return out


def _rescale_limit(most: float) -> float:
    """Where back substitution rescales: 2**1000 over ``most``, the most a
    dot adds per unit of the largest mass, so no dot overflows; at least 1."""
    return max(1.0, 2.0**1000 / most)


def _eliminate(a: np.ndarray, rows: list, cols: list) -> int:
    """GTH's elimination of ``a`` in place, pivot by pivot from the last,
    each pivot's work cut to its envelope.  In an order where the chain falls
    at most a few states a step, a row starts that far left of the diagonal
    and elimination costs O(n^2), not O(n^3).  Returns the pivot it stopped
    at, 0 when every pivot was eliminated."""
    tiny = np.finfo(float).tiny
    for k in range(len(a) - 1, 0, -1):
        r, c = rows[k], cols[k]
        row = a[k, c:k]
        leave = math.fsum(row)
        if leave < tiny:
            return k
        col = a[r:k, k]
        col /= leave
        a[r:k, c:k] += col[:, None] * row
    return 0


def _fixed_length_law(
    mean_arrivals: float,
    buffer_cap: int,
    bucket: int,
    md1: bool,
    size: int = 1,
    tol: float = SERIES_TOL,
) -> np.ndarray:
    """``_gth`` of ``build_md1_chain`` if ``md1``, else of the transfer
    chain of packets of ``size`` tokens (``build_periodic_transfer_chain``
    at size 1), its Poisson weights cut at ``tol``, in O(n) memory.  The
    coordinate, the debt plus the bucket, rises ``size`` a packet that fits
    and falls one a period, so GTH reduces to the cut equations (Neuts
    1989): ``pi[k]`` times the fall from ``k`` is the sum over ``i < k`` of
    ``pi[i] T(ceil((k + 1 - i) / size))``, ``T(m)`` the weight of ``m`` or
    more arrivals, and each column is a slice of one array of tails, which
    ends in zeros: ``T`` is 0 past the cut's mass, at ``K = len(pmf)``
    arrivals, so the work is O(n K size).  The fall is ``p0``, the weight
    of no arrival, up to ``top - size``, where elimination stops if ``p0``
    is subnormal, and the rows above read only ``T(1) = 1 - p0``, 1 in
    floats, so no pmf is formed; there no packet fits, the fall is certain
    and a row crosses only if its room holds the rise.  M/D/1's idle row
    reads ``T(k)``; only it reaches the top state, whose exit is ``T(0)``.
    Back substitution runs as ``_gth``'s, a dot adding at most the tails'
    sum over ``p0``, each dot and rescale from the first mass not yet
    underflowed to 0: at high load every step rescales, and the masses it
    leaves behind vanish.
    """
    top, p0 = bucket + buffer_cap // size * size, math.exp(-mean_arrivals)
    fits = top - size  # the last state a packet fits in: it falls only with none
    if p0 < np.finfo(float).tiny:
        last, tails = max(fits, 0), np.ones(top + 1)
    else:
        arr = ArrivalDistribution.from_mean(mean_arrivals, tol)
        # T(m) summed up from the cut's mass at K arrivals, then 0 at K + 1
        cut = np.cumsum(np.r_[0.0, arr.tail, arr.pmf[::-1]])[::-1]
        # tails[j] = T(ceil((top - j) / size)), the packets a rise of top - j needs
        last, tails = 0, cut[np.minimum(-(np.arange(-top, 1) // size), len(cut) - 1)]
    zeros = int(np.count_nonzero(tails == 0))  # T is nonincreasing
    limit = _rescale_limit(float(tails.sum()) / (p0 if last < fits else 1.0))
    pi = np.zeros(top + 1)
    pi[last] = 1.0
    first = last  # the first mass not underflowed to 0
    # column k's row i at [top - k - 1 + i]; a subnormal p0 divides nothing
    col = tails[:top] / p0 if last < fits else None
    for k in range(last + 1, top):
        at = top - k - 1
        if k <= fits:
            r = zeros - at if zeros - at > md1 else 0  # the first nonzero row
            r = max(r, first)
            if md1:  # the idle row reads T(k), the entry after its own
                held, col[at] = col[at], col[at + 1]
            pi[k] = np.dot(pi[r:k], col[at + r : top - 1])
            if md1:
                col[at] = held
        else:  # row i crosses if its room, (top - i) // size packets, holds the rise
            cross = (top - np.arange(first, k)) % size <= at
            pi[k] = np.dot(pi[first:k][cross], tails[at + first : at + k][cross])
        if pi[k] > limit:
            pi[first : k + 1] /= pi[k]
            while pi[first] == 0.0:
                first += 1
    if md1 and top:  # T(k) <= T(0), so no larger than pi[0]
        pi[top] = pi[0] * (tails[0] / tails[top])
    return pi / pi.sum()


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
