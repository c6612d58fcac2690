"""State space of a token bucket filter with variable-size packets.

The filter grants one token per replenishment period into a bucket holding at
most ``bucket`` tokens, and queues packets in a FCFS ingress buffer holding at
most ``buffer`` token units.  A system state pairs the current token count
with the string of packet sizes waiting in the buffer; the empty string means
an idle buffer.  This module enumerates, counts and indexes those states,
and names the ones reachable from a full, idle bucket.

The per-string arrays the chain needs (head, tail, append targets, backlog,
class counts) come from the counting recursion in numpy, with no string
built; the strings themselves are enumerated only when a caller asks for
them by value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "TrafficSpec",
    "FilterConfig",
    "SystemState",
    "enumerate_strings",
    "count_strings",
    "count_by_total",
    "cardinality_bound",
    "backlog",
    "class_count",
    "Transitions",
    "StateSpace",
    "build_state_space",
    "reachable_indices",
]

PROB_TOL = 1e-12


class SystemState(NamedTuple):
    """Token count plus the buffered packet sizes, head of the queue first."""

    tokens: int
    buffer: tuple[int, ...]


@dataclass(frozen=True)
class TrafficSpec:
    """Compound Poisson packet flow: rate, admissible sizes and their mix.

    ``sizes`` lists the packet sizes (token units, strictly increasing) and
    ``probs`` the probability of each size for an arriving packet.  ``rate``
    is the Poisson arrival intensity; zero is allowed and models a silenced
    source.
    """

    sizes: tuple[int, ...]
    probs: tuple[float, ...]
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.sizes:
            raise ValueError("traffic needs at least one packet size")
        if any(s < 1 for s in self.sizes):
            raise ValueError("packet sizes must be positive integers")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("packet sizes must be strictly increasing")
        if len(self.probs) != len(self.sizes):
            raise ValueError("probs must match sizes in length")
        # written so that a NaN fails them
        if not all(p > 0 for p in self.probs):
            raise ValueError("size probabilities must be positive")
        if not abs(sum(self.probs) - 1.0) <= PROB_TOL:
            raise ValueError("size probabilities must sum to 1 within 1e-12")
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise ValueError("arrival rate must be finite and non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    @property
    def mean_size(self) -> float:
        return sum(s * p for s, p in zip(self.sizes, self.probs))

    def class_index(self, size: int) -> int:
        try:
            return self.sizes.index(size)
        except ValueError:
            raise ValueError(f"size {size} is not a traffic class") from None


@dataclass(frozen=True)
class FilterConfig:
    """Filter geometry: bucket capacity, buffer capacity, token period.

    A zero-capacity bucket is permitted; it models a filter that can never
    bank a token, so every packet has to queue.
    """

    bucket: int
    buffer: int
    period: float

    def __post_init__(self) -> None:
        if self.bucket < 0:
            raise ValueError("bucket capacity must be >= 0")
        if self.buffer < 1:
            raise ValueError("buffer capacity must be >= 1")
        # a subnormal period's simulated segments underflow to zero length
        if not sys.float_info.min <= self.period < math.inf:
            raise ValueError("replenishment period must be normal, positive and finite")


def _normalized_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(int(s) for s in sizes)))
    if not out:
        raise ValueError("alphabet of packet sizes must be nonempty")
    if out[0] < 1:
        raise ValueError("packet sizes must be positive integers")
    return out


def enumerate_strings(sizes: Iterable[int], limit: int) -> list[tuple[int, ...]]:
    """All buffer strings over ``sizes`` with total size at most ``limit``.

    Returned in lexicographic order: the empty string first, every prefix
    before its extensions, symbols compared numerically.
    """
    alphabet = _normalized_sizes(sizes)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out: list[tuple[int, ...]] = []
    # Depth-first, children pushed largest first so the smallest pops next.
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        prefix, total = stack.pop()
        out.append(prefix)
        for s in reversed(alphabet):
            if total + s <= limit:
                stack.append((prefix + (s,), total + s))
    return out


def count_by_total(sizes: Iterable[int], limit: int) -> list[int]:
    """Number of buffer strings of each exact total size 0..``limit``.

    One empty string, and every string of total n ends in some size s,
    leaving a string of total n - s.
    """
    alphabet = _normalized_sizes(sizes)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    per_total = [0] * (limit + 1)
    per_total[0] = 1
    for n in range(1, limit + 1):
        per_total[n] = sum(per_total[n - s] for s in alphabet if s <= n)
    return per_total


def count_strings(sizes: Iterable[int], limit: int) -> int:
    """Number of buffer strings with total size at most ``limit``."""
    return sum(count_by_total(sizes, limit))


def _string_tables(sizes: tuple[int, ...], limit: int) -> tuple[np.ndarray, ...]:
    """Per-string arrays over ``enumerate_strings(sizes, limit)``, in its order.

    Returns each string's head size (0 for the empty string), the index of
    its tail (the string after the head leaves; 0 for the empty string), the
    index of the string it becomes when each size is appended (itself when
    that size does not fit), its backlog, and its count of each size.
    ``sizes`` must be strictly increasing.

    The sequence construction (Flajolet & Sedgewick, *Analytic
    Combinatorics*, I.3) orders the strings of total at most r as the empty
    string and then, size by size, s followed by each string of total at
    most r - s.  So the class counts at r concatenate those at r - s, each
    shifted by the unit vector of s; the head is constant on each block.
    The strings of total at most r - s are exactly the strings of backlog at
    most r - s, in the same order, which locates each tail.  A string's
    extensions follow it, the subtree of each smaller appended size first.
    """
    size, largest = np.array(sizes), sizes[-1]
    shifts = list(zip(sizes, np.eye(len(sizes), dtype=np.intp)))
    empty = np.zeros((1, len(sizes)), np.intp)
    # counts[r]: class counts of the strings of total at most r, kept while a
    # larger r needs them; within[largest + r]: how many, 0 for r < 0
    counts = {0: empty}
    within = [0] * largest + [1]
    for r in range(1, limit + 1):
        counts[r] = np.concatenate(
            [empty] + [counts[r - s] + e for s, e in shifts if s <= r]
        )
        counts.pop(r - largest, None)
        within.append(len(counts[r]))
    class_counts = counts[limit]
    backlogs = class_counts @ size
    within = np.array(within)

    fit = size[size <= limit]
    heads = np.repeat(
        np.concatenate([[0], fit]), np.concatenate([[1], within[limit - fit + largest]])
    )
    tails = np.concatenate(
        [np.zeros(1, np.intp)] + [np.flatnonzero(backlogs <= limit - s) for s in fit]
    )
    # skip[m, k]: strings in the subtrees of the sizes below the k-th when m
    # token units are free, the sum of within[m - s] over those sizes
    below = within[np.arange(limit + 1)[:, None] - size + largest]
    skip = np.cumsum(below, axis=1) - below
    room = limit - backlogs
    string = np.arange(len(backlogs))[:, None]
    appends = np.where(room[:, None] >= size, string + 1 + skip[room], string)
    return heads, tails, appends, backlogs, class_counts


def cardinality_bound(sizes: Iterable[int], limit: int) -> float:
    """Geometric growth estimate for the string count: |sizes|**(limit/min).

    An estimate of scale, not a bound: the count can exceed it.  A singleton
    alphabet gets 1.0 although it has ``limit // size + 1`` strings, and
    sizes (2, 3) at limit 5 get 5.66 for 6 strings.  It does dominate the
    count for sizes 1..4 and 3..6 at limits 3..10.
    """
    alphabet = _normalized_sizes(sizes)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return float(len(alphabet)) ** (limit / alphabet[0])


def backlog(buf: tuple[int, ...]) -> int:
    """Token units held in the buffer: the sum of queued packet sizes."""
    return sum(buf)


def class_count(size: int, buf: tuple[int, ...]) -> int:
    """How many queued packets have the given size."""
    return buf.count(size)


class Transitions(NamedTuple):
    """Where each state goes under each move of the dynamics, by index.

    ``arrive[i, k]`` is the state after a packet of the k-th traffic size
    reaches state ``i`` (``i`` itself when the packet is dropped), and
    ``grant[i]`` the state after one token grant.
    """

    arrive: np.ndarray
    grant: np.ndarray


class StateSpace:
    """Indexed product of token levels and buffer strings.

    States are ordered level-major: all strings at token level 0, then level
    1, and so on; within a level the strings sit in lexicographic order with
    the empty string first.  The index of ``(T, z)`` is ``T * n_strings +
    string_index[z]``, so each level occupies one contiguous slice whose
    first entry is the idle-buffer state for that level.

    The per-string arrays, indexed like ``strings``, are built at once by
    the counting recursion without forming a string: ``string_heads`` (head
    size, 0 for the empty string), ``string_tails`` (index of the string
    after the head leaves), ``string_appends`` (``[j, k]``: index after a
    packet of the k-th size joins string j, j itself when it does not fit),
    ``string_backlogs`` and ``string_class_counts`` (``[j, k]``: packets of
    the k-th size in string j).  The chain and its statistics read only
    these.  ``strings`` and ``string_index`` are enumerated on first use,
    by ``index_of``, ``state_at`` and ``states``.
    """

    def __init__(self, traffic: TrafficSpec, config: FilterConfig):
        if max(traffic.sizes) > config.buffer:
            raise ValueError(
                f"largest packet size {max(traffic.sizes)} exceeds buffer "
                f"capacity {config.buffer}"
            )
        self.traffic = traffic
        self.config = config
        (
            self.string_heads,
            self.string_tails,
            self.string_appends,
            self.string_backlogs,
            self.string_class_counts,
        ) = _string_tables(traffic.sizes, config.buffer)
        self.n_strings = len(self.string_heads)
        self.n_states = (config.bucket + 1) * self.n_strings

    @cached_property
    def strings(self) -> tuple[tuple[int, ...], ...]:
        """Every buffer string, in index order."""
        return tuple(enumerate_strings(self.traffic.sizes, self.config.buffer))

    @cached_property
    def string_index(self) -> dict[tuple[int, ...], int]:
        """Index of each buffer string, the inverse of ``strings``."""
        return {z: j for j, z in enumerate(self.strings)}

    def index_of(self, state: SystemState) -> int:
        if not 0 <= state.tokens <= self.config.bucket:
            raise KeyError(f"token level {state.tokens} outside bucket range")
        try:
            j = self.string_index[state.buffer]
        except KeyError:
            raise KeyError(f"buffer {state.buffer} not in state space") from None
        return state.tokens * self.n_strings + j

    def state_at(self, index: int) -> SystemState:
        if not 0 <= index < self.n_states:
            raise IndexError(index)
        level, j = divmod(index, self.n_strings)
        return SystemState(level, self.strings[j])

    @cached_property
    def states(self) -> list[SystemState]:
        return [self.state_at(i) for i in range(self.n_states)]

    @cached_property
    def transitions(self) -> Transitions:
        """The arrival and grant rules of ``dynamics``, tabulated once.

        Filled by ``dynamics.var_table``, the rules' array form read off
        the per-string arrays, so the rules themselves are stated only in
        ``dynamics``.  The full-space matrices derive from this table; the
        reachable chain and ``reachable_indices`` do not need it.
        """
        from .dynamics import var_table  # dynamics imports us

        return var_table(self)

    def level_slice(self, level: int) -> slice:
        """All states at one token level, idle-buffer state first."""
        if not 0 <= level <= self.config.bucket:
            raise IndexError(level)
        return slice(level * self.n_strings, (level + 1) * self.n_strings)

    def nonempty_slice(self, level: int) -> slice:
        """The occupied-buffer states of one token level."""
        if not 0 <= level <= self.config.bucket:
            raise IndexError(level)
        return slice(level * self.n_strings + 1, (level + 1) * self.n_strings)

    @cached_property
    def empty_indices(self) -> np.ndarray:
        """Indices of the idle-buffer state at each token level."""
        levels = np.arange(self.config.bucket + 1)
        return levels * self.n_strings

    @cached_property
    def token_of_state(self) -> np.ndarray:
        """Token level of every state, a per-state helper no run builds."""
        return np.repeat(np.arange(self.config.bucket + 1), self.n_strings)

    @cached_property
    def backlog_of_state(self) -> np.ndarray:
        """Backlog of every state, a per-state helper no run builds."""
        return np.tile(self.string_backlogs, self.config.bucket + 1)


def build_state_space(traffic: TrafficSpec, config: FilterConfig) -> StateSpace:
    """Index every (token level, buffer string) pair."""
    return StateSpace(traffic, config)


def reachable_indices(space: StateSpace) -> np.ndarray:
    """Sorted indices reachable from the full-bucket idle state.

    A grant that pays the head packet leaves no token over, so a waiting
    head always costs more than the tokens banked.  When some packet size
    is at most ``bucket + 1``, the idle state at every level is reachable
    and so is each queued string at every level below its head's size, read
    off ``string_heads`` by level.  When none is, no packet ever leaves and
    the tokens stay at the full bucket, where every string is reachable.
    The set is closed under the dynamics, so the stationary solver restricts
    the chain to it and states outside it carry zero mass.
    """
    bucket, n = space.config.bucket, space.n_strings
    if min(space.traffic.sizes) > bucket + 1:
        return np.arange(bucket * n, (bucket + 1) * n)
    # the empty string, head 0, is reachable at every level
    head = np.where(space.string_heads, space.string_heads, bucket + 1)
    return np.flatnonzero(np.arange(bucket + 1)[:, None] < head)
