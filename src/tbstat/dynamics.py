"""Transition functions for the token bucket filter.

Two views of the same device.  The unit-size view tracks (backlog, tokens)
when every packet costs one token; the variable-size view tracks the token
count plus the exact string of queued packet sizes.  Replenishment functions
apply one token grant, arrival functions apply one packet; both are pure and
total.  The simulator reads them into a table of state indices of its own:
the rows of every state reachable from its start when those are few, else
a state's row the first time its walk leaves that state, so a run that only
simulates never enumerates the state space.  The chain side uses their array
form, ``var_rows``: the same rules read off the space's per-string arrays
(head size, tail, append target per class) at any states.  The reachable
chain asks for its rows alone; ``var_table`` asks for every row, giving
``StateSpace.transitions`` and the full-space matrices.  The scalar
functions are the reference the array form is tested against.

For the unit-size filter, at most one of backlog and tokens is ever positive
on any trajectory started from a valid state: a packet and a spare token
cannot coexist, because the packet would have consumed it.  That makes the
single coordinate ``backlog - tokens + bucket`` a faithful summary, and the
per-period recursions below evolve it directly, one coordinate at a time
or, in their array forms, every coordinate at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .statespace import SystemState, Transitions, backlog as _backlog

if TYPE_CHECKING:
    from .statespace import StateSpace

__all__ = [
    "FixedState",
    "fixed_replenish",
    "fixed_arrive",
    "net_coord",
    "state_from_net_coord",
    "periodic_transfer_step",
    "md1_step",
    "periodic_transfer_steps",
    "md1_steps",
    "var_replenish",
    "var_arrive",
    "var_rows",
    "var_table",
]


class FixedState(NamedTuple):
    """Unit-size filter state: packets waiting, tokens banked."""

    backlog: int
    tokens: int


def fixed_replenish(state: FixedState, bucket: int) -> FixedState:
    """Grant one token: serve the head packet if any, else bank the token."""
    if state.backlog > 0:
        return FixedState(state.backlog - 1, state.tokens)
    return FixedState(0, min(bucket, state.tokens + 1))


def fixed_arrive(state: FixedState, buffer_cap: int) -> tuple[FixedState, bool]:
    """Admit one unit packet; returns the new state and whether it was kept.

    A banked token forwards the packet instantly; otherwise it queues unless
    the buffer is already full.
    """
    if state.tokens > 0:
        return FixedState(state.backlog, state.tokens - 1), True
    if state.backlog == buffer_cap:
        return state, False
    return FixedState(state.backlog + 1, state.tokens), True


def net_coord(state: FixedState, bucket: int) -> int:
    """Collapse (backlog, tokens) to backlog - tokens + bucket."""
    return state.backlog - state.tokens + bucket


def state_from_net_coord(coord: int, bucket: int) -> FixedState:
    """Invert net_coord on the valid set where backlog * tokens == 0."""
    net = coord - bucket
    return FixedState(max(0, net), -min(0, net))


def periodic_transfer_step(
    coord: int, arrivals: int, buffer_cap: int, bucket: int
) -> int:
    """One period of the net coordinate: batch the arrivals, grant a token.

    Arrivals pile up first, capped by the combined buffer-plus-bucket range,
    then the single token either serves a packet or joins the bucket.
    """
    cap = buffer_cap + bucket
    return max(0, min(cap, coord + arrivals) - 1)


def md1_step(coord: int, arrivals: int, buffer_cap: int, bucket: int) -> int:
    """One period of a finite M/D/1 queue with the same coordinate range.

    Differs from the token bucket only when the queue is empty: an idle
    server discards its slot instead of banking it, so from zero the new
    coordinate is just the capped arrival count.
    """
    cap = buffer_cap + bucket
    if coord > 0:
        return max(0, min(cap, coord + arrivals) - 1)
    return max(0, min(cap, arrivals))


def periodic_transfer_steps(
    coords: np.ndarray, arrivals: int, buffer_cap: int, bucket: int
) -> np.ndarray:
    """``periodic_transfer_step`` at every coordinate of ``coords``."""
    return np.maximum(0, np.minimum(buffer_cap + bucket, coords + arrivals) - 1)


def md1_steps(
    coords: np.ndarray, arrivals: int, buffer_cap: int, bucket: int
) -> np.ndarray:
    """``md1_step`` at every coordinate of ``coords``."""
    busy = periodic_transfer_steps(coords, arrivals, buffer_cap, bucket)
    return np.where(coords > 0, busy, min(buffer_cap + bucket, arrivals))


def var_replenish(state: SystemState, bucket: int) -> SystemState:
    """Grant one token to the variable-size filter.

    If the grant completes the head packet's price, the packet departs and
    the change stays in the bucket.  Otherwise the token is banked, capped
    at the bucket size; overflow while a packet waits cannot happen on
    reachable states because the head would already have been served.
    """
    buf = state.buffer
    if buf:
        left = state.tokens - buf[0] + 1
        if left >= 0:
            return SystemState(left, buf[1:])
        return SystemState(min(bucket, state.tokens + 1), buf)
    return SystemState(min(bucket, state.tokens + 1), ())


def var_arrive(
    state: SystemState, size: int, buffer_cap: int
) -> tuple[SystemState, bool]:
    """Admit one packet of the given size; returns (state, kept).

    Service is strictly FCFS: with packets already waiting, a newcomer joins
    the tail (or is dropped when it would not fit) even if the bucket could
    pay for it.  With an idle buffer, a sufficiently funded packet passes
    straight through; otherwise it opens the queue.
    """
    buf = state.buffer
    if buf:
        if _backlog(buf) + size <= buffer_cap:
            return SystemState(state.tokens, buf + (size,)), True
        return state, False
    if state.tokens >= size:
        return SystemState(state.tokens - size, ()), True
    return SystemState(state.tokens, (size,)), True


def var_rows(space: StateSpace, index: np.ndarray) -> Transitions:
    """``var_replenish`` and ``var_arrive`` at the states ``index`` of ``space``.

    The rules depend on a buffer string only through its head size, its
    tail (the string after the head leaves) and the string it becomes when
    a packet joins, the string itself when the packet does not fit.  Those
    are the space's per-string arrays, read here at each state's string:
    row ``r`` holds the targets of state ``index[r]``.
    """
    bucket, n = space.config.bucket, space.n_strings
    level, string = np.divmod(np.asarray(index, dtype=np.intp), n)
    head, tail = space.string_heads[string], space.string_tails[string]
    # a grant pays the head once it completes the price; else it is banked
    pays = (head > 0) & (level >= head - 1)
    grant = np.where(
        pays, (level - head + 1) * n + tail, np.minimum(bucket, level + 1) * n + string
    )
    # an idle buffer passes a funded packet; otherwise the packet joins the
    # string, which drops it when it does not fit
    level, size = level[:, None], np.array(space.traffic.sizes)
    passes = (string == 0)[:, None] & (level >= size)
    append = level * n + space.string_appends[string]
    return Transitions(np.where(passes, (level - size) * n, append), grant)


def var_table(space: StateSpace) -> Transitions:
    """``var_rows`` on every state of ``space``: ``StateSpace.transitions``."""
    return var_rows(space, np.arange(space.n_states))
