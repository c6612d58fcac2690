"""Seeded sweep of small random filters against the scalar rules.

The per-string arrays come from the counting recursion, the chain's
transition table from the array form of the rules over them
(``dynamics.var_table``), its reachable set from a closed form in the token
level and the head packet's size (``reachable_indices``), and its stationary
law from GTH elimination or BiCGSTAB and power steps on the reachable
states.  Each is checked here against the plainest construction: the
enumerated strings read one by one, the scalar
``var_arrive``/``var_replenish`` applied state by state, a search over
``SystemState`` values, and a dense linear solve of the embedded chain.  On
a second seeded set, aggregate loss must not fall as the rate rises.
"""

import random

import numpy as np
import pytest
import scipy.linalg

from tbstat import (
    FilterConfig,
    SystemState,
    TrafficSpec,
    backlog,
    build_rate_matrix,
    build_replenishment_matrix,
    build_state_space,
    class_count,
    class_metrics,
    enumerate_strings,
    integrate_expm_action,
    loss_ratio,
    reachable_indices,
    solve_stationary,
    stationary_dense,
    time_average_distribution,
    var_arrive,
    var_replenish,
)
from tbstat.dynamics import var_rows


def _configs(count: int, seed: int) -> list[tuple[TrafficSpec, FilterConfig]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sizes = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        weights = [rng.uniform(0.1, 1.0) for _ in sizes]
        probs = [w / sum(weights) for w in weights]
        traffic = TrafficSpec(tuple(sizes), tuple(probs), rng.uniform(0.2, 2.0))
        config = FilterConfig(rng.randint(0, 4), rng.randint(max(sizes), 8), 1.0)
        out.append((traffic, config))
    return out


CONFIGS = _configs(40, seed=6)
# Sizes above bucket + 1 are never paid for, so the chain has no unique law.
PAYABLE = [(t, c) for t, c in CONFIGS if max(t.sizes) <= c.bucket + 1]


# Payable filters for the loss property, each solved at every rate of RATES.
MONOTONE = [
    (t, c) for t, c in _configs(200, seed=7) if max(t.sizes) <= c.bucket + 1
][:40]
RATES = (0.05, 0.25, 1.0, 2.5, 5.0)


def _label(case) -> str:
    traffic, config = case
    sizes = ",".join(map(str, traffic.sizes))
    return f"sizes{sizes}-M{config.bucket}-L{config.buffer}"


def _silenced(case):
    traffic, config = case
    return TrafficSpec(traffic.sizes, traffic.probs, 0.0), config


# The search below is the only reference for the closed form of the
# reachable set: give it a wide space and silenced sources too, one whose
# sizes are all payable and one whose sizes never are.
NEVER_PAYABLE = [(t, c) for t, c in CONFIGS if min(t.sizes) > c.bucket + 1]
REACH_EXTRA = [
    pytest.param(
        (
            TrafficSpec((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 0.45),
            FilterConfig(8, 12, 1.0),
        ),
        id="large_space",
    ),
    pytest.param(_silenced(PAYABLE[0]), id=f"{_label(PAYABLE[0])}-rate0"),
    pytest.param(_silenced(NEVER_PAYABLE[0]), id=f"{_label(NEVER_PAYABLE[0])}-rate0"),
]


def test_the_sweep_covers_both_kinds_of_filter():
    assert len(PAYABLE) >= 15
    assert len(CONFIGS) - len(PAYABLE) >= 5
    assert NEVER_PAYABLE


# Alphabets the random sweep does not draw: deep unit-size strings, a size
# as large as the buffer, sizes with gaps, and a wide alphabet.
TABLE_EXTRA = [
    ((1,), 40),
    ((5,), 5),
    ((2, 5), 5),
    ((2, 5), 30),
    ((1, 2, 3, 4, 5, 6, 7), 9),
]


@pytest.mark.parametrize(
    "sizes, limit",
    [pytest.param(t.sizes, c.buffer, id=_label((t, c))) for t, c in CONFIGS]
    + [pytest.param(s, L, id=f"sizes{s}-L{L}") for s, L in TABLE_EXTRA],
)
def test_string_arrays_equal_the_enumerated_strings(sizes, limit):
    traffic = TrafficSpec(sizes, (1 / len(sizes),) * len(sizes), 1.0)
    space = build_state_space(traffic, FilterConfig(1, limit, 1.0))
    strings = enumerate_strings(sizes, limit)
    index = {z: j for j, z in enumerate(strings)}
    assert space.n_strings == len(strings)
    assert space.string_heads.tolist() == [z[0] if z else 0 for z in strings]
    assert space.string_tails.tolist() == [index[z[1:]] if z else 0 for z in strings]
    assert space.string_appends.tolist() == [
        [index[z + (s,)] if backlog(z) + s <= limit else j for s in sizes]
        for j, z in enumerate(strings)
    ]
    assert space.string_backlogs.tolist() == [backlog(z) for z in strings]
    assert space.string_class_counts.tolist() == [
        [class_count(s, z) for s in sizes] for z in strings
    ]


@pytest.mark.parametrize("case", CONFIGS, ids=_label)
def test_array_table_equals_the_scalar_rules(case):
    traffic, config = case
    space = build_state_space(traffic, config)
    table = space.transitions
    assert table.arrive.shape == (space.n_states, traffic.n_classes)
    for i, state in enumerate(space.states):
        assert table.grant[i] == space.index_of(var_replenish(state, config.bucket))
        for k, size in enumerate(traffic.sizes):
            after, _ = var_arrive(state, size, config.buffer)
            assert table.arrive[i, k] == space.index_of(after)
    idx = np.random.default_rng(space.n_states).integers(space.n_states, size=20)
    rows = var_rows(space, idx)
    assert np.array_equal(rows.arrive, table.arrive[idx]) and np.array_equal(
        rows.grant, table.grant[idx]
    )


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=_label(c)) for c in CONFIGS] + REACH_EXTRA
)
def test_reachable_set_is_the_closure_of_the_scalar_rules(case):
    traffic, config = case
    space = build_state_space(traffic, config)
    keep = reachable_indices(space)
    table = space.transitions
    assert np.isin(table.arrive[keep], keep).all()
    assert np.isin(table.grant[keep], keep).all()
    seen = {SystemState(config.bucket, ())}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        moves = [var_replenish(state, config.bucket)]
        moves += [var_arrive(state, s, config.buffer)[0] for s in traffic.sizes]
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert sorted(space.index_of(s) for s in seen) == keep.tolist()


@pytest.mark.parametrize("case", PAYABLE, ids=_label)
def test_reachable_solve_and_average_equal_the_full_chain(case):
    traffic, config = case
    space = build_state_space(traffic, config)
    # at the default tol of 1e-10 the kernel truncation alone leaves ~1e-12
    result = solve_stationary(space, tol=1e-12)
    keep = reachable_indices(space)
    rate = build_rate_matrix(space).toarray()[np.ix_(keep, keep)]
    grant = build_replenishment_matrix(space).toarray()[np.ix_(keep, keep)]
    chain = scipy.linalg.expm(rate * config.period) @ grant
    assert np.abs(result.pi[keep] - stationary_dense(chain)).max() < 1e-12
    # the time average on the reachable states, against the full space's
    full = integrate_expm_action(build_rate_matrix(space), result.pi, config.period)
    assert np.abs(time_average_distribution(result) - full).max() < 1e-15


@pytest.mark.parametrize("case", MONOTONE, ids=_label)
def test_aggregate_loss_does_not_fall_as_the_rate_rises(case):
    traffic, config = case
    by_packet, by_token = [], []
    for rate in RATES:
        traffic_at = TrafficSpec(traffic.sizes, traffic.probs, rate)
        metrics = class_metrics(solve_stationary(build_state_space(traffic_at, config)))
        weights = np.array([m.probability for m in metrics])
        sizes = np.array([m.size for m in metrics])
        losses = np.array([m.loss_ratio for m in metrics])
        by_packet.append(weights @ losses)
        by_token.append((weights * sizes) @ losses / (weights @ sizes))
    # slack for the solve's residual of 1e-10
    assert np.diff(by_packet).min() >= -1e-9
    assert np.diff(by_token).min() >= -1e-9


def test_a_class_can_lose_less_as_the_rate_rises():
    # Size-4 packets crowd the buffer at rate 5, so fewer of the size-1
    # arrivals find it full: per-class loss is not monotone in the rate.
    config = FilterConfig(4, 5, 1.0)
    losses = [
        loss_ratio(
            solve_stationary(
                build_state_space(TrafficSpec((1, 4), (0.3, 0.7), rate), config)
            ),
            size=1,
        )
        for rate in (2.0, 5.0)
    ]
    assert losses[1] < losses[0] - 0.02
