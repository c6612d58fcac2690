"""Tests for the stationary solution and its output statistics."""

import os
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import tbstat

from tbstat import markov
from tbstat import (
    TOLERANCE_FLOOR,
    FilterConfig,
    SystemState,
    TrafficSpec,
    build_partitioned_generator,
    build_periodic_transfer_chain,
    build_rate_matrix,
    build_replenishment_matrix,
    build_state_space,
    class_backlog,
    class_metrics,
    expm_action,
    integrate_expm_action,
    loss_ratio,
    net_to_backlog_distribution,
    occupancy_table,
    reachable_indices,
    solve_stationary,
    stationary_dense,
    stationary_power,
    time_average,
    time_average_distribution,
    waiting_time,
)
from tbstat.analysis import (
    _ENTRIES_PER_STATE,
    _MAX_MATVECS,
    _bicgstab,
    _debt_order,
    _grant_forest,
    _gth,
)
from tbstat.markov import (
    _DENSE_STATES,
    Uniformization,
    build_md1_chain,
    reachable_chain,
    reachable_period,
    uniformize,
)
from tbstat.dynamics import periodic_transfer_steps
from tests.conftest import reference_traffic
from tests.test_markov import _exact_average


@pytest.fixture(scope="module")
def solved_reference(reference_config):
    space = build_state_space(reference_traffic(0.5), reference_config)
    result = solve_stationary(space)
    part = build_partitioned_generator(space)
    return space, result, part


@pytest.fixture(scope="module")
def solved_small():
    space = build_state_space(
        TrafficSpec((1, 2), (0.6, 0.4), 0.8), FilterConfig(2, 3, 1.0)
    )
    result = solve_stationary(space)
    part = build_partitioned_generator(space)
    return space, result, part


class TestSolveStationary:
    def test_distribution_and_residual(self, solved_reference):
        _, result, _ = solved_reference
        assert abs(result.pi.sum() - 1.0) < 1e-10
        assert result.pi.min() >= 0.0
        assert result.residual <= 1e-10
        assert result.iterations > 0
        assert result.wall_time > 0.0

    def test_vanishing_traffic_parks_at_full_bucket(self):
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 1e-7), FilterConfig(1, 1, 1.0)
        )
        result = solve_stationary(space)
        assert result.pi[space.index_of(SystemState(1, ()))] > 1 - 1e-4

    def test_fixed_point_property(self, solved_reference):
        space, result, _ = solved_reference
        rate = build_rate_matrix(space)
        grant = build_replenishment_matrix(space)
        stepped = expm_action(rate, result.pi, 1.0) @ grant
        assert np.abs(stepped - result.pi).sum() <= 1e-10

    def test_unreachable_states_carry_no_mass(self, solved_reference):
        space, result, _ = solved_reference
        # a queued head the bucket could pay for is never visited
        for i, state in enumerate(space.states):
            if state.buffer and state.tokens >= state.buffer[0]:
                assert result.pi[i] == 0.0

    def test_only_reachable_states_carry_mass(self, solved_reference):
        space, result, _ = solved_reference
        outside = np.ones(space.n_states, dtype=bool)
        outside[reachable_indices(space)] = False
        assert np.all(result.pi[outside] == 0.0)

    def test_matches_the_dense_embedded_chain_on_the_reachable_set(
        self, solved_small
    ):
        space, result, _ = solved_small
        keep = reachable_indices(space)
        rate = build_rate_matrix(space).toarray()[np.ix_(keep, keep)]
        grant = build_replenishment_matrix(space).toarray()[np.ix_(keep, keep)]
        chain = scipy.linalg.expm(rate * space.config.period) @ grant
        assert np.abs(result.pi[keep] - stationary_dense(chain)).max() < 1e-12

    def test_partition_views(self, solved_reference):
        space, result, _ = solved_reference
        assert result.idle_distribution().shape == (6,)
        total = result.idle_distribution().sum()
        total += sum(result.level_queue(t).sum() for t in range(6))
        assert abs(total - 1.0) < 1e-10


def test_the_analytic_path_builds_no_string_tuples():
    space = build_state_space(reference_traffic(0.5), FilterConfig(8, 12, 1.0))
    result = solve_stationary(space)
    occupancy_table(result)
    class_metrics(result)
    assert "strings" not in space.__dict__
    assert "string_index" not in space.__dict__
    assert "transitions" not in space.__dict__


def test_reachability_and_the_statistics_build_no_full_length_array():
    # 422,180 states, 5,876 of them reachable: each call stays below half of
    # one full-length float array, reading the per-string tables and the
    # kept states alone
    space = build_state_space(
        TrafficSpec((1, 2), (0.5, 0.5), 1.0), FilterConfig(100, 16, 1.0)
    )
    result = solve_stationary(space)
    result.averaged  # integrated on first use, before the traces
    assert (space.n_states, len(result.chain.keep)) == (422_180, 5_876)
    calls = {
        "reachable_indices": lambda: reachable_indices(space),
        "occupancy_table": lambda: occupancy_table(result),
        "loss_ratio": lambda: loss_ratio(result, size=2),
        "class_backlog": lambda: class_backlog(result, size=2),
        "class_metrics": lambda: class_metrics(result),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / space.n_states
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 4.0, peaks
    assert "token_of_state" not in space.__dict__
    assert "backlog_of_state" not in space.__dict__


@pytest.mark.parametrize(
    "traffic, config",
    [
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)),
        (reference_traffic(0.45), FilterConfig(8, 12, 1.0)),
    ],
    ids=["dense", "sparse"],
)
def test_a_solve_finds_the_reachable_set_once(monkeypatch, traffic, config):
    # the set decides whether scipy.sparse loads and then builds the chain
    space = build_state_space(traffic, config)
    calls = []

    def counted(space):
        calls.append(space)
        return reachable_indices(space)

    for module in (tbstat.analysis, tbstat.markov, tbstat.statespace):
        monkeypatch.setattr(module, "reachable_indices", counted)
    result = solve_stationary(space)
    assert calls == [space]
    assert np.array_equal(result.chain.keep, reachable_indices(space))


class TestPayability:
    @pytest.mark.parametrize(
        "sizes, bucket, largest",
        [((2, 3), 0, 3), ((1, 3), 1, 3)],
        ids=["no_size_payable", "partly_payable"],
    )
    def test_unpayable_size_is_refused_before_anything_is_built(
        self, monkeypatch, sizes, bucket, largest
    ):
        # with sizes (2, 3) at bucket 0 two absorbing states share the mass,
        # and a solve would report one of many laws with a tiny residual
        space = build_state_space(
            TrafficSpec(sizes, (0.5, 0.5), 0.5), FilterConfig(bucket, 4, 1.0)
        )

        def unreachable(_space):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(tbstat.analysis, "reachable_chain", unreachable)
        with pytest.raises(ValueError, match=f"largest size {largest}") as err:
            solve_stationary(space)
        assert f"bucket + 1 = {bucket + 1}" in str(err.value)


class TestToleranceFloor:
    @pytest.fixture(scope="class")
    def stalling(self):
        # at 1e-300 its power steps stall at 2.2e-16 for a million steps
        return build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 20.0), FilterConfig(3, 12, 1.0)
        )

    @pytest.mark.parametrize("tol", [1e-300, 9e-16, float("nan")])
    def test_a_tolerance_below_the_floor_is_refused_at_once(
        self, monkeypatch, stalling, tol
    ):
        def unreachable(_space):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(tbstat.analysis, "reachable_chain", unreachable)
        began = time.perf_counter()
        with pytest.raises(ValueError, match="below the floor 1e-15"):
            solve_stationary(stalling, tol=tol)
        assert time.perf_counter() - began < 1.0

    def test_the_floor_itself_solves(self, stalling):
        result = solve_stationary(stalling, tol=TOLERANCE_FLOOR)
        assert result.residual <= TOLERANCE_FLOOR
        assert abs(result.pi.sum() - 1.0) <= 1e-14


def _long_double_gth(a: np.ndarray) -> np.ndarray:
    """Stationary law of a long-double stochastic matrix by GTH, state 0
    eliminated last, with no subtraction."""
    a, n = a.copy(), len(a)
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n, dtype=a.dtype)
    pi[0] = 1
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def _long_double_law(space, chain) -> np.ndarray:
    """Stationary law of a chain's period operator ``exp(R t) G`` in long
    double, densely: ``R`` uniformized with its series cut at 1e-30, then
    GTH, rooted at the full-bucket idle state."""
    ld = np.longdouble
    n = len(chain.keep)
    dense = chain.rates.toarray() if scipy.sparse.issparse(chain.rates) else chain.rates
    rates = np.asarray(dense, dtype=ld)
    q = -rates.diagonal().min()
    jump = np.eye(n, dtype=ld) + rates / q
    qt = q * ld(space.config.period)
    weight, term = np.exp(-qt), np.eye(n, dtype=ld)
    point, k = weight * term, 0
    while weight > ld(1e-30) or k < qt:
        k += 1
        term = term @ jump
        weight *= qt / k
        point += weight * term
    period_t = np.zeros((n, n), dtype=ld)
    np.add.at(period_t, chain.grant, point.T)  # column i lands at grant[i]
    root = int(np.searchsorted(chain.keep, space.empty_indices[-1]))
    order = np.r_[root, np.delete(np.arange(n), root)]
    law = np.empty(n, dtype=ld)
    law[order] = _long_double_gth(period_t.T[np.ix_(order, order)])
    return law


def _long_double_transfer_law(mean: float, buffer_cap: int, bucket: int) -> np.ndarray:
    """Stationary law of the periodic transfer chain in long double: the
    Poisson weights cut at 1e-30, the rest at the top, then GTH, rooted at
    net coordinate 0, the full-bucket idle state."""
    ld = np.longdouble
    n = buffer_cap + bucket + 1
    states = np.arange(n)
    weight, k = np.exp(-ld(mean)), 0
    chain = np.zeros((n, n), dtype=ld)
    while weight > ld(1e-30) or k < mean:
        chain[states, periodic_transfer_steps(states, k, buffer_cap, bucket)] += weight
        k += 1
        weight *= ld(mean) / k
    rest = 1 - chain.sum(axis=1)
    chain[states, periodic_transfer_steps(states, n, buffer_cap, bucket)] += rest
    return _long_double_gth(chain)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="long double is no wider than a double here",
)
@pytest.mark.parametrize(
    "traffic, config, bound",
    [
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0), 1e-11),
        (reference_traffic(0.5), FilterConfig(5, 5, 1.0), 1e-13),
        (reference_traffic(0.45), FilterConfig(4, 6, 1.0), 1e-11),
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(150, 300, 1.0), 1e-10),
    ],
    ids=["critical_unit", "reference", "assembled", "near_critical_unit"],
)
def test_the_law_is_near_its_long_double_solve(traffic, config, bound):
    # the reported residual cannot see the kernel's truncation times the
    # chain's conditioning; an independent wider solve measures the error
    space = build_state_space(traffic, config)
    result = solve_stationary(space)
    chain = result.chain
    if traffic.sizes == (1,):
        # the transfer chain in long double, on the net coordinate; its
        # Poisson weights are cut at 1e-30, the solve's at SERIES_TOL
        exact = _long_double_transfer_law(traffic.rate, config.buffer, config.bucket)
        assert abs(exact.sum() - 1) <= 1e-17
        assert np.abs(_net_law(result) - exact).sum() <= bound
    if len(chain.keep) > _DENSE_STATES:
        if result.route == "transfer":
            return  # 451 states: the series in long double takes 11 s
        # the assembled period operator, solved by BiCGSTAB
        assert result.period_nnz is not None and result.solve_matvecs > 0
    exact = _long_double_law(space, chain)
    assert abs(exact.sum() - 1) <= 1e-17
    assert np.abs(result.pi[chain.keep] - exact).sum() <= bound


def _per_column_bound(space, kernel) -> int:
    """Entries a column of exp(R t) can hold: the state and its prefixes,
    one per queued packet and per series jump at most, plus the idle states
    that the jumps' largest packets can bring down to its token level."""
    packets = space.config.buffer // min(space.traffic.sizes)
    jumps = kernel.pieces * (len(kernel.point_weights) - 1)
    reach = jumps * max(space.traffic.sizes)
    return min(packets, jumps + 1) + min(space.config.bucket, reach) + 1


class TestAssembledPeriodOperator:
    @pytest.mark.parametrize(
        "traffic, config, matvecs, route",
        [
            (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0), 0, "transfer"),
            (TrafficSpec((2,), (1.0,), 0.495), FilterConfig(20, 40, 1.0), 0, "transfer"),
            (reference_traffic(0.45), FilterConfig(8, 12, 1.0), 49, "bicgstab"),
            (reference_traffic(0.5), FilterConfig(5, 5, 1.0), 0, "gth"),
        ],
        ids=["critical_unit", "sizes_2", "large_space", "reference"],
    )
    def test_solver_work_on_the_benchmark_chains(self, traffic, config, matvecs, route):
        # one size of one or two tokens takes the transfer law; the
        # reference chain's 58 states are eliminated densely, 5,473 solved
        # by BiCGSTAB
        space = build_state_space(traffic, config)
        result = solve_stationary(space)
        assert result.route == route
        assert result.solve_matvecs == matvecs
        assert result.power_steps == 1
        if route == "transfer":
            # no period operator: the certifying step runs vector by vector
            assert result.period_nnz is None
        else:
            kernel = uniformize(result.chain.rates, config.period, 1e-14)
            n = len(result.chain.keep)
            assert result.period_nnz is not None
            assert result.period_nnz <= n * _per_column_bound(space, kernel)

    def test_deep_chain_steps_vector_by_vector(self):
        # two sizes, a deep bucket and a high rate: a column of the period's
        # exponential may hold far more entries than the solve holds per
        # state, so no matrix is assembled
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 200.0), FilterConfig(100, 8, 1.0)
        )
        chain = reachable_chain(space)
        n = len(chain.keep)
        kernel = uniformize(chain.rates, space.config.period, 1e-14)
        assert min(_per_column_bound(space, kernel), n) > _ENTRIES_PER_STATE
        tracemalloc.start()
        try:
            result = solve_stationary(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.route == "bicgstab"
        assert result.period_nnz is None
        assert peak <= 2 * _ENTRIES_PER_STATE * n * 8

        uniform = np.full(n, 1.0 / n)

        def step(vec):
            return chain.grant_t @ kernel.point(vec)

        kept, matvecs = _bicgstab(
            lambda vec: vec - step(vec) + vec.sum() * uniform,
            uniform, uniform, 1e-12, _MAX_MATVECS,
            _grant_forest(chain, space.config.period),
        )
        kept = np.clip(kept, 0.0, None)
        stepped = stationary_power(step, n, kept / kept.sum(), 1e-10)
        assert np.array_equal(result.pi[chain.keep], stepped.pi)
        assert result.solve_matvecs == matvecs
        assert result.power_steps == stepped.iterations

        # each of its sizes alone takes the transfer law, certified by a
        # step that runs vector by vector too
        for size in (1, 2):
            one = solve_stationary(
                build_state_space(TrafficSpec((size,), (1.0,), 200.0), space.config)
            )
            assert (one.route, one.solve_matvecs, one.power_steps) == ("transfer", 0, 1)
            assert one.period_nnz is None

    @pytest.mark.parametrize(
        "rate, config",
        [(0.45, FilterConfig(8, 12, 1.0)), (300.0, FilterConfig(8, 10, 1.0))],
        ids=["large_space", "rate_300"],
    )
    def test_the_grant_forest_is_the_operator_below_the_debt(self, rate, config):
        # arrivals raise the debt (backlog - tokens) and a grant lowers it
        # by one, so column i of P^T falls in debt only at grant[i], by the
        # chance that no arrival moves i; the root, the grant's one fixed
        # point, falls nowhere
        space = build_state_space(reference_traffic(rate), config)
        chain = reachable_chain(space)
        n = len(chain.keep)
        kernel = uniformize(chain.rates, config.period, 1e-14)
        period_t = (chain.grant_t @ kernel.operator()).tocsc()
        debt = (space.backlog_of_state - space.token_of_state)[chain.keep]
        cols = np.repeat(np.arange(n), np.diff(period_t.indptr))
        lower = debt[period_t.indices] < debt[cols]
        root = chain.grant == np.arange(n)
        assert root.sum() == 1
        assert np.array_equal(cols[lower], np.flatnonzero(~root))
        assert np.array_equal(period_t.indices[lower], chain.grant[~root])
        stay = np.exp(config.period * chain.rates.diagonal()[~root])
        # each piece of the period sums its own series, so the rounding
        # compounds by piece: 2.0e-14 on the rate-300 chain's three pieces
        rtol = kernel.pieces * 1e-14
        assert np.allclose(period_t.data[lower], stay, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize(
        "traffic, config, exact",
        [
            (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(150, 300, 1.0), True),
            (TrafficSpec((1, 2), (0.5, 0.5), 5.0), FilterConfig(3, 16, 1.0), False),
        ],
        ids=["near_critical_unit", "nearly_periodic"],
    )
    def test_hard_sparse_chains_settle_in_one_power_step(self, traffic, config, exact):
        # unpreconditioned, both spent every product and then 151,801 and
        # 398 power steps, the first ending 1.3e-6 L1 off its exact law
        space = build_state_space(traffic, config)
        result = solve_stationary(space)
        assert result.power_steps == 1
        assert result.solve_matvecs < _MAX_MATVECS
        if exact:
            # 451 states: GTH on the dense period operator of the same kernel
            chain = result.chain
            period_t = (chain.grant_t @ result.kernel.operator()).toarray()
            root = int(np.searchsorted(chain.keep, space.empty_indices[-1]))
            law = _gth(period_t.T, root)
            assert np.abs(result.pi[chain.keep] - law).sum() <= 1e-8

    @pytest.mark.parametrize(
        "traffic, config",
        [
            (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(150, 300, 1.0)),
            (TrafficSpec((1, 2), (0.5, 0.5), 1.0), FilterConfig(100, 16, 1.0)),
            (reference_traffic(0.45), FilterConfig(90, 8, 1.0)),
            (TrafficSpec((1,), (1.0,), 200.0), FilterConfig(5, 600, 1.0)),
            (reference_traffic(0.45), FilterConfig(8, 12, 1.0)),
        ],
        ids=["unit_m150", "sizes_1_2_m100", "sizes_1_4_m90", "deep", "large_space"],
    )
    def test_the_bound_covers_every_column(self, traffic, config):
        # measured in-degrees 17, 33, 49, 375 and 19 against 34, 49, 57, 381
        # and 21; row j of the operator is column j of exp(R t)
        space = build_state_space(traffic, config)
        kernel = uniformize(reachable_chain(space).rates, config.period)
        in_degree = int(np.diff(kernel.operator().indptr).max())
        assert in_degree <= _per_column_bound(space, kernel)

    def test_a_wide_bucket_is_assembled(self):
        # 91 idle levels, of which the period's 12 jumps of at most 4 tokens
        # reach 49 from any state: 57 entries a column, within the cap
        space = build_state_space(reference_traffic(0.45), FilterConfig(90, 8, 1.0))
        result = solve_stationary(space)
        n = len(result.chain.keep)
        assert result.period_nnz is not None
        assert result.period_nnz <= n * _per_column_bound(space, result.kernel)


def _system(n: int, spread: float, seed: int):
    """A seeded nonsymmetric system ``I + spread * R / sqrt(n)``, R Gaussian."""
    rng = np.random.default_rng(seed)
    mat = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    return mat, rng.standard_normal(n)


class TestBiCGSTAB:
    @staticmethod
    def _solve(mat, rhs, rtol, max_calls, corrupt=None, precondition=np.asarray):
        calls = []

        def apply(vec):
            calls.append(1)
            out = mat @ vec
            if len(calls) == corrupt:
                out[0] += 1e-3
            return out

        x, counted = _bicgstab(
            apply, rhs, np.zeros(len(rhs)), rtol, max_calls, precondition
        )
        assert counted == len(calls)
        exact = np.linalg.solve(mat, rhs)
        return np.abs(x - exact).max() / np.abs(exact).max(), len(calls)

    def test_stops_at_the_tolerance(self):
        mat, rhs = _system(60, 0.5, 1)
        err, calls = self._solve(mat, rhs, 1e-10, 811)
        assert err < 1e-9
        # a short recurrence: well under one product per unknown
        assert calls < 60

    def test_restarts_from_the_true_residual(self):
        # one wrong product leaves the recurrence's residual off the true
        # one, so the recurrence alone would stop at a wrong answer
        mat, rhs = _system(60, 0.5, 2)
        clean, clean_calls = self._solve(mat, rhs, 1e-10, 811)
        err, calls = self._solve(mat, rhs, 1e-10, 811, corrupt=3)
        assert clean < 1e-9
        assert err < 1e-9
        assert calls > clean_calls

    def test_a_drifting_recurrence_hands_back_its_best_iterate(self):
        # far over capacity the chain is nearly periodic: the recurrence's
        # residual drifts from the true one, and a restart that does not
        # improve on the last true residual ends the solve
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 20.0), FilterConfig(3, 14, 1.0)
        )
        chain = reachable_chain(space)
        n = len(chain.keep)
        period_t = chain.grant_t @ uniformize(chain.rates, 1.0, 1e-14).operator()
        uniform = np.full(n, 1.0 / n)

        def balance(vec):
            return vec - period_t @ vec + vec.sum() * uniform

        x, calls = _bicgstab(balance, uniform, uniform, 1e-12, _MAX_MATVECS)
        start = np.linalg.norm(uniform - balance(uniform))
        assert np.linalg.norm(uniform - balance(x)) <= start
        assert calls < _MAX_MATVECS

    def test_an_underflowing_product_is_a_breakdown(self):
        # a target of 1e-302 sits below where ``t @ t`` underflows to 0
        # while ``t`` is not: that ends the cycle and restarts it
        space = build_state_space(reference_traffic(0.5), FilterConfig(5, 5, 1.0))
        chain = reachable_chain(space)
        n = len(chain.keep)
        rates = scipy.sparse.csr_matrix(chain.rates)
        period_t = chain.grant_t @ uniformize(rates, 1.0, 1e-14).operator()
        uniform = np.full(n, 1.0 / n)

        def balance(vec):
            return vec - period_t @ vec + vec.sum() * uniform

        x, calls = _bicgstab(balance, uniform, uniform, 1e-302, _MAX_MATVECS)
        assert calls <= _MAX_MATVECS
        assert np.linalg.norm(uniform - balance(x)) < 1e-14

    def test_an_exact_preconditioner_converges_at_once(self):
        # A M^-1 = I: the first step lands, then one true residual confirms
        mat, rhs = _system(60, 2.0, 3)
        inverse = np.linalg.inv(mat)
        err, calls = self._solve(
            mat, rhs, 1e-10, 811, precondition=lambda vec: inverse @ vec
        )
        assert err < 1e-9
        assert calls <= 3

    @pytest.mark.parametrize(
        "spread, seed, max_calls, corrupt",
        [(0.5, 1, 811, None), (0.5, 2, 811, 3), (2.0, 3, 41, None)],
    )
    def test_the_identity_preconditioner_is_the_plain_method(
        self, spread, seed, max_calls, corrupt
    ):
        mat, rhs = _system(60, spread, seed)

        def solve(*precondition):
            products = []

            def apply(vec):
                products.append(1)
                out = mat @ vec
                if len(products) == corrupt:
                    out[0] += 1e-3
                return out

            start = np.zeros(len(rhs))
            return _bicgstab(apply, rhs, start, 1e-10, max_calls, *precondition)

        (plain, plain_calls), (copied, copied_calls) = solve(), solve(np.copy)
        assert np.array_equal(plain, copied)
        assert plain_calls == copied_calls

    @pytest.mark.parametrize("max_calls", [7, 20, 41])
    def test_the_cap_bounds_the_products(self, max_calls):
        # spread 2 puts eigenvalues near zero: far from converged at the cap
        mat, rhs = _system(60, 2.0, 3)
        err, calls = self._solve(mat, rhs, 1e-14, max_calls)
        assert err > 1e-6
        assert max_calls - 2 <= calls <= max_calls


def _unrestricted_gth(chain: np.ndarray) -> np.ndarray:
    """GTH rooted at state 0, each pivot updating whole columns."""
    a, n = chain.copy(), len(chain)
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += a[:k, k, None] * a[k, :k]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


DENSE_CHAINS = [
    pytest.param(
        TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0), id="critical_unit"
    ),
    pytest.param(reference_traffic(0.5), FilterConfig(5, 5, 1.0), id="reference"),
    pytest.param(reference_traffic(0.45), FilterConfig(5, 5, 1.0), id="reference_045"),
    pytest.param(
        TrafficSpec((1, 2), (0.6, 0.4), 0.8), FilterConfig(2, 3, 1.0), id="small"
    ),
    pytest.param(
        TrafficSpec((1,), (1.0,), 50.0), FilterConfig(5, 60, 1.0), id="heavy_load"
    ),
    pytest.param(
        TrafficSpec((1, 2), (0.5, 0.5), 0.0), FilterConfig(3, 5, 1.0), id="rate_zero"
    ),
]


@pytest.mark.parametrize("traffic, config", DENSE_CHAINS)
def test_the_dense_period_is_the_grant_scatter(traffic, config):
    # four states of the reference chain grant to one, and one product of
    # the whole grant matrix can miss the scatter there by an ulp, as BLAS
    # fixes no order of summation; the fold adds each target's rows in
    # ascending position, as the scatter does, and the debt order only
    # permutes the result
    space = build_state_space(traffic, config)
    result = solve_stationary(space)
    chain, kernel = result.chain, result.kernel
    n = len(chain.keep)
    assert n <= _DENSE_STATES
    scatter = np.zeros((n, n))
    np.add.at(scatter, chain.grant, kernel.point(np.eye(n)))
    order = _debt_order(space, chain)
    root = np.searchsorted(chain.keep, space.empty_indices[-1])
    assert order[0] == root
    rng = np.random.default_rng(10)
    period_t = reachable_period(space, chain, kernel)
    for order in [order, np.arange(n)] + [rng.permutation(n) for _ in range(8)]:
        cells = np.ix_(order, order)
        assert np.array_equal(period_t[cells], scatter[cells])


@pytest.mark.parametrize(
    "traffic, config",
    DENSE_CHAINS
    + [
        pytest.param(
            TrafficSpec((1,), (1.0,), 1000.0), FilterConfig(5, 5, 1.0), id="pieces_8"
        )
    ],
)
def test_one_chain_held_both_ways_gives_one_period(traffic, config):
    # the dense chain's period folds the series on the identity, the sparse
    # one's runs a series a room or idle block; both sum the same terms in
    # their own order, to within rounding, and hold the same zeros
    space = build_state_space(traffic, config)
    chain = reachable_chain(space)
    assert isinstance(chain.rates, np.ndarray)
    held = chain._replace(rates=scipy.sparse.csc_matrix(chain.rates))
    dense = reachable_period(space, chain, uniformize(chain.rates, config.period))
    sparse = reachable_period(space, held, uniformize(held.rates, config.period))
    sparse = sparse.toarray()
    assert np.array_equal(dense != 0, sparse != 0)
    assert np.allclose(dense, sparse, rtol=4e-15, atol=0.0)


class TestGTH:
    @pytest.mark.parametrize("n, seed", [(2, 1), (9, 2), (40, 3), (81, 4)])
    def test_matches_the_dense_solve_on_random_chains(self, n, seed):
        rng = np.random.default_rng(seed)
        chain = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        chain[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # a cycle through all
        chain /= chain.sum(axis=1, keepdims=True)
        direct = stationary_dense(chain)
        for root in {0, n // 2, n - 1}:
            pi = _gth(chain, root)
            assert np.abs(pi - direct).sum() < 1e-13
            assert np.abs(pi @ chain - pi).sum() < 1e-14

    def test_rate_zero_chain_parks_at_the_root(self):
        # with no arrivals every idle level below the full bucket, and every
        # queued string, is transient: only the full-bucket idle state keeps
        # mass, and it must be eliminated last
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 0.0), FilterConfig(3, 5, 1.0)
        )
        chain = reachable_chain(space)
        root = int(np.searchsorted(chain.keep, space.empty_indices[-1]))
        pi = _gth(chain.grant_t.T.toarray(), root)
        expected = np.zeros(len(chain.keep))
        expected[root] = 1.0
        assert np.array_equal(pi, expected)

    @pytest.mark.parametrize("tail", [0.0, 0.05], ids=["banded", "dense_last_column"])
    @pytest.mark.parametrize("n, seed", [(2, 5), (9, 6), (40, 7), (81, 8)])
    def test_skip_free_chains_in_a_random_order(self, n, seed, tail):
        # in ``order`` each state falls at most one state a step toward the
        # root, the order's first; a positive tail, as in the fixed-length
        # chains, fills the whole upper triangle through the last column
        rng = np.random.default_rng(seed)
        band = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), -1)
        band[np.arange(1, n), np.arange(n - 1)] += 0.1
        band[np.arange(n - 1), np.arange(1, n)] += 0.1
        band[:, -1] += tail
        band /= band.sum(axis=1, keepdims=True)
        order = rng.permutation(n)
        chain = np.empty((n, n))
        chain[np.ix_(order, order)] = band
        pi = np.empty(n)
        pi[order] = _gth(chain[np.ix_(order, order)])
        full = np.empty(n)
        full[order] = _unrestricted_gth(band)
        assert np.abs(pi - full).sum() <= 1e-15
        assert np.abs(pi - stationary_dense(chain)).sum() < 1e-13

    @pytest.mark.parametrize("root", [0, 3])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_the_callers_chain_comes_back_unchanged(self, root, layout):
        rng = np.random.default_rng(9)
        chain = rng.random((12, 12)) * (rng.random((12, 12)) < 0.5) + 0.01
        chain = np.array(chain / chain.sum(axis=1, keepdims=True), order=layout)
        kept = chain.copy(order="K")
        _gth(chain, root)
        assert np.array_equal(chain, kept)

    @pytest.mark.parametrize("rate", [50.0, 1000.0])
    def test_heavy_load_past_the_float_range(self, rate):
        # masses span more than the float range at rate 50, and at 1000 no
        # path back to the idle bucket survives in floats at all
        space = build_state_space(
            TrafficSpec((1,), (1.0,), rate), FilterConfig(5, 60, 1.0)
        )
        result = solve_stationary(space)
        assert len(result.chain.keep) <= _ENTRIES_PER_STATE
        assert result.solve_matvecs == 0
        assert result.power_steps == 1
        assert result.residual <= 1e-12
        full = space.backlog_of_state[result.pi.argmax()]
        assert full >= 59



def _debt_period(traffic: TrafficSpec, config: FilterConfig) -> np.ndarray:
    """``P`` of the reachable chain in debt order, as the solve eliminates it."""
    space = build_state_space(traffic, config)
    result = solve_stationary(space)
    order = _debt_order(space, result.chain)
    period_t = reachable_period(space, result.chain, result.kernel)
    return period_t[np.ix_(order, order)].T


def _unit_period(rate: float, bucket: int, buffer: int) -> np.ndarray:
    traffic = TrafficSpec((1,), (1.0,), rate)
    return _debt_period(traffic, FilterConfig(bucket, buffer, 1.0))


# (build, whether every mass stays in the float range)
SKIP_FREE_CHAINS = [
    pytest.param(partial(_unit_period, 0.99, 20, 40), True, id="critical_unit"),
    pytest.param(partial(_unit_period, 50.0, 5, 60), False, id="heavy_load_50"),
    pytest.param(partial(_unit_period, 1000.0, 5, 60), False, id="heavy_load_1000"),
    pytest.param(
        partial(_debt_period, TrafficSpec((2,), (1.0,), 0.5), FilterConfig(3, 40, 1.0)),
        True,
        id="sizes_2",
    ),
] + [
    pytest.param(partial(build, rate, 1000, 5), rate < 1, id=f"{build.__name__}_{rate}")
    for build in (build_periodic_transfer_chain, build_md1_chain)
    for rate in (0.5, 0.99, 700.0)
]


class TestOnePassElimination:
    """A chain that falls at most one state a step toward the root, as the
    single-size period chains do in debt order and the fixed-length chains
    as built, holds one entry left of the diagonal a row, so each pivot's
    division and update cover one column of its envelope."""

    @pytest.mark.parametrize("build, finite", SKIP_FREE_CHAINS)
    def test_skip_free_chains_take_the_one_pass(self, build, finite):
        chain = build()
        n = len(chain)
        assert (markov._envelope(chain)[1] >= np.arange(n) - 1).all()
        pi = _gth(chain)
        assert np.abs(pi @ chain - pi).sum() <= 1e-14
        if finite:
            # whole-column GTH without rescaling: the masses stay in range
            assert np.abs(pi - _unrestricted_gth(chain)).sum() <= 1e-15

    def test_the_reference_chain_keeps_the_pivot_by_pivot_elimination(self):
        # sizes 1..4: several states share each debt, so a row reaches
        # states one debt lower that sit several positions to its left
        chain = _debt_period(reference_traffic(0.5), FilterConfig(5, 5, 1.0))
        n = len(chain)
        assert (markov._envelope(chain)[1] < np.arange(n) - 1).any()
        pi = _gth(chain)
        assert np.abs(pi @ chain - pi).sum() <= 1e-14
        assert np.abs(pi - _unrestricted_gth(chain)).sum() <= 1e-15


@pytest.mark.parametrize("traffic, config", DENSE_CHAINS)
def test_the_envelope_is_read_the_same_in_either_layout(traffic, config):
    # a Fortran-ordered chain is read through its transpose; the rate-zero
    # chain has columns no state enters, and random sparse chains empty rows
    chain = _debt_period(traffic, config)
    rng = np.random.default_rng(11)
    sparse = rng.random((30, 30)) * (rng.random((30, 30)) < 0.05)
    for a in (chain, sparse, sparse.T):
        by_rows = markov._envelope(np.ascontiguousarray(a))
        by_columns = markov._envelope(np.asfortranarray(a))
        assert all(map(np.array_equal, by_rows, by_columns))

def test_a_dense_chain_averages_like_its_sparse_copy(solved_reference):
    # the 58-state reference chain is held densely; integrating its sparse
    # copy sums the same series in another order
    space, result, _ = solved_reference
    chain = result.chain
    assert isinstance(chain.rates, np.ndarray)
    sparse = integrate_expm_action(
        scipy.sparse.csc_matrix(chain.rates), result.pi[chain.keep],
        space.config.period,
    )
    assert np.abs(result.averaged[chain.keep] - sparse).max() <= 1e-15


def test_the_solve_leaves_scipy_sparse_linalg_unloaded():
    src = str(Path(tbstat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from tbstat import *\n"
        "traffic = TrafficSpec((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 0.5)\n"
        "space = build_state_space(traffic, FilterConfig(5, 5, 1.0))\n"
        "class_metrics(solve_stationary(space))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestNetToBacklogDistribution:
    def test_point_mass_at_zero(self):
        pi = np.zeros(11)
        pi[0] = 1.0
        out = net_to_backlog_distribution(pi, 5, 5)
        assert out[0] == 1.0

    def test_bucket_boundary_collapses_to_empty(self):
        pi = np.zeros(11)
        pi[5] = 1.0
        out = net_to_backlog_distribution(pi, 5, 5)
        assert out[0] == 1.0

    def test_uniform_small_case(self):
        out = net_to_backlog_distribution(np.full(3, 1 / 3), 1, 1)
        assert np.allclose(out, [2 / 3, 1 / 3])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            net_to_backlog_distribution(np.ones(4) / 4, 5, 5)


# unit sizes whose Poisson arrival law is representable: (rate, bucket, buffer)
ROUTED_UNIT_CHAINS = [
    pytest.param(0.99, 20, 40, id="critical_unit"),
    pytest.param(0.99, 60, 120, id="m60_l120"),
    pytest.param(0.99, 150, 300, id="m150_l300"),
    pytest.param(0.5, 5, 4000, id="buffer_4000_rate_0.5"),
    pytest.param(0.97, 5, 4000, id="buffer_4000_rate_0.97"),
    pytest.param(200.0, 5, 600, id="rate_200"),
] + [
    pytest.param(mean, 5, 60, id=f"mean_{mean:g}")
    for mean in (700.0, 709.0, 740.0, 745.0)
]


def _net_law(result) -> np.ndarray:
    """A unit-size law summed onto the net coordinate backlog - tokens + bucket."""
    space, bucket = result.space, result.space.config.bucket
    out = np.zeros(space.config.buffer + bucket + 1)
    np.add.at(out, space.backlog_of_state - space.token_of_state + bucket, result.pi)
    return out


class TestUnitSizeUnification:
    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.0])
    def test_variable_solver_reproduces_the_transfer_chain(self, rate):
        config = FilterConfig(5, 5, 1.0)
        space = build_state_space(TrafficSpec((1,), (1.0,), rate), config)
        result = solve_stationary(space, tol=1e-12)
        chain = build_periodic_transfer_chain(rate, 5, 5)
        pi_net = stationary_dense(chain)
        # both solutions observe the system right after a token grant
        embedded = np.zeros(11)
        for i, state in enumerate(space.states):
            embedded[len(state.buffer) - state.tokens + 5] += result.pi[i]
        assert np.abs(embedded - pi_net).max() < 1e-8

    def test_near_critical_load_matches_the_transfer_chain(self):
        # the spectral gap is small here, so a residual of 1e-10 alone would
        # leave an L1 error near 1e-7
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)
        )
        result = solve_stationary(space)
        pi_net = stationary_dense(build_periodic_transfer_chain(0.99, 40, 20))
        embedded = np.zeros(61)
        np.add.at(
            embedded,
            space.backlog_of_state - space.token_of_state + 20,
            result.pi,
        )
        assert np.abs(embedded - pi_net).sum() < 1e-9

    def test_unattainable_krylov_tolerance_hands_over_to_power_steps(self):
        # 61 states take the transfer law; power steps certify at 1e-14
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)
        )
        result = solve_stationary(space, tol=1e-14)
        assert result.residual <= 1e-14
        assert result.iterations < 1000

    def test_stagnating_iterative_solve_stops_within_its_cap(self):
        # sizes 1 and 2 at load 0.99: 881 states take BiCGSTAB, whose
        # tol / 100 lies below what the kernel resolves: the recurrence
        # stagnates and must stop in bounded work, leaving power steps to
        # certify
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 0.66), FilterConfig(40, 12, 1.0)
        )
        result = solve_stationary(space, tol=1e-14)
        assert len(result.chain.keep) == 881
        assert result.route == "bicgstab"
        assert result.residual <= 1e-14
        assert 0 < result.solve_matvecs <= _MAX_MATVECS
        assert result.iterations < 1000
        # each size alone on the same filter takes the transfer law, no product
        for size in (1, 2):
            traffic = TrafficSpec((size,), (1.0,), 0.99 / size)
            one = solve_stationary(build_state_space(traffic, space.config), tol=1e-14)
            assert (one.route, one.solve_matvecs, one.power_steps) == ("transfer", 0, 1)
            assert one.residual <= 1e-14

    @pytest.mark.parametrize("rate, bucket, buffer", ROUTED_UNIT_CHAINS)
    def test_the_transfer_route_is_the_transfer_chains_law(self, rate, bucket, buffer):
        # the transfer law passes the reachable chain's own step at once
        space = build_state_space(
            TrafficSpec((1,), (1.0,), rate), FilterConfig(bucket, buffer, 1.0)
        )
        result = solve_stationary(space)
        assert result.route == "transfer"
        assert (result.solve_matvecs, result.power_steps) == (0, 1)
        assert result.period_nnz is None
        law = _gth(build_periodic_transfer_chain(rate, buffer, bucket))
        assert np.abs(_net_law(result) - law).sum() <= 1e-15

    @pytest.mark.parametrize("tol", [1e-14, TOLERANCE_FLOOR])
    def test_the_transfer_route_settles_at_fine_tolerances(self, tol):
        # the transfer law's Poisson weights are cut where the kernel is,
        # so it passes the chain's own step at once at the floor too
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)
        )
        result = solve_stationary(space, tol=tol)
        assert (result.route, result.solve_matvecs) == ("transfer", 0)
        assert result.residual <= tol
        assert result.power_steps == 1

    def test_a_misplaced_start_is_not_returned(self, monkeypatch):
        # each state read one net coordinate off: the chain's own step
        # moves the start, so it is not certified after one step
        space = build_state_space(TrafficSpec((1,), (1.0,), 0.5), FilterConfig(5, 5, 1.0))
        right = solve_stationary(space)
        law = markov._fixed_length_law
        monkeypatch.setattr(
            tbstat.analysis, "_fixed_length_law", lambda *a, **k: np.roll(law(*a, **k), 1)
        )
        wrong = solve_stationary(space)
        assert wrong.route == "transfer"
        assert wrong.power_steps > 1
        assert wrong.residual <= 1e-10
        assert np.abs(wrong.pi - right.pi).sum() <= 1e-8

    @pytest.mark.parametrize("rate", [1000.0, 100000.0])
    def test_an_underflowing_arrival_law_keeps_the_elimination(self, rate):
        # exp(-rate) is 0: the transfer law cannot be formed
        space = build_state_space(TrafficSpec((1,), (1.0,), rate), FilterConfig(5, 5, 1.0))
        result = solve_stationary(space)
        assert result.route == "gth"
        assert result.period_nnz is not None
        assert result.power_steps == 1


def _debt_gth(result) -> np.ndarray:
    """``_gth`` of the densified ``P^T`` in debt order, its series cut at
    1e-16, at the kept states."""
    space, chain = result.space, result.chain
    kernel = uniformize(chain.rates, space.config.period, 1e-16)
    period_t = reachable_period(space, chain, kernel)
    if not isinstance(period_t, np.ndarray):
        period_t = period_t.toarray()
    order = _debt_order(space, chain)
    law = np.empty(len(order))
    law[order] = _gth(period_t[np.ix_(order, order)].T)
    return law


class TestOneSizeRoute:
    """One size of ``s`` tokens: a packet raises the debt by ``s`` and a
    grant lowers it by one, so the transfer law of packets of ``s`` tokens
    is the chain's law."""

    @pytest.mark.parametrize(
        "size, bucket, buffer",
        [
            (size, bucket, buffer)
            for size in (2, 3, 5)
            for bucket, buffer in ((size - 1, size), (size, 2 * size + 1), (5, 12))
        ],
    )
    def test_the_law_is_gth_of_the_period_in_debt_order(self, size, bucket, buffer):
        # from light traffic to a subnormal chance of no arrival, where the
        # chain all but cycles through the states of a full buffer
        for mean in (1e-9, 0.3, 1.0, 5.0, 50.0, 700.0, 720.0, 740.0, 745.0):
            space = build_state_space(
                TrafficSpec((size,), (1.0,), mean), FilterConfig(bucket, buffer, 1.0)
            )
            result = solve_stationary(space)
            assert result.route == "transfer"
            assert (result.solve_matvecs, result.power_steps) == (0, 1)
            law = result.pi[result.chain.keep]
            assert np.abs(law - _debt_gth(result)).sum() <= 1e-14

    @pytest.mark.parametrize("bucket, buffer", [(40, 80), (150, 300)])
    def test_long_buffers_near_critical_load(self, bucket, buffer):
        space = build_state_space(
            TrafficSpec((2,), (1.0,), 0.495), FilterConfig(bucket, buffer, 1.0)
        )
        result = solve_stationary(space)
        assert (result.route, result.solve_matvecs, result.power_steps) == (
            "transfer", 0, 1,
        )
        assert np.abs(result.pi[result.chain.keep] - _debt_gth(result)).sum() <= 1e-10

    @pytest.mark.parametrize("size", [1, 2])
    def test_the_floor_takes_one_power_step(self, size):
        # the law's Poisson weights are cut where the kernel's are, at 1e-16
        space = build_state_space(
            TrafficSpec((size,), (1.0,), 0.99 / size), FilterConfig(150, 300, 1.0)
        )
        result = solve_stationary(space, tol=TOLERANCE_FLOOR)
        assert (result.route, result.solve_matvecs, result.power_steps) == (
            "transfer", 0, 1,
        )
        assert result.residual <= TOLERANCE_FLOOR


class TestTimeAverage:
    def test_full_space_is_one(self, solved_reference):
        space, result, part = solved_reference
        mask = np.ones(space.n_states, dtype=bool)
        assert time_average(result, part, mask) == pytest.approx(1.0, abs=1e-10)

    def test_empty_set_is_zero(self, solved_reference):
        space, result, part = solved_reference
        mask = np.zeros(space.n_states, dtype=bool)
        assert time_average(result, part, mask) == 0.0

    def test_additive_over_disjoint_sets(self, solved_reference):
        space, result, part = solved_reference
        rng = np.random.default_rng(3)
        split = rng.random(space.n_states) < 0.5
        left = time_average(result, part, split)
        right = time_average(result, part, ~split)
        assert left + right == pytest.approx(1.0, abs=1e-10)

    def test_accepts_state_iterables(self, solved_reference):
        space, result, part = solved_reference
        states = [SystemState(5, ()), SystemState(0, (4, 1))]
        mask = np.zeros(space.n_states, dtype=bool)
        for s in states:
            mask[space.index_of(s)] = True
        assert time_average(result, part, states) == pytest.approx(
            time_average(result, part, mask), abs=1e-14
        )

    def test_idle_term_level_cannot_matter(self, solved_reference):
        space, result, part = solved_reference
        mask = np.zeros(space.n_states, dtype=bool)
        mask[space.empty_indices] = True
        values = [
            time_average(result, part, mask, idle_term_level=k) for k in range(6)
        ]
        assert max(values) - min(values) < 1e-10

    def test_blocks_match_the_full_generator(self, solved_small):
        space, result, part = solved_small
        full = build_rate_matrix(space)
        rng = np.random.default_rng(17)
        mask = rng.random(space.n_states) < 0.4
        via_blocks = time_average(result, part, mask)
        averaged_full = integrate_expm_action(full, result.pi, 1.0)
        via_full = float(averaged_full[mask].sum())
        assert abs(via_blocks - via_full) < 1e-10

    def test_averaged_distribution_sums_to_one(self, solved_reference):
        _, result, part = solved_reference
        averaged = time_average_distribution(result, part)
        assert abs(averaged.sum() - 1.0) < 1e-10
        assert averaged.min() >= 0.0


class TestAveragedLaw:
    def test_integrated_once_per_result_and_read_only(
        self, monkeypatch, reference_config
    ):
        calls = []
        average = Uniformization.average

        def counted(*args, **kwargs):
            calls.append(args)
            return average(*args, **kwargs)

        monkeypatch.setattr(Uniformization, "average", counted)
        space = build_state_space(reference_traffic(0.5), reference_config)
        result = solve_stationary(space)
        averaged = time_average_distribution(result)
        occupancy_table(result)
        loss_ratio(result, size=2)
        class_metrics(result)
        assert time_average_distribution(result) is averaged
        assert len(calls) == 1
        assert not averaged.flags.writeable
        with pytest.raises(ValueError):
            averaged[0] = 1.0

    def test_the_generator_is_checked_once_per_result(
        self, monkeypatch, reference_config
    ):
        import tbstat.markov

        calls = []
        check = tbstat.markov._check_generator

        def counted(gen):
            calls.append(gen)
            return check(gen)

        monkeypatch.setattr(tbstat.markov, "_check_generator", counted)
        space = build_state_space(reference_traffic(0.5), reference_config)
        result = solve_stationary(space)
        occupancy_table(result)
        class_metrics(result)
        assert len(calls) == 1
        assert calls[0] is result.chain.rates

    @pytest.mark.parametrize(
        "traffic, config",
        [
            (reference_traffic(0.5), FilterConfig(5, 5, 1.0)),
            (reference_traffic(5.0), FilterConfig(5, 5, 1.0)),
            (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)),
            (reference_traffic(0.45), FilterConfig(4, 6, 1.0)),
        ],
        ids=["reference", "reference_rate_5", "critical_unit", "sparse_108"],
    )
    def test_averaged_is_cut_like_the_solve(self, traffic, config):
        # the solve's kernel, cut at 1e-14, leaves 1.2e-15 to 7.3e-15 L1;
        # a separate series cut at 0.5e-12 left 2.5e-14 to 2.8e-13
        space = build_state_space(traffic, config)
        result = solve_stationary(space)
        keep = result.chain.keep
        rates = result.chain.rates
        dense = rates if isinstance(rates, np.ndarray) else rates.toarray()
        exact = _exact_average(dense, result.pi[keep], config.period)
        assert np.abs(result.averaged[keep] - exact).sum() <= 2e-14
        assert np.array_equal(
            result.averaged[keep], result.kernel.average(result.pi[keep])
        )


class TestOccupancyTable:
    def test_normalized_grid(self, solved_reference):
        _, result, part = solved_reference
        table = occupancy_table(result, part)
        assert table.shape == (6, 6)
        assert table.min() >= 0.0
        assert abs(table.sum() - 1.0) < 1e-8

    def test_vanishing_traffic_sits_idle_at_full_bucket(self):
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 1e-8), FilterConfig(2, 2, 1.0)
        )
        result = solve_stationary(space)
        table = occupancy_table(result)
        assert table[2, 0] > 1 - 1e-5

    @pytest.mark.parametrize("rate", [1e-12, 1e-17])
    def test_light_traffic_keeps_its_mass(self, rate):
        # the average's first weight, (1 - exp(-m)) / m, lost 2.2e-5 to
        # cancellation at 1e-12 and everything at 1e-17
        space = build_state_space(
            TrafficSpec((1, 2), (0.6, 0.4), rate), FilterConfig(2, 3, 1.0)
        )
        result = solve_stationary(space)
        assert abs(result.averaged.sum() - 1.0) <= 1e-14
        assert abs(occupancy_table(result).sum() - 1.0) <= 1e-14


class TestLossRatio:
    def test_blocking_set_for_unit_packets(self, solved_reference):
        space, result, part = solved_reference
        averaged = time_average_distribution(result, part)
        direct = averaged[space.backlog_of_state == 5].sum()
        assert loss_ratio(result, part, size=1) == pytest.approx(
            float(direct), abs=1e-12
        )

    def test_vanishing_traffic_never_blocks(self):
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 1e-8), FilterConfig(2, 2, 1.0)
        )
        result = solve_stationary(space)
        assert loss_ratio(result, size=2) < 1e-6

    def test_monotone_in_packet_size(self, solved_reference):
        _, result, part = solved_reference
        losses = [loss_ratio(result, part, size=s) for s in (1, 2, 3, 4)]
        assert losses == sorted(losses)

    def test_rejects_unknown_size(self, solved_reference):
        _, result, part = solved_reference
        with pytest.raises(ValueError):
            loss_ratio(result, part, size=5)


class TestClassBacklog:
    def test_unit_size_matches_the_occupancy_mean(self):
        config = FilterConfig(5, 5, 1.0)
        space = build_state_space(TrafficSpec((1,), (1.0,), 0.5), config)
        result = solve_stationary(space)
        part = build_partitioned_generator(space)
        table = occupancy_table(result, part)
        mean_backlog = float(table.sum(axis=0) @ np.arange(6))
        assert class_backlog(result, part, size=1) == pytest.approx(
            mean_backlog, abs=1e-8
        )

    def test_weighted_sum_matches_token_backlog(self, solved_reference):
        space, result, part = solved_reference
        averaged = time_average_distribution(result, part)
        total_tokens = float(averaged @ space.backlog_of_state)
        by_class = sum(
            s * class_backlog(result, part, size=s) for s in (1, 2, 3, 4)
        )
        assert by_class == pytest.approx(total_tokens, abs=1e-10)


class TestWaitingTime:
    def test_zero_backlog_means_zero_wait(self):
        assert waiting_time(0.0, 0.2, 0.5, 0.4) == 0.0

    def test_plain_quotient(self):
        assert waiting_time(0.2, 0.0, 0.5, 0.4) == pytest.approx(1.0)

    def test_fully_blocked_class_is_undefined(self):
        assert waiting_time(0.3, 1.0, 0.5, 0.4) is None

    def test_silenced_source_is_undefined(self):
        assert waiting_time(0.0, 0.0, 0.0, 1.0) is None


class TestClassMetrics:
    def test_little_identity_holds_exactly(self, solved_reference):
        _, result, part = solved_reference
        for m in class_metrics(result, part):
            assert m.throughput == pytest.approx(
                (1 - m.loss_ratio) * 0.5 * m.probability, abs=1e-15
            )
            assert m.mean_backlog == pytest.approx(
                m.mean_wait * m.throughput, abs=1e-12
            )

    def test_a_class_lost_within_ulps_of_one_keeps_its_throughput(self):
        # sizes 2..4 find room in masses of 1.5e-17 to 2.7e-16, below the
        # residual of 5.5e-14, where 1 - loss leaves only rounding noise
        space = build_state_space(reference_traffic(300.0), FilterConfig(8, 10, 1.0))
        result = solve_stationary(space)
        table = occupancy_table(result)
        metrics = class_metrics(result)
        for m in metrics:
            accepted = table[:, : 11 - m.size].sum()
            assert m.throughput == pytest.approx(
                300.0 * m.probability * accepted, rel=1e-9, abs=0
            )
        assert metrics[0].mean_wait == metrics[0].mean_backlog / metrics[0].throughput
        assert [m.mean_wait is None for m in metrics] == [False, True, True, True]

    def test_covers_every_class_in_order(self, solved_reference):
        _, result, part = solved_reference
        metrics = class_metrics(result, part)
        assert [m.size for m in metrics] == [1, 2, 3, 4]
        assert [m.probability for m in metrics] == [0.4, 0.3, 0.2, 0.1]
