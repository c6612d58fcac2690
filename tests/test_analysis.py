"""Tests for the stationary solution and its output statistics."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tbstat

from tbstat import (
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
from tbstat.analysis import _ENTRIES_PER_STATE, _MAX_MATVECS, _bicgstab, _gth
from tbstat.markov import reachable_chain, uniformize
from tests.conftest import reference_traffic


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


def _per_column_bound(space, kernel) -> int:
    """Entries a column of exp(R t) can hold: queued packets or series
    jumps, whichever is fewer, plus the idle states."""
    packets = space.config.buffer // min(space.traffic.sizes)
    jumps = kernel.pieces * (len(kernel.point_weights) - 1)
    return min(packets, jumps) + space.config.bucket + 1


class TestAssembledPeriodOperator:
    @pytest.mark.parametrize(
        "traffic, config, matvecs",
        [
            (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0), 0),
            (reference_traffic(0.45), FilterConfig(8, 12, 1.0), 115),
            (reference_traffic(0.5), FilterConfig(5, 5, 1.0), 0),
        ],
        ids=["critical_unit", "large_space", "reference"],
    )
    def test_solver_work_on_the_benchmark_chains(self, traffic, config, matvecs):
        space = build_state_space(traffic, config)
        result = solve_stationary(space)
        # 61 and 58 states are eliminated densely, 5,473 solved by BiCGSTAB
        assert result.solve_matvecs == matvecs
        assert result.power_steps == 1
        kernel = uniformize(result.chain.rates, config.period, 1e-14)
        n = len(result.chain.keep)
        assert result.period_nnz is not None
        assert result.period_nnz <= n * _per_column_bound(space, kernel)

    def test_deep_chain_steps_vector_by_vector(self):
        # unit sizes, a long buffer and a high rate: a column of the
        # period's exponential may hold far more entries than the solve
        # holds per state, so no matrix is assembled
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 200.0), FilterConfig(5, 600, 1.0)
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
        assert result.period_nnz is None
        assert peak <= 2 * _ENTRIES_PER_STATE * n * 8

        uniform = np.full(n, 1.0 / n)

        def step(vec):
            return chain.grant_t @ kernel.point(vec)

        kept, matvecs = _bicgstab(
            lambda vec: vec - step(vec) + vec.sum() * uniform,
            uniform, uniform, 1e-12, _MAX_MATVECS,
        )
        kept = np.clip(kept, 0.0, None)
        stepped = stationary_power(step, n, kept / kept.sum(), 1e-10)
        assert np.array_equal(result.pi[chain.keep], stepped.pi)
        assert result.solve_matvecs == matvecs
        assert result.power_steps == stepped.iterations


def _system(n: int, spread: float, seed: int):
    """A seeded nonsymmetric system ``I + spread * R / sqrt(n)``, R Gaussian."""
    rng = np.random.default_rng(seed)
    mat = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    return mat, rng.standard_normal(n)


class TestBiCGSTAB:
    @staticmethod
    def _solve(mat, rhs, rtol, max_calls, corrupt=None):
        calls = []

        def apply(vec):
            calls.append(1)
            out = mat @ vec
            if len(calls) == corrupt:
                out[0] += 1e-3
            return out

        x, counted = _bicgstab(apply, rhs, np.zeros(len(rhs)), rtol, max_calls)
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

    @pytest.mark.parametrize("max_calls", [7, 20, 41])
    def test_the_cap_bounds_the_products(self, max_calls):
        # spread 2 puts eigenvalues near zero: far from converged at the cap
        mat, rhs = _system(60, 2.0, 3)
        err, calls = self._solve(mat, rhs, 1e-14, max_calls)
        assert err > 1e-6
        assert max_calls - 2 <= calls <= max_calls


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
        # 61 states are eliminated densely; power steps certify at 1e-14
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)
        )
        result = solve_stationary(space, tol=1e-14)
        assert result.residual <= 1e-14
        assert result.iterations < 1000

    def test_stagnating_iterative_solve_stops_within_its_cap(self):
        # 121 states take BiCGSTAB, whose tol / 100 lies below what the
        # kernel resolves: the recurrence stagnates and must stop in
        # bounded work, leaving power steps to certify
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 0.99), FilterConfig(40, 80, 1.0)
        )
        result = solve_stationary(space, tol=1e-14)
        assert len(result.chain.keep) == 121
        assert result.residual <= 1e-14
        assert 0 < result.solve_matvecs <= _MAX_MATVECS
        assert result.iterations < 1000


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
        import tbstat.analysis

        calls = []
        integrate = tbstat.analysis.integrate_expm_action

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(tbstat.analysis, "integrate_expm_action", counted)
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

    def test_covers_every_class_in_order(self, solved_reference):
        _, result, part = solved_reference
        metrics = class_metrics(result, part)
        assert [m.size for m in metrics] == [1, 2, 3, 4]
        assert [m.probability for m in metrics] == [0.4, 0.3, 0.2, 0.1]
