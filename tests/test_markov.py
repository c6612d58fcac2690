"""Tests for the probabilistic operators and numerical kernels."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.stats

from tbstat import (
    ConvergenceError,
    FilterConfig,
    SystemState,
    TrafficSpec,
    build_md1_chain,
    build_partitioned_generator,
    build_periodic_transfer_chain,
    build_rate_matrix,
    build_replenishment_matrix,
    build_state_space,
    expm_action,
    integrate_expm_action,
    md1_step,
    periodic_transfer_step,
    stationary_dense,
    stationary_power,
    var_arrive,
    var_replenish,
)
from tbstat.markov import (
    ArrivalDistribution,
    _fixed_length_law,
    _gth,
    reachable_chain,
    reachable_period,
    row_sum_defect,
    uniformize,
)
from tests.conftest import reference_traffic


@pytest.fixture(scope="module")
def reference_space(reference_config):
    return build_state_space(reference_traffic(0.5), reference_config)


@pytest.fixture(scope="module")
def small_space():
    return build_state_space(
        TrafficSpec((1, 2), (0.6, 0.4), 0.8), FilterConfig(2, 3, 1.0)
    )


class TestArrivalDistribution:
    def test_matches_reference_pmf(self):
        dist = ArrivalDistribution.from_mean(2.5)
        want = scipy.stats.poisson.pmf(np.arange(len(dist.pmf)), 2.5)
        assert np.abs(dist.pmf - want).max() < 1e-15

    def test_pmf_plus_tail_is_one(self):
        for mean in (0.1, 1.0, 7.3, 40.0):
            dist = ArrivalDistribution.from_mean(mean)
            assert abs(dist.pmf.sum() + dist.tail - 1.0) < 1e-12

    def test_rejects_underflowing_mean(self):
        with pytest.raises(ValueError):
            ArrivalDistribution.from_mean(1e6)

    @pytest.mark.parametrize("mean", [709.0, 720.0, 740.0, 745.0])
    def test_a_subnormal_chance_of_none_keeps_the_weights(self, mean):
        # exp(-mean) is subnormal: run from it, the recurrence would carry
        # its lost digits into every weight
        dist = ArrivalDistribution.from_mean(mean)
        assert abs(dist.pmf.sum() - 1.0) <= 1e-13
        want = scipy.stats.poisson.pmf(np.arange(len(dist.pmf)), mean)
        assert np.abs(dist.pmf - want).max() <= 1e-13


class TestReplenishmentMatrix:
    def test_exactly_one_unit_entry_per_row(self, reference_space):
        mat = build_replenishment_matrix(reference_space).toarray()
        assert ((mat == 1.0).sum(axis=1) == 1).all()
        assert (mat.sum(axis=1) == 1.0).all()

    def test_rows_agree_with_the_transition_function(self, reference_space):
        mat = build_replenishment_matrix(reference_space)
        bucket = reference_space.config.bucket
        for i, state in enumerate(reference_space.states):
            j = mat.indices[mat.indptr[i]]
            assert reference_space.state_at(j) == var_replenish(state, bucket)

    def test_full_bucket_idle_fixed_point(self, reference_space):
        i = reference_space.index_of(SystemState(5, ()))
        mat = build_replenishment_matrix(reference_space)
        assert mat[i, i] == 1.0


class TestRateMatrix:
    def test_idle_row_rates(self, reference_space):
        # from 3 banked tokens: sizes 1..3 transfer instantly, size 4 queues
        mat = build_rate_matrix(reference_space)
        space = reference_space
        i = space.index_of(SystemState(3, ()))
        assert mat[i, space.index_of(SystemState(2, ()))] == pytest.approx(0.2)
        assert mat[i, space.index_of(SystemState(1, ()))] == pytest.approx(0.15)
        assert mat[i, space.index_of(SystemState(0, ()))] == pytest.approx(0.1)
        assert mat[i, space.index_of(SystemState(3, (4,)))] == pytest.approx(0.05)
        assert mat[i, i] == pytest.approx(-0.5)

    def test_saturated_buffer_row_is_zero(self, reference_space):
        i = reference_space.index_of(SystemState(0, (1, 4)))
        row = build_rate_matrix(reference_space).getrow(i)
        assert row.nnz == 0

    def test_append_rates_respect_capacity(self, reference_space):
        space = reference_space
        mat = build_rate_matrix(space)
        i = space.index_of(SystemState(2, (3,)))
        assert mat[i, space.index_of(SystemState(2, (3, 1)))] == pytest.approx(0.2)
        assert mat[i, space.index_of(SystemState(2, (3, 2)))] == pytest.approx(0.15)
        # a 3 or 4 would overflow the remaining two units
        assert mat[i, i] == pytest.approx(-0.35)

    @pytest.mark.parametrize("bucket", [5, 0])
    def test_rows_agree_with_the_transition_function(self, bucket):
        space = build_state_space(reference_traffic(0.5), FilterConfig(bucket, 5, 1.0))
        mat = build_rate_matrix(space)
        traffic = space.traffic
        for i, state in enumerate(space.states):
            want: dict[int, float] = {}
            for size, prob in zip(traffic.sizes, traffic.probs):
                nxt, kept = var_arrive(state, size, space.config.buffer)
                if kept:
                    j = space.index_of(nxt)
                    want[j] = want.get(j, 0.0) + prob * traffic.rate
            if want:
                want[i] = -sum(want.values())
            lo, hi = mat.indptr[i], mat.indptr[i + 1]
            got = dict(zip(mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()))
            assert got == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("rate", [0.5, 0.0])
    def test_stores_no_explicit_zeros(self, reference_config, rate):
        mat = build_rate_matrix(
            build_state_space(reference_traffic(rate), reference_config)
        )
        assert mat.nnz == np.count_nonzero(mat.data)

    def test_generator_structure(self, reference_space):
        mat = build_rate_matrix(reference_space)
        assert row_sum_defect(mat) < 1e-12
        off = mat.toarray().copy()
        np.fill_diagonal(off, 0.0)
        assert off.min() >= 0.0
        assert np.abs(mat.diagonal()).max() <= 0.5 + 1e-15


class TestPartitionedGenerator:
    def test_idle_block_diagonal_is_minus_rate(self, reference_space):
        part = build_partitioned_generator(reference_space)
        assert np.allclose(part.idle_block.diagonal(), -0.5)

    def test_couplings_live_in_their_own_row(self, reference_space):
        part = build_partitioned_generator(reference_space)
        space = reference_space
        for level in range(6):
            coupling = part.coupling(level).toarray()
            others = np.delete(coupling, level, axis=0)
            assert not others.any()
            # nonzeros sit at single-packet strings the bucket cannot pay
            for j in np.flatnonzero(coupling[level]):
                z = space.strings[j + 1]
                assert len(z) == 1 and z[0] > level

    def test_gamma_rows_conserve(self, reference_space):
        part = build_partitioned_generator(reference_space)
        for level in range(6):
            assert row_sum_defect(part.gamma(level)) < 1e-12

    def test_gamma_queue_rows_never_reach_idle(self, reference_space):
        part = build_partitioned_generator(reference_space)
        n_idle = part.n_idle
        for level in range(6):
            gamma = part.gamma(level).toarray()
            assert not gamma[n_idle:, :n_idle].any()

    def test_blocks_embed_into_the_full_rate_matrix(self, small_space):
        space = small_space
        full = build_rate_matrix(space).toarray()
        part = build_partitioned_generator(space)
        n_idle = part.n_idle
        idle_ix = space.empty_indices
        assert np.array_equal(
            part.idle_block, full[np.ix_(idle_ix, idle_ix)]
        )
        for level in range(n_idle):
            queue_ix = np.arange(
                space.nonempty_slice(level).start, space.nonempty_slice(level).stop
            )
            gamma = part.gamma(level).toarray()
            assert np.array_equal(
                gamma[:n_idle, n_idle:-1], full[np.ix_(idle_ix, queue_ix)]
            )
            assert np.array_equal(
                gamma[n_idle:-1, n_idle:-1], full[np.ix_(queue_ix, queue_ix)]
            )


class TestFixedLengthChains:
    def test_idle_row_of_the_transfer_chain(self):
        chain = build_periodic_transfer_chain(0.5, 5, 5)
        p = scipy.stats.poisson.pmf([0, 1], 0.5)
        assert chain[0, 0] == pytest.approx(p[0] + p[1], abs=1e-14)

    def test_vanishing_traffic_drains_one_unit(self):
        chain = build_periodic_transfer_chain(1e-9, 4, 3)
        for s in range(8):
            assert chain[s, max(0, s - 1)] > 1 - 1e-6

    def test_rows_are_stochastic(self):
        for build in (build_periodic_transfer_chain, build_md1_chain):
            chain = build(0.5, 5, 5)
            assert chain.shape == (11, 11)
            assert np.abs(chain.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("buffer_cap, bucket", [(1, 0), (5, 5), (40, 3), (300, 8)])
    @pytest.mark.parametrize("rate", [1e-9, 0.5, 0.99, 7.0, 120.0])
    def test_matches_the_state_by_state_build(self, buffer_cap, bucket, rate):
        # the scalar steps, one state and arrival count at a time
        arr = ArrivalDistribution.from_mean(rate)
        n = buffer_cap + bucket + 1
        for build, step in (
            (build_periodic_transfer_chain, periodic_transfer_step),
            (build_md1_chain, md1_step),
        ):
            expected = np.zeros((n, n))
            for s in range(n):
                for a, p in enumerate(arr.pmf):
                    expected[s, step(s, a, buffer_cap, bucket)] += p
                expected[s, step(s, len(arr.pmf), buffer_cap, bucket)] += arr.tail
            assert np.array_equal(build(rate, buffer_cap, bucket), expected)

    @pytest.mark.parametrize("md1", [False, True], ids=["transfer", "md1"])
    @pytest.mark.parametrize(
        "mean, buffer_cap, bucket",
        [
            # 2 to 9 states, from no arrivals to a subnormal chance of none
            (mean, buffer_cap, bucket)
            for mean in (0.0, 5e-324, 1e-300, 1e-17, 1e-9, 709.0, 740.0, 745.0)
            for buffer_cap, bucket in (
                (1, 0), (1, 1), (2, 1), (3, 1), (4, 1), (2, 4), (5, 2), (3, 5)
            )
        ]
        + [(mean, 4000, 5) for mean in (0.5, 0.97, 50.0, 700.0)]
        + [(1.05, 2000, 5)],
    )
    def test_the_law_is_gth_of_the_built_chain(self, mean, buffer_cap, bucket, md1):
        # read off the Poisson tails, the law agrees with eliminating the
        # chain to the digits a report keeps; past mean 709 the chance of no
        # arrival is subnormal, and dividing by it would overflow; at means
        # 50 and 700 back substitution rescales at every step, and the
        # masses it leaves behind underflow to 0; at mean 1.05 each mass is
        # a little over the last, and rescales are rare
        build = build_md1_chain if md1 else build_periodic_transfer_chain
        expected = _gth(build(mean, buffer_cap, bucket))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = _fixed_length_law(mean, buffer_cap, bucket, md1)
        assert np.abs(law - expected).sum() <= 1e-15
        assert [f"{x:.12g}" for x in law] == [f"{x:.12g}" for x in expected]

    @pytest.mark.parametrize("md1", [False, True], ids=["transfer", "md1"])
    def test_each_dot_is_cut_to_the_poisson_weights(self, monkeypatch, md1):
        # the cut's mass sits at len(pmf) arrivals and T is 0 past it, so no
        # column reads further back than the weights kept: O(n K), not O(n^2)
        kept = len(ArrivalDistribution.from_mean(0.5).pmf)
        lengths, dot = [], np.dot

        def spy(a, b, *args):
            lengths.append(len(a))
            return dot(a, b, *args)

        monkeypatch.setattr(np, "dot", spy)
        _fixed_length_law(0.5, 4000, 5, md1)
        monkeypatch.undo()
        assert len(lengths) == 4004 and max(lengths) <= kept + 1

    def test_the_two_chains_differ(self):
        transfer = stationary_dense(build_periodic_transfer_chain(0.5, 5, 5))
        md1 = stationary_dense(build_md1_chain(0.5, 5, 5))
        assert 0.5 * np.abs(transfer - md1).sum() > 1e-3


class TestExpmAction:
    def test_zero_time_is_identity(self):
        gen = np.array([[-1.0, 1.0], [0.0, 0.0]])
        v = np.array([0.3, 0.7])
        assert np.array_equal(expm_action(gen, v, 0.0), v)

    def test_zero_generator_is_identity(self):
        v = np.array([0.2, 0.8])
        assert np.array_equal(expm_action(np.zeros((2, 2)), v, 5.0), v)

    def test_two_state_closed_form(self):
        gen = np.array([[-1.0, 1.0], [0.0, 0.0]])
        got = expm_action(gen, np.array([1.0, 0.0]), 1.0)
        want = np.array([math.exp(-1), 1 - math.exp(-1)])
        assert np.abs(got - want).max() < 1e-12

    def test_matches_dense_exponential(self, small_space):
        gen = build_rate_matrix(small_space)
        dense = scipy.linalg.expm(gen.toarray() * 1.7)
        v = np.zeros(small_space.n_states)
        v[0] = 0.4
        v[5] = 0.6
        got = expm_action(gen, v, 1.7)
        assert np.abs(got - v @ dense).max() < 1e-12

    def test_long_horizons_are_chunked(self):
        # rate * t far beyond one series chunk
        gen = np.array([[-5.0, 5.0], [5.0, -5.0]])
        got = expm_action(gen, np.array([1.0, 0.0]), 60.0)
        assert np.abs(got - 0.5).max() < 1e-12

    def test_preserves_mass_and_positivity(self, reference_space):
        gen = build_rate_matrix(reference_space)
        rng = np.random.default_rng(5)
        v = rng.random(reference_space.n_states)
        v /= v.sum()
        out = expm_action(gen, v, 1.0)
        assert abs(out.sum() - 1.0) < 1e-12
        assert out.min() >= -1e-15

    def test_rejects_mass_creation(self):
        with pytest.raises(ValueError):
            expm_action(np.array([[0.5]]), np.array([1.0]), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm_action(np.zeros((1, 1)), np.array([1.0]), -1.0)

    def test_accepts_leaky_generator(self):
        got = expm_action(np.array([[-2.0]]), np.array([1.0]), 0.5)
        assert abs(got[0] - math.exp(-1.0)) < 1e-13


class TestIntegrateExpmAction:
    def test_zero_generator_returns_the_vector(self):
        v = np.array([0.1, 0.9])
        assert np.array_equal(
            integrate_expm_action(np.zeros((2, 2)), v, 3.0), v
        )

    def test_scalar_closed_form(self):
        lam, tau = 0.5, 2.0
        got = integrate_expm_action(np.array([[-lam]]), np.array([1.0]), tau)
        want = (1 - math.exp(-lam * tau)) / (lam * tau)
        assert abs(got[0] - want) < 1e-12

    def test_average_keeps_mass_for_conserving_generators(self, reference_space):
        gen = build_rate_matrix(reference_space)
        rng = np.random.default_rng(9)
        v = rng.random(reference_space.n_states)
        v /= v.sum()
        out = integrate_expm_action(gen, v, 1.0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_matches_quadrature(self, small_space):
        gen = build_rate_matrix(small_space).toarray()
        v = np.zeros(small_space.n_states)
        v[3] = 1.0
        tau = 1.3
        grid = np.linspace(0.0, tau, 2001)
        samples = np.array([v @ scipy.linalg.expm(gen * s) for s in grid])
        want = scipy.integrate.trapezoid(samples, grid, axis=0) / tau
        got = integrate_expm_action(gen, v, tau)
        assert np.abs(got - want).max() < 1e-8

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            integrate_expm_action(np.zeros((1, 1)), np.array([1.0]), 0.0)


def _leaky_generator(n: int, seed: int) -> np.ndarray:
    """A dense random generator whose last row leaks mass."""
    rng = np.random.default_rng(seed)
    gen = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(gen, 0.0)
    gen[np.diag_indices(n)] = -gen.sum(axis=1)
    gen[-1, -1] -= 0.7
    return gen


def _exact_average(gen: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    """``vec`` times the integral of exp(gen s) over [0, t], divided by t.

    The integral is the upper right block of the exponential of the
    augmented matrix [[gen, I], [0, 0]] times t.
    """
    n = gen.shape[0]
    augmented = np.zeros((2 * n, 2 * n))
    augmented[:n, :n] = gen
    augmented[:n, n:] = np.eye(n)
    return vec @ scipy.linalg.expm(augmented * t)[:n, n:] / t


class TestUniformize:
    @pytest.mark.parametrize("form", ["dense", "csr", "csc"])
    @pytest.mark.parametrize("t", [0.9, 200.0])
    def test_matches_the_dense_exponential(self, small_space, form, t):
        # small_space's rate matrix conserves mass, the random one leaks;
        # at t = 200 they take 2 and 3 pieces
        convert = {"dense": np.asarray, "csr": sp.csr_matrix, "csc": sp.csc_matrix}
        for gen in (build_rate_matrix(small_space).toarray(), _leaky_generator(7, 3)):
            n = gen.shape[0]
            vec = np.random.default_rng(n).random(n)
            vec /= vec.sum()
            kernel = uniformize(convert[form](gen), t)
            rate = np.abs(np.diag(gen)).max()
            assert kernel.pieces == math.ceil(rate * t / 128)
            point = vec @ scipy.linalg.expm(gen * t)
            assert np.abs(kernel.point(vec) - point).max() < 1e-12
            average = _exact_average(gen, vec, t)
            assert np.abs(kernel.average(vec) - average).max() < 1e-12

    def test_wrappers_are_the_kernel(self, small_space):
        gen = build_rate_matrix(small_space)
        vec = np.linspace(0.0, 1.0, small_space.n_states)
        kernel = uniformize(gen, 1.3)
        assert np.array_equal(expm_action(gen, vec, 1.3), kernel.point(vec))
        assert np.array_equal(
            integrate_expm_action(gen, vec, 1.3),
            uniformize(gen, 1.3).average(vec),
        )

    def test_nothing_moves_without_rate_or_time(self):
        vec = np.array([0.25, 0.75])
        for kernel in (
            uniformize(np.zeros((2, 2)), 3.0),
            uniformize(np.array([[-1.0, 1.0], [0.0, 0.0]]), 0.0),
        ):
            assert kernel.step is None
            assert np.array_equal(kernel.point(vec), vec)
            assert np.array_equal(kernel.average(vec), vec)

    def test_nothing_moves_when_the_mean_jump_count_underflows(self):
        # 0.5 * 5e-324 rounds to 0: the average's first weight would divide
        # by that zero mean
        vec = np.array([0.25, 0.75])
        gen = np.array([[-0.5, 0.5], [0.0, 0.0]])
        for form in (np.asarray, sp.csr_matrix):
            kernel = uniformize(form(gen), 5e-324)
            assert kernel.step is None
            assert np.array_equal(kernel.point(vec), vec)
            assert np.array_equal(kernel.average(vec), vec)


class TestOperator:
    @pytest.mark.parametrize("form", ["dense", "csr", "csc"])
    @pytest.mark.parametrize("t", [0.9, 200.0])
    def test_columns_are_the_point_action(self, small_space, form, t):
        # at t = 200 the conserving generator takes 2 pieces, the leaky 3
        convert = {"dense": np.asarray, "csr": sp.csr_matrix, "csc": sp.csc_matrix}
        for gen in (build_rate_matrix(small_space).toarray(), _leaky_generator(7, 3)):
            n = gen.shape[0]
            kernel = uniformize(convert[form](gen), t)
            assert (kernel.pieces > 1) == (t * np.abs(np.diag(gen)).max() > 128)
            op = kernel.operator()
            assert op.format == "csr" and op.shape == (n, n)
            point = np.column_stack([kernel.point(basis) for basis in np.eye(n)])
            if form == "dense":
                # BLAS sums a matrix product in another order than a
                # vector's; the unit inputs set the scale of the rounding
                assert np.abs(op.toarray() - point).sum(axis=0).max() <= 1e-15
            else:
                # a sparse product sums each entry in the order of the
                # vector's, so the columns are point's to the last bit
                assert np.array_equal(op.toarray(), point)

    def test_nothing_moves_without_rate_or_time(self):
        for kernel in (
            uniformize(sp.csr_matrix((3, 3)), 3.0),
            uniformize(np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0, 0, 0]]), 0.0),
        ):
            op = kernel.operator()
            assert op.format == "csr"
            assert np.array_equal(op.toarray(), np.eye(3))

    def test_the_sum_holds_a_few_copies_of_the_result(self):
        # Horner's rule keeps one accumulator, so the sum, its product with
        # the step and the next sum are all the series holds at once
        space = build_state_space(reference_traffic(0.45), FilterConfig(8, 12, 1.0))
        kernel = uniformize(reachable_chain(space).rates, 1.0, 1e-14)
        tracemalloc.start()
        try:
            op = kernel.operator()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


@pytest.mark.parametrize(
    "traffic, config, pieces",
    [
        (reference_traffic(0.45), FilterConfig(8, 12, 1.0), 1),
        (reference_traffic(0.45), FilterConfig(8, 14, 1.0), 1),
        (TrafficSpec((1, 2), (0.5, 0.5), 5.0), FilterConfig(3, 16, 1.0), 1),
        (reference_traffic(0.45), FilterConfig(90, 8, 1.0), 1),
        (TrafficSpec((2, 5), (0.5, 0.5), 0.28), FilterConfig(4, 30, 1.0), 1),
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(150, 300, 1.0), 1),
        (TrafficSpec((1, 2), (0.5, 0.5), 1.0), FilterConfig(100, 16, 1.0), 1),
        (reference_traffic(200.0), FilterConfig(8, 8, 1.0), 2),
        (reference_traffic(300.0), FilterConfig(8, 10, 1.0), 3),
        (reference_traffic(0.0), FilterConfig(8, 12, 1.0), 1),
    ],
    ids=[
        "large_space", "ladder_l14", "sizes_1_2_rate_5", "sizes_1_4_m90",
        "sizes_2_5", "unit_m150", "sizes_1_2_m100", "two_pieces",
        "three_pieces", "rate_0",
    ],
)
def test_the_reachable_kernel_is_the_operator(traffic, config, pieces):
    # P^T folds each column of exp(R t)^T at its rows' grant targets: an
    # occupied column's rows only move, idle blocks merge by one bincount;
    # every entry sums what the two sparse products sum
    space = build_state_space(traffic, config)
    chain = reachable_chain(space)
    kernel = uniformize(chain.rates, config.period)
    assert sp.issparse(chain.rates) and kernel.pieces == pieces
    operator = kernel.operator()
    built, want = reachable_period(space, chain, kernel), chain.grant_t @ operator
    assert built.format == "csr" and built.shape == want.shape
    built.sort_indices()
    want.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, name), getattr(want, name)), name
    # the states an occupied source reaches keep its head, so their grant
    # targets differ
    n = len(chain.keep)
    columns = operator.tocsc()
    source = np.repeat(np.arange(n), np.diff(columns.indptr))
    occupied = chain.keep[source] % space.n_strings != 0
    cells = source[occupied] * n + chain.grant[columns.indices[occupied]]
    assert len(np.unique(cells)) == len(cells) > 0
    if traffic.rate == 0:
        assert np.array_equal(built.toarray(), chain.grant_t.toarray())


@pytest.mark.parametrize("rate, pieces", [(200.0, 2), (1000.0, 8), (1e5, 782)])
def test_a_dense_kernel_sums_one_piece_once(rate, pieces):
    # unit sizes at M=L=5 hold 11 states densely; at rate 1e5 each piece
    # sums about 230 terms, which the kernel sums once, not once a piece
    space = build_state_space(TrafficSpec((1,), (1.0,), rate), FilterConfig(5, 5, 1.0))
    kernel = uniformize(reachable_chain(space).rates, 1.0)
    assert isinstance(kernel.step, np.ndarray) and kernel.pieces == pieces
    vec = np.random.default_rng(pieces).random(kernel.dim)
    vec /= vec.sum()

    def series(vec, weights):  # Horner's rule, piece by piece
        acc = weights[-1] * vec
        for w in reversed(weights[:-1]):
            acc = kernel.step @ acc + w * vec
        return acc

    current = vec
    average = series(current, kernel.average_weights)
    for _ in range(1, pieces):
        current = series(current, kernel.point_weights)
        average += series(current, kernel.average_weights)
    point = series(current, kernel.point_weights)
    assert np.abs(kernel.point(vec) - point).sum() <= 1e-13
    assert np.abs(kernel.average(vec) - average / pieces).sum() <= 1e-13


@pytest.mark.parametrize(
    "traffic, config",
    [
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0)),
        (reference_traffic(0.5), FilterConfig(5, 5, 1.0)),
        (reference_traffic(0.45), FilterConfig(8, 12, 1.0)),
    ],
    ids=["critical_unit", "reference", "large_space"],
)
def test_grant_positions_are_the_replenishment_map_on_the_chain(traffic, config):
    space = build_state_space(traffic, config)
    chain = reachable_chain(space)
    n = len(chain.keep)
    full = build_replenishment_matrix(space)[chain.keep][:, chain.keep].tocsr()
    # one grant target a state, so row i's one column is grant[i]
    assert np.array_equal(np.diff(full.indptr), np.ones(n))
    assert np.array_equal(full.indices, chain.grant)
    assert np.array_equal(full.data, np.ones(n))
    assert (chain.grant_t != full.T).nnz == 0


@pytest.mark.parametrize(
    "traffic, config, n, dense",
    [
        (TrafficSpec((1,), (1.0,), 0.99), FilterConfig(20, 40, 1.0), 61, True),
        (reference_traffic(0.5), FilterConfig(5, 5, 1.0), 58, True),
        (reference_traffic(0.45), FilterConfig(8, 12, 1.0), 5473, False),
    ],
    ids=["critical_unit", "reference", "large_space"],
)
def test_the_chain_is_built_in_the_form_it_is_solved_in(traffic, config, n, dense):
    # small chains are eliminated densely, so their generator is densified
    # once where the chain is built; larger ones stay sparse
    space = build_state_space(traffic, config)
    chain = reachable_chain(space)
    assert len(chain.keep) == n
    if dense:
        assert isinstance(chain.rates, np.ndarray)
        expected = build_rate_matrix(space).toarray()[np.ix_(chain.keep, chain.keep)]
        assert np.array_equal(chain.rates, expected)
    else:
        assert sp.issparse(chain.rates) and chain.rates.format == "csc"


class TestStationarySolvers:
    def test_identity_step_returns_the_start(self):
        solve = stationary_power(lambda v: v, dim=4, start=2)
        assert solve.pi[2] == 1.0
        assert solve.residual == 0.0
        assert solve.iterations <= 1  # just the verifying application

    def test_exact_start_vector_returns_after_one_step(self):
        chain = build_periodic_transfer_chain(0.5, 2, 2)
        direct = stationary_dense(chain)
        solve = stationary_power(lambda v: v @ chain, dim=5, start=direct, tol=1e-12)
        assert solve.iterations == 1
        assert np.array_equal(solve.pi, direct)
        assert solve.residual == np.abs(direct @ chain - direct).sum()

    def test_rejects_start_vector_of_wrong_length(self):
        with pytest.raises(ValueError):
            stationary_power(lambda v: v, dim=4, start=np.ones(3) / 3)

    def test_periodic_chain_raises_with_diagnostics(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            stationary_power(lambda v: v @ flip, dim=2, max_iters=500)
        assert err.value.residual > 0.1
        assert err.value.iterations == 500

    def test_non_finite_step_raises_at_once(self):
        calls = []

        def step(vec):
            calls.append(1)
            return np.full_like(vec, np.nan)

        with pytest.raises(ConvergenceError) as err:
            stationary_power(step, dim=3)
        assert err.value.iterations == 1
        assert len(calls) == 1
        assert np.isnan(err.value.residual)

    def test_power_matches_dense_solve(self):
        chain = build_periodic_transfer_chain(0.5, 2, 2)
        direct = stationary_dense(chain)
        solve = stationary_power(lambda v: v @ chain, dim=5, tol=1e-12)
        assert np.abs(solve.pi - direct).max() < 1e-10
        assert np.abs(solve.pi @ chain - solve.pi).sum() <= 1e-10

    def test_dense_solve_matches_eigenvector(self):
        chain = build_md1_chain(0.8, 3, 2)
        pi = stationary_dense(chain)
        values, vectors = np.linalg.eig(chain.T)
        lead = vectors[:, np.argmin(np.abs(values - 1.0))].real
        lead /= lead.sum()
        assert np.abs(pi - lead).max() < 1e-10
        assert pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) < 1e-12

    def test_reported_residual_is_verified(self):
        chain = build_periodic_transfer_chain(1.0, 4, 4)
        solve = stationary_power(lambda v: v @ chain, dim=9, tol=1e-11)
        assert np.abs(solve.pi @ chain - solve.pi).sum() == solve.residual
        assert solve.residual <= 1e-11
