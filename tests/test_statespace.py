"""Tests for state enumeration, counting and indexing."""

import itertools
from collections import Counter

import numpy as np
import pytest

from tbstat import (
    FilterConfig,
    SystemState,
    TrafficSpec,
    backlog,
    build_state_space,
    cardinality_bound,
    class_count,
    count_by_total,
    count_strings,
    enumerate_strings,
    reachable_indices,
    var_arrive,
    var_replenish,
)
from tests.conftest import reference_traffic


class TestTrafficSpec:
    def test_fields(self):
        t = TrafficSpec((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 0.5)
        assert t.n_classes == 4
        assert t.mean_size == pytest.approx(2.0)
        assert t.class_index(3) == 2

    def test_class_index_rejects_unknown_size(self):
        t = TrafficSpec((1, 2), (0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            t.class_index(3)

    def test_zero_rate_is_a_silenced_source(self):
        t = TrafficSpec((2,), (1.0,), 0.0)
        assert t.rate == 0.0

    @pytest.mark.parametrize(
        "sizes,probs,rate",
        [
            ((), (), 1.0),
            ((0, 1), (0.5, 0.5), 1.0),
            ((2, 1), (0.5, 0.5), 1.0),
            ((1, 1), (0.5, 0.5), 1.0),
            ((1, 2), (0.5,), 1.0),
            ((1, 2), (0.6, 0.6), 1.0),
            ((1, 2), (1.0, 0.0), 1.0),
            ((1, 2), (0.5, 0.5), -0.1),
            ((1, 2), (0.5, 0.5), float("inf")),
        ],
    )
    def test_rejects_malformed(self, sizes, probs, rate):
        with pytest.raises(ValueError):
            TrafficSpec(sizes, probs, rate)


class TestFilterConfig:
    def test_zero_bucket_is_allowed(self):
        assert FilterConfig(bucket=0, buffer=1, period=1.0).bucket == 0

    @pytest.mark.parametrize(
        "bucket,buffer,period",
        [(-1, 5, 1.0), (5, 0, 1.0), (5, 5, 0.0), (5, 5, -2.0), (5, 5, float("nan"))],
    )
    def test_rejects_malformed(self, bucket, buffer, period):
        with pytest.raises(ValueError):
            FilterConfig(bucket, buffer, period)


class TestEnumerateStrings:
    def test_two_sizes_small_cap(self):
        assert enumerate_strings((1, 2), 2) == [(), (1,), (1, 1), (2,)]

    def test_zero_cap_only_empty(self):
        assert enumerate_strings((1,), 0) == [()]

    def test_published_count(self):
        assert len(enumerate_strings((1, 2, 3, 4), 10)) == 833

    def test_strictly_sorted_and_unique(self):
        out = enumerate_strings((1, 3), 9)
        assert out == sorted(set(out))

    def test_all_totals_within_cap(self):
        for z in enumerate_strings((2, 3), 8):
            assert sum(z) <= 8
            assert all(s in (2, 3) for s in z)

    def test_long_strings_do_not_exhaust_the_stack(self):
        out = enumerate_strings((1,), 1500)
        assert len(out) == count_strings((1,), 1500) == 1501
        assert out[-1] == (1,) * 1500


class TestCountStrings:
    def test_published_count(self):
        assert count_strings((1, 2, 3, 4), 10) == 833

    def test_single_even_size(self):
        # only (), (2,), (2, 2) fit under a cap of 4
        assert count_strings((2,), 4) == 3

    def test_zero_cap(self):
        assert count_strings((3, 4), 0) == 1

    def test_matches_enumeration_exhaustively(self):
        sizes_pool = (1, 2, 3, 4, 5, 6)
        for r in range(1, len(sizes_pool) + 1):
            for sizes in itertools.combinations(sizes_pool, r):
                for limit in range(13):
                    assert count_strings(sizes, limit) == len(
                        enumerate_strings(sizes, limit)
                    ), (sizes, limit)

    def test_counts_by_total_match_enumeration(self):
        totals = Counter(sum(z) for z in enumerate_strings((1, 2, 3, 4), 10))
        assert count_by_total((1, 2, 3, 4), 10) == [totals[n] for n in range(11)]

    def test_monotone_in_cap_and_alphabet(self):
        for limit in range(12):
            assert count_strings((1, 2), limit) <= count_strings((1, 2), limit + 1)
            assert count_strings((2, 4), limit) <= count_strings((1, 2, 4), limit)


class TestCardinalityBound:
    def test_unit_minimum_size(self):
        assert cardinality_bound((1, 2, 3, 4), 7) == pytest.approx(4.0**7)

    def test_fractional_exponent(self):
        assert cardinality_bound((3, 4, 5, 6), 3) == pytest.approx(4.0)

    def test_singleton_alphabet_estimate_is_one(self):
        # documented limitation: the growth estimate undershoots here
        assert cardinality_bound((5,), 10) == pytest.approx(1.0)

    @pytest.mark.parametrize("sizes", [(1, 2, 3, 4), (3, 4, 5, 6)])
    def test_dominates_count_on_reference_alphabets(self, sizes):
        for limit in range(3, 11):
            assert count_strings(sizes, limit) <= cardinality_bound(sizes, limit)


class TestStateSpace:
    def test_small_cross_product(self):
        space = build_state_space(
            TrafficSpec((1, 2), (0.5, 0.5), 1.0), FilterConfig(1, 2, 1.0)
        )
        assert space.n_states == 8
        assert space.n_strings == 4

    def test_reference_dimensions(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        assert space.n_strings == 31
        assert space.n_states == 186

    def test_zero_bucket_two_states(self):
        space = build_state_space(
            TrafficSpec((1,), (1.0,), 1.0), FilterConfig(0, 1, 1.0)
        )
        assert space.states == [SystemState(0, ()), SystemState(0, (1,))]

    def test_rejects_oversized_packets(self):
        with pytest.raises(ValueError):
            build_state_space(
                TrafficSpec((1, 6), (0.5, 0.5), 1.0), FilterConfig(2, 5, 1.0)
            )

    def test_index_is_a_bijection(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        for i in range(space.n_states):
            assert space.index_of(space.state_at(i)) == i
        assert len(set(space.states)) == space.n_states

    @pytest.mark.parametrize(
        "sizes, bucket, buffer_cap",
        [((1,), 20, 40), ((2, 5), 2, 30), ((1, 2, 3, 4, 5, 6, 7), 1, 9)],
    )
    def test_index_round_trips_on_other_alphabets(self, sizes, bucket, buffer_cap):
        traffic = TrafficSpec(sizes, (1 / len(sizes),) * len(sizes), 1.0)
        space = build_state_space(traffic, FilterConfig(bucket, buffer_cap, 1.0))
        for i in range(space.n_states):
            assert space.index_of(space.state_at(i)) == i
        assert len(set(space.states)) == space.n_states

    def test_level_major_layout(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        # each level starts at its idle state, strings repeat per level
        for level in range(reference_config.bucket + 1):
            sl = space.level_slice(level)
            assert sl.start == level * space.n_strings
            assert space.state_at(sl.start) == SystemState(level, ())
        assert list(space.empty_indices) == [
            level * space.n_strings for level in range(6)
        ]

    def test_vectorized_views_match_states(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        for i, state in enumerate(space.states):
            assert space.token_of_state[i] == state.tokens
            assert space.backlog_of_state[i] == sum(state.buffer)

    @pytest.mark.parametrize(
        "sizes, probs, buffer_cap",
        [
            ((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 5),
            ((2, 5), (0.5, 0.5), 12),
            ((3,), (1.0,), 9),
        ],
    )
    def test_string_class_counts_match_class_count(self, sizes, probs, buffer_cap):
        space = build_state_space(
            TrafficSpec(sizes, probs, 1.0), FilterConfig(2, buffer_cap, 1.0)
        )
        want = [[class_count(s, z) for s in sizes] for z in space.strings]
        assert space.string_class_counts.tolist() == want

    def test_index_of_rejects_foreign_states(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        with pytest.raises(KeyError):
            space.index_of(SystemState(9, ()))
        with pytest.raises(KeyError):
            space.index_of(SystemState(0, (6,)))


class TestReachability:
    def test_full_bucket_idle_state_is_reachable(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        reachable = set(reachable_indices(space))
        assert space.index_of(SystemState(5, ())) in reachable

    def test_reference_set_is_closed_under_the_dynamics(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        reachable = {space.state_at(i) for i in reachable_indices(space)}
        assert len(reachable) == 58
        for state in reachable:
            assert var_replenish(state, 5) in reachable
            for size in space.traffic.sizes:
                assert var_arrive(state, size, 5)[0] in reachable

    def test_waiting_head_always_outprices_tokens(self, reference_config):
        # a queued head the bucket could pay for can never arise
        space = build_state_space(reference_traffic(0.5), reference_config)
        for i in reachable_indices(space):
            state = space.state_at(i)
            if state.buffer:
                assert state.tokens < state.buffer[0]

    def test_reachability_leaves_the_transition_table_unbuilt(self, reference_config):
        space = build_state_space(reference_traffic(0.5), reference_config)
        reachable_indices(space)
        assert "transitions" not in space.__dict__


class TestStringHelpers:
    def test_backlog_sums_sizes(self):
        assert backlog((3, 1, 3)) == 7
        assert backlog(()) == 0

    def test_class_count(self):
        assert class_count(3, (3, 1, 3)) == 2
        assert class_count(2, ()) == 0
