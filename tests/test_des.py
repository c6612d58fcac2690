"""Tests for the discrete-event simulator and its output analysis."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tbstat import des
from tbstat import (
    FilterConfig,
    InsufficientData,
    InvariantChecker,
    InvariantViolation,
    SimStats,
    SystemState,
    TrafficSpec,
    batch_confidence,
    build_periodic_transfer_chain,
    simulate,
    stationary_dense,
    var_replenish,
)
from tests.conftest import reference_traffic

PINNED = json.loads(
    (Path(__file__).parent / "data" / "simulate_pinned.json").read_text()
)
BLOCK_EDGES = {
    case["label"]: case
    for case in json.loads(
        (Path(__file__).parent / "data" / "simulate_block_edges.json").read_text()
    )
}


def unit_traffic(rate: float) -> TrafficSpec:
    return TrafficSpec((1,), (1.0,), rate)


class TestSimulate:
    def test_silenced_source_fills_the_bucket(self):
        stats = simulate(
            unit_traffic(0.0), FilterConfig(5, 5, 1.0), horizon=100, seed=3
        )
        assert stats.final_state == SystemState(5, ())
        assert stats.arrivals_all.sum() == 0
        assert stats.losses_all.sum() == 0
        table = stats.occupancy_distribution()
        assert table[5, 0] == pytest.approx(1.0)

    def test_deterministic_for_a_seed(self, reference_config):
        a = simulate(reference_traffic(0.5), reference_config, 20_000, seed=9)
        b = simulate(reference_traffic(0.5), reference_config, 20_000, seed=9)
        assert np.array_equal(a.occupancy_time, b.occupancy_time)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.wait_sum, b.wait_sum)
        assert np.array_equal(a.seg_losses, b.seg_losses)
        assert a.final_state == b.final_state

    def test_seeds_decorrelate_runs(self, reference_config):
        a = simulate(reference_traffic(0.5), reference_config, 20_000, seed=9)
        b = simulate(reference_traffic(0.5), reference_config, 20_000, seed=10)
        assert not np.array_equal(a.occupancy_time, b.occupancy_time)

    @pytest.mark.parametrize("rate,seed", [(0.25, 0), (1.0, 4), (5.0, 8)])
    def test_conservation_is_exact(self, reference_config, rate, seed):
        stats = simulate(reference_traffic(rate), reference_config, 50_000, seed=seed)
        assert (stats.conservation_defect() == 0).all()

    def test_loss_count_never_exceeds_arrivals(self, reference_config):
        stats = simulate(reference_traffic(5.0), reference_config, 20_000, seed=2)
        assert (stats.losses <= stats.arrivals).all()
        assert stats.occupancy_time.sum() == pytest.approx(stats.elapsed)

    def test_embedded_counts_match_the_transfer_chain(self):
        config = FilterConfig(5, 5, 1.0)
        stats = simulate(unit_traffic(0.5), config, 1_000_000, seed=6)
        empirical = np.zeros(11)
        grid = stats.embedded_distribution()
        for tokens in range(6):
            for queued in range(6):
                empirical[queued - tokens + 5] += grid[tokens, queued]
        pi_net = stationary_dense(build_periodic_transfer_chain(0.5, 5, 5))
        assert 0.5 * np.abs(empirical - pi_net).sum() <= 0.01

    def test_invariants_hold_under_load(self, reference_config):
        stats = simulate(
            reference_traffic(1.0),
            reference_config,
            20_000,
            seed=1,
            check_invariants=True,
        )
        # one check per grant plus one per arrival
        assert stats.invariants_checked > 35_000

    def test_warmup_is_excluded_from_the_window(self, reference_config):
        stats = simulate(reference_traffic(0.5), reference_config, 10_000, seed=5)
        assert stats.warmup == 1_000
        assert stats.elapsed == pytest.approx(9_000.0)
        full = simulate(
            reference_traffic(0.5), reference_config, 10_000, seed=5, warmup=0
        )
        assert full.elapsed == pytest.approx(10_000.0)
        assert full.arrivals.sum() >= stats.arrivals.sum()

    def test_rejects_bad_horizon(self, reference_config):
        with pytest.raises(ValueError):
            simulate(reference_traffic(0.5), reference_config, 100, warmup=100)


@pytest.mark.parametrize(
    "probs",
    [(0.4, 0.3, 0.2, 0.1), (0.5, 0.5), (1.0,), (0.5, 0.0, 0.5), (0.0, 0.3, 0.7),
     (0.1, 0.2, 0.3, 0.4), (1 / 3, 1 / 3, 1 / 3)],
    ids=["reference", "halves", "single", "zero_inside", "zero_first",
         "rising", "thirds"],
)
def test_class_draws_are_generator_choice(probs):
    # the same uniforms against the same cdf, so a numpy whose ``choice``
    # draws otherwise shows here; the generator is left where ``choice`` leaves it
    for seed in range(12):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = des._draw_classes(ours, probs, des._CHUNK)
            want = theirs.choice(len(probs), des._CHUNK, p=probs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert ours.random() == theirs.random()


class TestPinnedTallies:
    """Tallies recorded from the event-at-a-time simulator (commit 6ad05ec).

    Each horizon spans many 16,384-arrival draws, and at rates 1 and 5
    packets are still queued where one block of events ends and the next
    begins.  Counts match exactly; float sums, whose order of addition
    changed, within 1e-12 relative.
    """

    @pytest.mark.parametrize("case", PINNED, ids=[c["label"] for c in PINNED])
    def test_matches_the_event_at_a_time_run(self, case, reference_config):
        traffic = TrafficSpec(case["sizes"], case["probs"], case["rate"])
        stats = simulate(
            traffic,
            reference_config,
            case["horizon"],
            seed=case["seed"],
            segments=case["segments"],
        )
        assert stats.events == case["events"]
        tokens, buffer = case["final_state"]
        assert stats.final_state == SystemState(tokens, tuple(buffer))
        for name, expected in case["ints"].items():
            assert getattr(stats, name).dtype.kind == "i", name
            np.testing.assert_array_equal(getattr(stats, name), expected, name)
        for name, expected in case["floats"].items():
            np.testing.assert_allclose(
                getattr(stats, name), expected, rtol=1e-12, atol=0, err_msg=name
            )


def per_event(monkeypatch) -> None:
    """Leave the word table no room, so every walk steps one event at a time."""
    monkeypatch.setattr(des, "_WORD_BUDGET", 0)


class TestWordWalk:
    """Words of k events give what the per-event walk gives, bit for bit."""

    CASES = [
        (reference_traffic(0.5), FilterConfig(5, 5, 1.0)),
        (reference_traffic(1.0), FilterConfig(5, 5, 1.0)),
        (reference_traffic(5.0), FilterConfig(5, 5, 1.0)),
        (unit_traffic(0.9), FilterConfig(4, 6, 1.0)),
    ]

    # a window from time 0 in one segment holds sums that round, so the
    # order in which states' held times are added shows in the last bits
    @pytest.mark.parametrize(
        "warmup, segments", [(None, 100), (0, 1)], ids=["window", "from0"]
    )
    @pytest.mark.parametrize("check", [False, True], ids=["plain", "checked"])
    @pytest.mark.parametrize(
        "traffic, config", CASES, ids=["rate0.5", "rate1", "rate5", "unit"]
    )
    def test_both_walks_agree(
        self, monkeypatch, traffic, config, check, warmup, segments
    ):
        def run():
            return simulate(
                traffic,
                config,
                40_000,
                seed=4,
                warmup=warmup,
                check_invariants=check,
                segments=segments,
            )

        words = run()
        per_event(monkeypatch)
        events = run()
        assert words.word_length > 1
        assert events.word_length == 1
        for f in dataclasses.fields(SimStats):
            if f.name == "word_length":
                continue
            a, b = getattr(words, f.name), getattr(events, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, f.name
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    # a table whose closure is read first numbers its states breadth first,
    # not in the order the walk meets them
    @pytest.mark.parametrize(
        "warmup, segments", [(None, 100), (0, 1)], ids=["window", "from0"]
    )
    @pytest.mark.parametrize(
        "traffic, config", CASES, ids=["rate0.5", "rate1", "rate5", "unit"]
    )
    def test_no_tally_depends_on_the_state_numbering(
        self, monkeypatch, traffic, config, warmup, segments
    ):
        def run():
            return simulate(
                traffic, config, 40_000, seed=4, warmup=warmup, segments=segments
            )

        def breadth_first(traffic, config):
            table = des._StateTable(traffic, config)
            assert table.read_closure(des._WORD_BUDGET)
            return des._Walk(table, 1)

        words = run()
        monkeypatch.setattr(des._Walk, "start", breadth_first)
        events = run()
        assert words.word_length > 1
        assert events.word_length == 1
        for f in dataclasses.fields(SimStats):
            a, b = getattr(words, f.name), getattr(events, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, f.name
                assert np.array_equal(a, b), f.name

    def test_the_reference_closure_is_walked_in_words_of_four(self):
        stats = simulate(reference_traffic(0.5), FilterConfig(5, 5, 1.0), 20_000)
        assert stats.states_met == 58
        # 58 states times 6 letters (grant, four sizes, idle) to the fourth
        assert stats.word_length == 4

    def test_a_long_buffer_walks_event_by_event(self):
        stats = simulate(reference_traffic(1.0), FilterConfig(8, 200, 1.0), 2_000)
        assert stats.word_length == 1
        assert stats.states_met > 1_000


def beside_grants(period: float, horizon: int):
    """A stand-in for ``np.random.default_rng`` whose first draw of gaps puts
    an arrival on each grant's instant and one ulp either side of it.

    Later gaps pass the horizon, and sizes come from the seeded generator.
    """
    grants = np.arange(1, horizon + 1) * period
    instants = np.concatenate(
        [np.nextafter(grants, -np.inf), grants, np.nextafter(grants, np.inf)]
    )
    real = np.random.default_rng

    class Generator:
        def __init__(self, seed):
            self.sizes = real(seed)
            self.gaps = np.diff(np.sort(instants), prepend=0.0)

        def exponential(self, scale, size):
            gaps = np.full(size, 1e9)
            gaps[: self.gaps.size] = self.gaps
            self.gaps = self.gaps[:0]
            return gaps

        def random(self, size):
            return self.sizes.random(size)

    return Generator


class TestBlockEdges:
    """Runs at the edges of a block's merge and of its segments.

    Every field was recorded from the simulator that merged each block with
    a stable sort and found segments event by event (commit caa49ff), and
    must come out the same bit for bit from either walk.
    """

    @staticmethod
    def run(label: str) -> SimStats:
        case = BLOCK_EDGES[label]
        return simulate(
            TrafficSpec(tuple(case["sizes"]), tuple(case["probs"]), case["rate"]),
            FilterConfig(case["bucket"], case["buffer"], case["period"]),
            case["horizon"],
            seed=case["seed"],
            warmup=case["warmup"],
            segments=case["segments"],
        )

    @staticmethod
    def assert_recorded(stats: SimStats, label: str) -> None:
        case = BLOCK_EDGES[label]
        assert stats.events == case["events"]
        assert stats.states_met == case["states_met"]
        tokens, buffer = case["final_state"]
        assert stats.final_state == SystemState(tokens, tuple(buffer))
        for kind, fields in (("i", case["ints"]), ("f", case["floats"])):
            for name, expected in fields.items():
                value = getattr(stats, name)
                assert value.dtype.kind == kind, name
                assert np.array_equal(value, expected), name

    # at 1e5 arrivals a period one draw of 16,384 spans 0.16 periods, so
    # most blocks hold arrivals and no grant
    def test_blocks_of_arrivals_alone_match_the_recorded_run(self):
        stats = self.run("arrivals-without-grants")
        assert stats.word_length > 1
        self.assert_recorded(stats, "arrivals-without-grants")

    def test_both_walks_agree_on_blocks_of_arrivals_alone(self, monkeypatch):
        words = self.run("arrivals-without-grants")
        per_event(monkeypatch)
        events = self.run("arrivals-without-grants")
        for f in dataclasses.fields(SimStats):
            if f.name == "word_length":
                continue
            a, b = getattr(words, f.name), getattr(events, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, f.name
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    # 100 segments of half a period: grants fall on every other segment's
    # start and the two arrivals on two more, so most segments hold no event
    @pytest.mark.parametrize("walk", ["words", "events"])
    def test_segments_without_events(self, monkeypatch, walk):
        if walk == "events":
            per_event(monkeypatch)
        stats = self.run("segments-without-events")
        self.assert_recorded(stats, "segments-without-events")
        assert (stats.seg_span == 0).sum() >= 40
        assert stats.seg_span.sum() == pytest.approx(stats.elapsed, rel=1e-15)
        assert stats.seg_arrivals.sum() == stats.arrivals_all.sum() == 2

    # at period 0.7 both ``floor(t / period)`` and the search for a segment's
    # first event miss by a rounding step, each way, near some grants
    @pytest.mark.parametrize("walk", ["words", "events"])
    def test_arrivals_an_ulp_from_a_grant(self, monkeypatch, walk):
        case = BLOCK_EDGES["arrivals-beside-grants"]
        generator = beside_grants(case["period"], case["horizon"])
        monkeypatch.setattr(np.random, "default_rng", generator)
        if walk == "events":
            per_event(monkeypatch)
        stats = self.run("arrivals-beside-grants")
        self.assert_recorded(stats, "arrivals-beside-grants")
        # the run ends before an arrival on the last grant or after it
        assert stats.arrivals_all.sum() == 3 * case["horizon"] - 2


class TestCheckMode:
    def test_checks_every_event_and_changes_no_tally(self, reference_config):
        plain = simulate(reference_traffic(1.0), reference_config, 20_000, seed=1)
        checked = simulate(
            reference_traffic(1.0),
            reference_config,
            20_000,
            seed=1,
            check_invariants=True,
        )
        assert checked.invariants_checked == checked.events == plain.events
        assert np.array_equal(checked.occupancy_time, plain.occupancy_time)
        assert np.array_equal(checked.seg_wait, plain.seg_wait)

    def test_a_broken_grant_rule_is_caught(self, monkeypatch, reference_config):
        # banks one token more than the bucket holds
        monkeypatch.setattr(
            des, "var_replenish", lambda state, bucket: var_replenish(state, bucket + 1)
        )
        with pytest.raises(InvariantViolation, match="token count 6") as err:
            simulate(
                reference_traffic(0.5),
                reference_config,
                10_000,
                seed=3,
                check_invariants=True,
            )
        assert "last events:" in str(err.value)
        assert 1 <= len(err.value.trace) <= 16
        when, kind, detail = err.value.trace[-1]
        assert kind == "token"
        assert detail == "-> SystemState(tokens=6, buffer=())"
        assert when == float(round(when))

    def test_an_interned_state_off_the_grid_waits_for_its_visit(
        self, monkeypatch
    ):
        # the full bucket's row names the overfull state a block before the
        # walk reaches it; the tallies of that block must not trip over it
        monkeypatch.setattr(
            des, "var_replenish", lambda state, bucket: var_replenish(state, bucket + 1)
        )
        with pytest.raises(InvariantViolation, match="token count 6") as err:
            simulate(
                TrafficSpec((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 1.4),
                FilterConfig(5, 5, 1.0),
                200_000,
                seed=1,
                check_invariants=True,
            )
        assert err.value.trace[-1][2] == "-> SystemState(tokens=6, buffer=())"

    # the two above walk the broken rule's 59-state closure in words
    def test_a_broken_grant_rule_is_caught_event_by_event(
        self, monkeypatch, reference_config
    ):
        per_event(monkeypatch)
        self.test_a_broken_grant_rule_is_caught(monkeypatch, reference_config)

    def test_an_off_grid_state_waits_for_its_visit_event_by_event(
        self, monkeypatch
    ):
        per_event(monkeypatch)
        self.test_an_interned_state_off_the_grid_waits_for_its_visit(monkeypatch)


class TestSimStatsAccessors:
    def test_wait_requires_departures(self):
        stats = simulate(unit_traffic(0.0), FilterConfig(2, 2, 1.0), 50, seed=0)
        with pytest.raises(InsufficientData):
            stats.mean_wait(1)
        with pytest.raises(InsufficientData):
            stats.loss_ratio(1)

    def test_ratios_from_counts(self, reference_config):
        stats = simulate(reference_traffic(5.0), reference_config, 30_000, seed=7)
        k = 1  # size 2
        assert stats.loss_ratio(2) == stats.losses[k] / stats.arrivals[k]
        assert stats.mean_wait(2) == stats.wait_sum[k] / stats.departures[k]

    def test_window_totals_are_the_segment_sums(self):
        stats = synthetic_stats([2, 4], [10, 10])
        stats.seg_wait = np.array([[1.0], [3.0]])
        stats.seg_class_time = np.array([[0.5], [1.5]])
        assert stats.loss_ratio(1) == 6 / 20
        assert stats.mean_wait(1) == 4.0 / 2.0
        assert stats.mean_class_backlog(1) == 2.0 / stats.elapsed


def synthetic_stats(seg_losses, seg_arrivals) -> SimStats:
    """Stats object with hand-picked per-segment loss tallies."""
    segments = len(seg_losses)
    traffic = TrafficSpec((1,), (1.0,), 1.0)
    return SimStats(
        traffic=traffic,
        config=FilterConfig(1, 1, 1.0),
        horizon=segments,
        warmup=0,
        seed=0,
        segments=segments,
        elapsed=float(segments),
        seg_span=np.ones(segments),
        seg_arrivals=np.array(seg_arrivals, dtype=float)[:, None],
        seg_losses=np.array(seg_losses, dtype=float)[:, None],
        seg_departures=np.ones((segments, 1)),
        seg_wait=np.zeros((segments, 1)),
        seg_class_time=np.zeros((segments, 1)),
    )


class TestBatchConfidence:
    def test_two_batches_average_their_means(self):
        stats = synthetic_stats([2, 4], [10, 10])
        mean, half = batch_confidence(stats, 2, metrics=("loss",))["loss"][1]
        assert mean == pytest.approx(0.3)
        assert half > 0.0

    def test_constant_metric_has_zero_width(self):
        stats = synthetic_stats([3, 3, 3, 3], [10, 10, 10, 10])
        mean, half = batch_confidence(stats, 4, metrics=("loss",))["loss"][1]
        assert mean == pytest.approx(0.3)
        assert half == 0.0

    def test_starved_batch_is_an_explicit_failure(self):
        stats = synthetic_stats([1, 0], [10, 0])
        with pytest.raises(InsufficientData, match="loss.*size 1"):
            batch_confidence(stats, 2, metrics=("loss",))

    def test_metric_selection_isolates_failures(self):
        stats = synthetic_stats([1, 2], [10, 10])
        stats.seg_departures = np.array([[1.0], [0.0]])
        out = batch_confidence(stats, 2, metrics=("loss", "backlog"))
        assert set(out) == {"loss", "backlog"}
        with pytest.raises(InsufficientData, match="wait"):
            batch_confidence(stats, 2, metrics=("wait",))

    def test_rejects_bad_batch_counts(self, reference_config):
        stats = simulate(reference_traffic(0.5), reference_config, 2_000, seed=0)
        with pytest.raises(ValueError):
            batch_confidence(stats, 1)
        with pytest.raises(InsufficientData):
            batch_confidence(stats, 101)
        with pytest.raises(ValueError):
            batch_confidence(stats, 10, metrics=("latency",))

    def test_bands_cover_the_run_mean(self, reference_config):
        stats = simulate(reference_traffic(1.0), reference_config, 100_000, seed=3)
        out = batch_confidence(stats, 10)
        for size in (1, 2, 3, 4):
            mean, half = out["loss"][size]
            assert abs(mean - stats.loss_ratio(size)) <= max(half, 5e-3)


class TestInvariantChecker:
    def test_clean_state_passes(self):
        checker = InvariantChecker(bucket=5, buffer_cap=5)
        checker.check(SystemState(2, (3, 1)), [])
        assert checker.events_checked == 1

    def test_overfull_bucket_is_reported(self):
        checker = InvariantChecker(bucket=5, buffer_cap=5)
        with pytest.raises(InvariantViolation, match="token count"):
            checker.check(SystemState(6, ()), [])

    def test_overfull_buffer_is_reported(self):
        checker = InvariantChecker(bucket=5, buffer_cap=5)
        with pytest.raises(InvariantViolation, match="backlog"):
            checker.check(SystemState(0, (4, 4)), [])

    def test_payable_waiting_head_is_reported(self):
        # a skipped token decrement leaves the head affordable
        checker = InvariantChecker(bucket=5, buffer_cap=5)
        with pytest.raises(InvariantViolation, match="head packet"):
            checker.check(SystemState(3, (2, 1)), [])

    def test_unit_size_mode_flags_coexistence(self):
        checker = InvariantChecker(bucket=5, buffer_cap=5, unit_size=True)
        with pytest.raises(InvariantViolation, match="both positive") as err:
            checker.check(SystemState(1, (1,)), [(0.0, "arrive", "size 1")])
        # the report carries the trailing event trace
        assert "arrive" in str(err.value)
