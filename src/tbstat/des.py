"""Event-driven simulator for the token bucket filter.

Exponential interarrival times, sizes drawn i.i.d. from the traffic mix, and
one token granted at every exact multiple of the period, with simultaneous
events resolved token first.  Arrival instants and packet sizes come from
separate seeded substreams, so changing the size mix never perturbs the
arrival clock.  Events go in blocks, one draw of the streams at a time, and
the state walks a table of state indices whose rows are read from
``dynamics``, the Markov model's transition functions.  When the states
reachable from the start are few, their rows are read up front and composed
into a word table that maps a state and a word of ``k`` events to the state
after it, ``k`` the longest whose table fits ``_WORD_BUDGET`` entries; the
walk then takes one Python step a word, and gathers on the successor array
recover the state after each event.  Otherwise (a long buffer, say) ``k`` is
1: the walk steps one event at a time and reads a state's row the first time
it leaves that state, so simulating never enumerates the state space.
Their tallies agree bit for bit, as none depends on how the table numbers
its states: each state's held time is summed in event order, and the
states' shares are added smallest first.  A block's events are merged by
position, not sorted: grants fall on the period's multiples, so
``floor(t / period)``, mended by a comparison each way, counts the grants
before an arrival.  As the segment never decreases with time, a search finds
where each begins, and each run of events in one segment is tallied by one
``np.bincount`` of its keys (class and outcome, from a table per state and
event) and one of its held times by state.  Waits pair the j-th packet
served from the queue with its j-th entrant (FIFO).  Statistics are
time-weighted after a warmup span and split into equal-time segments for
batch-means confidence intervals; the window's totals are the segments' sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statespace import FilterConfig, SystemState, TrafficSpec, backlog
from .dynamics import var_arrive, var_replenish

__all__ = [
    "SimStats",
    "simulate",
    "batch_confidence",
    "InvariantChecker",
    "InvariantViolation",
    "InsufficientData",
]

# Arrivals per draw and most grants per block; the streams do not depend on it.
_CHUNK = 1 << 14
# Most entries of the simulator's word table: states times letters ** k.
_WORD_BUDGET = 1 << 17
_TRACE_LEN = 16


class InvariantViolation(AssertionError):
    """A simulated state broke a structural invariant."""

    def __init__(self, message: str, trace: list):
        tail = "\n".join(f"  {t:.6f} {kind} {detail}" for t, kind, detail in trace)
        super().__init__(f"{message}\nlast events:\n{tail}" if trace else message)
        self.trace = trace


class InsufficientData(RuntimeError):
    """Not enough post-warmup samples to form the requested estimate."""


class InvariantChecker:
    """Structural checks applied to every post-event state.

    The buffer can never hold more than its capacity, the bucket never more
    than its size, and a waiting head packet means the bucket cannot pay for
    it.  When every packet has unit size the last condition is the classic
    rule that backlog and tokens are never both positive; ``unit_size``
    checks that rule too, which ``simulate`` leaves off as redundant.
    """

    def __init__(self, bucket: int, buffer_cap: int, unit_size: bool = False):
        self.bucket = bucket
        self.buffer_cap = buffer_cap
        self.unit_size = unit_size
        self.events_checked = 0

    def check(self, state: SystemState, trace: list) -> None:
        self.events_checked += 1
        if not 0 <= state.tokens <= self.bucket:
            raise InvariantViolation(
                f"token count {state.tokens} outside [0, {self.bucket}]", trace
            )
        queued = backlog(state.buffer)
        if queued > self.buffer_cap:
            raise InvariantViolation(
                f"backlog {queued} exceeds buffer capacity {self.buffer_cap}",
                trace,
            )
        if self.unit_size and queued * state.tokens != 0:
            raise InvariantViolation(
                f"backlog {queued} and tokens {state.tokens} both positive",
                trace,
            )
        if state.buffer and state.tokens >= state.buffer[0]:
            raise InvariantViolation(
                f"head packet of size {state.buffer[0]} left waiting with "
                f"{state.tokens} tokens banked",
                trace,
            )


def _window_total(seg_field: str) -> property:
    """The post-warmup total by class of a per-segment array of SimStats."""
    return property(lambda stats: getattr(stats, seg_field).sum(axis=0))


@dataclass
class SimStats:
    """Time-weighted and per-event tallies from one simulation run.

    Count arrays are indexed by traffic class, in traffic.sizes order.
    Whole-run totals back the conservation identity; the windowed arrays
    cover only the post-warmup span, split into ``segments`` equal spans
    whose partial sums feed batch_confidence, and the window's totals
    (``arrivals``, ``losses``, ``departures``, ``wait_sum``, ``class_time``)
    are read off them.
    """

    traffic: TrafficSpec
    config: FilterConfig
    horizon: int
    warmup: int
    seed: int
    segments: int
    elapsed: float
    events: int = 0
    occupancy_time: np.ndarray = field(default=None)
    embedded_counts: np.ndarray = field(default=None)
    arrivals_all: np.ndarray = field(default=None)
    losses_all: np.ndarray = field(default=None)
    departures_all: np.ndarray = field(default=None)
    final_state: SystemState = SystemState(0, ())
    seg_span: np.ndarray = field(default=None)
    seg_arrivals: np.ndarray = field(default=None)
    seg_losses: np.ndarray = field(default=None)
    seg_departures: np.ndarray = field(default=None)
    seg_wait: np.ndarray = field(default=None)
    seg_class_time: np.ndarray = field(default=None)
    invariants_checked: int = 0
    states_met: int = 0
    word_length: int = 1

    arrivals = _window_total("seg_arrivals")
    losses = _window_total("seg_losses")
    departures = _window_total("seg_departures")
    wait_sum = _window_total("seg_wait")
    class_time = _window_total("seg_class_time")

    def occupancy_distribution(self) -> np.ndarray:
        """Time-averaged joint (token level, backlog) distribution."""
        return self.occupancy_time / self.elapsed

    def embedded_distribution(self) -> np.ndarray:
        """Post-grant empirical (token level, backlog) distribution."""
        total = self.embedded_counts.sum()
        return self.embedded_counts / total

    def loss_ratio(self, size: int) -> float:
        k = self.traffic.class_index(size)
        if self.arrivals[k] == 0:
            raise InsufficientData(f"no post-warmup arrivals of size {size}")
        return float(self.losses[k] / self.arrivals[k])

    def mean_wait(self, size: int) -> float:
        k = self.traffic.class_index(size)
        if self.departures[k] == 0:
            raise InsufficientData(f"no post-warmup departures of size {size}")
        return float(self.wait_sum[k] / self.departures[k])

    def mean_class_backlog(self, size: int) -> float:
        k = self.traffic.class_index(size)
        return float(self.class_time[k] / self.elapsed)

    def conservation_defect(self) -> np.ndarray:
        """Whole-run arrivals minus losses, departures and leftovers."""
        left = np.array(
            [self.final_state.buffer.count(s) for s in self.traffic.sizes]
        )
        return self.arrivals_all - self.losses_all - self.departures_all - left


class _Unread:
    """Row of a state the walk has not left yet; reads it on first use."""

    __slots__ = ("table", "s")

    def __init__(self, table: _StateTable, s: int):
        self.table, self.s = table, s

    def __getitem__(self, code: int) -> int:
        return self.table.read_row(self.s)[code]


class _StateTable:
    """The states met so far from the start, by index, with their successor rows.

    A state's row (the grant's target, then one arrival target per class) is
    read from the dynamics the first time the walk leaves it.  ``arrays``
    gives what the tallies read: per state its features, and per (state,
    event code) one key, ``5 * class + outcome`` (outcomes as in
    ``simulate``), a grant going by its head's class.
    """

    def __init__(self, traffic: TrafficSpec, config: FilterConfig):
        self.sizes = traffic.sizes
        self.bucket, self.buffer_cap = config.bucket, config.buffer
        self.index: dict[SystemState, int] = {}
        self.states: list[SystemState] = []
        self.rows: list = []
        self.read: list[int] = []  # rows read since ``arrays`` last ran
        n = len(self.sizes)
        # per state, regrown by doubling: its features (cell, packets waiting,
        # head class or 0 when idle, packets per class) and its row of keys
        self.features = np.zeros((16, 3 + n), np.int64)
        self.keys = np.zeros((16, 1 + n), np.int64)
        self.intern(SystemState(0, ()))  # the start, empty with an empty bucket

    def intern(self, state: SystemState) -> int:
        s = self.index.get(state)
        if s is None:
            s = self.index[state] = len(self.states)
            buf = state.buffer
            self.states.append(state)
            self.rows.append(_Unread(self, s))
            if s == len(self.features):
                self.features, self.keys = (
                    np.vstack((a, a)) for a in (self.features, self.keys)
                )
            cell = state.tokens * (self.buffer_cap + 1) + backlog(buf)
            head = self.sizes.index(buf[0]) if buf else 0
            self.features[s] = (cell, len(buf), head, *map(buf.count, self.sizes))
        return s

    def read_row(self, s: int) -> list[int]:
        state = self.states[s]
        arrive = (var_arrive(state, size, self.buffer_cap)[0] for size in self.sizes)
        row = [self.intern(t) for t in (var_replenish(state, self.bucket), *arrive)]
        self.rows[s] = row
        self.read.append(s)
        return row

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Features by state, and keys by (state, event code).

        Only the keys of rows read since the last call are written, so the
        cost follows the walk's new states, not all of them.
        """
        features = self.features[: len(self.states)]
        if self.read:
            read = np.array(self.read)
            rows = np.array([self.rows[s] for s in self.read])
            grew = features[rows, 1] - features[read, 1:2]
            # an arrival that leaves the state as it was is dropped
            keys = np.where(rows == read[:, None], 0, 1 + grew)
            keys += 5 * np.arange(-1, len(self.sizes))
            keys[:, 0] = 4 + grew[:, 0] + 5 * features[read, 2]
            self.keys[read] = keys
            self.read = []
        return features, self.keys

    def read_closure(self, most: int) -> bool:
        """Read the row of every state reachable from those met, breadth first.

        Rows go in index order, so none may have been read before.  Returns
        False, the table part read, once more than ``most`` states are met.
        """
        s = 0
        while s < len(self.states) <= most:
            self.read_row(s)
            s += 1
        return s == len(self.states)


class _Walk:
    """A block's post-event states, walked one word of ``k`` events a step.

    With ``k`` == 1 the words are the event codes and ``rows`` the table's
    own, each read as the walk first leaves its state.  With ``k`` > 1 the
    table holds every state reachable from the start, rows read.  A word's
    letters are the event codes and an idle letter, which leaves the state
    as it is and pads a block's last word; ``rows`` maps a state and a word,
    its first letter the most significant digit, to the state after it, and
    ``k`` - 1 gathers on the successor array recover the states within it.
    """

    def __init__(self, table: _StateTable, k: int):
        self.table, self.k = table, k
        n, letters = len(table.states), len(table.sizes) + 2
        self.idle = letters - 1
        self.powers = letters ** np.arange(k - 1, -1, -1)
        if k == 1:
            self.rows = table.rows
            return
        self.succ = np.column_stack((table.rows, np.arange(n)))
        words = self.succ
        for _ in range(k - 1):
            words = self.succ[words].reshape(n, -1)
        self.rows = words.tolist()
        self.left = np.zeros(n, bool)  # states the walk has left

    @classmethod
    def start(cls, traffic: TrafficSpec, config: FilterConfig) -> _Walk:
        """The walk from the empty state, in the longest words that fit.

        The closure of the start state is read when its word table fits
        ``_WORD_BUDGET`` entries for some ``k`` >= 2; otherwise its reading
        stops there and the walk steps a fresh table an event at a time.
        """
        letters = len(traffic.sizes) + 2
        table = _StateTable(traffic, config)
        if not table.read_closure(_WORD_BUDGET // letters**2):
            return cls(_StateTable(traffic, config), 1)
        k = 2
        while len(table.states) * letters ** (k + 1) <= _WORD_BUDGET:
            k += 1
        return cls(table, k)

    @property
    def states_met(self) -> int:
        """The states the per-event walk meets: the start and the row
        targets of every state it leaves."""
        if self.k == 1:
            return len(self.table.states)
        return np.union1d(0, self.succ[self.left, :-1]).size

    def path(self, s: int, codes: np.ndarray) -> np.ndarray:
        """The states the walk passes from ``s``: ``s``, then the state
        after each event of ``codes``."""
        k, rows = self.k, self.rows
        letters = np.full((-(-codes.size // k), k), self.idle)
        letters.reshape(-1)[: codes.size] = codes
        words = (letters @ self.powers).tolist()
        path = np.empty(letters.size + 1, np.int64)
        path[0] = s
        # the state after each word, then the states within it by gathers
        path[k::k] = np.fromiter((s := rows[s][w] for w in words), np.int64, len(words))
        if k > 1:
            post = path[1:].reshape(-1, k)
            at = path[:-1:k]
            for i in range(k - 1):
                at = post[:, i] = self.succ.take(at * (self.idle + 1) + letters[:, i])
            self.left[path[: codes.size]] = True
        return path[: codes.size + 1]


def _draw_classes(rng: np.random.Generator, probs, n: int) -> np.ndarray:
    """``rng.choice(len(probs), n, p=probs)``, counting the cdf's edges."""
    cdf = np.cumsum(probs)
    return (rng.random(n) >= (cdf[:-1] / cdf[-1])[:, None]).sum(axis=0)


def _check_block(checker, table, times, codes, post, checked: set) -> None:
    """Check each post-event state the first time the walk reaches it.

    The verdict depends on the state alone, so its first visit stands for
    every later one; a violation carries the events up to that visit.
    """
    states = table.states
    reached, first = np.unique(post, return_index=True)
    pairs = zip(reached.tolist(), first.tolist())
    fresh = sorted(i for s, i in pairs if s not in checked)
    for i in fresh:
        s = int(post[i])
        checked.add(s)
        try:
            checker.check(states[s], [])
        except InvariantViolation as exc:
            kinds = ["token", *(f"arrival size {size}" for size in table.sizes)]
            tail = slice(max(0, i + 1 - _TRACE_LEN), i + 1)
            events = zip(times[tail].tolist(), codes[tail].tolist(), post[tail])
            trace = [(t, kinds[c], f"-> {states[s]}") for t, c, s in events]
            raise InvariantViolation(exc.args[0], trace) from None
    checker.events_checked += post.size - len(fresh)


def simulate(
    traffic: TrafficSpec,
    config: FilterConfig,
    horizon: int,
    seed: int = 0,
    warmup: int | None = None,
    check_invariants: bool = False,
    segments: int = 100,
) -> SimStats:
    """Run the filter for ``horizon`` replenishment periods.

    ``warmup`` periods (default 10% of the horizon) are simulated but not
    measured.  The run starts from an empty system with an empty bucket.
    With ``check_invariants`` every post-event state is validated (each
    distinct state once, as the verdict depends on it alone) and the first
    violation raises, carrying the most recent events.
    """
    if max(traffic.sizes) > config.buffer:
        raise ValueError("largest packet size exceeds buffer capacity")
    if horizon < 1:
        raise ValueError("horizon must be >= 1 period")
    if warmup is None:
        warmup = horizon // 10
    if not 0 <= warmup < horizon:
        raise ValueError("warmup must lie within the horizon")
    if segments < 1:
        raise ValueError("segments must be >= 1")

    bucket, buffer_cap, period = config.bucket, config.buffer, config.period
    n_classes = len(traffic.sizes)
    cells = (bucket + 1) * (buffer_cap + 1)

    streams = np.random.SeedSequence(seed).spawn(2)
    rng_times, rng_sizes = map(np.random.default_rng, streams)

    end_t = horizon * period
    warm_t = warmup * period
    span = end_t - warm_t
    seg_len = span / segments

    def segment(t: np.ndarray) -> np.ndarray:  # -1 before the window
        return np.clip(np.floor((t - warm_t) / seg_len), -1, segments - 1).astype(int)

    checker = InvariantChecker(bucket, buffer_cap) if check_invariants else None
    checked: set[int] = set()  # states the checker has passed
    walk = _Walk.start(traffic, config)
    table, s = walk.table, 0

    occupancy = np.zeros(cells)
    embedded = np.zeros(cells, dtype=np.int64)
    seg_span = np.zeros(segments)
    seg_class_time = np.zeros((segments, n_classes))
    # Counts per (segment, class) slot and event outcome, slot row 0 the warmup.
    # Outcomes: 0 dropped, 1 passed through, 2 queued (arrivals), 3 served from
    # the queue, 4 served nothing (grants).  Waits go by their departure's slot.
    slots = (segments + 1) * n_classes
    tallies = np.zeros((segments + 1, 5 * n_classes), dtype=np.int64)
    seg_wait = np.zeros(slots)
    outcome = np.arange(5 * n_classes) % 5  # the outcome of each key
    waiting = np.empty(0)  # arrival instants of the queued packets, head first
    arr_t, arr_k = np.empty(0), np.empty(0, dtype=np.int64)
    clock = 0.0  # instant of the last arrival drawn
    last_t = 0.0  # instant of the last event processed
    seg_last = int(segment(last_t))
    rep_n = 1

    while rep_n <= horizon:
        if traffic.rate > 0 and not arr_t.size:
            # a running sum seeded with the previous instant adds the gaps in
            # the same order, so the instants match stepping one at a time
            gaps = rng_times.exponential(1.0 / traffic.rate, _CHUNK)
            arr_t = np.cumsum(np.concatenate(([clock], gaps)))[1:]
            arr_k = _draw_classes(rng_sizes, traffic.probs, _CHUNK)
            clock = arr_t[-1]
        # the block's grants may not pass the last arrival drawn, and its
        # arrivals end before the next grant, or the horizon
        grant_t = np.arange(rep_n, min(horizon, rep_n + _CHUNK - 1) + 1) * period
        if arr_t.size:
            grant_t = grant_t[: np.searchsorted(grant_t, arr_t[-1], "right")]
        rep_n += grant_t.size
        take = int(np.searchsorted(arr_t, min(rep_n * period, end_t)))
        arrive, arr_t = arr_t[:take], arr_t[take:]

        # merge the events in time order, a grant first on a tie: an arrival
        # follows the grants at or before it, which ``floor`` counts up to a
        # rounding step that one comparison each way with their instants mends
        after = np.floor(arrive / period) - (rep_n - grant_t.size - 1)
        after = np.clip(after, 0, grant_t.size).astype(np.intp)
        bound = np.concatenate(([-np.inf], grant_t, [np.inf]))
        after += bound[after + 1] <= arrive
        after -= bound[after] > arrive
        n = grant_t.size + take
        at_arrival = np.arange(take) + after
        codes = np.zeros(n, np.int64)
        codes[at_arrival] = arr_k[:take] + 1
        arr_k = arr_k[take:]
        at_grant = np.flatnonzero(codes == 0)
        stamps = np.empty(n + 1)  # the last block's last instant, then this one's
        stamps[0], times = last_t, stamps[1:]
        times[at_grant], times[at_arrival] = grant_t, arrive

        path = walk.path(s, codes)
        pre, post, s = path[:-1], path[1:], int(path[-1])
        if checker:
            _check_block(checker, table, times, codes, post, checked)
        features, keys = table.arrays()
        key = np.take(keys, pre * (n_classes + 1) + codes)

        # segment j >= ``seg_last`` + 1 begins at event ``edge``, which a search
        # finds up to a rounding step that ``segment`` mends
        seg_hi = int(segment(times[-1]))
        js = np.arange(seg_last + 1, seg_hi + 1)
        edge = np.searchsorted(times, warm_t + js * seg_len)
        while (fix := (edge > 0) & (segment(times[edge - 1]) >= js)).any():
            edge -= fix
        while (fix := segment(times[edge]) < js).any():
            edge += fix
        # tallies by the event's own segment, 5 * n_classes slots each
        for j, lo, hi in zip(range(seg_last, seg_hi + 1), [0, *edge], [*edge, n]):
            if lo < hi:
                tallies[j + 1] += np.bincount(key[lo:hi], None, 5 * n_classes)

        # the time since the previous event, from the warmup's end on, is held
        # by the pre-event state in that event's segment (0 in the warmup), a
        # run starting one past the segment's edge; what each state held in a
        # segment feeds its time-weighted sums, whose terms are added smallest
        # first, so no sum depends on how the table numbers its states
        dt = np.diff(stamps if last_t >= warm_t else np.maximum(stamps, warm_t))
        last_t = times[-1]
        held_at = edge[js > 0] + 1
        segs = range(max(seg_last, 0), seg_hi + 1)
        for j, lo, hi in zip(segs, [0, *held_at], [*held_at, n]):
            if lo == hi:
                continue
            held = np.bincount(pre[lo:hi], dt[lo:hi], len(features))
            # tally only the states held: a row read interns targets the walk
            # may not have reached, which broken rules can put off the grid
            kept = np.flatnonzero(held)
            held, cell = held[kept], features[kept, 0]
            by_cell = np.lexsort((held, cell))
            occupancy += np.bincount(cell[by_cell], held[by_cell], cells)
            seg_span[j] += np.sort(held).sum()
            by_class = np.sort(held[:, None] * features[kept, 3:], axis=0)
            seg_class_time[j] += by_class.sum(axis=0)
        seg_last = seg_hi

        warm = int(np.searchsorted(grant_t, warm_t))
        embedded += np.bincount(features[post.take(at_grant[warm:]), 0], None, cells)

        # FIFO: the j-th packet served from the queue is its j-th entrant;
        # an arrival's outcome is 2 if it queued, a grant's 3 if it served
        queues = outcome.take(key.take(at_arrival)) == 2
        waiting = np.concatenate((waiting, np.compress(queues, arrive)))
        grant_key = key.take(at_grant)
        serves = np.flatnonzero(outcome.take(grant_key) == 3)
        served_t = grant_t.take(serves)
        slot = (segment(served_t) + 1) * n_classes + grant_key.take(serves) // 5
        seg_wait += np.bincount(slot, served_t - waiting[: serves.size], slots)
        waiting = waiting[serves.size :]

    tallies = np.moveaxis(tallies.reshape(segments + 1, n_classes, 5), 2, 0)
    lost, passed, queued, served, _ = tallies[:, 1:]
    lost_all, passed_all, queued_all, served_all, _ = tallies.sum(axis=1)
    arrivals_all = lost_all + passed_all + queued_all
    return SimStats(
        traffic=traffic,
        config=config,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        segments=segments,
        elapsed=span,
        events=horizon + int(arrivals_all.sum()),
        occupancy_time=occupancy.reshape(bucket + 1, buffer_cap + 1),
        embedded_counts=embedded.reshape(bucket + 1, buffer_cap + 1),
        arrivals_all=arrivals_all,
        losses_all=lost_all,
        departures_all=passed_all + served_all,
        final_state=table.states[s],
        seg_span=seg_span,
        seg_arrivals=lost + passed + queued,
        seg_losses=lost,
        seg_departures=passed + served,
        seg_wait=seg_wait.reshape(segments + 1, n_classes)[1:],
        seg_class_time=seg_class_time,
        invariants_checked=checker.events_checked if checker else 0,
        states_met=walk.states_met,
        word_length=walk.k,
    )


def batch_confidence(
    stats: SimStats,
    batches: int,
    metrics: tuple[str, ...] = ("loss", "wait", "backlog"),
) -> dict:
    """Batch-means 95% confidence intervals for the per-class metrics.

    Groups the run's segments into ``batches`` consecutive batches and
    returns ``{metric: {size: (mean, half_width)}}`` for the requested
    metrics (loss ratio, mean wait, mean backlog), using the normal 1.96
    half-width.  A batch with no samples for a requested metric raises
    InsufficientData; restricting ``metrics`` lets callers read loss bands
    from runs where some class saw too few departures to form wait bands.
    """
    if batches < 2:
        raise ValueError("need at least 2 batches")
    if batches > stats.segments:
        raise InsufficientData(
            f"{batches} batches requested but only {stats.segments} segments"
        )
    groups = np.array_split(np.arange(stats.segments), batches)
    sizes = stats.traffic.sizes
    pieces = {
        "loss": (stats.seg_losses, stats.seg_arrivals),
        "wait": (stats.seg_wait, stats.seg_departures),
        "backlog": (stats.seg_class_time, stats.seg_span[:, None]),
    }
    unknown = set(metrics) - set(pieces)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    out: dict = {}
    for name, (num, den) in pieces.items():
        if name not in metrics:
            continue
        den = np.broadcast_to(den, num.shape)
        per_class: dict = {}
        for k, size in enumerate(sizes):
            values = []
            for g in groups:
                d = den[g, k].sum()
                if d == 0:
                    raise InsufficientData(
                        f"a batch has no {name} samples for size {size}"
                    )
                values.append(num[g, k].sum() / d)
            values = np.array(values)
            mean = float(values.mean())
            half = float(1.96 * values.std(ddof=1) / math.sqrt(batches))
            per_class[size] = (mean, half)
        out[name] = per_class
    return out
