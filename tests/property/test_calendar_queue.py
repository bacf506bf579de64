"""Property test: the calendar queue pops in exactly the heap's order.

The kernel's correctness rests on one claim (``docs/performance.md``): the
bucketed :class:`repro.sim.queues.CalendarQueue` realizes the same
``(time, priority, sequence)`` total order as the ``heapq`` reference, so
swapping one for the other — including mid-run, when the kernel promotes a
grown heap — cannot change any simulation outcome.  These tests drive
randomized schedules through both structures and assert entry-for-entry
identity.

Two schedule regimes matter:

* **batch** — everything pushed up front, then drained (the migration
  path: :meth:`CalendarQueue.from_heap` receives a heap in one go);
* **interleaved** — pushes and pops mixed, with every push at or after
  the time of the last pop.  That restriction is the kernel's own clock
  invariant (an event can only schedule at ``now`` or later), and it is
  what makes the calendar's monotone cursor sound — so the generator
  enforces it rather than exploring schedules the kernel can never emit.

Timestamp ties (and full ``(time, priority)`` ties, where only the
sequence number breaks the order) are generated deliberately: ties are
where a bucketed structure would betray instability first.
"""

import heapq
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.kernel import Environment
from repro.sim.queues import CalendarQueue

#: Small pools force collisions: with ~8 distinct times and 2 priorities,
#: a 200-entry schedule is mostly ties.
TIMES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.5, 100.0)
PRIORITIES = (0, 1)


@st.composite
def entries(draw, n_min=1, n_max=200):
    """A list of (time, priority, sequence, payload) entries, dense in ties."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    out = []
    for seq in range(n):
        time = draw(st.sampled_from(TIMES)) + draw(
            st.sampled_from((0.0, 0.0, 0.0, 1e-9, 0.125))
        )
        priority = draw(st.sampled_from(PRIORITIES))
        out.append((time, priority, seq, f"payload-{seq}"))
    return out


def drain(queue, n):
    return [queue.pop() for _ in range(n)]


class TestBatchSchedules:
    @given(entries(), st.sampled_from((0.1, 1.0, 64.0)))
    @settings(max_examples=150, deadline=None)
    def test_pop_order_matches_heap(self, schedule, width):
        heap = list(schedule)
        heapq.heapify(heap)
        expected = [heapq.heappop(heap) for _ in range(len(schedule))]

        calendar = CalendarQueue(width=width)
        for entry in schedule:
            calendar.push(entry)
        assert drain(calendar, len(schedule)) == expected

    @given(entries())
    @settings(max_examples=60, deadline=None)
    def test_from_heap_migration_preserves_order(self, schedule):
        heap = list(schedule)
        heapq.heapify(heap)
        # Pop a prefix from the heap, migrate the rest mid-drain — the
        # kernel's promotion path — and the tail must continue seamlessly.
        cut = len(heap) // 3
        prefix = [heapq.heappop(heap) for _ in range(cut)]
        migrated = CalendarQueue.from_heap(heap)
        tail = drain(migrated, len(schedule) - cut)
        assert prefix + tail == sorted(schedule)

    @given(entries())
    @settings(max_examples=60, deadline=None)
    def test_peek_time_is_next_pop_time(self, schedule):
        calendar = CalendarQueue()
        for entry in schedule:
            calendar.push(entry)
        for _ in range(len(schedule)):
            assert calendar.peek_time() == calendar.pop()[0]


class TestInterleavedSchedules:
    @given(
        entries(n_max=120),
        st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=120),
        st.sampled_from((0.1, 1.0, 64.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_push_pop_matches_heap(self, schedule, pop_bursts, width):
        """Pops interleaved with pushes; pushed times respect the clock.

        ``pop_bursts[i]`` pops are attempted after push *i*.  A pushed
        entry whose time precedes the last pop (the simulated "now") is
        lifted to that time, mirroring the kernel invariant that nothing
        schedules in the past.
        """
        heap = []
        calendar = CalendarQueue(width=width)
        now = 0.0
        popped_heap = []
        popped_calendar = []
        bursts = iter(pop_bursts + [0] * len(schedule))
        for entry in schedule:
            if entry[0] < now:
                entry = (now, entry[1], entry[2], entry[3])
            heapq.heappush(heap, entry)
            calendar.push(entry)
            for _ in range(min(next(bursts), len(heap))):
                expected = heapq.heappop(heap)
                actual = calendar.pop()
                popped_heap.append(expected)
                popped_calendar.append(actual)
                now = expected[0]
        popped_heap.extend(heapq.heappop(heap) for _ in range(len(heap)))
        remaining = len(popped_heap) - len(popped_calendar)
        popped_calendar.extend(drain(calendar, remaining))
        assert popped_calendar == popped_heap

    @given(entries(n_max=80))
    @settings(max_examples=60, deadline=None)
    def test_length_tracks_contents(self, schedule):
        calendar = CalendarQueue()
        for pushed, entry in enumerate(schedule, start=1):
            calendar.push(entry)
            assert len(calendar) == pushed
        for remaining in range(len(schedule) - 1, -1, -1):
            calendar.pop()
            assert len(calendar) == remaining


class TestKernelEquivalence:
    """The same simulation on both queue backends is bit-identical."""

    @staticmethod
    def _run(promote_at):
        env = Environment(promote_at=promote_at)
        log = []

        def ping(env, name, period, jitter):
            for tick in range(12):
                yield env.timeout(period + (tick % 3) * jitter)
                log.append((env.now, name, tick))

        from repro.sim.process import Process

        for index in range(7):
            Process(env, ping(env, f"p{index}", 1.0 + index * 0.5, 0.125 * index))
        env.run(until=40.0)
        return log

    def test_heap_and_calendar_runs_identical(self):
        # promote_at=0 forces the calendar from the first event, so the
        # whole run exercises the bucketed structure, not the heap prefix.
        assert self._run(math.inf) == self._run(0)

    def test_promotion_mid_run_is_transparent(self):
        # Promote after a handful of events: the run crosses the heap ->
        # calendar migration and must not notice.
        assert self._run(math.inf) == self._run(5)
