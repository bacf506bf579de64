"""The discrete-event simulation environment (clock + event loop).

:class:`Environment` owns the simulated clock and a priority queue of
triggered events.  :meth:`Environment.step` pops the earliest event, advances
the clock to its timestamp, and runs its callbacks; :meth:`Environment.run`
steps until a deadline, a target event, or queue exhaustion.

Unhandled event failures are *strict*: if a failed event is processed and no
callback defuses it, the exception propagates out of :meth:`run`.  This turns
silent protocol bugs into loud test failures.

Performance notes
-----------------
The event loop is the innermost loop of every simulated run, so the ``run``
variants inline the pop → advance-clock → dispatch sequence instead of
calling :meth:`step` per event: at hundreds of thousands of events per
second the per-event function call is a measurable fraction of total cost
(see ``benchmarks/bench_engine.py``, kernel section).  :meth:`step` remains
the canonical single-event reference — the inlined bodies must stay
behaviourally identical to it.  Queue entries stay plain tuples on purpose:
tuple comparison happens in C, which beats any ``__slots__`` class with a
Python-level ``__lt__``.

The event queue is a *hybrid*: a plain ``heapq`` list serves while the
queue is small (it has the better constant there), and the first push that
grows it past ``promote_at`` (default
:data:`~repro.sim.queues.PROMOTE_THRESHOLD`) migrates all entries into a
:class:`~repro.sim.queues.CalendarQueue`, whose bucketed layout keeps
per-event cost flat at the 10⁴–10⁶ pending events large multi-region runs
hold.  Both structures realize the same ``(time, priority, sequence)``
total order, so the migration is invisible to simulation outcomes.
``promote_at=math.inf`` pins the plain heap — the reference the calendar
is equivalence-tested against (``tests/property/test_calendar_queue.py``,
``tests/integration/test_queue_equivalence.py``) and benchmarked against
(``benchmarks/bench_engine.py``).  A promotion is one-way; once the queue
is a calendar the run loops enter dedicated inner loops that skip the
per-event structure check.

Timeout pooling (``pooling=True``) recycles processed :class:`Timeout`
objects through a free list: :meth:`timeout` / :meth:`defer` re-arm the
recycled object and its callback list instead of allocating fresh ones per
event.  It is opt-in because code that holds a timeout reference *past* its
firing would observe the recycled object; the in-tree protocol stack never
does (conditions pin their children, ``run(until=event)`` pins its target),
so the testbed enables it for every cluster run.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, NORMAL, Timeout
from repro.sim.process import Process
from repro.sim.queues import (
    CalendarQueue,
    DEFAULT_BUCKET_WIDTH,
    PROMOTE_THRESHOLD,
    _SPLIT_LIMIT,
)

_QueueEntry = Tuple[float, int, int, Event]


class Environment:
    """A simulated world with its own clock and event loop."""

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active_process",
        "_promote_at",
        "_bucket_width",
        "_pooling",
        "_pool",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        pooling: bool = False,
        bucket_width: float = DEFAULT_BUCKET_WIDTH,
        promote_at: float = PROMOTE_THRESHOLD,
    ) -> None:
        self._now = float(initial_time)
        #: list while in heap mode; CalendarQueue after promotion.
        self._queue: Union[List[_QueueEntry], CalendarQueue] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: heap size that triggers migration; inf pins the heap reference.
        self._promote_at = float(promote_at)
        self._bucket_width = bucket_width
        self._pooling = pooling
        self._pool: List[Timeout] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now.

        With pooling enabled, re-arms a recycled timeout when one is
        available — same observable behaviour, no allocation.
        """
        pool = self._pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            timeout = pool.pop()
            timeout._value = value
            timeout._processed = False
            # defused stays False: a pooled timeout is born triggered and can
            # never fail, so nothing ever defuses it.
            timeout.delay = delay
            seq = self._seq
            self._seq = seq + 1
            when = self._now + delay
            entry = (when, NORMAL, seq, timeout)
            q = self._queue
            if q.__class__ is list:
                heappush(q, entry)
                if len(q) > self._promote_at:
                    self._promote()
            else:
                # Inlined CalendarQueue.push — keep in sync.
                key = int(when * q._inv)
                if key <= q._akey:
                    insort(q._active, entry, q._ai)
                    q._len += 1
                else:
                    bucket = q._buckets.get(key)
                    if bucket is None:
                        q._buckets[key] = [entry]
                        heappush(q._keys, key)
                        q._len += 1
                    else:
                        bucket.append(entry)
                        q._len += 1
                        if len(bucket) > _SPLIT_LIMIT:
                            q._push_rebuild()
            return timeout
        timeout = Timeout(self, delay, value)
        if self._pooling:
            timeout._pooled = True
        return timeout

    def defer(self, delay: float, fn: Callable[[Event], None], value: Any = None) -> Timeout:
        """``timeout(delay, value)`` with ``fn`` installed, in one call.

        The combined fast path saves a call frame per event on the hottest
        pattern in the codebase (schedule-then-subscribe, e.g. every network
        delivery); behaviourally identical to
        ``timeout(delay, value).add_callback(fn)``.
        """
        pool = self._pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            timeout = pool.pop()
            timeout._value = value
            timeout._processed = False
            # defused stays False: a pooled timeout is born triggered and can
            # never fail, so nothing ever defuses it.
            timeout.delay = delay
            timeout.callbacks.append(fn)  # type: ignore[union-attr]
            seq = self._seq
            self._seq = seq + 1
            when = self._now + delay
            entry = (when, NORMAL, seq, timeout)
            q = self._queue
            if q.__class__ is list:
                heappush(q, entry)
                if len(q) > self._promote_at:
                    self._promote()
            else:
                # Inlined CalendarQueue.push — keep in sync.
                key = int(when * q._inv)
                if key <= q._akey:
                    insort(q._active, entry, q._ai)
                    q._len += 1
                else:
                    bucket = q._buckets.get(key)
                    if bucket is None:
                        q._buckets[key] = [entry]
                        heappush(q._keys, key)
                        q._len += 1
                    else:
                        bucket.append(entry)
                        q._len += 1
                        if len(bucket) > _SPLIT_LIMIT:
                            q._push_rebuild()
            return timeout
        timeout = Timeout(self, delay, value)
        if self._pooling:
            timeout._pooled = True
        timeout.callbacks.append(fn)  # type: ignore[union-attr]
        return timeout

    def process(self, generator: Generator[Event, Any, Any], name: Optional[str] = None) -> Process:
        """Launch a generator as a concurrent process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that succeeds once every event in ``events`` succeeds."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that succeeds once any event in ``events`` succeeds."""
        return AnyOf(self, list(events))

    # -- scheduling -------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, priority, seq, event)
        q = self._queue
        if q.__class__ is list:
            heappush(q, entry)
            if len(q) > self._promote_at:
                self._promote()
        else:
            q.push(entry)

    def _promote(self) -> None:
        """Migrate the heap into a calendar queue (order-transparent)."""
        self._queue = CalendarQueue.from_heap(self._queue, self._bucket_width)

    def peek(self) -> float:
        """Timestamp of the next queued event, or ``inf`` if the queue is empty."""
        q = self._queue
        if q.__class__ is list:
            return q[0][0] if q else float("inf")
        return q.peek_time() if q._len else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to its timestamp).

        This is the canonical dispatch sequence; the ``run`` loops inline
        the same body for speed and must stay equivalent to it.
        """
        q = self._queue
        if q.__class__ is list:
            if not q:
                raise SimulationError("step() on an empty event queue")
            when, _priority, _seq, event = heappop(q)
        else:
            if not q._len:
                raise SimulationError("step() on an empty event queue")
            when, _priority, _seq, event = q.pop()
        self._now = when
        if event._pooled:
            # Pooled timeouts are born triggered and can never fail, so the
            # exception/defuse machinery is skipped; their callback list is
            # reused in place (see the pooling notes in the module docstring).
            callbacks = event.callbacks
            event._processed = True
            for callback in callbacks:  # type: ignore[union-attr]
                callback(event)
            callbacks.clear()  # type: ignore[union-attr]
            self._pool.append(event)  # type: ignore[arg-type]
            return
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._exception is not None and not event.defused:
            raise event._exception

    # -- run loop --------------------------------------------------------------

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until the queue drains; returns ``None``.
        * a number — run until the clock reaches that time; returns ``None``.
        * an :class:`Event` — run until that event is processed; returns the
          event's value (or raises its exception).
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        pool = self._pool
        if until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
            while True:
                q = self._queue
                if q.__class__ is not list:
                    break  # promoted: drop into the calendar loop below
                if not q or q[0][0] > deadline:
                    self._now = deadline
                    return None
                when, _priority, _seq, event = heappop(q)
                # Inlined step() body — keep in sync.
                self._now = when
                if event._pooled:
                    callbacks = event.callbacks
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    callbacks.clear()
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._exception is not None and not event.defused:
                        raise event._exception
            # Calendar steady state: the structure never reverts, so the
            # dedicated loop drops the per-event class check.
            while True:
                # Inlined CalendarQueue pop fast path — keep in sync.
                active = q._active
                ai = q._ai
                if ai < len(active):
                    entry = active[ai]
                    when = entry[0]
                    if when > deadline:
                        break
                    q._ai = ai + 1
                    q._len -= 1
                    event = entry[3]
                else:
                    if not q._len or q.peek_time() > deadline:
                        break
                    when, _priority, _seq, event = q.pop()
                # Inlined step() body — keep in sync.
                self._now = when
                if event._pooled:
                    callbacks = event.callbacks
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    callbacks.clear()
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._exception is not None and not event.defused:
                        raise event._exception
            self._now = deadline
            return None
        while True:
            q = self._queue
            if q.__class__ is not list:
                break  # promoted: drop into the calendar loop below
            if not q:
                return None
            when, _priority, _seq, event = heappop(q)
            # Inlined step() body — keep in sync.
            self._now = when
            if event._pooled:
                callbacks = event.callbacks
                event._processed = True
                for callback in callbacks:
                    callback(event)
                callbacks.clear()
                pool.append(event)
            else:
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._exception is not None and not event.defused:
                    raise event._exception
        while True:
            # Inlined CalendarQueue pop fast path — keep in sync.
            active = q._active
            ai = q._ai
            if ai < len(active):
                entry = active[ai]
                when = entry[0]
                q._ai = ai + 1
                q._len -= 1
                event = entry[3]
            else:
                if not q._len:
                    return None
                when, _priority, _seq, event = q.pop()
            # Inlined step() body — keep in sync.
            self._now = when
            if event._pooled:
                callbacks = event.callbacks
                event._processed = True
                for callback in callbacks:
                    callback(event)
                callbacks.clear()
                pool.append(event)
            else:
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._exception is not None and not event.defused:
                    raise event._exception

    def _run_until_event(self, target: Event) -> Any:
        if target.processed:
            return target.value

        def _finish(event: Event) -> None:
            event.defused = True
            raise StopSimulation(event)

        # Pin the target: the caller reads its value after the run, so it
        # must never be recycled out from under them.
        target._pooled = False
        target.add_callback(_finish)
        pool = self._pool
        try:
            while True:
                q = self._queue
                if q.__class__ is not list:
                    break  # promoted: drop into the calendar loop below
                if not q:
                    raise SimulationError(
                        "run(until=event): queue drained before event triggered"
                    )
                when, _priority, _seq, event = heappop(q)
                # Inlined step() body — keep in sync.
                self._now = when
                if event._pooled:
                    callbacks = event.callbacks
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    callbacks.clear()
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._exception is not None and not event.defused:
                        raise event._exception
            while True:
                # Inlined CalendarQueue pop fast path — keep in sync.
                active = q._active
                ai = q._ai
                if ai < len(active):
                    entry = active[ai]
                    when = entry[0]
                    q._ai = ai + 1
                    q._len -= 1
                    event = entry[3]
                else:
                    if not q._len:
                        raise SimulationError(
                            "run(until=event): queue drained before event triggered"
                        )
                    when, _priority, _seq, event = q.pop()
                # Inlined step() body — keep in sync.
                self._now = when
                if event._pooled:
                    callbacks = event.callbacks
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    callbacks.clear()
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if event._exception is not None and not event.defused:
                        raise event._exception
        except StopSimulation:
            return target.value  # raises the exception if target failed
