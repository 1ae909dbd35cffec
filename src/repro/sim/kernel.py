"""Discrete-event simulation kernel.

This is the substrate on which every protocol layer in this repository runs
(the paper used the JiST/SWANS Java discrete-event simulator; this module is
our Python equivalent).  The kernel is a classic event-heap scheduler:
callbacks are scheduled at absolute simulated times and executed in
non-decreasing time order, with FIFO ordering between events scheduled for
the same instant.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulation kernel."""


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The scheduler orders events by ``(time, seq)`` so that simultaneous
    events run in the order they were scheduled.  ``cancel()`` marks the
    event dead; the scheduler skips dead events when it pops them (lazy
    deletion).
    """

    time: float
    seq: int
    fn: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled


class Simulator:
    """Heap-based discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        # ``(time, seq, event)`` entries: the heap compares the unique
        # ``(time, seq)`` keys as tuples and never reaches the event.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        #: Current simulated time (seconds).  A plain attribute: protocol
        #: code reads it on every frame.  Only the kernel moves it, and
        #: never backwards (every queued event is due at or after it).
        self.now = 0.0
        self._running = 0  # run() nesting depth
        #: Number of events executed so far (for instrumentation).
        self.events_executed = 0

    def next_event_time(self) -> float:
        """Timestamp of the earliest pending event (``inf`` when idle).

        Cancelled events at the head of the heap are drained lazily, so
        the answer reflects events that will actually fire.  Used by the
        batched access kernels to prove that no timer or churn event can
        interleave with a multi-frame window.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else math.inf

    def skip_to(self, time: float) -> None:
        """Move the clock to ``time`` across idle time.

        This is what ``run(until=time)`` does when no event is due at or
        before ``time``, without entering the scheduler loop; an event
        that is due raises :class:`SimulationError` instead of being
        skipped.  Callers have checked the window already, so the usual
        cost is one comparison with the head of the heap.
        """
        queue = self._queue
        if queue and queue[0][0] <= time and self.next_event_time() <= time:
            raise SimulationError(
                f"cannot skip to t={time}: an event is due at "
                f"t={self.next_event_time()}")
        if time > self.now:
            self.now = time

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        The same as ``schedule_at(now + delay, ...)``, spelled out: this
        is the packet floor's per-frame call.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def step(self, done: Optional[Callable[[], bool]] = None,
             deadline: float = math.inf) -> bool:
        """Execute the next pending event.  Returns False if queue is empty.

        With ``done``, keep stepping: the loop is exactly ::

            while not done() and sim.now < deadline:
                if not sim.step():
                    break

        in one call, so a caller that drives the kernel until an outcome
        resolves pays one call, not one per event.  The last event run
        may be due after ``deadline`` (the clock is checked before each
        step, not against the event).  Returns False if the queue ran dry.
        """
        queue = self._queue
        pop = heapq.heappop
        if done is None:
            while queue:
                event = pop(queue)[2]
                if event.cancelled:
                    continue
                self.now = event.time
                self.events_executed += 1
                event.fn(*event.args)
                return True
            return False
        while not done() and self.now < deadline:
            while queue:
                event = pop(queue)[2]
                if not event.cancelled:
                    break
            else:
                return False
            self.now = event.time
            self.events_executed += 1
            event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` (events scheduled at precisely ``until`` do execute).

        ``run`` is *reentrant*: an event callback may itself call
        ``run(until=...)`` to synchronously advance the clock (this is how
        protocol code models per-hop latency from inside timer callbacks).
        A nested run drains all events due up to its bound; the outer run
        then resumes with the clock already advanced.
        """
        self._running += 1
        executed = 0
        queue = self._queue
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    return
                event = queue[0][2]
                if event.cancelled:
                    heapq.heappop(queue)
                    continue
                if until is not None and event.time > until:
                    self.now = max(self.now, until)
                    return
                heapq.heappop(queue)
                # A nested run inside the previous callback may have pushed
                # the clock past this event's timestamp already.
                self.now = max(self.now, event.time)
                self.events_executed += 1
                executed += 1
                event.fn(*event.args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running -= 1


class PeriodicTimer:
    """Fires a callback every ``interval`` seconds until stopped.

    Used for heartbeats, route-table expiry sweeps, readvertise refresh, etc.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], Any],
    ) -> None:
        if interval <= 0:
            raise SimulationError("timer interval must be positive")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._stopped = False
        self._event: Optional[Event] = sim.schedule(interval, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(self._interval, self._tick)

    def stop(self) -> None:
        """Cancel the timer (idempotent)."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def interval(self) -> float:
        return self._interval

    def set_interval(self, interval: float) -> None:
        """Change the period; takes effect from the next (re)scheduling.

        Callbacks that adjust their own timer (e.g. the churn-adaptive
        refresh daemon re-deriving its interval each round) see the new
        period applied to the very next tick, because the timer
        reschedules after the callback returns.
        """
        if interval <= 0:
            raise SimulationError("timer interval must be positive")
        self._interval = interval

    @property
    def active(self) -> bool:
        return not self._stopped
