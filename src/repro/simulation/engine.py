"""Binary-heap discrete-event simulation core.

The engine keeps pending events in one binary heap of mutable lists
``[time, sequence, callback, label, period]`` ordered by
``(time, sequence)``.  The sequence is unique per entry, so ties on
time break in scheduling (FIFO) order and a comparison never reaches
the callback.  Recurring events created with :meth:`Simulator.every`
carry their interval in the ``period`` slot and are re-armed in place
after each firing: the same list object, with the same sequence
number, goes back on the heap.  A recurring event therefore keeps its
*creation-order* identity for FIFO tie-breaking across firings.

``+inf`` and ``-inf`` are ordinary heap keys (an ``+inf`` recurrence
stays at ``+inf``); ``NaN`` is rejected at push time, since it has no
place in any total order.

All queue logic lives in :class:`EventQueue`; :meth:`Simulator.run`
delegates to the queue's drain loop, and :meth:`EventQueue.pop`
re-arms exactly as that loop does, so there is one implementation of
the event order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import NamedTuple

from repro.errors import ConfigurationError, SimulationError

#: Signature of a scheduled callback: receives the simulator.
EventCallback = Callable[["Simulator"], None]

_INF = float("inf")


class _Event(NamedTuple):
    """Named view over one heap entry (storage stays a plain list)."""

    time: float
    sequence: int
    callback: EventCallback
    label: str


class EventQueue:
    """Time-ordered event heap (stable for simultaneous events)."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: EventCallback,
             label: str = "") -> None:
        """Schedule ``callback`` at absolute ``time``."""
        self._push(time, callback, label, None)

    def _push(self, time: float, callback: EventCallback, label: str,
              period: float | None) -> None:
        if math.isnan(time):
            raise SimulationError(
                f"event time must not be NaN ({label or 'unlabelled'})")
        heapq.heappush(self._heap,
                       [time, next(self._counter), callback, label, period])

    def pop(self) -> _Event:
        """Remove and return the earliest event.

        A recurring entry re-arms itself ``period`` seconds later (same
        sequence number), exactly as the drain loop would.
        """
        if not self._heap:
            # IndexError matches the container protocol (and the old
            # heapq-backed behaviour), not a configuration problem.
            raise IndexError(  # repro-lint: disable=exception-hygiene
                "pop from an empty event queue")
        entry = heapq.heappop(self._heap)
        event = _Event(entry[0], entry[1], entry[2], entry[3])
        period = entry[4]
        if period is not None:
            entry[0] = entry[0] + period
            heapq.heappush(self._heap, entry)
        return event

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def _drain(self, sim: "Simulator", until: float | None) -> float:
        """Execute events against ``sim`` — the one run-loop primitive."""
        # ``sim._now`` is written before each callback so re-entrant
        # reads and pushes stay exact; ``sim._executed`` is synced in
        # the ``finally``.
        heap = self._heap
        limit = sim._max_events
        executed = sim._executed
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    sim._now = until
                    return until
                entry = heappop(heap)
                now = entry[0]
                sim._now = now
                executed += 1
                if executed > limit:
                    # The over-budget event is consumed (clock advanced,
                    # count bumped) but its callback never runs.
                    raise SimulationError(
                        f"event budget of {limit} exceeded at "
                        f"t={now:.6g}s; runaway schedule?")
                entry[2](sim)
                period = entry[4]
                if period is not None:
                    entry[0] = now + period
                    heappush(heap, entry)
            if until is not None and until > sim._now:
                sim._now = until
            return sim._now
        finally:
            sim._executed = executed


class Simulator:
    """Runs an event heap until exhaustion or a time horizon."""

    __slots__ = ("_queue", "_now", "_max_events", "_executed")

    def __init__(self, *, max_events: int = 10_000_000) -> None:
        if max_events <= 0:
            raise ConfigurationError(
                f"max_events must be > 0, got {max_events!r}")
        self._queue = EventQueue()
        self._now = 0.0
        self._max_events = max_events
        self._executed = 0

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events processed so far."""
        return self._executed

    def at(self, time: float, callback: EventCallback,
           label: str = "") -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: now={self._now:.9g}, "
                f"requested {time:.9g} ({label or 'unlabelled'})")
        self._queue.push(time, callback, label)

    def after(self, delay: float, callback: EventCallback,
              label: str = "") -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(
                f"delay must be >= 0, got {delay!r} ({label or 'unlabelled'})")
        self._queue.push(self._now + delay, callback, label)

    def every(self, interval: float, callback: EventCallback,
              label: str = "", *, start: float | None = None) -> None:
        """Schedule ``callback`` to recur every ``interval`` seconds.

        The first firing is at ``start`` (default ``now + interval``);
        the entry re-arms itself in place after each firing — same
        heap entry, same tie-breaking sequence number — so a horizon
        passed to :meth:`run` bounds the recurrence naturally.
        """
        if not (0 < interval < _INF):
            raise SimulationError(
                f"interval must be > 0 and finite, got {interval!r} "
                f"({label or 'unlabelled'})")
        first = self._now + interval if start is None else start
        if first < self._now:
            raise SimulationError(
                f"cannot schedule into the past: now={self._now:.9g}, "
                f"requested {first:.9g} ({label or 'unlabelled'})")
        self._queue._push(first, callback, label, interval)

    def run(self, until: float | None = None) -> float:
        """Execute events (optionally only up to time ``until``).

        Returns the final simulation time.  Raises
        :class:`~repro.errors.SimulationError` if the event budget is
        exhausted (runaway schedule protection).
        """
        return self._queue._drain(self, until)
