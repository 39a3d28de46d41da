"""Discrete-event simulation core.

A minimal, deterministic event loop: events are ``(time, sequence)``-ordered
callbacks on a binary heap.  The sequence number breaks ties so that events
scheduled earlier fire earlier at equal timestamps, which keeps runs
reproducible regardless of heap internals.

The engine is intentionally tiny — processes, resources, and queues are
modelled by the layers above (scheduler, executors) out of plain callbacks,
which keeps this core easy to reason about and to property-test (clock
monotonicity, cancellation semantics).

Hot-path representation: a queued event is a plain 5-slot ``list``
(``[time, seq, callback, args, cancelled]``) rather than an object with
ordered fields.  List comparison happens entirely in C — ``time`` differs
almost always, and ``seq`` is unique so the comparison never reaches the
callback slot — which removes the per-comparison Python ``__lt__`` dispatch
that previously dominated heap maintenance.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro._util import check_nonnegative

# Slots of a queued-event entry (a plain list; see module docstring).
_TIME, _SEQ, _CALLBACK, _ARGS, _CANCELLED = range(5)


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`; supports cancel."""

    __slots__ = ("_event",)

    def __init__(self, event: list):
        self._event = event

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event fires."""
        return self._event[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._event[_CANCELLED]

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._event[_CANCELLED] = True


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    5.0
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._queue: list[list] = []
        self._now = 0.0
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def schedule(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        check_nonnegative("delay", delay)
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: time={time} < now={self._now}"
            )
        event = [float(time), self._seq, callback, args, False]
        self._seq += 1
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def step(self) -> bool:
        """Fire the next pending event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event[_CANCELLED]:
                continue
            self._now = event[_TIME]
            event[_CALLBACK](*event[_ARGS])
            return True
        return False

    def peek(self) -> float | None:
        """Time of the next non-cancelled event, or None if queue is empty."""
        while self._queue and self._queue[0][_CANCELLED]:
            heapq.heappop(self._queue)
        return self._queue[0][_TIME] if self._queue else None

    def run(self, until: float | None = None) -> float:
        """Fire events until the queue drains (or the clock passes ``until``).

        Returns the final simulation time.  With ``until`` set, events
        scheduled after the horizon stay queued and the clock is advanced to
        exactly ``until``.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is before now={self._now}")
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            # Hot path: drain everything with the loop inlined (no
            # peek/step function-call pair per event).
            while queue:
                event = pop(queue)
                if event[_CANCELLED]:
                    continue
                self._now = event[_TIME]
                event[_CALLBACK](*event[_ARGS])
            return self._now
        while True:
            nxt = self.peek()
            if nxt is None:
                break
            if nxt > until:
                self._now = until
                return self._now
            self.step()
        self._now = max(self._now, until)
        return self._now

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for e in self._queue if not e[_CANCELLED])
