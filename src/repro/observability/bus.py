"""The event bus: synchronous pub/sub with span support.

One :class:`EventBus` per simulated machine (created by
:class:`~repro.cluster.cluster.SimulatedCluster`); the execution layers
emit into it and any number of subscribers — trace recorders, metrics
aggregators, ad-hoc test probes — observe synchronously, in emission
order.

Two subscription scopes exist:

- **instance** subscribers (:meth:`EventBus.subscribe`) see one bus;
- **global** subscribers (:func:`subscribe_all`) see every bus in the
  process, which is how a recorder captures runs whose clusters are
  created deep inside a figure driver it does not control.

Emission is near-free when nobody listens: ``emit`` returns ``None``
without building an :class:`Event`, so instrumented hot paths cost one
truthiness check per event in unobserved runs.

Batched emission: hot paths that produce many events at one code site
(the vectorized executors, trace replay, bench harnesses) can hand the
bus a whole batch of ``(name, phase, time, fields)`` specs at once via
:meth:`EventBus.publish_batch`.  Ordering and sequence numbering are
identical to the equivalent ``emit`` loop — subscribers that only
understand single events observe the exact same stream — but
subscribers that declare an ``on_batch`` method (the Chrome-trace
recorder, the streaming report builder, the checkpoint journal) receive
the batch in one call, dropping the per-event Python function-call
overhead.

Ownership: each event keeps the ``fields`` dict it was built with, so a
batch producer hands over one fresh dict per spec and never mutates it
after publishing; ``emit`` builds a fresh dict from its keyword
arguments.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Callable

from repro.observability.events import BEGIN, END, INSTANT, Event


class SubscriberError(UserWarning):
    """Warning category for exceptions raised inside bus subscribers.

    Delivery is isolated: a raising subscriber (a buggy analyzer, a
    broken metrics sink) must not kill the simulation it observes, so
    ``emit`` catches the exception, issues one warning per subscriber
    *per event name* — each warning names the event that triggered it,
    so a subscriber that chokes on ``task`` events and later on
    ``alloc`` events reports both without a local repro — and keeps
    delivering to the rest.  Filter with
    ``warnings.filterwarnings("error", category=SubscriberError)`` to
    surface subscriber bugs hard in tests.
    """

#: Process-wide subscribers: every bus delivers to these after its own.
_GLOBAL_SUBSCRIBERS: list[Callable[[Event], None]] = []

_bus_ids = iter(range(1 << 30))


def subscribe_all(callback: Callable[[Event], None]) -> Callable[[], None]:
    """Observe every bus in the process; returns an unsubscribe callable."""
    _GLOBAL_SUBSCRIBERS.append(callback)

    def unsubscribe() -> None:
        if callback in _GLOBAL_SUBSCRIBERS:
            _GLOBAL_SUBSCRIBERS.remove(callback)

    return unsubscribe


class EventBus:
    """Synchronous, ordered event delivery with span bookkeeping.

    Parameters
    ----------
    clock:
        Zero-argument callable giving the current time in seconds; the
        cluster wires in its simulator's clock.  A standalone bus reads
        0.0 (explicitly pass ``time=`` to :meth:`emit` to override).
    name:
        Human label for the bus (defaults to ``bus-<pid>``); shows up in
        recorder output when several machines are captured at once.

    Example
    -------
    >>> bus = EventBus()
    >>> seen = []
    >>> _ = bus.subscribe(seen.append)
    >>> _ = bus.emit("task", phase="begin", task_id=1)
    >>> seen[0].name, seen[0].fields["task_id"]
    ('task', 1)
    """

    def __init__(self, clock: Callable[[], float] | None = None, name: str | None = None):
        self.clock = clock
        self.pid = next(_bus_ids)
        self.name = name or f"bus-{self.pid}"
        self._subscribers: list[Callable[[Event], None]] = []
        self._seq = 0
        self._warned: set[int] = set()

    # -- subscription --------------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Deliver every event on this bus to ``callback``.

        Returns an unsubscribe callable (idempotent).  Subscribers run
        synchronously in subscription order.  An exception in one is
        *isolated*: it is reported as a :class:`SubscriberError` warning
        (once per subscriber per event name per bus, naming the event
        that triggered it) and delivery continues — an observer bug must
        not alter, let alone kill, the run it observes.

        A subscriber object may additionally expose an ``on_batch(events)``
        method; :meth:`publish_batch` will then deliver whole batches in
        one call instead of one call per event.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    @property
    def has_subscribers(self) -> bool:
        return bool(self._subscribers) or bool(_GLOBAL_SUBSCRIBERS)

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        name: str,
        phase: str = INSTANT,
        time: float | None = None,
        **fields,
    ) -> Event | None:
        """Build and deliver one event; returns it (or ``None`` if unobserved).

        ``time`` defaults to the bus clock; fields must stay
        JSON-serializable so traces export losslessly.
        """
        if not self._subscribers and not _GLOBAL_SUBSCRIBERS:
            return None
        if time is None:
            time = self.clock() if self.clock is not None else 0.0
        event = Event(name, float(time), phase, self._seq, self.pid, fields)
        self._seq += 1
        for callback in (*self._subscribers, *_GLOBAL_SUBSCRIBERS):
            try:
                callback(event)
            except Exception as exc:
                self._warn_subscriber(callback, name, exc)
        return event

    def publish_batch(self, specs) -> list[Event] | None:
        """Build and deliver many events in one call; returns them.

        ``specs`` is an iterable of ``(name, phase, time, fields)``
        tuples (``phase``/``time``/``fields`` may be ``None``, meaning
        the :meth:`emit` default).  Sequence numbers are assigned in
        input order, so the resulting stream is indistinguishable from
        the equivalent ``emit`` loop; returns ``None`` without building
        anything when nobody listens.

        Each event takes ownership of its spec's ``fields`` dict, as is
        (a ``None`` gets a fresh ``{}``): hand over one fresh dict per
        spec and never mutate it after publishing.

        Subscribers exposing an ``on_batch(events)`` method receive the
        whole batch in a single call (the Chrome-trace recorder and the
        streaming report builder do); plain callables are invoked once
        per event, in order.  Isolation matches :meth:`emit`: a raising
        subscriber is warned about (with the event name that triggered
        it) and the rest of the delivery proceeds.
        """
        if not self._subscribers and not _GLOBAL_SUBSCRIBERS:
            return None
        default_time = None
        events: list[Event] = []
        append = events.append
        pid = self.pid
        seq = self._seq
        for name, phase, time, fields in specs:
            if phase is None:
                phase = INSTANT
            if time is None:
                if default_time is None:
                    default_time = self.clock() if self.clock is not None else 0.0
                time = default_time
            append(Event(name, float(time), phase, seq, pid, fields))
            seq += 1
        self._seq = seq
        if not events:
            return events
        for callback in (*self._subscribers, *_GLOBAL_SUBSCRIBERS):
            batch_cb = getattr(callback, "on_batch", None)
            if batch_cb is not None:
                try:
                    batch_cb(events)
                except Exception as exc:
                    self._warn_subscriber(callback, events[0].name, exc, batch=len(events))
                continue
            for event in events:
                try:
                    callback(event)
                except Exception as exc:
                    self._warn_subscriber(callback, event.name, exc)
        return events

    def _warn_subscriber(self, callback, name: str, exc: Exception, batch: int = 0) -> None:
        """Report one isolated subscriber failure (once per event name)."""
        key = (id(callback), name)
        if key in self._warned:
            return
        self._warned.add(key)
        where = f"batch of {batch} events starting at {name!r}" if batch else f"event {name!r}"
        warnings.warn(
            f"subscriber {callback!r} on {self.name} raised {exc!r} at "
            f"{where}; it stays subscribed and delivery continues (further "
            f"failures of this subscriber at {name!r} are silent)",
            SubscriberError,
            stacklevel=3,
        )

    @contextmanager
    def span(self, name: str, **fields):
        """Emit ``begin``/``end`` around a code block, exception-safely.

        On a clean exit the ``end`` event carries ``outcome="ok"``; if the
        block raises, the ``end`` still fires (so no span dangles) with
        ``outcome="error"`` and the exception's repr, and the exception
        propagates.  The begin/end timestamps come from the bus clock, so
        a span wrapped around ``cluster.run()`` covers simulated time.
        """
        self.emit(name, phase=BEGIN, **fields)
        try:
            yield self
        except BaseException as exc:
            self.emit(name, phase=END, outcome="error", error=repr(exc), **fields)
            raise
        else:
            self.emit(name, phase=END, outcome="ok", **fields)
