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

Batched emission: a simulated allocation reaches the bus as one
:class:`~repro.observability.events.AttemptBlock`, handed over with
:meth:`EventBus.publish_batch` once the allocation is finished.  The
block holds the allocation's stream as its task attempts, plus the rare
task instants as specs.  Ordering and sequence numbering are identical
to the equivalent ``emit`` loop, so subscribers that only understand
single events observe the exact same stream.  Subscribers that declare
an ``on_batch`` method (the Chrome-trace recorder, the streaming report
builder, the checkpoint journal) receive the whole block in one call;
the journal and the report read its attempts without any event being
built, and the block builds its events once, for the first subscriber
that iterates it, in fresh dicts and lists of their own.  ``emit``
builds a fresh ``fields`` dict from its keyword arguments.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Callable

from repro.observability.events import BEGIN, END, INSTANT, AttemptBlock, Event


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
        method; :meth:`publish_batch` will then deliver each attempt block
        in one call instead of one call per event.
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

    def publish_batch(self, block: AttemptBlock) -> AttemptBlock | None:
        """Deliver one finished simulated allocation; returns the block.

        ``block`` is an :class:`~repro.observability.events.AttemptBlock`
        (anything else raises ``TypeError``).  It is stamped with this
        bus's ``pid`` and the ``seq`` of its first event, so the stream it
        stands for is indistinguishable from the equivalent ``emit``
        loop, and delivered and returned as it is: it builds its events
        only if a subscriber iterates it, and its ``len`` is the number
        of events it stands for either way.  Returns ``None`` without
        touching the block when nobody listens.

        Subscribers exposing an ``on_batch(events)`` method receive the
        whole block in a single call (the Chrome-trace recorder, the
        streaming report builder and the checkpoint journal do); plain
        callables are invoked once per event, in order.  Isolation
        matches :meth:`emit`: a raising subscriber is warned about (with
        the event name that triggered it) and the rest of the delivery
        proceeds.
        """
        if not isinstance(block, AttemptBlock):
            raise TypeError(f"publish_batch takes an AttemptBlock, got {type(block).__name__}")
        if not self._subscribers and not _GLOBAL_SUBSCRIBERS:
            return None
        block.pid, block.seq = self.pid, self._seq
        self._seq += len(block)
        if not block:
            return block
        for callback in (*self._subscribers, *_GLOBAL_SUBSCRIBERS):
            batch_cb = getattr(callback, "on_batch", None)
            if batch_cb is not None:
                try:
                    batch_cb(block)
                except Exception as exc:
                    self._warn_subscriber(callback, block.event(0).name, exc, batch=len(block))
                continue
            for event in block:
                try:
                    callback(event)
                except Exception as exc:
                    self._warn_subscriber(callback, event.name, exc)
        return block

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
