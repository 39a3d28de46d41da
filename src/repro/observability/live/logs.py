"""Structured JSON-lines logging: bus events as operator-grepable lines.

:class:`JsonLogSubscriber` is the log half of the live telemetry plane:
subscribe it to a service monitoring bus (or any
:class:`~repro.observability.EventBus`) and every event becomes exactly
one JSON object on one line — the format every log shipper and ``jq``
pipeline already speaks.

Line schema (documented in ``docs/telemetry.md``): the promoted keys
come first and are always present when the event carries them —

``ts``
    event time (seconds on the emitting bus's clock);
``event`` / ``phase`` / ``seq`` / ``bus``
    taxonomy name, span phase, per-bus sequence number, bus pid;
``submission`` / ``tenant`` / ``backend`` / ``trace_id`` / ``campaign`` / ``task``
    the correlation fields: ``grep`` one trace id and you see the same
    submission's service lifecycle, drive pipeline, and in-worker
    events side by side;
``fields``
    every remaining event field, verbatim.

Emission is serialized by an internal lock (the service's monitoring
bus delivers from many threads) and each line is flushed, so ``tail
-f`` keeps up with a live service.  A simulated allocation's attempt
block reaches the subscriber one event at a time, so it too writes one
line and one flush per event.
"""

from __future__ import annotations

import json
import sys
import threading

#: Event fields promoted to top-level log keys, in output order.
PROMOTED_FIELDS = ("submission", "tenant", "backend", "trace_id",
                   "campaign", "task")


class JsonLogSubscriber:
    """Write one JSON line per bus event to a stream.

    Parameters
    ----------
    stream:
        A writable text stream (default ``sys.stderr`` — keep stdout for
        the program's own output).
    events:
        Optional name filter: an iterable of exact names and/or
        ``"prefix.*"`` patterns (e.g. ``("service.*", "worker.sample")``).
        ``None`` logs everything.

    Example
    -------
    >>> import io
    >>> from repro.observability import EventBus
    >>> buffer = io.StringIO()
    >>> bus = EventBus()
    >>> log = JsonLogSubscriber(stream=buffer).attach(bus)
    >>> _ = bus.emit("service.submitted", submission="sub-0000", tenant="lab")
    >>> json.loads(buffer.getvalue())["submission"]
    'sub-0000'
    """

    def __init__(self, stream=None, events=None):
        self.stream = stream if stream is not None else sys.stderr
        self._exact: set[str] = set()
        self._prefixes: tuple[str, ...] = ()
        if events is not None:
            prefixes = []
            for pattern in events:
                if pattern.endswith(".*"):
                    prefixes.append(pattern[:-1])  # keep the dot
                else:
                    self._exact.add(pattern)
            self._prefixes = tuple(prefixes)
        self._filter = events is not None
        self._lock = threading.Lock()
        self._unsubscribers: list = []
        self.lines = 0

    # -- attachment ----------------------------------------------------------

    def attach(self, bus) -> "JsonLogSubscriber":
        """Subscribe to one bus (chainable)."""
        self._unsubscribers.append(bus.subscribe(self))
        return self

    def detach(self) -> None:
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    # -- emission ------------------------------------------------------------

    def _wants(self, name: str) -> bool:
        if not self._filter:
            return True
        return name in self._exact or name.startswith(self._prefixes)

    def __call__(self, event) -> None:
        if not self._wants(event.name):
            return
        line = json.dumps(self.format(event), default=repr)
        with self._lock:
            self.stream.write(line + "\n")
            self.stream.flush()
            self.lines += 1

    @staticmethod
    def format(event) -> dict:
        """One event's log-line document (ordered, JSON-serializable)."""
        record = {
            "ts": event.time,
            "event": event.name,
            "phase": event.phase,
            "seq": event.seq,
            "bus": event.pid,
        }
        rest = dict(event.fields)
        for key in PROMOTED_FIELDS:
            if key in rest:
                record[key] = rest.pop(key)
        if rest:
            record["fields"] = rest
        return record
