"""The trace recorder: capture an event stream, export a Chrome trace.

:class:`TraceRecorder` subscribes to one bus (:meth:`TraceRecorder.attach`)
or to every bus in the process (:meth:`TraceRecorder.recording`), records
each event verbatim, and keeps a standard :class:`MetricsRegistry` up to
date from the task/allocation lifecycle as it streams by.  After the
run:

- :meth:`to_chrome_trace` renders the stream in Chrome's ``trace_event``
  JSON format (a list of ``{name, ph, ts, pid, tid}`` dicts) — load it at
  ``about:tracing`` or https://ui.perfetto.dev to see the campaign,
  allocation, and per-node task timelines;
- :attr:`metrics` answers "how many tasks completed / failed / were
  requeued, what did task durations look like, how many nodes ran hot";
- :meth:`validate` re-checks the ordering contract
  (:func:`~repro.observability.events.validate_event_stream`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.observability.bus import EventBus, subscribe_all
from repro.observability.events import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    END,
    GROUP,
    TASK,
    TASK_REQUEUED,
    Event,
    validate_event_stream,
)
from repro.observability.metrics import MetricsRegistry

#: Chrome trace_event phase letters for our three phases.
_CHROME_PHASE = {BEGIN: "B", END: "E", "instant": "i"}

#: tid 0 carries campaign/group/alloc spans; node-scoped events go to
#: tid = node index + 1 so Chrome renders one row per node (Figure 6 live).
_CONTROL_TID = 0


class TraceRecorder:
    """Record events from one or many buses; export trace + metrics.

    Example
    -------
    >>> from repro.observability import EventBus
    >>> bus = EventBus()
    >>> rec = TraceRecorder().attach(bus)
    >>> with bus.span("task", task_id=0, task="t0", node=0):
    ...     pass
    >>> [e.phase for e in rec.events]
    ['begin', 'end']
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.metrics = MetricsRegistry()
        self._unsubscribers: list = []
        #: (pid, task_id) -> (begin time, node count) of each open attempt
        self._open_tasks: dict[tuple, tuple] = {}

    # -- attachment ----------------------------------------------------------

    def attach(self, bus: EventBus) -> "TraceRecorder":
        """Subscribe to one bus (chainable); see also :meth:`recording`.

        The recorder subscribes as *itself* (it is callable), so the bus
        sees its :meth:`on_batch` method and delivers batched emissions
        (:meth:`EventBus.publish_batch`) in one call per batch.
        """
        self._unsubscribers.append(bus.subscribe(self))
        return self

    def detach(self) -> None:
        """Drop every subscription this recorder holds."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    @contextmanager
    def recording(self):
        """Capture *every* bus in the process for the duration of the block.

        This is how the experiments CLI traces figure drivers that build
        their clusters internally::

            rec = TraceRecorder()
            with rec.recording():
                fig6_timeline()
            rec.write_chrome_trace("fig6.json")
        """
        unsubscribe = subscribe_all(self)
        try:
            yield self
        finally:
            unsubscribe()

    # -- recording -----------------------------------------------------------

    def record(self, event: Event) -> None:
        """Append one event and fold it into the standard metrics."""
        self.events.append(event)
        self._update_metrics(event)

    #: Recorders are plain callables too, so ``bus.subscribe(rec)`` works
    #: and per-event delivery hits :meth:`record` directly.
    __call__ = record

    def record_batch(self, events: list[Event]) -> None:
        """Append a whole batch (one list extend, then metric folds)."""
        self.events.extend(events)
        update = self._update_metrics
        for event in events:
            update(event)

    #: Batch-aware subscriber protocol hook (see ``EventBus.publish_batch``).
    on_batch = record_batch

    def _update_metrics(self, event: Event) -> None:
        m = self.metrics
        name, phase = event.name, event.phase
        if name == TASK:
            # ``nodes.busy`` follows the task spans: a begin occupies the
            # nodes it lists, the matching end frees them.
            key = (event.pid, event.fields.get("task_id"))
            if phase == BEGIN:
                m.counter("tasks.launched").inc()
                width = len(event.fields.get("nodes") or ())
                m.gauge("nodes.busy").add(width)
                self._open_tasks[key] = (event.time, width)
            elif phase == END:
                outcome = event.fields.get("outcome", "unknown")
                m.counter(f"tasks.{outcome}").inc()
                opened = self._open_tasks.pop(key, None)
                if opened is not None:
                    start, width = opened
                    m.histogram("task.elapsed").observe(event.time - start)
                    m.gauge("nodes.busy").add(-width)
        elif name == TASK_REQUEUED:
            m.counter("tasks.requeued").inc()
        elif name == ALLOC:
            m.counter("allocations.granted" if phase == BEGIN else "allocations.ended").inc()
        elif name == ALLOC_SUBMITTED:
            m.counter("allocations.submitted").inc()
        elif name == CAMPAIGN:
            m.counter("campaigns.started" if phase == BEGIN else "campaigns.finished").inc()
        elif name == GROUP and phase == BEGIN:
            m.counter("groups.started").inc()

    # -- export --------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` if the recorded stream breaks the contract."""
        validate_event_stream(self.events)

    def to_chrome_trace(self) -> list[dict]:
        """Render the stream as Chrome ``trace_event`` dicts.

        ``ts`` is microseconds (Chrome's unit; simulation seconds * 1e6),
        ``pid`` is the emitting bus (one per simulated machine), and
        ``tid`` places task/node events on one row per node with
        campaign/group/allocation spans on row 0.
        """
        out = []
        for event in self.events:
            node = event.fields.get("node")
            tid = _CONTROL_TID if node is None else int(node) + 1
            entry = {
                "name": event.name,
                "ph": _CHROME_PHASE[event.phase],
                "ts": event.time * 1e6,
                "pid": event.pid,
                "tid": tid,
                "args": dict(event.fields),
                # Not part of Chrome's format (viewers ignore unknown
                # keys); carried so events_from_trace() round-trips the
                # stream exactly, bus sequence numbers included.
                "seq": event.seq,
                "t": event.time,
            }
            if entry["ph"] == "i":
                entry["s"] = "t"  # thread-scoped instant
            out.append(entry)
        return out

    def write_chrome_trace(self, path) -> Path:
        """Write :meth:`to_chrome_trace` as JSON; returns the path.

        Missing parent directories are created — a capture is often the
        product of a long simulation, and failing at write time would
        throw it away.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1) + "\n")
        return path


# -- import -------------------------------------------------------------------

#: Inverse of _CHROME_PHASE, for reading traces back.
_PHASE_FROM_CHROME = {ph: phase for phase, ph in _CHROME_PHASE.items()}


def events_from_trace(source, validate: bool = True) -> list[Event]:
    """Parse a saved Chrome ``trace_event`` JSON back into an event stream.

    The inverse of :meth:`TraceRecorder.write_chrome_trace`: traces stop
    being write-only artifacts and become inputs — the trace analyzer
    (``python -m repro.observability report``) and any detached tooling
    can consume a shipped ``.trace.json`` exactly as if it had subscribed
    to the live bus.

    ``source`` may be a path to the JSON file, an already-parsed list of
    ``trace_event`` dicts, or a dict with a ``traceEvents`` key (the
    object form some tools emit).  Our own traces carry the original bus
    ``seq`` and float-exact ``t`` fields and round-trip losslessly;
    foreign traces fall back to ``ts``/1e6 with per-pid sequence numbers
    re-derived from file order.

    With ``validate=True`` (default) the reconstructed stream is checked
    against the ordering contract
    (:func:`~repro.observability.events.validate_event_stream`) and a
    broken file raises ``ValueError`` instead of yielding nonsense
    analytics.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if isinstance(data, dict):
        data = data.get("traceEvents")
    if not isinstance(data, list):
        raise ValueError(
            "trace source must be a trace_event list or a dict with a "
            f"'traceEvents' key, got {type(data).__name__}"
        )
    events: list[Event] = []
    next_seq: dict[int, int] = {}
    for i, entry in enumerate(data):
        try:
            phase = _PHASE_FROM_CHROME[entry["ph"]]
            pid = int(entry.get("pid", 0))
            time = entry["t"] if "t" in entry else entry["ts"] / 1e6
            seq = entry["seq"] if "seq" in entry else next_seq.get(pid, 0)
            event = Event(
                name=entry["name"],
                time=float(time),
                phase=phase,
                seq=int(seq),
                pid=pid,
                fields=dict(entry.get("args") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"trace entry {i} is not readable: {exc}") from exc
        next_seq[pid] = event.seq + 1
        events.append(event)
    if validate:
        validate_event_stream(events)
    return events
