"""Structured events and the runtime event taxonomy.

An :class:`Event` is one observation emitted by the execution layers: a
point occurrence (``phase="instant"``) or one endpoint of a span
(``phase="begin"`` / ``phase="end"``).  Events are immutable tuple-backed
records (one tuple per observation), carry the simulation time they
happened at, and a per-bus sequence number that makes emission order
total even when many events share a timestamp (the discrete-event
simulator routinely fires whole cascades at one instant).

Taxonomy
--------
Every name the built-in layers emit is declared here as a constant, so
subscribers can filter without string literals and the docs/tests have a
single authority.  The contract (names, fields, ordering guarantees) is
documented in ``docs/observability.md``; in short:

===================  =======  ===============================================
name                 phase    fields
===================  =======  ===============================================
``campaign``         span     campaign, tasks / completed, allocations
``group``            span     campaign, group, runs / completed
``alloc``            span     alloc, job, nodes, deadline / reason
``alloc.submitted``  instant  job, nodes, walltime, eligible_at
``task``             span     task, task_id, node, nodes, attempt, payload /
                              outcome
``task.requeued``    instant  task, task_id, retries
``task.retry``       instant  task, task_id, retries, delay, reason
``task.timeout``     instant  task, task_id, node, timeout
``task.fault_injected``  instant  task, task_id, node, kind, ...
``group.resumed``    instant  campaign, total, skipped, pending
``campaign.composed``  instant  campaign, groups, runs
``campaign.report``  instant  campaign, group, makespan, utilization, ...
``campaign.interrupted``  instant  campaign, completed, pending
``service.submitted``  instant  submission, campaign, tenant, priority, backend
``service.started``  instant  submission, campaign, tenant, queued_for
``service.finished`` instant  submission, campaign, tenant, outcome, elapsed
``service.cancelled``  instant  submission, campaign, tenant, while
``service.saturated``  instant  queued, limit, campaign, tenant
``worker.sample``    instant  worker, pid, cpu_seconds, cpu_pct, rss_bytes,
                              trace_id
===================  =======  ===============================================

A simulated allocation publishes its stream, once it has finished, as
one :class:`AttemptBlock`: the events it stands for, held as the task
attempts they describe until a subscriber reads them as events, with
the rare task instants as specs.

The real-execution engine (:mod:`repro.savanna.realexec`) emits the same
``campaign``/``alloc``/``task`` taxonomy over wall-clock time — worker
slots stand in for nodes — so trace analytics read simulated and real
runs identically.  ``campaign.interrupted`` is its Ctrl-C marker: the
driver caught ``KeyboardInterrupt``, cancelled the queued work, and
returned partial results.

Ordering guarantees
-------------------
- ``time`` is non-decreasing per bus (the simulator clock never moves
  backwards) and ``seq`` is strictly increasing per bus.
- A span's ``begin`` precedes its ``end``; task spans never outlive the
  enclosing ``alloc`` span; ``alloc`` spans never outlive ``campaign``.
- Subscribers observe events synchronously, in emission order.
"""

from __future__ import annotations

from typing import NamedTuple

# -- phases ------------------------------------------------------------------

BEGIN = "begin"
END = "end"
INSTANT = "instant"

PHASES = (BEGIN, END, INSTANT)

# -- span names --------------------------------------------------------------

CAMPAIGN = "campaign"  # one run_campaign() multi-allocation loop
GROUP = "group"  # one SweepGroup execution (execute_manifest)
ALLOC = "alloc"  # one granted batch allocation, grant -> reclaim
TASK = "task"  # one task attempt, launch -> end

# -- instant names -----------------------------------------------------------

ALLOC_SUBMITTED = "alloc.submitted"  # batch job queued, before grant
TASK_REQUEUED = "task.requeued"  # failed task re-entered the pending queue
TASK_RETRY = "task.retry"  # a retry policy granted another attempt
TASK_TIMEOUT = "task.timeout"  # an attempt exceeded its per-task timeout
TASK_FAULT_INJECTED = "task.fault_injected"  # the fault injector struck an attempt
GROUP_RESUMED = "group.resumed"  # a resumed SweepGroup skipped completed runs
CAMPAIGN_COMPOSED = "campaign.composed"  # a Cheetah campaign was materialized
CAMPAIGN_LINTED = "campaign.linted"  # pre-run static analysis ran over a manifest
CAMPAIGN_REPORT = "campaign.report"  # post-run trace analytics summary
CAMPAIGN_INTERRUPTED = "campaign.interrupted"  # a real driver caught Ctrl-C

# -- campaign-service instants ------------------------------------------------
# Emitted by repro.savanna.service.CampaignService on its (thread-safe,
# wall-clock) monitoring bus; ``submission`` carries the service-assigned
# submission id so concurrent campaigns are attributable.

SERVICE_SUBMITTED = "service.submitted"  # a campaign entered the service queue
SERVICE_STARTED = "service.started"  # a worker picked the submission up
SERVICE_FINISHED = "service.finished"  # a submission reached done/failed
SERVICE_CANCELLED = "service.cancelled"  # a submission was cancelled
SERVICE_SATURATED = "service.saturated"  # submit() hit the queue-depth bound

# -- live-telemetry instants ---------------------------------------------------

WORKER_SAMPLE = "worker.sample"  # one resource-profiler reading of a pool worker


def new_trace_id() -> str:
    """Mint one trace id (16 hex chars) for a drive/submission.

    Trace ids tie every observation of one campaign execution together
    across process boundaries: the campaign service stamps its
    lifecycle instants with it, the drive pipeline stamps group/task
    events, the real-execution engine carries it inside each picklable
    :class:`~repro.savanna.realexec.RealTaskSpec` so the *worker
    process* can echo it back, and the structured-log adapter
    (:class:`~repro.observability.live.JsonLogSubscriber`) surfaces it
    as a first-class log field — grep one id, see the whole story.
    """
    import uuid

    return uuid.uuid4().hex[:16]


class _EventRecord(NamedTuple):
    """The tuple layout behind :class:`Event`, which adds the defaults
    and the phase check."""

    name: str
    time: float
    phase: str
    seq: int
    pid: int
    fields: dict


class Event(_EventRecord):
    """One structured observation: an immutable six-field record.

    A simulated campaign emits two events per task attempt, so an event
    costs one tuple: attribute reads are C-level tuple indexing, and a
    subscriber may unpack it as ``name, time, phase, seq, pid, fields =
    event``.  Assigning an attribute raises ``AttributeError``.  The
    ``fields`` dict belongs to the event; subscribers read it and never
    mutate it.

    Parameters
    ----------
    name:
        Taxonomy name (see module docstring); dots namespace, e.g.
        ``task.requeued``.
    time:
        Simulation seconds at emission (buses are clocked by their
        cluster's simulator; a standalone bus defaults to 0.0).
    phase:
        ``"begin"`` / ``"end"`` for span endpoints, ``"instant"`` for
        point events.
    seq:
        Strictly increasing per bus; totalizes ordering at equal times.
    pid:
        The emitting bus's identifier — one per simulated machine, used
        as the Chrome-trace process id so multi-cluster captures do not
        interleave.
    fields:
        JSON-serializable payload (task names, node indices, outcomes);
        a fresh ``{}`` when omitted.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        time: float,
        phase: str = INSTANT,
        seq: int = 0,
        pid: int = 0,
        fields: dict | None = None,
    ):
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        return tuple.__new__(cls, (name, time, phase, seq, pid, {} if fields is None else fields))

    @property
    def is_span(self) -> bool:
        return self.phase in (BEGIN, END)


class AttemptBlock:
    """One finished simulated allocation's event stream, held as its task
    attempts.

    ``items`` is the stream in order.  A
    :class:`~repro.cluster.job.TaskAttempt` stands for the two events of
    its ``task`` span: where it first appears, the ``begin`` at its
    ``start``; where it appears again, the ``end`` at its ``end``.  Any
    other item is a ``(name, INSTANT, time, fields)`` spec of an instant:
    the simulator's rare ``task.retry``, ``task.requeued``,
    ``task.timeout`` and ``task.fault_injected``.  Reading a block whose
    spec has another phase raises ``ValueError``.  Both appearances of
    an attempt sit in one block, and the attempt has ended when the
    block is published: no attempt of a block is in flight.

    :meth:`~repro.observability.EventBus.publish_batch` stamps the block
    with its bus's ``pid`` and the ``seq`` of its first event.  The block
    then reads as the :class:`Event` sequence its items stand for:
    ``len`` counts the events, and iterating or indexing builds them,
    once, on first use.  Subscribers that know the block (the checkpoint
    journal, the streaming report) read ``items`` and :meth:`phases`
    instead and build nothing.  Whichever way it is read, every event
    matches the one the per-event engine emits: name, time, phase, seq,
    pid, and its fields in the same key order, in dicts and lists of its
    own.
    """

    __slots__ = ("items", "pid", "seq", "_phases", "_events")

    def __init__(self, items: list):
        self.items = items
        self.pid = 0
        self.seq = 0
        self._phases: list | None = None
        self._events: list | None = None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, index):
        return self._built()[index]

    def _built(self) -> list:
        if self._events is None:
            self.phases()  # checks the spec items, as every read does
            self._events = [self.event(i) for i in range(len(self.items))]
        return self._events

    def phases(self) -> list:
        """Each item's phase, in order: an attempt is ``begin`` where it
        first appears and ``end`` where it appears again, a spec is an
        instant (``ValueError`` if its phase says otherwise)."""
        if self._phases is None:
            phases = []
            append = phases.append
            begun = set()
            for item in self.items:
                if item.__class__ is tuple:
                    if item[1] != INSTANT:
                        raise ValueError(f"a block holds instants as specs, not {item[:3]}")
                    append(INSTANT)
                elif id(item) in begun:
                    append(END)
                else:
                    begun.add(id(item))
                    append(BEGIN)
            self._phases = phases
        return self._phases

    def event(self, index: int) -> Event:
        """The event ``items[index]`` stands for, built anew on each call."""
        item = self.items[index]
        seq = self.seq + index
        if item.__class__ is tuple:
            name, phase, time, fields = item
            return Event(name, float(time), phase, seq, self.pid, dict(fields))
        task = item.task
        indices = item.node_indices
        if self.phases()[index] == END:
            fields = {
                "task": task.name,
                "task_id": task.task_id,
                "node": indices[0],
                "outcome": item.outcome.value,
            }
            return Event(TASK, float(item.end), END, seq, self.pid, fields)
        fields = {
            "task": task.name,
            "task_id": task.task_id,
            "node": indices[0],
            "nodes": list(indices),
            "attempt": attempt_number(item),
            "payload": dict(task.payload),
        }
        return Event(TASK, float(item.start), BEGIN, seq, self.pid, fields)


def attempt_number(attempt) -> int:
    """The 1-based ``attempt`` a ``task`` begin reports: where the attempt
    sits in its task's ``attempts`` (searched from the newest)."""
    attempts = attempt.task.attempts
    number = len(attempts)
    while attempts[number - 1] is not attempt:
        number -= 1
    return number


def span_key(event: Event):
    """The identity that pairs a span's ``begin`` with its ``end``.

    Task spans pair on ``task_id`` (names may repeat across retries in
    the same instant), allocation spans on ``alloc``, everything else on
    the event name alone (campaign/group spans do not self-nest).
    """
    if event.name == TASK:
        return (event.pid, TASK, event.fields.get("task_id"))
    if event.name == ALLOC:
        return (event.pid, ALLOC, event.fields.get("alloc"))
    return (event.pid, event.name)


def validate_event_stream(events) -> None:
    """Check the ordering contract over a recorded stream.

    Raises ``ValueError`` on: backwards timestamps (per pid), non-increasing
    sequence numbers (per pid), an ``end`` without a matching open
    ``begin``, or spans left open at the end of the stream.
    """
    last_time: dict[int, float] = {}
    last_seq: dict[int, int] = {}
    open_spans: dict[tuple, Event] = {}
    for event in events:
        if event.time < last_time.get(event.pid, float("-inf")):
            raise ValueError(
                f"time went backwards at {event.name!r}: "
                f"{event.time} < {last_time[event.pid]}"
            )
        if event.seq <= last_seq.get(event.pid, -1):
            raise ValueError(
                f"sequence not increasing at {event.name!r}: "
                f"{event.seq} <= {last_seq[event.pid]}"
            )
        last_time[event.pid] = event.time
        last_seq[event.pid] = event.seq
        if event.phase == BEGIN:
            key = span_key(event)
            if key in open_spans:
                raise ValueError(f"span {key} opened twice")
            open_spans[key] = event
        elif event.phase == END:
            key = span_key(event)
            if key not in open_spans:
                raise ValueError(f"span {key} ended without begin")
            del open_spans[key]
    if open_spans:
        raise ValueError(f"spans left open: {sorted(k[1] for k in open_spans)}")
