"""Span-tree reconstruction: from a flat event stream back to structure.

The execution layers emit a *flat*, ordered stream (see
``repro.observability.events``); analysis needs the structure back — which
task attempts ran inside which allocation, which allocation inside which
campaign, how long every queue wait and backoff delay lasted.
:class:`SpanTrace` rebuilds exactly that, from a live capture
(``recorder.events``) or a loaded Chrome trace
(:func:`~repro.observability.recorder.events_from_trace`) — the two are
indistinguishable here.

Every alloc and task span, and every retry granted to a task, belongs to
the campaign span open on its pid when it began.  Two campaigns of the
same name on one bus, or task ids a later campaign reuses, therefore
never merge.

Reconstruction is tolerant by design: a capture cut mid-run (a crashed
driver, a trace written from a partial recording) leaves spans open, and
an open span is closed at the stream's last observed time with
``outcome=None`` rather than dropped — the analyzer must be able to
answer "why was this campaign slow" about the runs that went *wrong*.
A task attempt displaced by a second ``begin`` under its ``(pid,
task_id)`` key before its ``end`` arrived is such a span too.

A simulated allocation's published
:class:`~repro.observability.events.AttemptBlock` folds as one row: the
block's attempts themselves, in begin order, with the context their
spans share and the notes its rare instants leave on them.  Its task
spans are built from the attempts when they are first read
(:attr:`SpanTrace.tasks`, :meth:`SpanTrace.tasks_of`), and the report's
finalize reads its columns straight from the attempts, building a span
only for an attempt the report names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from repro.observability.events import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    END,
    GROUP,
    GROUP_RESUMED,
    INSTANT,
    TASK,
    TASK_FAULT_INJECTED,
    TASK_REQUEUED,
    TASK_RETRY,
    TASK_TIMEOUT,
    attempt_number,
)

#: The event names :meth:`SpanTrace.feed` folds besides ``task``.
_FOLDED = frozenset(
    (
        CAMPAIGN,
        GROUP,
        GROUP_RESUMED,
        ALLOC_SUBMITTED,
        ALLOC,
        TASK_RETRY,
        TASK_TIMEOUT,
        TASK_FAULT_INJECTED,
        TASK_REQUEUED,
    )
)


@dataclass(slots=True)
class TaskSpan:
    """One task attempt: the reconstructed ``task`` begin/end pair."""

    pid: int
    task_id: int
    name: str
    node: int | None
    nodes: tuple
    attempt: int
    start: float
    end: float | None = None
    outcome: str | None = None
    payload: dict = field(default_factory=dict)
    alloc: int | None = None  # enclosing alloc span's grant index
    group: str | None = None  # enclosing group span's name
    campaign: str | None = None  # enclosing campaign span's name
    retries_granted: int = 0  # task.retry instants that followed this attempt
    backoff: float = 0.0  # summed policy delays of those retries
    faults: int = 0  # task.fault_injected instants inside this attempt
    timed_out: bool = False

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class AllocSpan:
    """One granted batch allocation, submission to reclaim."""

    pid: int
    index: int
    job: str | None
    nodes: tuple
    start: float
    end: float | None = None
    deadline: float | None = None
    reason: str | None = None
    submitted: float | None = None  # alloc.submitted time, if observed
    campaign: str | None = None

    @property
    def queue_wait(self) -> float:
        if self.submitted is None:
            return 0.0
        return max(0.0, self.start - self.submitted)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class CampaignSpan:
    """One campaign-loop span (``run_campaign`` begin/end)."""

    pid: int
    name: str
    start: float
    end: float | None = None
    tasks: int | None = None
    completed: int | None = None
    allocations: int | None = None
    group: str | None = None  # enclosing drive-level group span, if any
    resumed_skipped: int = 0  # runs skipped by resume, from group.resumed


class _Note:
    """The task span fields a folded attempt's instants count, kept
    until and after its span is built."""

    __slots__ = ("retries_granted", "backoff", "faults", "timed_out")

    def __init__(self) -> None:
        self.retries_granted = 0
        self.backoff = 0.0
        self.faults = 0
        self.timed_out = False


class _Segment:
    """One folded attempt block: its attempts, in begin order, what their
    task spans share, and ``notes``, offset in ``attempts`` -> the
    :class:`_Note` of that attempt's instants.

    :meth:`view` builds an attempt's :class:`TaskSpan` on first read and
    keeps it; an instant that arrives later marks the span too
    (:meth:`marked`).
    """

    __slots__ = ("attempts", "pid", "alloc", "group", "campaign", "notes", "_views", "_last")

    def __init__(self, attempts: list, pid: int, alloc, group, campaign) -> None:
        self.attempts = attempts
        self.pid = pid
        self.alloc = alloc
        self.group = group
        self.campaign = campaign
        self.notes: dict = {}
        self._views: list | None = None
        self._last: dict | None = None

    def __len__(self) -> int:
        return len(self.attempts)

    def view(self, offset: int) -> TaskSpan:
        """The task span of ``attempts[offset]``, built on first read; its
        fields are what the fold of the block's events gives, with a
        ``payload`` dict of its own."""
        views = self._views
        if views is None:
            views = self._views = [None] * len(self.attempts)
        span = views[offset]
        if span is None:
            attempt = self.attempts[offset]
            task = attempt.task
            indices = attempt.node_indices
            span = views[offset] = TaskSpan(
                self.pid,
                task.task_id,
                task.name,
                indices[0],
                tuple(indices),
                attempt_number(attempt),
                float(attempt.start),
                float(attempt.end),
                attempt.outcome._value_,
                dict(task.payload),
                self.alloc,
                self.group,
                self.campaign,
            )
            note = self.notes.get(offset)
            if note is not None:
                span.retries_granted = note.retries_granted
                span.backoff = note.backoff
                span.faults = note.faults
                span.timed_out = note.timed_out
        return span

    def views(self) -> list:
        """Every attempt's task span, in begin order."""
        view = self.view
        return [view(offset) for offset in range(len(self.attempts))]

    def marked(self, offset: int) -> tuple:
        """What an instant on ``attempts[offset]`` counts on: its note,
        and its span if one was built."""
        note = self.notes.get(offset)
        if note is None:
            note = self.notes[offset] = _Note()
        span = self._views[offset] if self._views is not None else None
        return (note,) if span is None else (note, span)

    def last_offset(self, task_id):
        """The offset of the last attempt of ``task_id``, or None."""
        if self._last is None:
            ids = map(_ATTEMPT_TASK_ID, self.attempts)
            self._last = {task: offset for offset, task in enumerate(ids)}
        return self._last.get(task_id)


_ATTEMPT_TASK_ID = attrgetter("task.task_id")
_ATTEMPT_END = attrgetter("end")


def _latest_begun(attempts: list, begun: int, task_id):
    """The offset of the latest of ``attempts[:begun]`` of ``task_id``, or None."""
    for offset in range(begun - 1, -1, -1):
        if attempts[offset].task.task_id == task_id:
            return offset
    return None


def _ends_after(block, index: int, attempt, time: float) -> bool:
    """Whether ``attempt``, begun before ``block.items[index]`` (at
    ``time``), ends after that item.  Times only decide it unless the
    attempt ends at ``time``; then its end is among the items at
    ``time`` that follow, if it is after."""
    if attempt.end != time:
        return attempt.end > time
    items, phases = block.items, block.phases()
    for later in range(index + 1, len(items)):
        item = items[later]
        if item is attempt:
            return True
        if item.__class__ is tuple:
            at = item[2]
        else:
            at = item.start if phases[later] is BEGIN else item.end
        if at > time:
            return False
    return False


def _spans(rows) -> list:
    """The task spans of ``rows`` (emitted spans and segments), in order."""
    return list(
        chain.from_iterable((row,) if row.__class__ is TaskSpan else row.views() for row in rows)
    )


class _Members:
    """What one campaign span holds, in begin order.

    ``rows`` holds its task attempts: an emitted attempt's
    :class:`TaskSpan`, or a folded block's :class:`_Segment`.  A retry
    lands on the latest attempt of its task: ``latest`` maps a task id
    to its latest emitted span since the campaign's last segment, and
    ``earlier`` holds the older such maps and the segments, oldest
    first.
    """

    __slots__ = ("campaign", "allocs", "rows", "latest", "earlier")

    def __init__(self, campaign: CampaignSpan):
        self.campaign = campaign
        self.allocs: list = []
        self.rows: list = []
        self.latest: dict = {}
        self.earlier: list = []

    def add_segment(self, segment: _Segment) -> None:
        self.rows.append(segment)
        if self.latest:
            self.earlier.append(self.latest)
            self.latest = {}
        self.earlier.append(segment)

    def latest_of(self, task_id) -> tuple:
        """What a retry of ``task_id`` counts on: the latest attempt of
        that task begun in the campaign, if any."""
        span = self.latest.get(task_id)
        if span is not None:
            return (span,)
        for layer in reversed(self.earlier):
            if layer.__class__ is dict:
                span = layer.get(task_id)
                if span is not None:
                    return (span,)
            else:
                offset = layer.last_offset(task_id)
                if offset is not None:
                    return layer.marked(offset)
        return ()


@dataclass
class SpanTrace:
    """Every reconstructed span plus the instants analysis cares about.

    Build one with :meth:`from_events` over a complete stream (live
    capture or loaded trace), or :meth:`feed` it one event at a time and
    call :meth:`close_open` when the stream ends — the form the streaming
    report builder (:mod:`.streaming`) drives off the bus.
    ``from_events`` *is* that feed loop.  :meth:`feed_block` folds a
    simulated allocation's published
    :class:`~repro.observability.events.AttemptBlock` as one row of its
    attempts, without building its events or its spans.  :attr:`tasks`
    and :meth:`tasks_of` read every attempt as a :class:`TaskSpan`: an
    emitted attempt's span is the one the fold made, and a block's are
    built on first read and kept, so two reads return the same spans.
    """

    campaigns: list = field(default_factory=list)  # list[CampaignSpan]
    allocs: list = field(default_factory=list)  # list[AllocSpan]
    requeues: list = field(default_factory=list)  # raw task.requeued events
    last_time: float = 0.0

    def __post_init__(self) -> None:
        # Per-pid open-span state.  The emission contract nests spans
        # physically (task inside alloc inside campaign), so "the open
        # alloc on this pid" is unambiguous at any point in the stream.
        self._open_campaign: dict[int, _Members] = {}
        self._open_group: dict[int, dict] = {}
        self._open_alloc: dict[int, AllocSpan] = {}
        self._open_tasks: dict[tuple, TaskSpan] = {}  # emitted attempts only
        self._displaced: list[TaskSpan] = []  # open attempts a later begin replaced
        self._pending_submits: dict[tuple, float] = {}  # (pid, job) -> submit
        # id(campaign span) -> its members; ``campaigns`` keeps every
        # span alive, so the ids stay unique for the trace's lifetime.
        self._members: dict[int, _Members] = {}
        self._rows: list = []  # every task attempt, as in _Members.rows

    @property
    def tasks(self) -> list:
        """Every task attempt's span, in begin order (a new list)."""
        return _spans(self._rows)

    @classmethod
    def from_events(cls, events) -> "SpanTrace":
        """One ordered pass over the stream; see the module docstring."""
        trace = cls()
        feed = trace.feed
        for event in events:
            feed(event)
        trace.close_open()
        return trace

    def feed(self, event) -> None:
        """Fold one event into the span tree as it arrives.

        The fold reads ``task``, ``campaign``, ``group``,
        ``group.resumed``, ``alloc.submitted``, ``alloc``,
        ``task.retry``, ``task.timeout``, ``task.fault_injected`` and
        ``task.requeued`` events.  Any other event only advances
        ``last_time``.  A task span keeps the ``payload`` dict of its
        ``begin`` event, which the producer built for that event.
        """
        name, time, phase, _, pid, f = event
        if time > self.last_time:
            self.last_time = time
        if name == TASK:
            key = (pid, f.get("task_id"))
            if phase == BEGIN:
                members, alloc, group, campaign = self._context(pid)
                node = f.get("node")
                span = TaskSpan(
                    pid=pid,
                    task_id=key[1],
                    name=f.get("task", "(task)"),
                    node=node,
                    nodes=tuple(f.get("nodes") or ((node,) if node is not None else ())),
                    attempt=f.get("attempt", 1),
                    start=time,
                    payload=f.get("payload") or {},
                    alloc=alloc,
                    group=group,
                    campaign=campaign,
                )
                # A begin displaces an attempt still open under its key.
                displaced = self._open_tasks.get(key)
                if displaced is not None:
                    self._displaced.append(displaced)
                self._open_tasks[key] = span
                self._rows.append(span)
                if members is not None:
                    members.rows.append(span)
                    members.latest[key[1]] = span
            elif phase == END:
                span = self._open_tasks.pop(key, None)
                if span is not None:
                    span.end = time
                    span.outcome = f.get("outcome")
            return
        if name not in _FOLDED:
            return
        open_campaign = self._open_campaign
        open_group = self._open_group
        open_alloc = self._open_alloc
        if name == CAMPAIGN:
            if phase == BEGIN:
                group = open_group.get(pid, {})
                span = CampaignSpan(
                    pid=pid,
                    name=f.get("campaign", "(campaign)"),
                    start=time,
                    tasks=f.get("tasks"),
                    group=group.get("group"),
                    resumed_skipped=group.pop("resumed_skipped", 0),
                )
                open_campaign[pid] = self._members[id(span)] = _Members(span)
                self.campaigns.append(span)
            elif phase == END and pid in open_campaign:
                span = open_campaign.pop(pid).campaign
                span.end = time
                span.completed = f.get("completed")
                span.allocations = f.get("allocations")
        elif name == GROUP and phase == BEGIN:
            open_group[pid] = dict(f)
        elif name == GROUP and phase == END:
            open_group.pop(pid, None)
        elif name == GROUP_RESUMED:
            # The drive reports the skip before its executor opens the
            # campaign span: the open group keeps it for that span.
            members = open_campaign.get(pid)
            if members is not None:
                members.campaign.resumed_skipped = f.get("skipped", 0)
            elif pid in open_group:
                open_group[pid]["resumed_skipped"] = f.get("skipped", 0)
        elif name == ALLOC_SUBMITTED:
            self._pending_submits[(pid, f.get("job"))] = time
        elif name == ALLOC:
            if phase == BEGIN:
                members = open_campaign.get(pid)
                span = AllocSpan(
                    pid=pid,
                    index=f.get("alloc", len(self.allocs)),
                    job=f.get("job"),
                    nodes=tuple(f.get("nodes", ())),
                    start=time,
                    deadline=f.get("deadline"),
                    submitted=self._pending_submits.pop((pid, f.get("job")), None),
                    campaign=members.campaign.name if members is not None else None,
                )
                open_alloc[pid] = span
                self.allocs.append(span)
                if members is not None:
                    members.allocs.append(span)
            elif phase == END and pid in open_alloc:
                span = open_alloc.pop(pid)
                span.end = time
                span.reason = f.get("reason")
        elif name == TASK_RETRY:
            members = open_campaign.get(pid)
            if members is not None:
                _retried(members.latest_of(f.get("task_id")), f)
        elif name == TASK_TIMEOUT:
            span = self._open_tasks.get((pid, f.get("task_id")))
            if span is not None:
                span.timed_out = True
        elif name == TASK_FAULT_INJECTED:
            span = self._open_tasks.get((pid, f.get("task_id")))
            if span is not None:
                span.faults += 1
        elif name == TASK_REQUEUED:
            self.requeues.append(event)

    def feed_block(self, block) -> None:
        """Fold a published
        :class:`~repro.observability.events.AttemptBlock` as one row: its
        ``attempts`` list, in begin order, and the context a span
        beginning on the block's pid now has (a block is published
        inside one allocation, and its specs are instants, which open
        and close no span).  No span is built here.

        The spans the row reads as, their order, ``last_time`` and the
        handling of a displaced attempt are what :meth:`feed` makes of
        the block's events, one by one.  A ``task.retry`` lands on the
        latest attempt of its task begun before it in the block, else in
        the open campaign; a ``task.timeout`` or ``task.fault_injected``
        on that attempt while it is still running, else on the emitted
        attempt open under its key.  Any other spec goes through
        :meth:`feed` as the event it stands for, so a ``task.requeued``
        keeps its real ``seq``.  The work is per instant, not per
        attempt: a block without instants costs one ``max`` over its
        attempts' ends.
        """
        pid = block.pid
        attempts = block.attempts
        members, alloc, group, campaign = self._context(pid)
        segment = _Segment(attempts, pid, alloc, group, campaign)
        if len(block.items) != 2 * len(attempts):
            self._fold_instants(block, segment, members)
        if self._open_tasks:
            # Each attempt displaces an emitted one still open under its key.
            open_tasks = self._open_tasks
            for task_id in map(_ATTEMPT_TASK_ID, attempts):
                displaced = open_tasks.pop((pid, task_id), None)
                if displaced is not None:
                    self._displaced.append(displaced)
        if not attempts:
            return
        self._rows.append(segment)
        if members is not None:
            members.add_segment(segment)
        end = max(map(_ATTEMPT_END, attempts))
        if end > self.last_time:
            self.last_time = float(end)

    def _fold_instants(self, block, segment: _Segment, members) -> None:
        """Fold the spec items of ``block``, whose attempts ``segment``
        holds, in order; see :meth:`feed_block`."""
        items, phases, attempts = block.items, block.phases(), block.attempts
        index = seen = begun = 0
        while True:
            try:  # one C-level scan to the next instant
                index = phases.index(INSTANT, index)
            except ValueError:
                return
            begun += phases[seen:index].count(BEGIN)
            seen = index
            name, _, time, f = items[index]
            if name == TASK_RETRY or name == TASK_TIMEOUT or name == TASK_FAULT_INJECTED:
                time = float(time)
                if time > self.last_time:
                    self.last_time = time
                task_id = f.get("task_id")
                offset = _latest_begun(attempts, begun, task_id)
                if name == TASK_RETRY:
                    if members is not None:
                        marked = (
                            members.latest_of(task_id)
                            if offset is None
                            else segment.marked(offset)
                        )
                        _retried(marked, f)
                elif offset is None:
                    span = self._open_tasks.get((block.pid, task_id))
                    if span is not None:
                        _instant_on((span,), name)
                elif _ends_after(block, index, attempts[offset], time):
                    _instant_on(segment.marked(offset), name)
            else:
                self.feed(block.event(index))
            index += 1

    def _context(self, pid: int) -> tuple:
        """What a task span beginning now on ``pid`` belongs to: the open
        campaign's members, and the alloc index, group and campaign
        names it records."""
        members = self._open_campaign.get(pid)
        alloc = self._open_alloc.get(pid)
        return (
            members,
            alloc.index if alloc is not None else None,
            (self._open_group.get(pid) or {}).get("group"),
            members.campaign.name if members is not None else None,
        )

    def close_open(self) -> None:
        """Close anything the stream left open at the last observed time.

        Durations stay finite and analyzable for truncated captures
        (a crashed driver, a partial recording).  Idempotent; call when
        the stream ends — further :meth:`feed` calls still work, but a
        span closed here stays closed.
        """
        for span in (
            *self._displaced,
            *self._open_tasks.values(),
            *self._open_alloc.values(),
            *(members.campaign for members in self._open_campaign.values()),
        ):
            if span.end is None:
                span.end = self.last_time

    # -- selection -----------------------------------------------------------

    def campaign_window(self, campaign: CampaignSpan) -> tuple[float, float]:
        """The time interval a campaign span covers."""
        end = campaign.end if campaign.end is not None else self.last_time
        return campaign.start, end

    def allocs_of(self, campaign: CampaignSpan) -> list:
        """The alloc spans that began inside ``campaign``, in begin order."""
        members = self._members.get(id(campaign))
        return list(members.allocs) if members is not None else []

    def tasks_of(self, campaign: CampaignSpan) -> list:
        """The task attempts that began inside ``campaign``, in begin
        order, as the spans :attr:`tasks` holds."""
        members = self._members.get(id(campaign))
        return _spans(members.rows) if members is not None else []

    def _rows_of(self, campaign: CampaignSpan) -> list:
        """The task attempts that began inside ``campaign`` as rows, in
        begin order: each emitted attempt's :class:`TaskSpan`, and each
        folded block's segment (its ``attempts``, ``alloc``, ``group``,
        ``notes`` and ``view(offset)``)."""
        members = self._members.get(id(campaign))
        return members.rows if members is not None else []


def _retried(marked: tuple, fields: dict) -> None:
    """Count a ``task.retry`` on each of ``marked``."""
    delay = float(fields.get("delay") or 0.0)
    for span in marked:
        span.retries_granted += 1
        span.backoff += delay


def _instant_on(marked: tuple, name: str) -> None:
    """Count a ``task.timeout`` or ``task.fault_injected`` on each of ``marked``."""
    for span in marked:
        if name == TASK_TIMEOUT:
            span.timed_out = True
        else:
            span.faults += 1
