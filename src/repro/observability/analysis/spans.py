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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability.events import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    END,
    GROUP,
    GROUP_RESUMED,
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


class _Members:
    """What one campaign span holds, in begin order."""

    __slots__ = ("campaign", "allocs", "tasks", "latest")

    def __init__(self, campaign: CampaignSpan):
        self.campaign = campaign
        self.allocs: list = []
        self.tasks: list = []
        self.latest: dict = {}  # task_id -> its latest attempt (retries land there)


@dataclass
class SpanTrace:
    """Every reconstructed span plus the instants analysis cares about.

    Build one with :meth:`from_events` over a complete stream (live
    capture or loaded trace), or :meth:`feed` it one event at a time and
    call :meth:`close_open` when the stream ends — the form the streaming
    report builder (:mod:`.streaming`) drives off the bus.
    ``from_events`` *is* that feed loop.  :meth:`feed_block` folds a
    simulated allocation's published
    :class:`~repro.observability.events.AttemptBlock` into the same
    spans without building its events.
    """

    campaigns: list = field(default_factory=list)  # list[CampaignSpan]
    allocs: list = field(default_factory=list)  # list[AllocSpan]
    tasks: list = field(default_factory=list)  # list[TaskSpan]
    requeues: list = field(default_factory=list)  # raw task.requeued events
    last_time: float = 0.0

    def __post_init__(self) -> None:
        # Per-pid open-span state.  The emission contract nests spans
        # physically (task inside alloc inside campaign), so "the open
        # alloc on this pid" is unambiguous at any point in the stream.
        self._open_campaign: dict[int, _Members] = {}
        self._open_group: dict[int, dict] = {}
        self._open_alloc: dict[int, AllocSpan] = {}
        self._open_tasks: dict[tuple, TaskSpan] = {}
        self._displaced: list[TaskSpan] = []  # open attempts a later begin replaced
        self._pending_submits: dict[tuple, float] = {}  # (pid, job) -> submit
        # id(campaign span) -> its members; ``campaigns`` keeps every
        # span alive, so the ids stay unique for the trace's lifetime.
        self._members: dict[int, _Members] = {}

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
                self._open_task(key, span, members)
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
            span = members.latest.get(f.get("task_id")) if members is not None else None
            if span is not None:
                span.retries_granted += 1
                span.backoff += float(f.get("delay") or 0.0)
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
        :class:`~repro.observability.events.AttemptBlock` from its
        attempts.

        The spans, their order, ``last_time`` and the handling of a
        displaced attempt are what :meth:`feed` makes of the block's
        events, one by one; a begin's span gets its own ``nodes`` tuple
        and ``payload`` copy.  The block's spec items go through
        :meth:`feed` itself, as the events they stand for, so a
        ``task.requeued`` keeps its real ``seq``.  A block is published
        inside one allocation and its specs are instants, which open and
        close no span: every span it begins has the same context.
        """
        pid = block.pid
        open_tasks = self._open_tasks
        last = self.last_time
        members, alloc, group, campaign = self._context(pid)
        for index, (item, phase) in enumerate(zip(block.items, block.phases())):
            if item.__class__ is tuple:
                self.last_time = last
                self.feed(block.event(index))
                last = self.last_time
                continue
            task = item.task
            key = (pid, task.task_id)
            if phase is BEGIN:
                time = float(item.start)
                indices = item.node_indices
                span = TaskSpan(
                    pid,
                    key[1],
                    task.name,
                    indices[0],
                    tuple(indices),
                    attempt_number(item),
                    time,
                    None,
                    None,
                    dict(task.payload),
                    alloc,
                    group,
                    campaign,
                )
                self._open_task(key, span, members)
            else:
                time = float(item.end)
                span = open_tasks.pop(key, None)
                if span is not None:
                    span.end = time
                    span.outcome = item.outcome._value_
            if time > last:
                last = time
        self.last_time = last

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

    def _open_task(self, key: tuple, span: TaskSpan, members) -> None:
        """Open ``span`` under ``key``, displacing an attempt still open there."""
        displaced = self._open_tasks.get(key)
        if displaced is not None:
            self._displaced.append(displaced)
        self._open_tasks[key] = span
        self.tasks.append(span)
        if members is not None:
            members.tasks.append(span)
            members.latest[key[1]] = span

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
        """The task attempts that began inside ``campaign``, in begin order."""
        members = self._members.get(id(campaign))
        return list(members.tasks) if members is not None else []
