"""Span-tree reconstruction: from a flat event stream back to structure.

The execution layers emit a *flat*, ordered stream (see
``repro.observability.events``); analysis needs the structure back — which
task attempts ran inside which allocation, which allocation inside which
campaign, how long every queue wait and backoff delay lasted.
:class:`SpanTrace` rebuilds exactly that, from a live capture
(``recorder.events``) or a loaded Chrome trace
(:func:`~repro.observability.recorder.events_from_trace`) — the two are
indistinguishable here.

Reconstruction is tolerant by design: a capture cut mid-run (a crashed
driver, a trace written from a partial recording) leaves spans open, and
an open span is closed at the stream's last observed time with
``outcome=None`` rather than dropped — the analyzer must be able to
answer "why was this campaign slow" about the runs that went *wrong*.
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
)


@dataclass
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
    retries_granted: int = 0  # task.retry instants for this task_id so far
    backoff: float = 0.0  # summed policy delays granted to this task_id
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


@dataclass
class SpanTrace:
    """Every reconstructed span plus the instants analysis cares about.

    Two ways to build one:

    - :meth:`from_events` — the classic one-shot pass over a complete
      stream (live capture or loaded trace);
    - :meth:`feed` one event at a time (or :meth:`feed_batch`), then
      :meth:`close_open` when the stream ends — the incremental form the
      streaming report builder (:mod:`.streaming`) drives directly off
      the bus.  Both produce identical traces for identical streams:
      ``from_events`` *is* the feed loop.
    """

    campaigns: list = field(default_factory=list)  # list[CampaignSpan]
    allocs: list = field(default_factory=list)  # list[AllocSpan]
    tasks: list = field(default_factory=list)  # list[TaskSpan]
    requeues: list = field(default_factory=list)  # raw task.requeued events
    retries_by_task: dict = field(default_factory=dict)  # (pid, task_id) -> grants
    backoff_by_task: dict = field(default_factory=dict)  # (pid, task_id) -> seconds
    last_time: float = 0.0
    n_events: int = 0

    def __post_init__(self) -> None:
        # Per-pid open-span state.  The emission contract nests spans
        # physically (task inside alloc inside campaign), so "the open
        # alloc on this pid" is unambiguous at any point in the stream.
        self._open_campaign: dict[int, CampaignSpan] = {}
        self._open_group: dict[int, dict] = {}
        self._open_alloc: dict[int, AllocSpan] = {}
        self._open_tasks: dict[tuple, TaskSpan] = {}
        self._pending_submits: dict[tuple, float] = {}  # (pid, job) -> submit

    @classmethod
    def from_events(cls, events) -> "SpanTrace":
        """One ordered pass over the stream; see the module docstring."""
        trace = cls()
        feed = trace.feed
        for event in events:
            feed(event)
        trace.close_open()
        return trace

    def feed_batch(self, events) -> None:
        """Fold a batch of events, in order (``EventBus.publish_batch``)."""
        feed = self.feed
        for event in events:
            feed(event)

    def feed(self, event) -> None:
        """Fold one event into the span tree as it arrives."""
        open_campaign = self._open_campaign
        open_group = self._open_group
        open_alloc = self._open_alloc
        open_tasks = self._open_tasks
        pending_submits = self._pending_submits
        retries = self.retries_by_task
        backoffs = self.backoff_by_task

        self.n_events += 1
        self.last_time = max(self.last_time, event.time)
        pid, f = event.pid, event.fields
        if event.name == CAMPAIGN:
            if event.phase == BEGIN:
                group = open_group.get(pid, {})
                span = CampaignSpan(
                    pid=pid,
                    name=f.get("campaign", "(campaign)"),
                    start=event.time,
                    tasks=f.get("tasks"),
                    group=group.get("group"),
                    resumed_skipped=group.pop("resumed_skipped", 0),
                )
                open_campaign[pid] = span
                self.campaigns.append(span)
            elif event.phase == END and pid in open_campaign:
                span = open_campaign.pop(pid)
                span.end = event.time
                span.completed = f.get("completed")
                span.allocations = f.get("allocations")
        elif event.name == GROUP and event.phase == BEGIN:
            open_group[pid] = dict(f)
        elif event.name == GROUP and event.phase == END:
            open_group.pop(pid, None)
        elif event.name == GROUP_RESUMED:
            # The drive reports the skip before its executor opens the
            # campaign span: the open group keeps it for that span.
            campaign = open_campaign.get(pid)
            if campaign is not None:
                campaign.resumed_skipped = f.get("skipped", 0)
            elif pid in open_group:
                open_group[pid]["resumed_skipped"] = f.get("skipped", 0)
        elif event.name == ALLOC_SUBMITTED:
            pending_submits[(pid, f.get("job"))] = event.time
        elif event.name == ALLOC:
            if event.phase == BEGIN:
                span = AllocSpan(
                    pid=pid,
                    index=f.get("alloc", len(self.allocs)),
                    job=f.get("job"),
                    nodes=tuple(f.get("nodes", ())),
                    start=event.time,
                    deadline=f.get("deadline"),
                    submitted=pending_submits.pop((pid, f.get("job")), None),
                    campaign=getattr(open_campaign.get(pid), "name", None),
                )
                open_alloc[pid] = span
                self.allocs.append(span)
            elif event.phase == END and pid in open_alloc:
                span = open_alloc.pop(pid)
                span.end = event.time
                span.reason = f.get("reason")
        elif event.name == TASK:
            key = (pid, f.get("task_id"))
            if event.phase == BEGIN:
                alloc = open_alloc.get(pid)
                span = TaskSpan(
                    pid=pid,
                    task_id=f.get("task_id"),
                    name=f.get("task", "(task)"),
                    node=f.get("node"),
                    nodes=tuple(f.get("nodes") or ((f.get("node"),) if f.get("node") is not None else ())),
                    attempt=f.get("attempt", 1),
                    start=event.time,
                    payload=dict(f.get("payload") or {}),
                    alloc=alloc.index if alloc is not None else None,
                    group=(open_group.get(pid) or {}).get("group"),
                    campaign=getattr(open_campaign.get(pid), "name", None),
                )
                open_tasks[key] = span
                self.tasks.append(span)
            elif event.phase == END and key in open_tasks:
                span = open_tasks.pop(key)
                span.end = event.time
                span.outcome = f.get("outcome")
                span.retries_granted = retries.get(key, 0)
                span.backoff = backoffs.get(key, 0.0)
        elif event.name == TASK_RETRY:
            key = (pid, f.get("task_id"))
            retries[key] = retries.get(key, 0) + 1
            backoffs[key] = backoffs.get(key, 0.0) + float(f.get("delay") or 0.0)
        elif event.name == TASK_TIMEOUT:
            span = open_tasks.get((pid, f.get("task_id")))
            if span is not None:
                span.timed_out = True
        elif event.name == TASK_FAULT_INJECTED:
            span = open_tasks.get((pid, f.get("task_id")))
            if span is not None:
                span.faults += 1
        elif event.name == TASK_REQUEUED:
            self.requeues.append(event)

    def close_open(self) -> None:
        """Close anything the stream left open at the last observed time.

        Durations stay finite and analyzable for truncated captures
        (a crashed driver, a partial recording).  Idempotent; call when
        the stream ends — further :meth:`feed` calls still work, but a
        span closed here stays closed.
        """
        for span in (
            *self._open_tasks.values(),
            *self._open_alloc.values(),
            *self._open_campaign.values(),
        ):
            if span.end is None:
                span.end = self.last_time

    # -- selection -----------------------------------------------------------

    def campaign_window(self, campaign: CampaignSpan) -> tuple[float, float]:
        """The time interval a campaign span covers."""
        end = campaign.end if campaign.end is not None else self.last_time
        return campaign.start, end

    def allocs_of(self, campaign: CampaignSpan) -> list:
        return [a for a in self.allocs if a.pid == campaign.pid and a.campaign == campaign.name]

    def tasks_of(self, campaign: CampaignSpan) -> list:
        return [t for t in self.tasks if t.pid == campaign.pid and t.campaign == campaign.name]
