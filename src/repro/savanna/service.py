"""The campaign service: asyncio-native multi-campaign orchestration.

The paper frames Savanna as something many researchers *submit to*, not a
script a single scientist runs to completion: "heavy traffic from many
users" needs a long-lived orchestration layer with submission, status,
and cancellation APIs.  :class:`CampaignService` is that layer — an
asyncio service owning a submission queue and a bounded worker pool, with
every previously-built drive capability (lint gate, retry policies,
checkpoint journal + ``resume=True``, bus events, ``report=True``
analytics) acting as *per-submission middleware* via the staged pipeline
in :mod:`repro.savanna.drive`.

Shape of the thing::

    service = CampaignService(max_workers=2, max_queue_depth=8)
    async with service:                       # start() … stop(drain=True)
        a = service.submit(manifest_a, backend="local-threads", app_fn=fit)
        b = service.submit(manifest_b, backend="local-threads", app_fn=fit,
                           tenant="lab-b", priority=1)
        b.cancel()                            # queued -> gone; running -> interrupt
        await a.wait()
        a.result                              # {group: RealCampaignResult}

Scheduling is **priority first, fair-share second**: the highest
``priority`` wins; within a priority band the tenant that has been
*served least* (fewest submissions started so far) goes next, so one
chatty tenant cannot starve the rest; submission order breaks remaining
ties.  Backpressure is explicit: when ``max_queue_depth`` submissions are
already queued, :meth:`CampaignService.submit` emits one
``service.saturated`` instant and raises :class:`ServiceSaturated` —
callers shed load or retry, the service never buffers unboundedly.

Execution never blocks the event loop: each submission's drive pipeline
(:func:`~repro.savanna.drive.execute_campaign` — a synchronous, possibly
minutes-long call) runs through ``asyncio.to_thread``, whether the
backend is simulated (``"pilot"``, ``"static-sets"``) or real
(``"local-threads"``, ``"local-processes"``).  Cancellation of a RUNNING
submission sets a per-submission ``threading.Event`` that real backends
poll (:meth:`~repro.savanna.realexec.RealExecutor.execute` takes the
graceful-interrupt path: unfinished runs report ``"interrupted"`` and
compact to PENDING, so a later ``resume=True`` re-submission picks up
exactly where the cancel struck); simulated backends honour it between
groups.

Observability: the service owns a thread-safe wall-clock *monitoring
bus* (:attr:`CampaignService.bus`).  Lifecycle instants
(``service.submitted`` / ``service.started`` / ``service.finished`` /
``service.cancelled`` / ``service.saturated``) are emitted there, and
every event from each submission's own execution bus is forwarded onto
it tagged with ``submission=``, ``tenant=``, ``backend=``, and
``trace_id=`` fields.  The forwarded
feed interleaves many concurrent campaigns, so treat it as a monitoring
stream (filter by ``submission``), not a strict single-campaign trace —
per-submission checkpoints and ``report=True`` analytics ride each
submission's *own* bus and stay exact.

``docs/campaign_service.md`` walks the full lifecycle, the fair-share
semantics, and the cancellation + resume guarantees.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.cheetah.manifest import CampaignManifest
from repro.lint.engine import CampaignLintError, lint_app_fn, suppressions_of
from repro.observability import (
    SERVICE_CANCELLED,
    SERVICE_FINISHED,
    SERVICE_SATURATED,
    SERVICE_STARTED,
    SERVICE_SUBMITTED,
    EventBus,
    new_trace_id,
)
from repro.observability.live import TelemetrySampler, TelemetryServer
from repro.savanna.backends import backend_kind
from repro.savanna.drive import _pool_of, execute_campaign
from repro.savanna.realexec import wall_clock_bus


class SubmissionState(Enum):
    """Lifecycle of one submitted campaign.

    ``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED``; a QUEUED
    submission may go straight to CANCELLED.  Terminal states never
    change again.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            SubmissionState.DONE,
            SubmissionState.FAILED,
            SubmissionState.CANCELLED,
        )


class ServiceSaturated(RuntimeError):
    """Raised by :meth:`CampaignService.submit` when the queue is full.

    Backpressure made loud: the service refuses new work instead of
    buffering unboundedly (one ``service.saturated`` instant is emitted
    first, so monitors see shed load even when callers swallow the
    exception).
    """


class ThreadSafeBus(EventBus):
    """An :class:`EventBus` whose ``emit`` and ``publish_batch`` share a lock.

    The base bus assumes a single emitting thread (the simulator, or one
    drive call); the service's monitoring bus receives events from the
    event loop *and* from every worker thread concurrently, so emission
    — the seq counter, subscriber delivery — must be atomic.
    Subscribers still run synchronously, now under the lock: keep them
    fast and never have one emit back into the same bus (deadlock by
    design, as reentrancy would scramble ordering anyway).
    """

    def __init__(self, clock=None, name: str | None = None):
        super().__init__(clock=clock, name=name)
        self._emit_lock = threading.Lock()

    def emit(self, name, phase="instant", time=None, **fields):
        with self._emit_lock:
            return super().emit(name, phase=phase, time=time, **fields)

    def publish_batch(self, block):
        with self._emit_lock:
            return super().publish_batch(block)


def service_bus(name: str = "campaign-service") -> ThreadSafeBus:
    """A thread-safe monitoring bus clocked by wall time, zeroed now."""
    import time as _time

    t0 = _time.monotonic()
    return ThreadSafeBus(clock=lambda: _time.monotonic() - t0, name=name)


@dataclass
class _Submission:
    """Internal per-submission record owned by the service."""

    id: str
    manifest: CampaignManifest
    backend: str
    priority: int
    tenant: str
    kwargs: dict
    seq: int
    state: SubmissionState = SubmissionState.QUEUED
    result: Any = None
    error: BaseException | None = None
    enqueued_at: float = 0.0
    #: Correlation id minted at submit time (or supplied by the caller);
    #: stamped on every lifecycle instant, forwarded execution event, and
    #: — for real backends — round-tripped through the worker processes.
    trace_id: str = ""
    #: Pre-queue FAIR5xx concurrency-safety verdict on the submission's
    #: ``app_fn`` (None for simulated backends or ``lint=False``).
    lint_report: Any = None
    #: Polled by the drive pipeline (real backends every 0.05s, simulated
    #: between groups) — set by :meth:`SubmissionHandle.cancel`.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Resolved exactly once, when the submission reaches a terminal state.
    done: asyncio.Event = field(default_factory=asyncio.Event)


class SubmissionHandle:
    """The caller's view of one submitted campaign.

    Returned by :meth:`CampaignService.submit`; offers exactly the three
    service verbs the ROADMAP asks for — ``status()``, ``wait()``,
    ``cancel()`` — plus the terminal ``result`` / ``error``.  All methods
    must be called from the service's event loop (the service is
    asyncio-native; hand the *handle* between tasks, not threads).
    """

    def __init__(self, service: "CampaignService", sub: _Submission):
        self._service = service
        self._sub = sub

    # -- identity ------------------------------------------------------------

    @property
    def id(self) -> str:
        """Service-assigned submission id (``sub-0000``, …) — the value
        carried by the ``submission=`` field on forwarded events."""
        return self._sub.id

    @property
    def campaign(self) -> str:
        return self._sub.manifest.campaign

    @property
    def tenant(self) -> str:
        return self._sub.tenant

    @property
    def priority(self) -> int:
        return self._sub.priority

    @property
    def trace_id(self) -> str:
        """The submission's correlation id — ``grep`` it in the
        :class:`~repro.observability.live.JsonLogSubscriber` output and
        the service lifecycle, drive pipeline, and in-worker events line
        up."""
        return self._sub.trace_id

    @property
    def lint_report(self):
        """The pre-queue concurrency-safety verdict on this submission's
        ``app_fn`` — a :class:`repro.lint.LintReport` carrying any
        WARNING/INFO findings the gate admitted (ERRORs never get a
        handle: :meth:`CampaignService.submit` raises instead).  ``None``
        for simulated backends or ``lint=False`` submissions."""
        return self._sub.lint_report

    # -- the three verbs -----------------------------------------------------

    def status(self) -> SubmissionState:
        """Current lifecycle state (non-blocking)."""
        return self._sub.state

    async def wait(self, timeout: float | None = None) -> SubmissionState:
        """Block until the submission reaches a terminal state.

        Returns that state; raises ``asyncio.TimeoutError`` if
        ``timeout`` (seconds) elapses first.  Never raises the
        submission's own error — inspect :attr:`error` / call
        :meth:`outcome` for that.
        """
        if timeout is None:
            await self._sub.done.wait()
        else:
            await asyncio.wait_for(self._sub.done.wait(), timeout)
        return self._sub.state

    def cancel(self) -> bool:
        """Request cancellation; returns True if anything was cancelled.

        A QUEUED submission is removed immediately (state CANCELLED, one
        ``service.cancelled`` instant with ``while="queued"``).  A
        RUNNING submission gets its cancel event set — the drive
        pipeline unwinds gracefully and the terminal ``service.cancelled``
        instant (``while="running"``) fires when it has; unfinished runs
        checkpoint as PENDING so a ``resume=True`` re-submission
        continues from the cut.  Terminal submissions return False.
        """
        return self._service._cancel(self._sub)

    # -- terminal outcome ----------------------------------------------------

    @property
    def result(self):
        """The drive result (``{group: CampaignResult|RealCampaignResult}``)
        once terminal — partial for a cancelled-while-running submission,
        ``None`` if it never started or failed before executing."""
        return self._sub.result

    @property
    def error(self) -> BaseException | None:
        """The exception that made the submission FAILED, if any."""
        return self._sub.error

    def outcome(self):
        """``result`` if the submission is DONE, else re-raise its error
        (FAILED) or ``RuntimeError`` (CANCELLED / not terminal yet)."""
        state = self._sub.state
        if state is SubmissionState.DONE:
            return self._sub.result
        if state is SubmissionState.FAILED and self._sub.error is not None:
            raise self._sub.error
        raise RuntimeError(f"submission {self._sub.id} is {state.value}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubmissionHandle({self._sub.id}: {self.campaign!r} "
            f"[{self._sub.state.value}], tenant={self._sub.tenant!r}, "
            f"priority={self._sub.priority})"
        )


class CampaignService:
    """Long-lived asyncio orchestration layer over the drive pipeline.

    Parameters
    ----------
    max_workers:
        Bound on concurrently *executing* submissions (each occupies one
        ``asyncio.to_thread`` worker for its whole drive).  This is the
        service's concurrency, independent of each backend's own
        ``max_workers`` worker-slot pool.
    max_queue_depth:
        Bound on submissions waiting in state QUEUED.  When reached,
        :meth:`submit` emits ``service.saturated`` and raises
        :class:`ServiceSaturated` — explicit backpressure instead of an
        unbounded buffer.
    bus:
        The monitoring bus; defaults to a fresh thread-safe wall-clock
        bus (:func:`service_bus`).  Must be safe for concurrent emission
        if you bring your own.
    serve_telemetry:
        When True, attach a
        :class:`~repro.observability.live.TelemetrySampler` to the
        monitoring bus and serve it over HTTP for the service's lifetime
        — Prometheus text at ``/metrics``, JSON at ``/status`` (see
        ``docs/telemetry.md``).  Off by default: no sampler, no socket,
        zero overhead.
    telemetry_port:
        Port for the telemetry server (default 0 = ephemeral; read
        :attr:`telemetry_server` ``.address`` after :meth:`start`).
        Ignored unless ``serve_telemetry=True``.

    Use as an async context manager (``async with service:``), or call
    :meth:`start` / :meth:`stop` explicitly.  ``submit`` may be called
    before ``start``; queued work begins when the workers do.
    """

    def __init__(
        self,
        max_workers: int = 2,
        max_queue_depth: int = 16,
        bus: EventBus | None = None,
        serve_telemetry: bool = False,
        telemetry_port: int = 0,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_workers = max_workers
        self.max_queue_depth = max_queue_depth
        self.bus = bus if bus is not None else service_bus()
        self.telemetry: TelemetrySampler | None = None
        self.telemetry_server: TelemetryServer | None = None
        if serve_telemetry:
            self.telemetry = TelemetrySampler(capacity=max_workers).attach(self.bus)
            self.telemetry_server = TelemetryServer(
                self.telemetry, port=telemetry_port
            )
        self._queue: list[_Submission] = []  # QUEUED, scheduler picks from here
        self._submissions: dict[str, _Submission] = {}
        self._served: dict[str, int] = {}  # {tenant: submissions started}
        self._ids = itertools.count()
        self._wake = asyncio.Event()
        self._workers: list[asyncio.Task] = []
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker pool (idempotent); with ``serve_telemetry``,
        also bind the telemetry HTTP listener."""
        if self._workers:
            return
        self._closing = False
        if self.telemetry_server is not None:
            self.telemetry_server.start()
        self._workers = [
            asyncio.create_task(self._worker(), name=f"campaign-service-{i}")
            for i in range(self.max_workers)
        ]

    async def stop(self, drain: bool = True) -> None:
        """Shut the service down.

        ``drain=True`` (default) lets queued and running submissions
        finish first; ``drain=False`` cancels everything still QUEUED
        and interrupts everything RUNNING, then waits for the workers to
        unwind.  Either way every submission is terminal when this
        returns.
        """
        self._closing = True
        if not drain:
            for sub in list(self._queue):
                self._cancel(sub)
            for sub in self._submissions.values():
                if sub.state is SubmissionState.RUNNING:
                    sub.cancel_event.set()
        self._wake.set()
        if self._workers:
            await asyncio.gather(*self._workers)
            self._workers = []
        if self.telemetry_server is not None:
            self.telemetry_server.stop()

    async def __aenter__(self) -> "CampaignService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=exc_info[0] is None)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        manifest: CampaignManifest,
        *,
        backend: str = "local-threads",
        priority: int = 0,
        tenant: str = "default",
        **drive_kwargs,
    ) -> SubmissionHandle:
        """Enqueue one campaign for execution; returns its handle.

        ``drive_kwargs`` are handed verbatim to
        :func:`~repro.savanna.drive.execute_campaign` — the full
        per-submission middleware surface: ``duration_model`` +
        ``cluster`` + ``max_allocations`` (simulated backends),
        ``app_fn`` + ``max_workers`` + ``seed`` (real backends), and
        ``retry_policy``, ``directory``, ``resume``, ``lint``,
        ``report`` for everyone.  Higher
        ``priority`` schedules sooner; ``tenant`` is the fair-share
        accounting unit.

        Raises :class:`ServiceSaturated` when ``max_queue_depth``
        submissions are already waiting, and ``KeyError`` for an unknown
        backend (checked here, at submit time, not when a worker fails
        later).

        Real-backend submissions with an ``app_fn`` are concurrency-linted
        *before* queueing: an ERROR-severity FAIR5xx finding raises
        :class:`~repro.lint.engine.CampaignLintError` here, at the submit
        call site, rather than crashing a worker mid-campaign.  The
        verdict (including admitted WARNINGs) rides on
        :attr:`SubmissionHandle.lint_report`; suppress via the manifest's
        ``lint.suppress`` metadata or ``lint=False``.
        """
        if self._closing:
            raise RuntimeError("service is stopping; submissions are closed")
        backend_kind(backend)  # unknown backend fails at submit time
        lint_report = None
        app_fn = drive_kwargs.get("app_fn")
        if (
            backend_kind(backend) == "real"
            and app_fn is not None
            and drive_kwargs.get("lint", True)
        ):
            lint_report = lint_app_fn(
                app_fn,
                pool=_pool_of(backend),
                suppress=suppressions_of(manifest),
                subject=f"{manifest.campaign} app_fn",
            )
            if lint_report.errors:
                raise CampaignLintError(lint_report, campaign=manifest.campaign)
        if len(self._queue) >= self.max_queue_depth:
            self.bus.emit(
                SERVICE_SATURATED,
                queued=len(self._queue),
                limit=self.max_queue_depth,
                campaign=manifest.campaign,
                tenant=tenant,
            )
            raise ServiceSaturated(
                f"submission queue is full ({len(self._queue)}/"
                f"{self.max_queue_depth} queued); retry later or raise "
                "max_queue_depth"
            )
        seq = next(self._ids)
        trace_id = drive_kwargs.get("trace_id") or new_trace_id()
        drive_kwargs["trace_id"] = trace_id
        sub = _Submission(
            id=f"sub-{seq:04d}",
            manifest=manifest,
            backend=backend,
            priority=priority,
            tenant=tenant,
            kwargs=dict(drive_kwargs),
            lint_report=lint_report,
            seq=seq,
            enqueued_at=self._now(),
            trace_id=trace_id,
        )
        self._queue.append(sub)
        self._submissions[sub.id] = sub
        self.bus.emit(
            SERVICE_SUBMITTED,
            submission=sub.id,
            campaign=manifest.campaign,
            tenant=tenant,
            priority=priority,
            backend=backend,
            trace_id=trace_id,
        )
        self._wake.set()
        return SubmissionHandle(self, sub)

    # -- introspection -------------------------------------------------------

    def submissions(self) -> dict[str, SubmissionState]:
        """``{submission id: state}`` for everything ever submitted."""
        return {sid: sub.state for sid, sub in self._submissions.items()}

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def running(self) -> int:
        return sum(
            1
            for sub in self._submissions.values()
            if sub.state is SubmissionState.RUNNING
        )

    @property
    def saturated(self) -> bool:
        """True when the next :meth:`submit` would raise
        :class:`ServiceSaturated`."""
        return len(self._queue) >= self.max_queue_depth

    # -- scheduling ----------------------------------------------------------

    def _pick_next(self) -> _Submission | None:
        """Priority first, fair-share second, submission order third.

        Fair share is *least served wins*: among equal priorities the
        tenant with the fewest submissions started so far goes next, so
        tenants interleave regardless of who flooded the queue first.
        Runs on the event loop only — no lock needed, and the winner is
        marked RUNNING before any await can let another worker look.
        """
        if not self._queue:
            return None
        best = min(
            self._queue,
            key=lambda s: (-s.priority, self._served.get(s.tenant, 0), s.seq),
        )
        self._queue.remove(best)
        return best

    # -- execution -----------------------------------------------------------

    def _now(self) -> float:
        return self.bus.clock() if self.bus.clock is not None else 0.0

    async def _worker(self) -> None:
        while True:
            sub = self._pick_next()
            if sub is None:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._run_one(sub)

    async def _run_one(self, sub: _Submission) -> None:
        sub.state = SubmissionState.RUNNING
        self._served[sub.tenant] = self._served.get(sub.tenant, 0) + 1
        started = self._now()
        self.bus.emit(
            SERVICE_STARTED,
            submission=sub.id,
            campaign=sub.manifest.campaign,
            tenant=sub.tenant,
            backend=sub.backend,
            queued_for=started - sub.enqueued_at,
            trace_id=sub.trace_id,
        )
        try:
            sub.result = await asyncio.to_thread(self._drive, sub)
        except Exception as exc:  # noqa: BLE001 - per-submission isolation
            sub.error = exc
            sub.state = SubmissionState.FAILED
        else:
            if sub.cancel_event.is_set():
                sub.state = SubmissionState.CANCELLED
            else:
                sub.state = SubmissionState.DONE
        elapsed = self._now() - started
        if sub.state is SubmissionState.CANCELLED:
            self.bus.emit(
                SERVICE_CANCELLED,
                submission=sub.id,
                campaign=sub.manifest.campaign,
                tenant=sub.tenant,
                backend=sub.backend,
                trace_id=sub.trace_id,
                **{"while": "running"},
            )
        else:
            self.bus.emit(
                SERVICE_FINISHED,
                submission=sub.id,
                campaign=sub.manifest.campaign,
                tenant=sub.tenant,
                backend=sub.backend,
                outcome=sub.state.value,
                elapsed=elapsed,
                error=str(sub.error) if sub.error is not None else None,
                trace_id=sub.trace_id,
            )
        sub.done.set()

    def _drive(self, sub: _Submission) -> dict:
        """One submission's whole drive pipeline (runs in a worker thread).

        Wires the per-submission execution bus (a fresh wall-clock bus
        for real backends, the cluster's own bus for simulated ones) and
        forwards its events onto the monitoring bus tagged with the
        submission id — then hands everything to
        :func:`~repro.savanna.drive.execute_campaign`, cancel signal
        included.
        """
        kwargs = dict(sub.kwargs)
        if backend_kind(sub.backend) == "real":
            ebus = kwargs.setdefault("bus", wall_clock_bus(f"service-{sub.id}"))
        else:
            cluster = kwargs.get("cluster")
            ebus = cluster.bus if cluster is not None else None

        unsubscribe = None
        if ebus is not None:

            def forward(event) -> None:
                fields = dict(event.fields)
                fields.setdefault("submission", sub.id)
                fields.setdefault("tenant", sub.tenant)
                fields.setdefault("backend", sub.backend)
                fields.setdefault("trace_id", sub.trace_id)
                self.bus.emit(event.name, phase=event.phase, **fields)

            unsubscribe = ebus.subscribe(forward)
        try:
            return execute_campaign(
                sub.manifest,
                backend=sub.backend,
                cancel=sub.cancel_event,
                **kwargs,
            )
        finally:
            if unsubscribe is not None:
                unsubscribe()

    # -- cancellation --------------------------------------------------------

    def _cancel(self, sub: _Submission) -> bool:
        if sub.state is SubmissionState.QUEUED:
            self._queue.remove(sub)
            sub.state = SubmissionState.CANCELLED
            self.bus.emit(
                SERVICE_CANCELLED,
                submission=sub.id,
                campaign=sub.manifest.campaign,
                tenant=sub.tenant,
                backend=sub.backend,
                trace_id=sub.trace_id,
                **{"while": "queued"},
            )
            sub.done.set()
            return True
        if sub.state is SubmissionState.RUNNING:
            sub.cancel_event.set()
            return True
        return False
