"""Live running aggregates over the service monitoring bus.

:class:`TelemetrySampler` is the stateful heart of the live telemetry
plane: it subscribes to a :class:`~repro.savanna.service.CampaignService`
monitoring bus (or any bus carrying the same taxonomy) and folds every
event into O(1) running aggregates, maintained **per tenant** and **per
backend**:

- queue depth and active/finished/failed/cancelled submission counts;
- fair-share service counts (``started`` — how often each tenant has
  been picked);
- queue-wait and end-to-end latency distributions, each a seeded
  bounded-reservoir :class:`~repro.observability.metrics.Histogram`
  (memory stays flat no matter how long the service lives);
- task outcomes, retry/timeout/fault counters;
- worker-pool saturation (running submissions vs. the service's
  ``max_workers`` capacity) and the latest ``worker.sample`` resource
  reading per pool worker.

Unlike the post-hoc analyzers in :mod:`repro.observability.analysis`,
nothing here buffers events: each observation is folded and dropped, so
an operator can ask a *running* service "what is queue depth, which
tenant is starved, which worker is pinning a core" at any moment via
:meth:`status` / :meth:`tenant_status` / :meth:`prometheus` — the three
views the :class:`~repro.observability.live.TelemetryServer` exposes
over HTTP.

Counter algebra (the reconciliation contract, property-tested under
randomized interleavings in ``tests/test_telemetry_churn.py``)::

    submitted == queued + started + cancelled_queued
    started   == active + finished + failed + cancelled_running

Thread safety: folding and reading are serialized by one internal lock,
so the HTTP server (its own thread) can snapshot while the service's
worker threads emit.  A simulated allocation's attempt block reaches
the sampler one event at a time, like every other delivery.
"""

from __future__ import annotations

import threading
import time

from repro.observability.events import (
    END,
    SERVICE_CANCELLED,
    SERVICE_FINISHED,
    SERVICE_SATURATED,
    SERVICE_STARTED,
    SERVICE_SUBMITTED,
    TASK,
    TASK_FAULT_INJECTED,
    TASK_RETRY,
    TASK_TIMEOUT,
    WORKER_SAMPLE,
)
from repro.observability.metrics import Histogram

#: ``status()`` document schema identifier (also served at ``/status``).
STATUS_SCHEMA = "repro.telemetry.status/v1"

#: Reservoir bound for the per-scope latency histograms.
DEFAULT_RESERVOIR = 4096


class _ScopeStats:
    """Running aggregates for one scope (a tenant, or a backend)."""

    __slots__ = (
        "submitted", "started", "finished", "failed",
        "cancelled_queued", "cancelled_running", "queued", "active",
        "tasks_done", "tasks_failed", "retries", "timeouts", "faults",
        "queue_wait", "latency",
    )

    def __init__(self, label: str, reservoir: int):
        self.submitted = 0
        self.started = 0  # == fair-share "served" count for a tenant
        self.finished = 0
        self.failed = 0
        self.cancelled_queued = 0
        self.cancelled_running = 0
        self.queued = 0
        self.active = 0
        self.tasks_done = 0
        self.tasks_failed = 0
        self.retries = 0
        self.timeouts = 0
        self.faults = 0
        self.queue_wait = Histogram(f"{label}.queue_wait", max_samples=reservoir)
        self.latency = Histogram(f"{label}.latency", max_samples=reservoir)

    @property
    def cancelled(self) -> int:
        return self.cancelled_queued + self.cancelled_running

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "queued": self.queued,
            "active": self.active,
            "started": self.started,
            "finished": self.finished,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "cancelled_queued": self.cancelled_queued,
            "cancelled_running": self.cancelled_running,
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "faults": self.faults,
            "queue_wait": self.queue_wait.summary(),
            "latency": self.latency.summary(),
        }


class TelemetrySampler:
    """Fold monitoring-bus events into live per-tenant/per-backend state.

    Parameters
    ----------
    capacity:
        The service's ``max_workers`` (optional) — lets
        :meth:`status` report worker-pool saturation as
        ``active / capacity``.
    reservoir:
        Bound on retained latency samples per histogram (see
        :class:`~repro.observability.metrics.Histogram`).

    Example
    -------
    >>> from repro.observability import EventBus
    >>> bus = EventBus()
    >>> sampler = TelemetrySampler().attach(bus)
    >>> _ = bus.emit("service.submitted", submission="s0", tenant="lab",
    ...              backend="local-threads")
    >>> sampler.status()["tenants"]["lab"]["queued"]
    1
    """

    def __init__(self, capacity: int | None = None,
                 reservoir: int = DEFAULT_RESERVOIR):
        self.capacity = capacity
        self.reservoir = reservoir
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._tenants: dict[str, _ScopeStats] = {}
        self._backends: dict[str, _ScopeStats] = {}
        # {submission id: (tenant, backend)} for lifecycle events that do
        # not carry the backend themselves; pruned on terminal events.
        self._routes: dict[str, tuple[str, str | None]] = {}
        self._workers: dict[str, dict] = {}
        self._saturated = 0
        self._running = 0
        self._running_peak = 0
        self._events_seen = 0
        self._unsubscribers: list = []

    # -- attachment ----------------------------------------------------------

    def attach(self, bus) -> "TelemetrySampler":
        """Subscribe to one bus (chainable)."""
        self._unsubscribers.append(bus.subscribe(self))
        return self

    def detach(self) -> None:
        """Drop every subscription this sampler holds."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    # -- folding -------------------------------------------------------------

    def _scope(self, table: dict, key: str) -> _ScopeStats:
        stats = table.get(key)
        if stats is None:
            stats = table[key] = _ScopeStats(key, self.reservoir)
        return stats

    def _scopes_for(self, fields: dict) -> list[_ScopeStats]:
        """The tenant and backend scopes one event updates.

        The backend rides on ``service.submitted`` and on forwarded
        execution events (:class:`~repro.savanna.service.ThreadSafeBus`
        tagging); later lifecycle instants fall back to the route map
        built at submission time.
        """
        submission = fields.get("submission")
        tenant = fields.get("tenant")
        backend = fields.get("backend")
        if submission is not None:
            route = self._routes.get(submission)
            if route is not None:
                tenant = tenant if tenant is not None else route[0]
                backend = backend if backend is not None else route[1]
        scopes = []
        if tenant is not None:
            scopes.append(self._scope(self._tenants, tenant))
        if backend is not None:
            scopes.append(self._scope(self._backends, backend))
        return scopes

    def feed(self, event) -> None:
        """Fold one event; the event object is not retained."""
        with self._lock:
            self._feed(event)

    #: Samplers are plain callables, so ``bus.subscribe(sampler)`` works.
    __call__ = feed

    def _feed(self, event) -> None:
        self._events_seen += 1
        name = event.name
        fields = event.fields
        if name == SERVICE_SUBMITTED:
            submission = fields.get("submission")
            if submission is not None:
                self._routes[submission] = (
                    fields.get("tenant", "default"),
                    fields.get("backend"),
                )
            for s in self._scopes_for(fields):
                s.submitted += 1
                s.queued += 1
        elif name == SERVICE_STARTED:
            wait = fields.get("queued_for")
            for s in self._scopes_for(fields):
                s.started += 1
                s.queued -= 1
                s.active += 1
                if wait is not None:
                    s.queue_wait.observe(float(wait))
            self._running += 1
            self._running_peak = max(self._running_peak, self._running)
        elif name == SERVICE_FINISHED:
            outcome = fields.get("outcome", "done")
            elapsed = fields.get("elapsed")
            for s in self._scopes_for(fields):
                s.active -= 1
                if outcome == "failed":
                    s.failed += 1
                else:
                    s.finished += 1
                if elapsed is not None:
                    s.latency.observe(float(elapsed))
            self._running -= 1
            self._routes.pop(fields.get("submission"), None)
        elif name == SERVICE_CANCELLED:
            while_ = fields.get("while", "queued")
            for s in self._scopes_for(fields):
                if while_ == "running":
                    s.active -= 1
                    s.cancelled_running += 1
                else:
                    s.queued -= 1
                    s.cancelled_queued += 1
            if while_ == "running":
                self._running -= 1
            self._routes.pop(fields.get("submission"), None)
        elif name == SERVICE_SATURATED:
            self._saturated += 1
        elif name == TASK and event.phase == END:
            outcome = fields.get("outcome")
            if outcome in ("done", "failed"):
                for s in self._scopes_for(fields):
                    if outcome == "done":
                        s.tasks_done += 1
                    else:
                        s.tasks_failed += 1
        elif name == TASK_RETRY:
            for s in self._scopes_for(fields):
                s.retries += 1
        elif name == TASK_TIMEOUT:
            for s in self._scopes_for(fields):
                s.timeouts += 1
        elif name == TASK_FAULT_INJECTED:
            for s in self._scopes_for(fields):
                s.faults += 1
        elif name == WORKER_SAMPLE:
            worker = str(fields.get("worker", fields.get("pid", "?")))
            self._workers[worker] = {
                "pid": fields.get("pid"),
                "cpu_seconds": fields.get("cpu_seconds"),
                "cpu_pct": fields.get("cpu_pct"),
                "rss_bytes": fields.get("rss_bytes"),
                "trace_id": fields.get("trace_id"),
                "at": event.time,
            }

    # -- views ---------------------------------------------------------------

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._t0

    def status(self) -> dict:
        """One JSON-serializable snapshot of everything (the ``/status``
        document; schema :data:`STATUS_SCHEMA`)."""
        with self._lock:
            saturation = (
                self._running / self.capacity
                if self.capacity else None
            )
            return {
                "schema": STATUS_SCHEMA,
                "uptime": self.uptime,
                "events": self._events_seen,
                "service": {
                    "capacity": self.capacity,
                    "running": self._running,
                    "running_peak": self._running_peak,
                    "saturation": saturation,
                    "saturated_total": self._saturated,
                    "queued": sum(s.queued for s in self._tenants.values()),
                    "active": sum(s.active for s in self._tenants.values()),
                },
                "tenants": {
                    name: s.as_dict() for name, s in sorted(self._tenants.items())
                },
                "backends": {
                    name: s.as_dict() for name, s in sorted(self._backends.items())
                },
                "workers": {
                    name: dict(w) for name, w in sorted(self._workers.items())
                },
            }

    def tenant_status(self, tenant: str) -> dict | None:
        """The ``/status/<tenant>`` document (None for unknown tenants)."""
        with self._lock:
            stats = self._tenants.get(tenant)
            if stats is None:
                return None
            return {"schema": STATUS_SCHEMA, "tenant": tenant, **stats.as_dict()}

    # -- Prometheus exposition -----------------------------------------------

    def prometheus(self) -> str:
        """Render the current state in Prometheus text format (0.0.4).

        Naming follows the exposition conventions (documented in
        ``docs/telemetry.md``): counters end in ``_total``, gauges name
        the instant quantity, distributions are exported as summaries
        with ``quantile`` labels plus ``_sum``/``_count``, and every
        per-scope family carries exactly one of the ``tenant=`` /
        ``backend=`` labels.
        """
        with self._lock:
            lines: list[str] = []

            def family(name: str, kind: str, help_text: str, samples) -> None:
                rendered = list(samples)
                if not rendered:
                    return
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                lines.extend(rendered)

            def sample(name: str, value, **labels) -> str:
                if value is None:
                    value = "NaN"
                body = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in labels.items()
                )
                return f"{name}{{{body}}} {value}" if body else f"{name} {value}"

            family(
                "repro_service_uptime_seconds", "gauge",
                "Seconds since the telemetry sampler attached.",
                [sample("repro_service_uptime_seconds", f"{self.uptime:.6f}")],
            )
            family(
                "repro_service_running_submissions", "gauge",
                "Submissions currently executing on service workers.",
                [sample("repro_service_running_submissions", self._running)],
            )
            if self.capacity:
                family(
                    "repro_service_worker_saturation", "gauge",
                    "Running submissions over max_workers capacity.",
                    [sample(
                        "repro_service_worker_saturation",
                        f"{self._running / self.capacity:.6f}",
                    )],
                )
            family(
                "repro_service_saturated_total", "counter",
                "Submissions refused because the queue was full.",
                [sample("repro_service_saturated_total", self._saturated)],
            )

            def scope_families(scope_label: str, table: dict) -> None:
                pre = "repro_service"
                counters = (
                    ("submitted_total", "submitted",
                     "Submissions accepted into the queue."),
                    ("started_total", "started",
                     "Submissions picked up by a worker (fair-share service count)."),
                    ("finished_total", "finished",
                     "Submissions completed successfully."),
                    ("failed_total", "failed",
                     "Submissions that raised out of the drive pipeline."),
                    ("cancelled_total", "cancelled",
                     "Submissions cancelled (queued or running)."),
                    ("tasks_done_total", "tasks_done",
                     "Per-run task attempts that completed."),
                    ("tasks_failed_total", "tasks_failed",
                     "Per-run task attempts that failed."),
                    ("task_retries_total", "retries",
                     "Retry grants across all submissions."),
                    ("task_timeouts_total", "timeouts",
                     "Per-attempt timeout expiries."),
                    ("task_faults_total", "faults",
                     "Injected faults observed."),
                )
                for suffix, attr, help_text in counters:
                    family(
                        f"{pre}_{suffix}", "counter", help_text,
                        [
                            sample(f"{pre}_{suffix}", getattr(s, attr),
                                   **{scope_label: key})
                            for key, s in sorted(table.items())
                        ],
                    )
                for suffix, attr, help_text in (
                    ("queue_depth", "queued", "Submissions waiting in the queue."),
                    ("active_submissions", "active", "Submissions currently running."),
                ):
                    family(
                        f"{pre}_{suffix}", "gauge", help_text,
                        [
                            sample(f"{pre}_{suffix}", getattr(s, attr),
                                   **{scope_label: key})
                            for key, s in sorted(table.items())
                        ],
                    )
                for suffix, attr, help_text in (
                    ("queue_wait_seconds", "queue_wait",
                     "Queue wait from submit to worker pickup."),
                    ("latency_seconds", "latency",
                     "End-to-end submission latency (started to terminal)."),
                ):
                    rows: list[str] = []
                    for key, s in sorted(table.items()):
                        hist: Histogram = getattr(s, attr)
                        summary = hist.summary()
                        if summary["count"]:
                            for q, p in (("0.5", "p50"), ("0.95", "p95"),
                                         ("0.99", "p99")):
                                rows.append(sample(
                                    f"{pre}_{suffix}",
                                    f"{summary[p]:.6f}",
                                    **{scope_label: key, "quantile": q},
                                ))
                        rows.append(sample(
                            f"{pre}_{suffix}_sum", f"{summary['sum']:.6f}",
                            **{scope_label: key},
                        ))
                        rows.append(sample(
                            f"{pre}_{suffix}_count", summary["count"],
                            **{scope_label: key},
                        ))
                    family(f"{pre}_{suffix}", "summary", help_text, rows)

            scope_families("tenant", self._tenants)
            scope_families("backend", self._backends)

            family(
                "repro_worker_cpu_seconds_total", "counter",
                "Cumulative CPU seconds per pool worker.",
                [
                    sample("repro_worker_cpu_seconds_total",
                           w["cpu_seconds"], worker=name)
                    for name, w in sorted(self._workers.items())
                    if w.get("cpu_seconds") is not None
                ],
            )
            family(
                "repro_worker_cpu_percent", "gauge",
                "CPU utilization of each pool worker over the last sample interval.",
                [
                    sample("repro_worker_cpu_percent",
                           f"{w['cpu_pct']:.3f}", worker=name)
                    for name, w in sorted(self._workers.items())
                    if w.get("cpu_pct") is not None
                ],
            )
            family(
                "repro_worker_rss_bytes", "gauge",
                "Resident set size of each pool worker.",
                [
                    sample("repro_worker_rss_bytes", w["rss_bytes"], worker=name)
                    for name, w in sorted(self._workers.items())
                    if w.get("rss_bytes") is not None
                ],
            )
            return "\n".join(lines) + "\n"


def _escape(value) -> str:
    """Escape one Prometheus label value."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )
