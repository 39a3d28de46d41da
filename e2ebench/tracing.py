"""Per-layer tracing from the benchmark's side of each layer boundary.

:func:`instrumented` replaces the public functions and methods the
campaign path calls into with thin wrappers for the duration of a traced
run, and restores the originals afterwards.  A function the drive or the
service imports by name is wrapped at that import site (for example
``repro.savanna.drive.lint_manifest``), because that is the name the
caller looks up; methods are wrapped on their class.

Each wrapped call records one :class:`Span`: name, start, end, parent
span and the campaign or submission it works for.  The current span and
subject travel in context variables, which ``asyncio.to_thread`` copies
into its worker thread, so a submission's drive nests under the span that
was current when the service handed it to the thread.  A call nested
directly inside a span of the same name (``on_batch`` folding through
``feed``) is not recorded again, so a name's total time is never counted
twice.  Spans stay in memory until :meth:`Tracer.write` dumps them.

A few very frequent calls (event emission) are only counted, not timed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time

import numpy as np

_CURRENT = contextvars.ContextVar("e2ebench_span", default=None)
_SUBJECT = contextvars.ContextVar("e2ebench_subject", default=None)

SPANS_SCHEMA = "e2ebench.spans/v1"


class Span:
    """One wrapped call: what ran, when, under which span, for whom."""

    __slots__ = ("id", "name", "start", "end", "parent", "subject")

    def __init__(self, id, name, parent, subject):
        self.id = id
        self.name = name
        self.parent = parent
        self.subject = subject
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, subject_of=None):
        """``fn`` recording one span per call; ``subject_of(args, kwargs)``
        names the campaign or submission the call starts working for."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            subject = subject_of(args, kwargs) if subject_of is not None else None
            span = Span(next(ids), name, parent, subject or _SUBJECT.get())
            token = _CURRENT.set(span)
            subject_token = _SUBJECT.set(subject) if subject is not None else None
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if subject_token is not None:
                    _SUBJECT.reset(subject_token)
                _CURRENT.reset(token)
                spans.append(span)

        return traced

    def wrap_count(self, name: str, fn, amount):
        """``fn`` adding ``amount(result)`` to counter ``name`` per call."""
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            n = amount(out)
            if n:
                with lock:
                    counts[name] = counts.get(name, 0) + n
            return out

        return counted

    # -- reading back ----------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def mean_ms(self, name: str) -> float:
        n = self.calls(name)
        return 1000.0 * self.total(name) / n if n else 0.0

    def self_time(self, name: str) -> float:
        """Total time of ``name`` spans minus the time their direct
        children cover (children of one span run on its thread, in turn)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and s.parent.name == name:
                child_time[s.parent.id] = child_time.get(s.parent.id, 0.0) + s.duration
        return sum(s.duration - child_time.get(s.id, 0.0) for s in self.spans if s.name == name)

    def write(self, path, meta: dict) -> None:
        """Dump every span, oldest first, as one JSON document."""
        rows = [
            [
                s.id,
                s.name,
                s.start - self.t0,
                s.end - self.t0,
                None if s.parent is None else s.parent.id,
                s.subject,
            ]
            for s in sorted(self.spans, key=lambda s: (s.start, s.id))
        ]
        doc = {
            "schema": SPANS_SCHEMA,
            "meta": meta,
            "counts": dict(self.counts),
            "fields": ["id", "name", "start_s", "end_s", "parent", "subject"],
            "spans": rows,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _manifest_subject(args, kwargs):
    manifest = args[0] if args else kwargs.get("manifest")
    return getattr(manifest, "campaign", None)


def _submission_subject(args, kwargs):
    return args[1].id  # CampaignService._drive(self, sub)


def _targets():
    """``(span name, owner, attribute, subject_of)`` for every wrapped call."""
    from repro import savanna
    from repro.cheetah.directory import CampaignDirectory
    from repro.observability.analysis import StreamingCampaignReport
    from repro.resilience.checkpoint import CampaignCheckpoint
    from repro.savanna import drive, service
    from repro.savanna.pilot import PilotExecutor
    from repro.savanna.realexec import RealExecutor
    from repro.store.catalog import StoreCatalog
    from repro.store.store import CampaignStore

    return [
        ("drive.campaign", savanna, "execute_campaign", _manifest_subject),
        ("drive.campaign", service, "execute_campaign", _manifest_subject),
        ("drive.manifest", drive, "execute_manifest", _manifest_subject),
        ("lint.manifest", drive, "lint_manifest", None),
        ("lint.app_fn", drive, "lint_app_fn", None),
        ("lint.app_fn", service, "lint_app_fn", None),
        ("directory.create", CampaignDirectory, "create", None),
        ("directory.update_status", CampaignDirectory, "update_status", None),
        ("directory.record_results", CampaignDirectory, "record_results", None),
        ("directory.write_report", CampaignDirectory, "write_report", None),
        ("checkpoint.record", CampaignCheckpoint, "record", None),
        ("checkpoint.compact", CampaignCheckpoint, "compact", None),
        ("checkpoint.effective_status", CampaignCheckpoint, "effective_status", None),
        ("simcore.run", PilotExecutor, "run", None),
        ("realexec.execute", RealExecutor, "execute", None),
        ("service.submit", service.CampaignService, "submit", None),
        ("service.drive", service.CampaignService, "_drive", _submission_subject),
        ("store.ensure_campaign", CampaignStore, "ensure_campaign", None),
        ("store.record_run_results", CampaignStore, "record_run_results", None),
        ("store.flush", CampaignStore, "flush", None),
        ("store.set_statuses", CampaignStore, "set_statuses", None),
        ("catalog.best", StoreCatalog, "best", None),
        ("catalog.rank", StoreCatalog, "rank", None),
        ("catalog.pareto", StoreCatalog, "pareto_front", None),
        ("catalog.impact", StoreCatalog, "parameter_impact", None),
        ("catalog.records", StoreCatalog, "records", None),
        ("analysis.fold", StreamingCampaignReport, "feed", None),
        ("analysis.fold", StreamingCampaignReport, "__call__", None),
        ("analysis.fold", StreamingCampaignReport, "on_batch", None),
        ("analysis.finalize", StreamingCampaignReport, "reports", None),
    ]


def _counted_targets():
    from repro.observability.bus import EventBus

    return [
        ("bus.events", EventBus, "emit", lambda event: 0 if event is None else 1),
        ("bus.events", EventBus, "publish_batch", lambda events: len(events or ())),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    patched = []
    try:
        for name, owner, attr, subject_of in _targets():
            patched.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), subject_of))
        for name, owner, attr, amount in _counted_targets():
            patched.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap_count(name, getattr(owner, attr), amount))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def quantile(values, q: float) -> float:
    """Harrell–Davis estimate of quantile ``q`` in (0, 1); 0.0 when empty.

    A mean of every order statistic, weighted by a beta distribution
    centred on ``q``.  Between runs it moves less than the one or two
    order statistics a plain percentile reads: over six seeds of the
    service fleet, the spread of p50 fell from 0.093 to 0.072.
    """
    if not len(values):
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    # The weight of the i-th order statistic is the beta mass on
    # [i/n, (i+1)/n], summed here over 64 midpoints per interval.
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = (np.arange(64 * n) + 0.5) / (64 * n)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def layer_metrics(tracer: Tracer, extras: dict) -> dict:
    """Every per-layer metric of one traced run, by name.

    ``extras`` carries what the workload measured itself: service queue
    waits, monitoring-bus events, load-generator lag, and the summed
    per-run ``elapsed`` the real executor's overhead is taken against.
    Layers a workload never calls read 0.
    """
    t = tracer
    execute_s = t.total("realexec.execute")
    real_runs = extras.get("realexec.runs", 0)
    overhead = (
        1000.0 * (execute_s - extras.get("realexec.busy_s", 0.0)) / real_runs
        if real_runs
        else 0.0
    )
    waits = extras.get("service.queue_waits", [])
    return {
        "directory.create_s": t.total("directory.create"),
        "directory.create_calls": t.calls("directory.create"),
        "directory.update_status_s": t.total("directory.update_status"),
        "directory.record_results_s": t.total("directory.record_results"),
        "directory.write_report_s": t.total("directory.write_report"),
        "checkpoint.record_calls": t.calls("checkpoint.record"),
        "checkpoint.record_s": t.total("checkpoint.record"),
        "checkpoint.compact_s": t.total("checkpoint.compact"),
        "checkpoint.effective_status_s": t.total("checkpoint.effective_status"),
        "lint.manifest_s": t.total("lint.manifest"),
        "lint.app_fn_calls": t.calls("lint.app_fn"),
        "lint.app_fn_s": t.total("lint.app_fn"),
        "simcore.run_s": t.total("simcore.run"),
        "simcore.self_s": t.self_time("simcore.run"),
        "realexec.execute_s": execute_s,
        "realexec.overhead_ms_per_run": overhead,
        "service.submit_ms": t.mean_ms("service.submit"),
        "service.queue_wait_p50_s": quantile(waits, 0.5),
        "service.queue_wait_p80_s": quantile(waits, 0.8),
        "service.drive_s": t.total("service.drive"),
        "service.monitor_events": extras.get("service.monitor_events", 0),
        "loadgen.lag_max_s": extras.get("loadgen.lag_max_s", 0.0),
        "store.ensure_campaign_calls": t.calls("store.ensure_campaign"),
        "store.ensure_campaign_s": t.total("store.ensure_campaign"),
        "store.record_run_results_s": t.total("store.record_run_results"),
        "store.flush_s": t.total("store.flush"),
        "store.set_statuses_s": t.total("store.set_statuses"),
        "catalog.best_ms": t.mean_ms("catalog.best"),
        "catalog.rank_ms": t.mean_ms("catalog.rank"),
        "catalog.pareto_ms": t.mean_ms("catalog.pareto"),
        "catalog.impact_ms": t.mean_ms("catalog.impact"),
        "catalog.records_calls": t.calls("catalog.records"),
        "catalog.records_s": t.total("catalog.records"),
        "analysis.fold_s": t.total("analysis.fold"),
        "analysis.finalize_s": t.total("analysis.finalize"),
        "bus.events": t.counts.get("bus.events", 0),
    }
