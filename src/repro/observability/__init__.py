"""repro.observability — event bus, span tracing, metrics, trace export.

The runtime emits its own record of "what ran, where, and why": every
execution layer (cluster scheduler, Savanna executors, the
multi-allocation campaign loop, the campaign driver) publishes structured
events onto an :class:`EventBus`; a :class:`TraceRecorder` turns any run
into a Chrome ``trace_event`` JSON plus a metrics snapshot; and
:mod:`repro.observability.provenance` folds the stream back into the
paper's Software Provenance gauge.

Entry points:

- ``cluster.bus`` — every :class:`~repro.cluster.cluster.SimulatedCluster`
  owns a bus clocked by its simulator;
- ``TraceRecorder().attach(cluster.bus)`` — capture one machine;
- ``with TraceRecorder().recording(): ...`` — capture every machine
  created inside the block (how ``python -m repro.experiments --trace``
  works);
- ``python -m repro.experiments --figure 6 --trace fig6.json`` — capture
  a figure reproduction from the command line;
- ``events_from_trace("fig6.json")`` — read a saved trace back into a
  validated event stream, and :mod:`repro.observability.analysis` — turn
  it into a :class:`~repro.observability.analysis.CampaignReport`
  (critical path, wait-time attribution, stragglers, utilization);
- ``python -m repro.observability report <trace.json>`` / ``... diff`` —
  the same analytics from the command line, with a CI regression gate;
- :mod:`repro.observability.live` — the *live* telemetry plane for a
  running :class:`~repro.savanna.service.CampaignService`: Prometheus
  ``/metrics`` + JSON ``/status`` exposition, JSON-lines structured
  logs, worker resource profiling, and ``python -m repro.observability
  top`` (contract in ``docs/telemetry.md``).

The full events contract lives in ``docs/observability.md``.
"""

from repro.observability.bus import EventBus, SubscriberError, subscribe_all
from repro.observability.events import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    CAMPAIGN_COMPOSED,
    CAMPAIGN_INTERRUPTED,
    CAMPAIGN_LINTED,
    CAMPAIGN_REPORT,
    END,
    GROUP,
    GROUP_RESUMED,
    INSTANT,
    SERVICE_CANCELLED,
    SERVICE_FINISHED,
    SERVICE_SATURATED,
    SERVICE_STARTED,
    SERVICE_SUBMITTED,
    TASK,
    TASK_FAULT_INJECTED,
    TASK_REQUEUED,
    TASK_RETRY,
    TASK_TIMEOUT,
    WORKER_SAMPLE,
    Event,
    new_trace_id,
    span_key,
    validate_event_stream,
)
from repro.observability.live import (
    JsonLogSubscriber,
    TelemetrySampler,
    TelemetryServer,
    WorkerResourceProfiler,
)
from repro.observability.metrics import (
    Counter,
    GaugeMetric,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.observability.provenance import (
    campaign_names,
    observed_provenance_tier,
    observed_software_metadata,
    provenance_store_from_trace,
)
from repro.observability.recorder import TraceRecorder, events_from_trace

__all__ = [
    "Event",
    "EventBus",
    "SubscriberError",
    "subscribe_all",
    "span_key",
    "validate_event_stream",
    "BEGIN",
    "END",
    "INSTANT",
    "CAMPAIGN",
    "CAMPAIGN_COMPOSED",
    "CAMPAIGN_INTERRUPTED",
    "CAMPAIGN_LINTED",
    "CAMPAIGN_REPORT",
    "GROUP",
    "GROUP_RESUMED",
    "SERVICE_SUBMITTED",
    "SERVICE_STARTED",
    "SERVICE_FINISHED",
    "SERVICE_CANCELLED",
    "SERVICE_SATURATED",
    "ALLOC",
    "ALLOC_SUBMITTED",
    "TASK",
    "TASK_REQUEUED",
    "TASK_RETRY",
    "TASK_TIMEOUT",
    "TASK_FAULT_INJECTED",
    "WORKER_SAMPLE",
    "new_trace_id",
    "TelemetrySampler",
    "TelemetryServer",
    "JsonLogSubscriber",
    "WorkerResourceProfiler",
    "Counter",
    "GaugeMetric",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "TraceRecorder",
    "events_from_trace",
    "campaign_names",
    "provenance_store_from_trace",
    "observed_provenance_tier",
    "observed_software_metadata",
]
