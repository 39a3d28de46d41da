"""repro.observability.analysis — trace analytics over the event stream.

Every layer *emits* structured events; this package reads them back
out through one fold, ``SpanTrace.feed`` (:mod:`.spans`), which
rebuilds the span tree.  Built on it: the campaign performance report —
critical path, wait-time attribution, stragglers, retry hotspots,
utilization timeline — computed per campaign span (:mod:`.report`); the
streaming builder, which drives the fold off a live bus and finalizes
the reports (:mod:`.streaming`); baseline/candidate diffing with a CI
regression gate (:mod:`.diff`); and the report file format
(:mod:`.io`).  Trace-sourced provenance
(:mod:`repro.observability.provenance`) reads the same fold.

Entry points:

- ``StreamingCampaignReport().attach(bus)`` — reports folded
  incrementally off the live bus, no event buffer;
- ``analyze_events(recorder.events)`` — the same builder replaying a
  live capture;
- ``analyze_events(events_from_trace("fig6.trace.json"))`` — the same for
  a saved Chrome trace;
- ``python -m repro.observability report <trace.json>`` /
  ``... diff <baseline> <candidate> --fail-on-regression <pct>`` — the CLI;
- ``savanna`` drive with ``report=True`` — a live analyzer that emits a
  ``campaign.report`` event and writes ``report.json`` into the campaign
  directory.

The report schema and CLI are documented in ``docs/observability.md``
("Reading traces back").
"""

from repro.observability.analysis.diff import CampaignDiff, ReportDiff, diff_reports
from repro.observability.analysis.io import load_reports, reports_to_dict, write_reports
from repro.observability.analysis.report import (
    REPORT_SCHEMA,
    CampaignReport,
    mad,
    report_for_campaign,
    robust_threshold,
)
from repro.observability.analysis.spans import AllocSpan, CampaignSpan, SpanTrace, TaskSpan
from repro.observability.analysis.streaming import StreamingCampaignReport, analyze_events

__all__ = [
    "REPORT_SCHEMA",
    "AllocSpan",
    "CampaignDiff",
    "CampaignReport",
    "CampaignSpan",
    "ReportDiff",
    "SpanTrace",
    "StreamingCampaignReport",
    "TaskSpan",
    "analyze_events",
    "diff_reports",
    "load_reports",
    "mad",
    "report_for_campaign",
    "reports_to_dict",
    "robust_threshold",
    "write_reports",
]
