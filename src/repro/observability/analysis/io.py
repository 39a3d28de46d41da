"""Report files: load/save, and trace-vs-report detection.

One on-disk format for everything the analyzer writes::

    {"schema": "repro.observability.report/v1", "reports": [ {...}, ... ]}

:func:`load_reports` additionally accepts a raw Chrome ``trace_event``
JSON (list form, or dict with ``traceEvents``) and analyzes it on the
fly — so ``python -m repro.observability diff`` takes any mix of trace
files and report files, and a CI job can diff a freshly captured trace
against a committed baseline report without an intermediate step.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability.analysis.report import REPORT_SCHEMA, CampaignReport
from repro.observability.analysis.streaming import analyze_events
from repro.observability.recorder import events_from_trace


def reports_to_dict(reports) -> dict:
    """The serialized file form of a list of reports."""
    return {
        "schema": REPORT_SCHEMA,
        "reports": [r.to_dict() for r in reports],
    }


def write_reports(path, reports) -> Path:
    """Write reports in the standard file format; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reports_to_dict(reports), indent=1) + "\n")
    return path


def load_reports(source) -> list[CampaignReport]:
    """Load reports from a report file, report dict, or Chrome trace.

    - a dict with ``reports`` (our file format, any ``schema`` /v1+): the
      reports are deserialized directly;
    - a single report dict (has ``campaign`` and ``makespan``): wrapped;
    - a ``trace_event`` list or ``{"traceEvents": [...]}`` dict: parsed
      through :func:`~repro.observability.recorder.events_from_trace`
      and analyzed.

    ``source`` may also be a path to a JSON file holding any of these.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if isinstance(data, dict) and "reports" in data:
        return [CampaignReport.from_dict(r) for r in data["reports"]]
    if isinstance(data, dict) and "campaign" in data and "makespan" in data:
        return [CampaignReport.from_dict(data)]
    if isinstance(data, (list, dict)):  # a Chrome trace, list or object form
        return analyze_events(events_from_trace(data, validate=False))
    raise ValueError(
        f"unrecognized report/trace source of type {type(data).__name__}"
    )
