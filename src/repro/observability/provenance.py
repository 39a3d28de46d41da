"""Close the loop: provenance records and gauge tiers from live traces.

The paper's Software Provenance gauge ladders from per-execution logs up
to campaign knowledge and exportability (§III).  This module builds those
records straight from the runtime's own event stream — the provenance is
emitted by the thing that executed, which is exactly what the gauge
rewards.  The task attempts come from the same span fold the campaign
reports use (:meth:`~repro.observability.analysis.spans.SpanTrace.feed`).

Given a recorded event stream:

- :func:`provenance_store_from_trace` materializes one
  :class:`~repro.metadata.provenance.ProvenanceRecord` per finished task
  attempt into a :class:`~repro.metadata.provenance.ProvenanceStore`;
- :func:`observed_provenance_tier` reports the
  :class:`~repro.gauges.levels.ProvenanceTier` the trace itself
  establishes;
- :func:`observed_software_metadata` packages that evidence as
  :class:`~repro.gauges.model.SoftwareMetadata` inputs so
  :func:`~repro.gauges.model.assess` raises the gauge mechanically.
"""

from __future__ import annotations

from repro.gauges.levels import ProvenanceTier
from repro.metadata.provenance import (
    CampaignContext,
    ExportClass,
    ExportPolicy,
    ProvenanceRecord,
    ProvenanceStore,
)
from repro.observability.analysis.spans import SpanTrace
from repro.observability.events import BEGIN, CAMPAIGN, GROUP


def _finished_attempts(events) -> list:
    """Task spans whose ``end`` arrived, in begin order.

    The fold closes an attempt still open when the capture stopped with
    ``outcome=None``; such attempts are dropped.
    """
    return [t for t in SpanTrace.from_events(events).tasks if t.outcome is not None]


def campaign_names(events) -> tuple:
    """Campaign names asserted by campaign/group spans, in first-seen order."""
    names = []
    for event in events:
        if event.name in (CAMPAIGN, GROUP) and event.phase == BEGIN:
            name = event.fields.get("campaign")
            if name and name not in names:
                names.append(name)
    return tuple(names)


def provenance_store_from_trace(
    events,
    context: CampaignContext | None = None,
    store: ProvenanceStore | None = None,
    export_class: ExportClass = ExportClass.INTERNAL,
    environment: dict | None = None,
) -> ProvenanceStore:
    """Build a queryable provenance store from a recorded event stream.

    Every finished task attempt becomes one record, in begin order:
    component = task name, start/end = span endpoints, parameters = the
    task payload the executor put on the ``begin`` event, outcome = the
    ``end`` outcome.  With ``context`` given, records are grouped under
    that campaign (registering it if needed); pass an existing ``store``
    to accumulate several captures.
    """
    store = store or ProvenanceStore()
    if context is not None and context.name not in {c.name for c in store.campaigns}:
        store.register_campaign(context)
    for attempt in _finished_attempts(events):
        store.add(
            ProvenanceRecord(
                component=attempt.name,
                start_time=attempt.start,
                end_time=attempt.end,
                parameters=attempt.payload,
                environment=dict(environment or {}),
                campaign=context.name if context is not None else None,
                outcome=attempt.outcome,
                export_class=export_class,
            )
        )
    return store


def observed_provenance_tier(
    events, export_policy: ExportPolicy | None = None
) -> ProvenanceTier:
    """The Provenance gauge tier this trace establishes by itself.

    - task attempts recorded        → ``EXECUTION_LOGS``
    - plus campaign/group context   → ``CAMPAIGN_KNOWLEDGE``
    - plus an export policy in hand → ``EXPORTABLE`` (a policy is a
      decision, not an observation, so the caller must supply it)
    """
    if not _finished_attempts(events):
        return ProvenanceTier.NONE
    if not campaign_names(events):
        return ProvenanceTier.EXECUTION_LOGS
    if export_policy is None:
        return ProvenanceTier.CAMPAIGN_KNOWLEDGE
    return ProvenanceTier.EXPORTABLE


def observed_software_metadata(
    events,
    base=None,
    context: CampaignContext | None = None,
    export_policy: ExportPolicy | None = None,
):
    """Fold trace evidence into :class:`~repro.gauges.model.SoftwareMetadata`.

    Returns a copy of ``base`` (default: a fresh descriptor) with
    ``has_execution_logs`` set when the trace holds task attempts and
    ``campaign`` set to ``context`` (or a minimal context synthesized
    from the trace's campaign spans).  Run the result through
    :func:`~repro.gauges.model.assess` and the Software Provenance gauge
    rises to exactly :func:`observed_provenance_tier` — the tier is now
    *earned by the runtime*, not asserted by hand.
    """
    from dataclasses import replace

    from repro.gauges.model import SoftwareMetadata

    base = base or SoftwareMetadata()
    has_logs = bool(_finished_attempts(events))
    if context is None:
        names = campaign_names(events)
        if names:
            context = CampaignContext(name=names[0], objective="observed from trace")
    return replace(
        base,
        has_execution_logs=base.has_execution_logs or has_logs,
        campaign=base.campaign or context,
        export_policy=base.export_policy or export_policy,
    )
