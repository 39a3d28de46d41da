"""Campaign reports from an event stream: one fold, one finalize.

:class:`StreamingCampaignReport` subscribes to a bus and folds each
event into a :class:`~repro.observability.analysis.spans.SpanTrace` the
moment it is emitted (:meth:`SpanTrace.feed` — one span record per
emitted task attempt, allocation and campaign; instants collapse into
counters on those spans; the raw event object is dropped on the spot).
The builder is batch-aware (:meth:`StreamingCampaignReport.on_batch`):
a batch folds in one call, and each of the vectorized executors'
attempt blocks folds as one row that keeps its attempts as they are
(:meth:`SpanTrace.feed_block`), with no event and no task span built.

:meth:`StreamingCampaignReport.reports` is the one finalize: it closes
the spans the stream left open and runs
:func:`~repro.observability.analysis.report.report_for_campaign` once per
campaign span.  :func:`analyze_events` replays a recorded stream (a live
capture or a loaded Chrome trace) through a fresh builder, so reports
folded live off the bus and reports of the same stream read back later
come from the same code.
"""

from __future__ import annotations

from repro.observability.analysis.report import CampaignReport, report_for_campaign
from repro.observability.analysis.spans import SpanTrace
from repro.observability.events import AttemptBlock


class StreamingCampaignReport:
    """Incrementally fold bus events into campaign reports.

    Example
    -------
    >>> from repro.observability import EventBus
    >>> bus = EventBus()
    >>> builder = StreamingCampaignReport().attach(bus)
    >>> with bus.span("campaign", campaign="c"):
    ...     with bus.span("task", task_id=0, task="t0", node=0):
    ...         pass
    >>> builder.detach()
    >>> [r.campaign for r in builder.reports()]
    ['c']
    """

    def __init__(self) -> None:
        self.trace = SpanTrace()
        self._unsubscribers: list = []
        self._reports: list[CampaignReport] | None = None

    # -- attachment ----------------------------------------------------------

    def attach(self, bus) -> "StreamingCampaignReport":
        """Subscribe to one bus (chainable).

        The builder subscribes as itself, so ``publish_batch`` sees its
        :meth:`on_batch` hook and delivers whole batches in one call.
        """
        self._unsubscribers.append(bus.subscribe(self))
        return self

    def detach(self) -> None:
        """Drop every subscription this builder holds."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    # -- folding -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._reports is not None:
            raise RuntimeError(
                "StreamingCampaignReport already finalized; create a new "
                "builder for a new stream"
            )

    def feed(self, event) -> None:
        """Fold one event; raw event objects are not retained."""
        self._check_open()
        self.trace.feed(event)

    #: Builders are plain callables, so ``bus.subscribe(builder)`` works.
    __call__ = feed

    def on_batch(self, events) -> None:
        """Batch-aware subscriber hook (see ``EventBus.publish_batch``);
        an attempt block folds as one row of its attempts."""
        self._check_open()
        if isinstance(events, AttemptBlock):
            self.trace.feed_block(events)
            return
        feed = self.trace.feed
        for event in events:
            feed(event)

    # -- reading back --------------------------------------------------------

    def reports(self) -> list[CampaignReport]:
        """Finalize and return one report per campaign span, in order.

        The first call closes any spans the stream left open (at its
        last observed time) and caches the result; feeding further
        events afterwards is an error.
        """
        if self._reports is None:
            self.trace.close_open()
            self._reports = [
                report_for_campaign(self.trace, campaign)
                for campaign in self.trace.campaigns
            ]
        return self._reports


def analyze_events(events) -> list[CampaignReport]:
    """One report per campaign span found in the stream, in trace order."""
    builder = StreamingCampaignReport()
    builder.on_batch(events)
    return builder.reports()
