"""Utilization traces — the data behind Figure 6.

A node's busy time is the task attempts placed on it: every
:class:`~repro.cluster.job.TaskAttempt` names its nodes and its start
and end.  :meth:`UtilizationTrace.from_intervals` turns per-node busy
intervals into (a) per-node timelines suitable for plotting/printing and
(b) aggregate idle-fraction numbers.  In process,
:meth:`AllocationOutcome.trace() <repro.savanna.executor.AllocationOutcome.trace>`
builds one from an allocation's own attempts; from a recorded stream,
the campaign report's utilization section
(:mod:`repro.observability.analysis`) reads the same attempts off the
``task`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _clip(intervals, start: float, end: float) -> list[tuple[float, float]]:
    """Clip ``(s, e)`` intervals to ``[start, end)``, dropping empty ones."""
    clipped = []
    for s, e in intervals:
        s2, e2 = max(s, start), min(e, end)
        if e2 > s2:
            clipped.append((s2, e2))
    return clipped


@dataclass
class TimelineRow:
    """Busy intervals for one node, clipped to the trace window."""

    node_index: int
    intervals: list[tuple[float, float]]

    def busy_time(self) -> float:
        return sum(e - s for s, e in self.intervals)


@dataclass
class UtilizationTrace:
    """Utilization of a set of nodes over a window ``[start, end)``."""

    start: float
    end: float
    rows: list[TimelineRow] = field(default_factory=list)

    @classmethod
    def from_intervals(
        cls, intervals: dict[int, list[tuple[float, float]]], start: float, end: float
    ) -> "UtilizationTrace":
        """Build a trace from per-node busy intervals.

        ``intervals`` maps each node index to that node's ``(start,
        end)`` busy intervals in time order.  Rows follow the mapping's
        order, each clipped to the window.
        """
        if end <= start:
            raise ValueError(f"empty window: [{start}, {end})")
        rows = [
            TimelineRow(node_index=node, intervals=_clip(busy, start, end))
            for node, busy in intervals.items()
        ]
        return cls(start=start, end=end, rows=rows)

    @property
    def window(self) -> float:
        return self.end - self.start

    def utilization(self) -> float:
        """Mean fraction of node-time spent busy across the window."""
        if not self.rows:
            return 0.0
        total_busy = sum(row.busy_time() for row in self.rows)
        return total_busy / (self.window * len(self.rows))

    def idle_fraction(self) -> float:
        return 1.0 - self.utilization()

    def busy_nodes_series(self, samples: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Sampled series of (time, #busy nodes) — the Figure 6 curve.

        Computed by sweep-line over interval endpoints then sampled, so the
        step function is exact at sample points.
        """
        ts = np.linspace(self.start, self.end, samples, endpoint=False)
        counts = np.zeros(samples, dtype=int)
        for row in self.rows:
            for s, e in row.intervals:
                counts += (ts >= s) & (ts < e)
        return ts, counts

    def ascii_timeline(self, width: int = 72) -> str:
        """Render one line per node: ``#`` where busy, ``.`` where idle."""
        lines = []
        for row in sorted(self.rows, key=lambda r: r.node_index):
            cells = ["."] * width
            for s, e in row.intervals:
                lo = int((s - self.start) / self.window * width)
                hi = int(np.ceil((e - self.start) / self.window * width))
                for i in range(max(0, lo), min(width, hi)):
                    cells[i] = "#"
            lines.append(f"node {row.node_index:>3} |{''.join(cells)}|")
        return "\n".join(lines)
