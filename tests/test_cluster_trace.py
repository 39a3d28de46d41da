"""Tests for utilization traces."""

import numpy as np
import pytest

from repro.cluster.trace import UtilizationTrace

#: Node 0 busy over the first half of [0, 10), node 1 over the second.
HALVES = {0: [(0.0, 5.0)], 1: [(5.0, 10.0)]}


class TestUtilization:
    def test_half_busy(self):
        trace = UtilizationTrace.from_intervals(HALVES, 0.0, 10.0)
        assert trace.utilization() == pytest.approx(0.5)
        assert trace.idle_fraction() == pytest.approx(0.5)

    def test_full_busy(self):
        trace = UtilizationTrace.from_intervals({0: [(0.0, 10.0)]}, 0.0, 10.0)
        assert trace.utilization() == pytest.approx(1.0)

    def test_clipping_to_window(self):
        trace = UtilizationTrace.from_intervals({0: [(0.0, 100.0)]}, 40.0, 60.0)
        assert trace.utilization() == pytest.approx(1.0)
        assert trace.rows[0].intervals == [(40.0, 60.0)]

    def test_interval_outside_window_dropped(self):
        trace = UtilizationTrace.from_intervals({0: [(0.0, 5.0)]}, 10.0, 20.0)
        assert trace.rows[0].intervals == []
        assert trace.utilization() == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            UtilizationTrace.from_intervals(HALVES, 5.0, 5.0)

    def test_no_nodes(self):
        trace = UtilizationTrace(start=0.0, end=1.0, rows=[])
        assert trace.utilization() == 0.0


class TestSeries:
    def test_busy_nodes_series_counts(self):
        trace = UtilizationTrace.from_intervals(HALVES, 0.0, 10.0)
        ts, counts = trace.busy_nodes_series(samples=10)
        # Exactly one node busy at every sampled instant.
        assert np.all(counts == 1)

    def test_series_zero_when_idle(self):
        trace = UtilizationTrace.from_intervals({0: [(0.0, 1.0)]}, 0.0, 10.0)
        ts, counts = trace.busy_nodes_series(samples=10)
        assert counts[0] == 1
        assert np.all(counts[2:] == 0)

    def test_ascii_timeline_shape(self):
        trace = UtilizationTrace.from_intervals(HALVES, 0.0, 10.0)
        text = trace.ascii_timeline(width=20)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "#" in lines[0] and "." in lines[0]
        # node 0 busy first half, node 1 second half
        assert lines[0].index("#") < lines[1].index("#")
