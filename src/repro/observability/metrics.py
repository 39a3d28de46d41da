"""Counters, gauges, and histograms — the metrics half of observability.

A :class:`MetricsRegistry` is a named bag of instruments with
get-or-create semantics (``registry.counter("tasks.done").inc()``), and a
``snapshot()`` that renders everything into one JSON-serializable dict.
Instruments are deliberately minimal — no labels, no time series — which
is exactly enough to answer "did the run do what the trace says it did"
and to diff two runs in a test.  Anything fancier belongs in a subscriber
that consumes the event stream directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from zlib import crc32


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    ``q`` is in [0, 100].  This is the one quantile implementation the
    observability layer owns: it sorts ``values`` and reads the sorted
    data through :func:`_sorted_percentile`, which holds the
    interpolation rule.  :meth:`Histogram.quantile` calls this function;
    :meth:`Histogram.summary` and the trace analyzer
    (:mod:`repro.observability.analysis.report`) sort once and read
    several quantiles through ``_sorted_percentile``.  A test pinning
    the rule therefore pins every consumer.
    """
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(data, q: float) -> float:
    """The ``q``-th percentile of ``data``, already sorted ascending.

    ``data`` is any indexable sequence: a list or a 1-d numpy array.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not len(data):
        raise ValueError("percentile of an empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: inc must be >= 0, got {n}")
        self.value += n


@dataclass
class GaugeMetric:
    """A settable level with peak tracking (e.g. busy-node count).

    Named ``GaugeMetric`` to stay unambiguous next to the paper's
    reusability :class:`~repro.gauges.levels.Gauge`.
    """

    name: str
    value: float = 0.0
    peak: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = max(self.peak, value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


@dataclass
class Histogram:
    """Streaming summary of observed values, with quantiles.

    The running count/sum/min/max are exact.  Quantiles come from a
    bounded **seeded reservoir** (Vitter's algorithm R): the first
    ``max_samples`` observations are kept verbatim, after which each new
    observation replaces a uniformly-chosen retained one with probability
    ``max_samples / count`` — so a histogram inside a long-lived service
    (the live telemetry plane feeds one per tenant, forever) stays at a
    fixed memory bound while the retained set remains a uniform sample of
    *everything* observed, not just the first window.  Replacement draws
    come from a private :class:`random.Random` seeded from ``seed`` and
    ``name`` alone (no process entropy), so ``summary()`` is
    deterministic for a given observation sequence and seed — tests can
    pin quantiles, and two replicas fed the same stream agree.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    max_samples: int = 4096
    seed: int = 0
    samples: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.max_samples < 1:
            raise ValueError(
                f"histogram {self.name!r}: max_samples must be >= 1, "
                f"got {self.max_samples}"
            )
        # crc32, not hash(): str hashing is per-process randomized.
        self._rng = random.Random(crc32(f"{self.seed}:{self.name}".encode()))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained observations."""
        return percentile(self.samples, q)

    def summary(self) -> dict:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
                "p50": None, "p95": None, "p99": None,
            }
        data = sorted(self.samples)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": _sorted_percentile(data, 50.0),
            "p95": _sorted_percentile(data, 95.0),
            "p99": _sorted_percentile(data, 99.0),
        }


class MetricsRegistry:
    """Named instruments with get-or-create lookup.

    Example
    -------
    >>> reg = MetricsRegistry()
    >>> reg.counter("tasks.done").inc(3)
    >>> reg.snapshot()["counters"]["tasks.done"]
    3
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, GaugeMetric] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> GaugeMetric:
        return self._gauges.setdefault(name, GaugeMetric(name))

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram(name))

    def snapshot(self) -> dict:
        """One JSON-serializable view of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "peak": g.peak}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }
