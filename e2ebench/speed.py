"""The speed of the host's CPUs while a run measures, from a probe thread.

On a shared host each virtual CPU switches between a fast and a slow
state, about 1.9x apart, several times a second; which share of a
stretch is slow drifts over tens of seconds, and the two CPUs drift
independently (a fixed loop on each, side by side, correlated at -0.15).
Process CPU time inflates exactly as wall time does, so neither clock
can tell less work from a slower host.  Ten 20-second runs of the same
code spread by 25-40% between the quartiles.

:class:`Speedometer` runs a thread that, every :data:`PERIOD_S`, times a
fixed reference loop (:func:`_reference_work`, about 0.2 ms, timed on
its second call so that it runs from warm caches).  ``speed`` of a sample is :data:`NOMINAL_S` over its time:
1.0 in the fast state, about 0.5 in the slow one.  A span timed between
``t0`` and ``t1`` is then reported as::

    scaled = (t1 - t0) * mean(speed of the samples taken in the span)

which is the time the same work takes with the CPUs in their fast state
(a mean of speeds, not of times: a span half slow at 0.5 did 0.75 of
its fast-state work per second).  Work the program stops or starts doing
moves a scaled time one for one; the host's state does not.  Unscaled
figures are printed beside the scaled ones.

A run pins itself to one CPU first (:func:`pin_process`), so the probe
thread, which inherits the pinning, samples the CPU that does the work.
Unpinned, a campaign's hand-offs between threads or processes woke the
other, idle, virtual CPU, whose wake-up time the host's load sets and no
probe of computation can see.  The probe costs about 2% of the CPU.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import threading
import time

#: Thread CPU time of one :func:`_reference_work` call in the fast state
#: (a two-core shared VM, Intel Xeon, Python 3.11.7).
NOMINAL_S = 0.000165

#: Seconds between two samples.
PERIOD_S = 0.02

#: A span shorter than this takes the samples of this much time around
#: its middle, so that a short span still averages over many samples.
MIN_WINDOW_S = 1.0


def _reference_work() -> int:
    """Interpreter work of the kind the program does: small dicts,
    f-strings, calls, a sort and a JSON encoding."""
    rows = []
    acc = 0
    for i in range(100):
        row = {"run_id": f"r{i:05d}", "x": i, "loss": (i * 37 % 101) * 0.5}
        rows.append(row)
        acc += len(row["run_id"]) + (i * i) % 7
    rows.sort(key=lambda r: (r["loss"], r["x"]))
    return acc + len(json.dumps(rows))


def pin_process(*cpus: int) -> None:
    """Pin the calling thread, and so every thread it starts later, to ``cpus``."""
    os.sched_setaffinity(0, set(cpus))


class Speedometer:
    """The probe thread, as a context manager, and the samples it took."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="e2ebench-speed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            _reference_work()  # untimed: brings the loop back into the caches
            c0 = time.thread_time()
            _reference_work()
            spent = time.thread_time() - c0
            if spent > 0:
                self.speeds.append(NOMINAL_S / spent)
                self.times.append(time.perf_counter())

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the samples taken between ``t0`` and ``t1``
        (widened to :data:`MIN_WINDOW_S`); 1.0 when there are none."""
        if t1 - t0 < MIN_WINDOW_S:
            mid = 0.5 * (t0 + t1)
            t0, t1 = mid - 0.5 * MIN_WINDOW_S, mid + 0.5 * MIN_WINDOW_S
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        picked = self.speeds[lo:hi]
        return statistics.fmean(picked) if picked else 1.0

    def scaled(self, t0: float, t1: float) -> float:
        """The span ``t0``..``t1`` at the CPUs' fast-state speed."""
        return (t1 - t0) * self.speed(t0, t1)

    def summary(self) -> dict:
        """The speeds the run saw, for the recorded environment."""
        if not self.speeds:
            return {"samples": 0}
        q = statistics.quantiles(self.speeds, n=10) if len(self.speeds) > 1 else self.speeds * 9
        return {
            "samples": len(self.speeds),
            "mean": round(statistics.fmean(self.speeds), 4),
            "p10": round(q[0], 4),
            "p90": round(q[-1], 4),
        }
