"""Compute nodes and busy-interval accounting.

A :class:`Node` records the half-open ``[start, end)`` intervals during
which it executed work.  Figure 6 (the utilization timeline) and the
idle-fraction numbers behind Figure 7 are computed directly from these
intervals, so the recording lives with the node rather than in the
executors.

Nodes created through a :class:`~repro.cluster.cluster.SimulatedCluster`
additionally publish each transition as a ``node.busy`` / ``node.idle``
event on the cluster's bus, so utilization is also reconstructible from a
recorded event stream alone
(:meth:`~repro.cluster.trace.UtilizationTrace.from_events`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive
from repro.observability import NODE_BUSY, NODE_IDLE


@dataclass
class Node:
    """One compute node in the simulated cluster.

    Parameters
    ----------
    index:
        Stable identifier within the pool.
    cores:
        Core count; tasks may declare core requirements (defaults model a
        whole-node schedule, the paper's iRF-LOOP placement).
    speed:
        Relative execution speed: a task's wall time on this node is
        ``nominal_duration / speed``.  Heterogeneous speeds model aging
        parts, thermal throttling, and OS jitter — a second straggler
        source on real machines beyond workload skew.

    A node may additionally carry a transient *slowdown* (a straggler
    fault injected for the duration of one attempt); work placed through
    the node's own bookkeeping runs at :attr:`effective_speed`, which
    folds the slowdown in.  The simulated executors' engines apply the
    same ``speed / slowdown`` to the struck attempt directly.
    """

    index: int
    cores: int = 42  # Summit nodes expose 42 usable cores
    speed: float = 1.0
    busy_intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Optional event bus; busy/idle transitions are published when set.
    bus: object | None = field(default=None, repr=False, compare=False)
    #: Transient straggler divisor (1.0 = healthy); see :meth:`degrade`.
    slowdown: float = field(default=1.0, repr=False)
    _busy_since: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive("cores", self.cores)
        check_positive("speed", self.speed)
        check_positive("slowdown", self.slowdown)

    @property
    def busy(self) -> bool:
        return self._busy_since is not None

    @property
    def effective_speed(self) -> float:
        """Speed after any transient straggler degradation."""
        return self.speed / self.slowdown

    def degrade(self, factor: float) -> None:
        """Mark the node as a transient straggler (fault injection).

        ``factor`` >= 1 divides the node's speed until :meth:`restore`,
        for the span of one attempt the fault injector strikes.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self.slowdown = float(factor)

    def restore(self) -> None:
        """Clear a transient straggler degradation (idempotent)."""
        self.slowdown = 1.0

    def mark_busy(self, now: float) -> None:
        """Record the start of an executing task (emits ``node.busy``)."""
        if self._busy_since is not None:
            raise RuntimeError(f"node {self.index} already busy since {self._busy_since}")
        self._busy_since = now
        if self.bus is not None:
            self.bus.emit(NODE_BUSY, time=now, node=self.index)

    def mark_idle(self, now: float) -> None:
        """Record the end of the currently executing task (emits ``node.idle``)."""
        if self._busy_since is None:
            raise RuntimeError(f"node {self.index} is not busy")
        if now < self._busy_since:
            raise ValueError(f"end {now} before start {self._busy_since}")
        self.busy_intervals.append((self._busy_since, now))
        self._busy_since = None
        if self.bus is not None:
            self.bus.emit(NODE_IDLE, time=now, node=self.index)

    def close(self, now: float) -> None:
        """Flush an in-flight interval at end of simulation (walltime kill)."""
        if self._busy_since is not None:
            self.mark_idle(now)

    def busy_time(self, horizon: float | None = None) -> float:
        """Total busy seconds, optionally clipped to ``[0, horizon)``."""
        total = 0.0
        for start, end in self.busy_intervals:
            if horizon is not None:
                start, end = min(start, horizon), min(end, horizon)
            total += max(0.0, end - start)
        return total


class NodePool:
    """A fixed set of nodes with free-list bookkeeping.

    Allocation hands out the lowest-index free nodes first, which makes
    placement deterministic and timelines easy to read.

    The free set is kept as a min-heap of indices plus a membership bitmap
    (array-based free-slot bookkeeping): ``acquire``/``release`` are
    O(log n) per node instead of the O(n log n) re-sort the previous list
    representation paid on every release, and double-release detection is
    an O(1) bitmap probe instead of an O(n) scan.
    """

    def __init__(self, count: int, cores: int = 42, speeds=None, bus=None):
        check_positive("count", count)
        if speeds is None:
            speeds = [1.0] * count
        speeds = list(speeds)
        if len(speeds) != count:
            raise ValueError(f"{len(speeds)} speeds for {count} nodes")
        self.nodes = [
            Node(index=i, cores=cores, speed=float(s), bus=bus)
            for i, s in enumerate(speeds)
        ]
        #: Nominal per-node speed factors as a dense array; the vectorized
        #: executors index this instead of touching Node objects per task.
        self.speed_array = np.asarray(speeds, dtype=np.float64)
        self._free_heap = list(range(count))  # min-heap: lowest index first
        self._is_free = bytearray([1]) * count

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def free_count(self) -> int:
        return len(self._free_heap)

    def acquire(self, n: int) -> list[Node]:
        """Take ``n`` free nodes (lowest indices first)."""
        if n > len(self._free_heap):
            raise RuntimeError(f"requested {n} nodes, only {len(self._free_heap)} free")
        taken = [heapq.heappop(self._free_heap) for _ in range(n)]
        for i in taken:
            self._is_free[i] = 0
        return [self.nodes[i] for i in taken]

    def release(self, nodes: list[Node]) -> None:
        """Return nodes to the free list."""
        for node in nodes:
            if self._is_free[node.index]:
                raise RuntimeError(f"node {node.index} released twice")
            self._is_free[node.index] = 1
            heapq.heappush(self._free_heap, node.index)
