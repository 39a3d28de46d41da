"""Compute nodes and the node pool.

A :class:`Node` describes one machine: a stable index, a core count and
a relative speed.  What a node did is recorded once, on the task
attempts placed on it (:class:`~repro.cluster.job.TaskAttempt`'s
``node_indices``, ``start`` and ``end``); Figure 6 (the utilization
timeline) and the idle-fraction numbers behind Figure 7 are computed
from those attempts
(:meth:`~repro.savanna.executor.AllocationOutcome.trace`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro._util import check_positive


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
        source on real machines beyond workload skew.  A straggler fault
        divides the speed of the one attempt it strikes, not the node's.
        The simulated executors read it when an allocation starts, so a
        change takes effect from the next allocation on.
    """

    index: int
    cores: int = 42  # Summit nodes expose 42 usable cores
    speed: float = 1.0

    def __post_init__(self) -> None:
        check_positive("cores", self.cores)
        check_positive("speed", self.speed)


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

    def __init__(self, count: int, cores: int = 42, speeds=None):
        check_positive("count", count)
        if speeds is None:
            speeds = [1.0] * count
        speeds = list(speeds)
        if len(speeds) != count:
            raise ValueError(f"{len(speeds)} speeds for {count} nodes")
        self.nodes = [Node(index=i, cores=cores, speed=float(s)) for i, s in enumerate(speeds)]
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
