"""Batch scheduler: FCFS queue, queue-wait model, walltime enforcement.

The paper's workflows interact with the machine through batch jobs
("allocations"): you request N nodes for W seconds, wait in the queue, run,
and get killed at the walltime.  The queue wait matters for Figure 7 — the
original iRF-LOOP workflow pays a queue gap (plus a human re-curation gap)
between successive submissions, while Cheetah/Savanna resubmits a partially
complete SweepGroup mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._util import as_generator, check_nonnegative
from repro.cluster.engine import Simulator
from repro.cluster.job import Allocation, AllocationRequest
from repro.cluster.node import NodePool
from repro.observability import ALLOC, ALLOC_SUBMITTED, BEGIN, END


@dataclass
class QueueModel:
    """Stochastic queue-wait model.

    Wait time is lognormal with median ``median_wait`` scaled by the
    fraction of the machine requested (big jobs wait longer), as a coarse
    stand-in for backfill dynamics.  Set ``sigma=0`` for deterministic
    waits in tests.
    """

    median_wait: float = 300.0
    sigma: float = 0.5
    size_exponent: float = 0.5

    def sample(self, request: AllocationRequest, machine_nodes: int, rng: np.random.Generator) -> float:
        check_nonnegative("median_wait", self.median_wait)
        frac = min(1.0, request.nodes / machine_nodes)
        scale = self.median_wait * (1.0 + frac) ** self.size_exponent
        if self.sigma == 0:
            return scale
        return float(scale * rng.lognormal(mean=0.0, sigma=self.sigma))


class BatchScheduler:
    """FCFS batch scheduler over a :class:`NodePool`.

    Jobs are granted in submission order once (a) their sampled queue wait
    has elapsed and (b) enough nodes are free.  FCFS without backfill is
    deliberate: the experiments submit one job at a time (the campaign's
    own allocation), so scheduler sophistication beyond queue wait and
    walltime kills would not change any measured quantity.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: NodePool,
        queue_model: QueueModel | None = None,
        backfill: bool = False,
        seed=None,
        bus=None,
    ):
        self.sim = sim
        self.pool = pool
        #: Optional event bus: ``alloc.submitted`` instants plus one
        #: ``alloc`` span per granted allocation (grant -> reclaim).
        self.bus = bus
        self.queue_model = queue_model or QueueModel()
        #: Aggressive backfill: when the head of the queue does not fit,
        #: later eligible jobs that do fit may start.  This can delay the
        #: head (no reservation), which is why it is off by default — the
        #: figure experiments submit one job at a time and never need it.
        self.backfill = backfill
        self._rng = as_generator(seed)
        # (request, eligible_time, on_start, on_end) in FCFS order
        self._queue: list[tuple[AllocationRequest, float, Callable, Callable]] = []
        self.granted: list[Allocation] = []
        self._deadline_handles: dict[int, tuple] = {}
        self._alloc_indices: dict[int, int] = {}

    def submit(
        self,
        request: AllocationRequest,
        on_start: Callable[[Allocation], None],
        on_end: Callable[[Allocation], None] | None = None,
    ) -> None:
        """Queue a batch job.

        ``on_start(allocation)`` fires when nodes are assigned;
        ``on_end(allocation)`` fires at the walltime deadline, after which
        the nodes are reclaimed.
        """
        if request.nodes > len(self.pool):
            raise ValueError(
                f"job '{request.name}' wants {request.nodes} nodes; machine has {len(self.pool)}"
            )
        wait = self.queue_model.sample(request, len(self.pool), self._rng)
        eligible = self.sim.now + wait
        if self.bus is not None:
            self.bus.emit(
                ALLOC_SUBMITTED,
                job=request.name,
                nodes=request.nodes,
                walltime=request.walltime,
                eligible_at=eligible,
            )
        self._queue.append((request, eligible, on_start, on_end))
        self.sim.schedule_at(eligible, self._try_dispatch)

    def _grant(self, entry) -> None:
        request, _eligible, on_start, on_end = entry
        nodes = self.pool.acquire(request.nodes)
        alloc = Allocation(request=request, nodes=nodes, start=self.sim.now)
        index = len(self.granted)
        self.granted.append(alloc)
        self._alloc_indices[id(alloc)] = index
        if self.bus is not None:
            self.bus.emit(
                ALLOC,
                phase=BEGIN,
                alloc=index,
                job=request.name,
                nodes=[n.index for n in nodes],
                deadline=alloc.deadline,
            )
        handle = self.sim.schedule_at(alloc.deadline, self._end_allocation, alloc, on_end)
        self._deadline_handles[id(alloc)] = (handle, on_end)
        on_start(alloc)

    def _try_dispatch(self) -> None:
        """Grant the head of the queue while it is eligible and fits; with
        backfill on, also grant later eligible jobs that fit."""
        while self._queue:
            entry = self._queue[0]
            request, eligible, _on_start, _on_end = entry
            if eligible > self.sim.now or request.nodes > self.pool.free_count:
                break
            self._queue.pop(0)
            self._grant(entry)
        if not self.backfill:
            return
        index = 1  # the head stays blocked; scan behind it
        while index < len(self._queue):
            request, eligible, _on_start, _on_end = self._queue[index]
            if eligible <= self.sim.now and request.nodes <= self.pool.free_count:
                entry = self._queue.pop(index)
                self._grant(entry)
            else:
                index += 1

    def finish(self, alloc: Allocation, reason: str = "finished") -> None:
        """End an allocation early (the job script exited before walltime).

        ``reason`` lands in the ``alloc`` span's end event — the campaign
        layers pass e.g. ``"retry-budget-exhausted"`` so a trace shows
        *why* an allocation gave its nodes back.
        """
        entry = self._deadline_handles.get(id(alloc))
        if entry is None:
            raise RuntimeError(f"allocation {alloc.request.name!r} is not active")
        handle, on_end = entry
        handle.cancel()
        self._end_allocation(alloc, on_end, reason=reason)

    def _end_allocation(
        self, alloc: Allocation, on_end: Callable | None, reason: str = "walltime"
    ) -> None:
        self._deadline_handles.pop(id(alloc), None)
        if on_end is not None:
            on_end(alloc)
        if self.bus is not None:
            self.bus.emit(
                ALLOC,
                phase=END,
                alloc=self._alloc_indices.get(id(alloc)),
                job=alloc.request.name,
                reason=reason,
            )
        self.pool.release(alloc.nodes)
        # Freed nodes may unblock the next queued job.
        self._try_dispatch()
