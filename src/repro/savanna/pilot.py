"""The dynamic pilot executor — Savanna's resource manager (§V-D).

"It consists of a resource manager that dynamically schedules and tracks
runs on the allocated nodes, thereby no longer requiring synchronizing
runs and leading to better resource utilization."

Observability: a pilot run narrates itself on ``cluster.bus`` — one
``task`` span per attempt (``begin`` at placement, ``end`` with
``done``/``failed``/``killed``), a ``task.retry`` instant when the retry
policy grants another attempt, a ``task.requeued`` instant each time a
failed task re-enters the pending queue (after any backoff delay), plus
``task.timeout`` / ``task.fault_injected`` instants from the resilience
layer, all nested inside the scheduler's ``alloc`` span and the runner's
``campaign`` span.  A ``task`` begin names the nodes the attempt
occupies (``node``, ``nodes``), the one record of node occupancy.
"""

from __future__ import annotations

from repro.cluster.cluster import SimulatedCluster
from repro.resilience.policy import RetryPolicy, as_policy
from repro.savanna._vector import VectorPilotRun
from repro.savanna.executor import AllocationOutcome, CampaignResult
from repro.savanna.runner import run_campaign


class PilotExecutor:
    """Dynamic within-allocation scheduling with policy-driven retry.

    Parameters
    ----------
    cluster:
        The simulated machine to execute on.
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` for failed tasks (backoff
        delays, per-task timeouts, per-allocation budgets); failed tasks
        re-enter the tail of the pending queue while it grants retries.
        ``None`` (default) retries each task up to twice with no delay;
        ``no_retry()`` records every failure as terminal.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        retry_policy: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.retry_policy = (
            RetryPolicy(max_retries=2) if retry_policy is None else as_policy(retry_policy)
        )

    def make_run(self, alloc, tasks, outcome: AllocationOutcome, done_cb) -> VectorPilotRun:
        """Build the within-allocation engine for one granted allocation.

        The returned :class:`~repro.savanna._vector.VectorPilotRun`
        simulates the allocation, fault-injected and multi-node runs
        included, and records the ``task`` spans and the
        retry/timeout/fault instants of every attempt only while the bus
        is observed.  A task needing more nodes than the allocation has
        stays PENDING; the tasks behind it still run.
        """
        return VectorPilotRun(
            self.cluster, alloc, tasks, outcome, done_cb, policy=self.retry_policy
        )

    def run(
        self,
        tasks,
        nodes: int,
        walltime: float,
        max_allocations: int = 1,
        inter_allocation_gap: float = 0.0,
        name: str = "pilot",
    ) -> CampaignResult:
        """Execute ``tasks`` over up to ``max_allocations`` batch jobs.

        Emits (via :func:`~repro.savanna.runner.run_campaign` and the
        layers below) one ``campaign`` span, an ``alloc.submitted`` +
        ``alloc`` span per allocation, and a ``task`` span per attempt.
        Journaling and resume belong to the drive
        (:func:`~repro.savanna.drive.execute_manifest`).
        """
        return run_campaign(
            self,
            self.cluster,
            tasks,
            nodes=nodes,
            walltime=walltime,
            max_allocations=max_allocations,
            inter_allocation_gap=inter_allocation_gap,
            name=name,
        )
