"""The set-synchronized baseline executor — the *original* workflow (§V-D).

"The script creates the directory hierarchy for the runs and submits them
in groups or 'sets' with explicit synchronization at the end of a set ...
Straggler processes can severely limit the performance of the overall
workflow."

Observability: identical event surface to the pilot
(``campaign``/``alloc``/``task`` spans) minus ``task.requeued`` — the
original workflow never requeues within an allocation, so barrier idling
is directly visible as the gap between a set's last ``task`` end and the
next set's first ``task`` begin.  With a
:class:`~repro.resilience.RetryPolicy` attached, in-place relaunches
additionally emit ``task.retry`` instants.
"""

from __future__ import annotations

from repro._util import check_nonnegative
from repro.cluster.cluster import SimulatedCluster
from repro.resilience.policy import RetryPolicy, as_policy
from repro.savanna._vector import VectorStaticSetRun
from repro.savanna.executor import AllocationOutcome, CampaignResult
from repro.savanna.runner import run_campaign


class StaticSetExecutor:
    """Fixed sets behind a barrier; no failure retry unless a policy grants it.

    Parameters
    ----------
    cluster:
        The simulated machine to execute on.
    set_gap:
        Seconds of bookkeeping between the end of one set and the launch
        of the next (the hand-driven script's submit/check cycle).
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy`; when given,
        failed tasks are relaunched in place (the barrier waits for the
        retry).  Default preserves the paper's baseline: failures are
        only re-curated manually afterwards.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        set_gap: float = 0.0,
        retry_policy: RetryPolicy | None = None,
    ):
        check_nonnegative("set_gap", set_gap)
        self.cluster = cluster
        self.set_gap = set_gap
        self.retry_policy = retry_policy if retry_policy is None else as_policy(retry_policy)

    def make_run(self, alloc, tasks, outcome: AllocationOutcome, done_cb) -> VectorStaticSetRun:
        """Build the within-allocation engine.

        The returned :class:`~repro.savanna._vector.VectorStaticSetRun`
        simulates the allocation, fault-injected and multi-node runs
        included, and records the event batch only while the bus is
        observed.  It raises :class:`ValueError` when a task needs more
        nodes than the allocation has.
        """
        return VectorStaticSetRun(
            self.cluster,
            alloc,
            tasks,
            outcome,
            done_cb=done_cb,
            set_gap=self.set_gap,
            policy=self.retry_policy,
        )

    def run(
        self,
        tasks,
        nodes: int,
        walltime: float,
        max_allocations: int = 1,
        inter_allocation_gap: float = 0.0,
        name: str = "static",
    ) -> CampaignResult:
        """Execute ``tasks`` over up to ``max_allocations`` batch jobs."""
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
