"""Multi-allocation campaign loop (§V-D).

"If all runs in the SweepGroup cannot be run in the allotted time, the
SweepGroup is simply re-submitted, and Savanna resumes execution of the
experiments."  The loop submits batch allocations one after another; each
new allocation receives every task not yet DONE (killed and failed tasks
are retried), until the campaign completes or the allocation budget runs
out.

Durability lives one layer up: the drive
(:func:`~repro.savanna.drive.execute_manifest`) journals every task
transition through a :class:`~repro.resilience.CampaignCheckpoint` while
this loop runs, and a re-submitted group hands the loop only the runs
the journal does not record DONE — the paper's "simply re-submit" made
crash-safe, with one resume path for every backend.

Observability: one ``campaign`` span per :func:`run_campaign` call on the
cluster's bus — ``begin`` before the first submission (fields:
``campaign``, ``tasks``, ``max_allocations``), ``end`` after the event
loop drains (fields: ``completed``, ``allocations``).  The scheduler and
the within-allocation engines emit the nested ``alloc.submitted`` /
``alloc`` / ``task`` events; see ``docs/observability.md``
for the full contract.
"""

from __future__ import annotations

from repro._util import check_nonnegative, check_positive
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.job import AllocationRequest, TaskState
from repro.observability import BEGIN, CAMPAIGN, END
from repro.savanna.executor import AllocationOutcome, CampaignResult


def run_campaign(
    executor,
    cluster: SimulatedCluster,
    tasks,
    *,
    nodes: int,
    walltime: float,
    max_allocations: int = 1,
    inter_allocation_gap: float = 0.0,
    name: str = "campaign",
) -> CampaignResult:
    """Drive ``executor`` over up to ``max_allocations`` sequential batch jobs.

    Emits a ``campaign`` span on ``cluster.bus`` covering the whole loop
    (begin at submission time, end at the final simulation time), with
    every allocation and task event nested inside it.  An allocation is
    released as soon as its engine has no work left, not at the walltime
    (real job scripts exit when done).

    Parameters
    ----------
    executor:
        Provides ``make_run(alloc, tasks, outcome, done_cb)`` — the
        within-allocation dispatch strategy.
    inter_allocation_gap:
        Human think-time before each resubmission (zero for Savanna's
        mechanical resubmit; hours for the manually curated original).
    """
    check_positive("max_allocations", max_allocations)
    check_nonnegative("inter_allocation_gap", inter_allocation_gap)
    tasks = list(tasks)
    result = CampaignResult(tasks=tasks)
    state = {"submitted": 0, "active_run": None}

    def submit_next():
        # any() early-exits on the first unfinished task; building the
        # full list of unfinished tasks here would be an O(n) scan per
        # submit.
        if state["submitted"] >= max_allocations or not any(
            t.state is not TaskState.DONE for t in tasks
        ):
            return
        state["submitted"] += 1
        request = AllocationRequest(
            nodes=nodes, walltime=walltime, name=f"{name}-{state['submitted']}"
        )

        def on_start(alloc):
            outcome = AllocationOutcome(allocation=alloc)
            result.outcomes.append(outcome)
            done_cb = lambda: cluster.scheduler.finish(alloc)
            # Single fused pass: select the unfinished tasks and reset
            # killed/failed ones to PENDING so the new allocation
            # retries them (one task scan instead of two; the store is
            # skipped for already-pending tasks, i.e. almost all of
            # them on the first allocation).
            batch = []
            append = batch.append
            done, pend = TaskState.DONE, TaskState.PENDING
            for t in tasks:
                s = t.state
                if s is not done:
                    if s is not pend:
                        t.state = pend
                    append(t)
            run = executor.make_run(alloc, batch, outcome, done_cb)
            state["active_run"] = run
            run.start()

        def on_end(alloc):
            run = state["active_run"]
            state["active_run"] = None
            if run is not None:
                run.on_walltime_kill()
            if inter_allocation_gap > 0:
                cluster.sim.schedule(inter_allocation_gap, submit_next)
            else:
                submit_next()

        cluster.scheduler.submit(request, on_start, on_end)

    cluster.bus.emit(
        CAMPAIGN,
        phase=BEGIN,
        campaign=name,
        tasks=len(tasks),
        max_allocations=max_allocations,
    )
    submit_next()
    cluster.run()
    if cluster.bus.has_subscribers:
        # Guarded so the O(n) completed-list scan in the arguments is
        # only paid when someone is listening; emit itself would drop
        # the event anyway.
        cluster.bus.emit(
            CAMPAIGN,
            phase=END,
            campaign=name,
            completed=len(result.completed),
            allocations=len(result.outcomes),
        )
    return result
