"""Shared machinery of the simulated executors: outcome types and
manifest→task mapping.

A simulated executor consumes :class:`~repro.cluster.job.Task` objects.
Campaign manifests carry parameters, not durations — durations belong to
the *application* — so :func:`tasks_from_manifest` takes a
:class:`DurationModel` mapping parameters to nominal run seconds.  It
reads the manifest's run table row by row (id, width, parameters), and
a task's ``payload`` is its run's read-only parameters mapping, shared
with the manifest rather than copied.  Real backends consume the
manifest itself; their one engine,
:class:`~repro.savanna.realexec.RealExecutor`, defines their contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.cluster.job import Allocation, Task, TaskState
from repro.cluster.trace import UtilizationTrace


class DurationModel(Protocol):
    """Anything mapping a run's parameters to nominal wall seconds."""

    def __call__(self, parameters: dict) -> float: ...


def tasks_from_manifest(manifest, duration_model: Callable[[dict], float]) -> list[Task]:
    """Materialize executor tasks, one per row of the manifest's run
    table; a task's ``payload`` is its row's parameters mapping, not a
    copy."""
    table = manifest.runs
    tasks = []
    for run_id, nodes, parameters in zip(table.ids, table.widths, table.parameters):
        duration = float(duration_model(parameters))
        if duration <= 0:
            raise ValueError(f"duration model returned {duration} for run {run_id!r}")
        tasks.append(Task(run_id, duration, nodes, parameters))
    return tasks


@dataclass
class AllocationOutcome:
    """What happened inside one batch allocation."""

    allocation: Allocation
    attempts: list = field(default_factory=list)  # list[TaskAttempt]
    completed: list = field(default_factory=list)  # list[Task]
    failed: list = field(default_factory=list)  # list[Task] (terminal failures)
    killed: list = field(default_factory=list)  # list[Task] (walltime kill)

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def last_activity(self) -> float:
        """Time the final attempt ended (allocation start if nothing ran)."""
        ends = [a.end for a in self.attempts if a.end is not None]
        return max(ends) if ends else self.allocation.start

    def trace(self, end: float | None = None) -> UtilizationTrace:
        """Utilization over ``[alloc start, end)`` (default: the deadline).

        One row per allocation node, in allocation order, holding the
        intervals of this allocation's own attempts on that node.  A node
        runs one attempt at a time, so launch order is time order.
        """
        alloc = self.allocation
        busy = {node.index: [] for node in alloc.nodes}
        for a in self.attempts:
            interval = (a.start, a.end)
            for index in a.node_indices:
                busy[index].append(interval)
        return UtilizationTrace.from_intervals(
            busy, alloc.start, alloc.deadline if end is None else end
        )


@dataclass
class CampaignResult:
    """Aggregate outcome of a (possibly multi-allocation) campaign execution."""

    tasks: list  # every Task handed to the executor
    outcomes: list = field(default_factory=list)  # list[AllocationOutcome]

    # Each reader binds the states it compares with once: a campaign
    # holds thousands of tasks, and an enum member lookup per task costs
    # more than the comparison.

    @property
    def completed(self) -> list:
        done = TaskState.DONE
        return [t for t in self.tasks if t.state is done]

    @property
    def pending(self) -> list:
        unfinished = (TaskState.PENDING, TaskState.KILLED, TaskState.FAILED)
        return [t for t in self.tasks if t.state in unfinished]

    @property
    def all_done(self) -> bool:
        done = TaskState.DONE
        return all(t.state is done for t in self.tasks)

    def completed_per_allocation(self) -> list[int]:
        return [o.completed_count for o in self.outcomes]

    def mean_completed_per_allocation(self) -> float:
        counts = self.completed_per_allocation()
        return sum(counts) / len(counts) if counts else 0.0

    def makespan(self) -> float:
        """Wall seconds from first allocation start to last activity."""
        if not self.outcomes:
            return 0.0
        start = min(o.allocation.start for o in self.outcomes)
        end = max(o.last_activity() for o in self.outcomes)
        return end - start

    def summary(self) -> str:
        """One-paragraph human summary of the campaign execution."""
        counts = self.completed_per_allocation()
        done = len(self.completed)
        total = len(self.tasks)
        lines = [
            f"{done}/{total} tasks completed over {len(self.outcomes)} "
            f"allocation(s); makespan {self.makespan():.0f}s"
        ]
        for i, outcome in enumerate(self.outcomes):
            lines.append(
                f"  allocation {i}: {counts[i]} done, "
                f"{len(outcome.failed)} failed, {len(outcome.killed)} killed, "
                f"{len(outcome.attempts)} attempts"
            )
        return "\n".join(lines)
