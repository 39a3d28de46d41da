"""The per-event reference engine: the oracle of the simulator tests.

``repro.savanna._vector`` simulates each allocation synchronously; this
module is the engine it must reproduce bit for bit, kept here from the
days it ran in production.  It pays one simulator event and one scalar
failure draw per attempt.  The shipped engines record node occupancy
only on the task attempts; this one books it per node as well, on its
own :class:`OracleNode` objects (one per pool node and cluster, see
:func:`oracle_nodes`), whose ``mark_busy``/``mark_idle`` raise on a
double-booked node and whose ``degrade``/``restore`` carry a straggler's
slowdown.  The equivalence tests compare the intervals booked there with
the ones the vector engines' attempts imply.
``tests/_oracle.py`` swaps it in for the executors' ``make_run``;
``tests/test_simcore_equivalence.py`` and
``benchmarks/bench_simcore.py`` run through that.

Both simulated executors share the same mechanics — place a task on free
nodes, consult the fault injector and the failure model, schedule the end
event, finalize attempts when the walltime kill arrives — and differ only
in *dispatch*: the pilot pulls the next task the moment nodes free; the
static engine launches fixed sets behind a barrier.

Failure handling is driven by a :class:`~repro.resilience.RetryPolicy`:
it caps any attempt's wall time (``task.timeout``), decides whether a
failed task gets another try and after what backoff delay
(``task.retry``), and bounds total retries per allocation.

Observability: every attempt is one ``task`` span on the cluster bus
(``begin`` at launch with the placement and payload, ``end`` with the
outcome — ``done``/``failed``/``killed``).  Injected faults emit a
``task.fault_injected`` instant inside the span; timeouts a
``task.timeout`` instant just before the failed ``end``; policy-granted
retries a ``task.retry`` instant at decision time, and (on the pilot) a
``task.requeued`` instant when the task actually re-enters the pending
queue after its backoff delay.
"""

from __future__ import annotations

import weakref
from collections import deque
from operator import attrgetter

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.job import Allocation, Task, TaskAttempt, TaskState
from repro.observability import (
    BEGIN,
    END,
    TASK,
    TASK_FAULT_INJECTED,
    TASK_REQUEUED,
    TASK_RETRY,
    TASK_TIMEOUT,
)
from repro.resilience.policy import RetryPolicy
from repro.savanna.executor import AllocationOutcome

#: C-speed ``task.nodes`` accessor for whole-list scans.
_task_nodes = attrgetter("nodes")


class OracleNode:
    """The oracle's record of one node: its busy intervals and the
    transient slowdown of a straggler fault."""

    def __init__(self, index: int, speed: float):
        self.index = index
        self.speed = speed
        #: Transient straggler divisor (1.0 = healthy); see :meth:`degrade`.
        self.slowdown = 1.0
        self.busy_intervals: list[tuple[float, float]] = []
        self._busy_since: float | None = None

    @property
    def effective_speed(self) -> float:
        """Speed after any transient straggler degradation."""
        return self.speed / self.slowdown

    def degrade(self, factor: float) -> None:
        """Divide the node's speed by ``factor`` until :meth:`restore`."""
        self.slowdown = float(factor)

    def restore(self) -> None:
        """Clear a straggler degradation (idempotent)."""
        self.slowdown = 1.0

    def mark_busy(self, now: float) -> None:
        """Record the start of an executing task."""
        if self._busy_since is not None:
            raise RuntimeError(f"node {self.index} already busy since {self._busy_since}")
        self._busy_since = now

    def mark_idle(self, now: float) -> None:
        """Record the end of the currently executing task."""
        if self._busy_since is None:
            raise RuntimeError(f"node {self.index} is not busy")
        if now < self._busy_since:
            raise ValueError(f"end {now} before start {self._busy_since}")
        self.busy_intervals.append((self._busy_since, now))
        self._busy_since = None

    def close(self, now: float) -> None:
        """Flush an in-flight interval at a walltime kill."""
        if self._busy_since is not None:
            self.mark_idle(now)


_ORACLE_NODES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def oracle_nodes(cluster: SimulatedCluster) -> list[OracleNode]:
    """The oracle's nodes for ``cluster``, indexed like ``cluster.pool.nodes``."""
    nodes = _ORACLE_NODES.get(cluster)
    if nodes is None:
        nodes = _ORACLE_NODES[cluster] = [
            OracleNode(node.index, node.speed) for node in cluster.pool.nodes
        ]
    return nodes


class _BaseAllocationRun:
    """Common node/event bookkeeping for one allocation."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        alloc: Allocation,
        tasks: list[Task],
        outcome: AllocationOutcome,
        done_cb,
        policy: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.bus = cluster.bus
        self.alloc = alloc
        self.outcome = outcome
        self.done_cb = done_cb
        self.policy = policy if policy is not None else RetryPolicy()
        book = oracle_nodes(cluster)
        #: This allocation's nodes, in allocation order, as the oracle books them.
        self.nodes = [book[node.index] for node in alloc.nodes]
        self.free = list(self.nodes)
        # task -> (attempt, end-event handle, nodes)
        self.running: dict[int, tuple] = {}
        self.finished = False
        #: retries already spent in this allocation (vs. policy.allocation_budget)
        self.allocation_retries = 0
        self._retry_counts: dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Dispatch initial work; called at allocation start."""
        raise NotImplementedError

    def on_walltime_kill(self) -> None:
        """Finalize running attempts at the walltime deadline.

        Close the busy intervals of the nodes still running work, cancel
        pending end events, and mark the interrupted tasks KILLED so a
        later resubmission retries them.
        """
        now = self.cluster.sim.now
        for node in self.nodes:
            node.close(now)
        for task_id, (attempt, handle, nodes) in list(self.running.items()):
            handle.cancel()
            attempt.end = now
            attempt.outcome = TaskState.KILLED
            attempt.task.state = TaskState.KILLED
            for node in nodes:
                node.restore()
            self.outcome.killed.append(attempt.task)
            self.bus.emit(
                TASK,
                phase=END,
                task=attempt.task.name,
                task_id=task_id,
                node=nodes[0].index,
                outcome=TaskState.KILLED.value,
            )
        self.running.clear()
        self.finished = True

    # -- retry bookkeeping ---------------------------------------------------

    def budget_left(self) -> bool:
        """True while this allocation may still spend retries."""
        budget = self.policy.allocation_budget
        return budget is None or self.allocation_retries < budget

    def grant_retry(self, task: Task) -> int | None:
        """Consume one retry for ``task`` if the policy allows it.

        Returns the (1-based) retry index granted, or ``None`` when the
        per-task or per-allocation budget is exhausted.  Emits the
        ``task.retry`` instant with the backoff delay on success.
        """
        retries = self._retry_counts.get(task.task_id, 0)
        if not self.policy.allows(retries) or not self.budget_left():
            return None
        index = retries + 1
        self._retry_counts[task.task_id] = index
        self.allocation_retries += 1
        self.bus.emit(
            TASK_RETRY,
            task=task.name,
            task_id=task.task_id,
            retries=index,
            delay=self.policy.delay(index),
        )
        return index

    # -- task mechanics ------------------------------------------------------

    def _launch(self, task: Task) -> None:
        """Place ``task`` on free nodes and schedule its completion."""
        if task.nodes > len(self.free):
            raise RuntimeError(
                f"task {task.name!r} needs {task.nodes} nodes, {len(self.free)} free"
            )
        nodes = [self.free.pop(0) for _ in range(task.nodes)]
        now = self.cluster.sim.now
        for node in nodes:
            node.mark_busy(now)
        task.state = TaskState.RUNNING
        attempt = TaskAttempt(task=task, node_indices=[n.index for n in nodes], start=now)
        task.attempts.append(attempt)
        self.outcome.attempts.append(attempt)
        attempt_no = len(task.attempts)
        self.bus.emit(
            TASK,
            phase=BEGIN,
            task=task.name,
            task_id=task.task_id,
            node=nodes[0].index,
            nodes=[n.index for n in nodes],
            attempt=attempt_no,
            payload=dict(task.payload),
        )
        decision = None
        if self.cluster.faults is not None:
            decision = self.cluster.faults.decide(task.name, attempt_no, task.duration)
        if decision is not None:
            self.bus.emit(
                TASK_FAULT_INJECTED,
                task=task.name,
                task_id=task.task_id,
                node=nodes[0].index,
                kind=decision.kind,
                attempt=attempt_no,
                fail_at=decision.fail_at,
                slowdown=decision.slowdown,
            )
            if decision.slowdown > 1.0:
                for node in nodes:
                    node.degrade(decision.slowdown)
        # A multi-node task runs at the pace of its slowest member node.
        speed = min(node.effective_speed for node in nodes)
        wall_duration = task.duration / speed
        elapsed, result = wall_duration, TaskState.DONE
        fail_at = self.cluster.failures.sample_failure_time(wall_duration, task.nodes)
        if decision is not None and decision.fail_at is not None:
            # The injected crash lands at the same *fraction* of the
            # attempt whatever the nodes' speed.
            injected = decision.fail_at / speed
            fail_at = injected if fail_at is None else min(fail_at, injected)
        if fail_at is not None:
            elapsed, result = fail_at, TaskState.FAILED
        timed_out = False
        timeout = self.policy.timeout_for(task)
        if timeout is not None and timeout < elapsed:
            elapsed, result, timed_out = timeout, TaskState.FAILED, True
        handle = self.cluster.sim.schedule(
            elapsed, self._on_task_end, task, result, nodes, timed_out
        )
        self.running[task.task_id] = (attempt, handle, nodes)

    def _on_task_end(self, task: Task, result: TaskState, nodes, timed_out: bool = False) -> None:
        now = self.cluster.sim.now
        attempt, _handle, _nodes = self.running.pop(task.task_id)
        attempt.end = now
        attempt.outcome = result
        task.state = result
        for node in nodes:
            node.restore()
            node.mark_idle(now)
            self.free.append(node)
        if timed_out:
            self.bus.emit(
                TASK_TIMEOUT,
                task=task.name,
                task_id=task.task_id,
                node=nodes[0].index,
                timeout=self.policy.timeout_for(task),
            )
        self.bus.emit(
            TASK,
            phase=END,
            task=task.name,
            task_id=task.task_id,
            node=nodes[0].index,
            outcome=result.value,
        )
        if result is TaskState.DONE:
            self.outcome.completed.append(task)
        self.after_task_end(task, result)

    def after_task_end(self, task: Task, result: TaskState) -> None:
        """Dispatch hook: decide what to run next."""
        raise NotImplementedError

    def _maybe_finish(self) -> None:
        """Signal the runner when no work remains in this allocation."""
        if not self.finished and not self.running and self.exhausted():
            self.finished = True
            self.done_cb()

    def exhausted(self) -> bool:
        """True when the dispatcher has nothing left to launch."""
        raise NotImplementedError


class PilotRun(_BaseAllocationRun):
    """Savanna's dynamic pilot: greedy FIFO pull onto freed nodes.

    Failed tasks re-enter the pending queue after the policy's backoff
    delay, up to the per-task and per-allocation retry budgets.
    """

    def __init__(
        self,
        cluster,
        alloc,
        tasks,
        outcome,
        done_cb,
        policy: RetryPolicy | None = None,
    ):
        super().__init__(cluster, alloc, tasks, outcome, done_cb, policy=policy)
        self.pending = deque(tasks)
        #: backoff timers currently in flight (delayed requeues)
        self._backing_off = 0

    def start(self) -> None:
        self._fill()
        self._maybe_finish()

    def _fill(self) -> None:
        while self.pending and self.pending[0].nodes <= len(self.free):
            self._launch(self.pending.popleft())

    def after_task_end(self, task: Task, result: TaskState) -> None:
        if result is TaskState.FAILED:
            index = self.grant_retry(task)
            if index is not None:
                delay = self.policy.delay(index)
                self._backing_off += 1
                if delay > 0:
                    self.cluster.sim.schedule(delay, self._requeue, task, index)
                else:
                    self._requeue(task, index)
            else:
                self.outcome.failed.append(task)
        self._fill()
        self._maybe_finish()

    def _requeue(self, task: Task, retry_index: int) -> None:
        """Re-enter the pending queue after the backoff delay."""
        self._backing_off -= 1
        if self.finished:
            # The walltime killed the allocation while this task was
            # backing off; it stays FAILED and the next allocation of the
            # campaign loop retries it.
            self.outcome.failed.append(task)
            return
        task.state = TaskState.PENDING
        self.pending.append(task)
        self.bus.emit(
            TASK_REQUEUED,
            task=task.name,
            task_id=task.task_id,
            retries=retry_index,
        )
        self._fill()
        self._maybe_finish()

    def exhausted(self) -> bool:
        return not self.pending and self._backing_off == 0


class StaticSetRun(_BaseAllocationRun):
    """The original workflow: fixed sets with an end-of-set barrier.

    Tasks are chunked, in order, into sets that fit the allocation; the
    next set launches only after *every* task of the current set has
    finished (§V-D: "all experiments in a set must be complete before the
    next set is run"), plus an optional ``set_gap`` for the bookkeeping
    the human-driven scripts do between sets.  By default failures are
    not retried — the original workflow curates a failed-run list
    manually afterwards — but a :class:`~repro.resilience.RetryPolicy`
    may grant in-place relaunches (the retried task keeps its set, so the
    barrier waits for it).
    """

    def __init__(
        self,
        cluster,
        alloc,
        tasks,
        outcome,
        done_cb,
        set_gap: float = 0.0,
        policy: RetryPolicy | None = None,
    ):
        super().__init__(cluster, alloc, tasks, outcome, done_cb, policy=policy)
        self.set_gap = set_gap
        self.sets = self._partition(tasks, len(alloc.nodes))
        self.next_set = 0
        self.in_flight = 0

    @staticmethod
    def _partition(tasks: list[Task], width: int) -> list[list[Task]]:
        # Bag-of-tasks campaigns (every task single-node) partition by
        # plain slicing — C-speed membership scan instead of a Python
        # loop over what may be tens of thousands of tasks.
        if set(map(_task_nodes, tasks)) == {1} and width >= 1:
            return [tasks[i : i + width] for i in range(0, len(tasks), width)]
        sets: list[list[Task]] = []
        current: list[Task] = []
        used = 0
        for task in tasks:
            if task.nodes > width:
                raise ValueError(
                    f"task {task.name!r} needs {task.nodes} nodes; allocation has {width}"
                )
            if used + task.nodes > width:
                sets.append(current)
                current, used = [], 0
            current.append(task)
            used += task.nodes
        if current:
            sets.append(current)
        return sets

    def start(self) -> None:
        self._launch_next_set()
        self._maybe_finish()

    def _launch_next_set(self) -> None:
        if self.next_set >= len(self.sets):
            return
        batch = self.sets[self.next_set]
        self.next_set += 1
        self.in_flight = len(batch)
        for task in batch:
            self._launch(task)

    def after_task_end(self, task: Task, result: TaskState) -> None:
        if result is TaskState.FAILED:
            index = self.grant_retry(task)
            if index is not None:
                # In-place retry: the task stays a member of its set, so
                # in_flight is unchanged and the barrier waits for it.
                delay = self.policy.delay(index)
                if delay > 0:
                    self.cluster.sim.schedule(delay, self._relaunch, task)
                else:
                    self._launch(task)
                return
            self.outcome.failed.append(task)
        self.in_flight -= 1
        if self.in_flight == 0:  # barrier reached
            if self.next_set < len(self.sets):
                if self.set_gap > 0:
                    self.cluster.sim.schedule(self.set_gap, self._barrier_release)
                else:
                    self._launch_next_set()
        self._maybe_finish()

    def _relaunch(self, task: Task) -> None:
        if self.finished:  # walltime hit while backing off
            self.outcome.failed.append(task)
            return
        self._launch(task)

    def _barrier_release(self) -> None:
        if not self.finished:  # the walltime may have killed the job meanwhile
            self._launch_next_set()
            self._maybe_finish()

    def exhausted(self) -> bool:
        return self.next_set >= len(self.sets) and self.in_flight == 0
