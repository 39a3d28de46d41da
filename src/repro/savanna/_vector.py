"""Within-allocation execution engines (internal).

Both simulated executors share the same mechanics — place a task on free
nodes, consult the fault injector and the failure model, time the end of
the attempt, finalize attempts when the walltime kill arrives — and
differ only in *dispatch*: :class:`VectorPilotRun` pulls the next task
the moment nodes free; :class:`VectorStaticSetRun` launches fixed sets
behind a barrier.  A :class:`~repro.resilience.RetryPolicy` caps any
attempt's wall time, decides whether a failed task gets another try and
after what backoff delay, and bounds total retries per allocation.

Each engine simulates its whole allocation *synchronously* inside
``start()`` with a local ``(time, seq)`` heap and batched failure
draws, then surfaces it through a single simulator event (the early
finish) or the scheduler's existing walltime kill.  Node occupancy is
recorded once, on the attempts: each
:class:`~repro.cluster.job.TaskAttempt` names its nodes, start and end.
The node speeds are read from the allocation's nodes when it starts.
Whether anything observes the cluster bus decides only whether the loop
records the allocation's stream as it goes: one list that holds each
attempt twice, at its launch and at its end, and the rare
``task.retry``, ``task.requeued``, ``task.timeout`` and
``task.fault_injected`` instants as spec tuples.  The finish publishes
it as one :class:`~repro.observability.events.AttemptBlock`, whose
subscribers read the attempts or, if they iterate it, the events they
stand for.

The contract is **bit-exactness** with the per-event reference engine
(one simulator event and one scalar RNG draw per attempt) that the test
suite keeps as its oracle, ``tests/_event_engine.py``: identical task
states, attempt records and outcome lists, in identical order; per-node
busy intervals, as the attempts imply them, identical to those the
oracle books on its nodes; when anyone is subscribed, an identical event
stream (same names, phases, timestamps, field dicts and sequence
numbers), published once through
:meth:`~repro.observability.EventBus.publish_batch`; identical
failure-RNG consumption (see :class:`_FailureDraws`); and identical
fault decisions, because the injector's draw is keyed on (seed, task
name, attempt).  A straggler slows only the attempt it strikes
(``node.speed / slowdown``); an injected crash lands at
``fail_at / speed``; a multi-node attempt runs at its slowest node's
speed.  The single-node, fault-free paths — the pilot's steady-state
hand-off and the static whole-set batch — stay inline: they are the
simulator's throughput floor.  Every other launch goes through
:meth:`_VectorAllocationRun._place`.

The semantic fine print replicated from the event path, for the next
reader who has to extend this: at equal timestamps the walltime-kill
event always wins (it is scheduled before any task event, so it holds a
lower sequence number) — an attempt ending exactly at the deadline is
KILLED; freed nodes re-enter a FIFO free list and survive set barriers;
the pilot places multi-node tasks FIFO with head-of-line blocking; a
retry with no backoff relaunches (static) or requeues (pilot) at once,
inside the failed attempt's end event; killed tasks are finalized in
launch order with their attempts cut at the deadline; a backoff timer
that outlives its allocation resolves to a terminal failure for that
allocation's outcome without touching task state, and a barrier timer
that outlives it does nothing.
"""

from __future__ import annotations

import copy
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter, itemgetter

import numpy as np

from repro.cluster.job import TaskAttempt, TaskState
from repro.observability.events import (
    INSTANT,
    TASK_FAULT_INJECTED,
    TASK_REQUEUED,
    TASK_RETRY,
    TASK_TIMEOUT,
    AttemptBlock,
)
from repro.resilience.policy import RetryPolicy

_DONE = TaskState.DONE
_FAILED = TaskState.FAILED
_KILLED = TaskState.KILLED
_PENDING = TaskState.PENDING
_RUNNING = TaskState.RUNNING

#: Local queue entry kinds.  An end entry is
#: ``(time, seq, kind, task, attempt, node, result, timeout)``: ``kind``
#: is ``_END_EV`` with one node or ``_WIDE_END_EV`` with the attempt's
#: node list, and ``timeout`` is the cap that cut the attempt, or None.
_END_EV, _WIDE_END_EV, _REQUEUE_EV, _RELAUNCH_EV = 0, 1, 2, 3

_task_nodes = attrgetter("nodes")


def _record_timeout(rec, task, index: int, t: float, timeout: float) -> None:
    """Record the ``task.timeout`` instant that precedes a cut attempt's end."""
    rec(
        (
            TASK_TIMEOUT,
            INSTANT,
            t,
            {"task": task.name, "task_id": task.task_id, "node": index, "timeout": timeout},
        )
    )


def _record_requeue(rec, task, t: float, index: int) -> None:
    """Record the pilot's ``task.requeued`` instant."""
    rec(
        (
            TASK_REQUEUED,
            INSTANT,
            t,
            {"task": task.name, "task_id": task.task_id, "retries": index},
        )
    )


class _FailureDraws:
    """Batched failure sampling that preserves the scalar RNG stream.

    Standard exponential draws come from a deep copy of the failure
    model's generator in growing batches.  A launch on ``n`` nodes
    scales its draw by ``1.0 / (n / mttf)``, the scale of the event
    path's scalar ``exponential`` call; numpy computes that call as
    ``scale * standard_exponential()``, so the product is bit-identical.
    ``vals`` holds the draws scaled for one node, which the single-node
    paths read directly; ``unit`` keeps the standard draws only when the
    allocation has multi-node tasks.  Both lists only grow, so one
    cursor, the allocation's launch count, indexes them.  :meth:`commit`
    then advances the *real* generator by exactly the consumed count,
    leaving its state byte-identical to one scalar draw per launch.
    """

    __slots__ = ("_failures", "_clone", "_size", "unit", "vals")

    def __init__(self, failures, hint: int, wide: bool):
        # Caller guarantees failures.mttf is not None.
        self._failures = failures
        self._clone = copy.deepcopy(failures._rng)
        self._size = max(8, hint)
        self.unit: list[float] | None = [] if wide else None
        self.vals: list[float] = []

    def scale(self, nodes: int) -> float:
        """The event path's scale, ``1.0 / hazard``, on ``nodes`` nodes
        (not always bit-equal to ``mttf / nodes``)."""
        return 1.0 / (nodes / self._failures.mttf)

    def ensure(self, count: int) -> int:
        """Draw speculatively until ``count`` values exist; return how
        many do.  ``tolist()`` converts ``float64`` values exactly, so
        comparisons against durations are bit-identical to the scalar
        path."""
        while len(self.vals) < count:
            buf = self._clone.standard_exponential(self._size)
            self._size = min(self._size * 2, 8192)
            if self.unit is not None:
                self.unit += buf.tolist()
            self.vals += (buf * self.scale(1)).tolist()
        return len(self.vals)

    def commit(self, consumed: int) -> None:
        """Advance the real stream by exactly ``consumed`` draws."""
        if consumed:
            self._failures._rng.standard_exponential(consumed)


class _VectorAllocationRun:
    """One allocation's state and retry budget, the general placement,
    the walltime kill and the finish, shared by both dispatch policies."""

    def __init__(self, cluster, alloc, tasks, outcome, done_cb, policy=None):
        self.cluster = cluster
        self.bus = cluster.bus
        self.alloc = alloc
        self.outcome = outcome
        self.done_cb = done_cb
        self.policy = policy if policy is not None else RetryPolicy()
        self.finished = False
        #: retries already spent in this allocation (vs. policy.allocation_budget)
        self.allocation_retries = 0
        self._retry_counts: dict[int, int] = {}
        # A C-speed scan: campaigns hand us tens of thousands of tasks.
        self._widest = max(map(_task_nodes, tasks), default=1)

    def budget_left(self) -> bool:
        """True while this allocation may still spend retries."""
        budget = self.policy.allocation_budget
        return budget is None or self.allocation_retries < budget

    def on_walltime_kill(self) -> None:
        """The scheduler ended the allocation; ``start()`` already
        finalized every attempt the deadline cut."""
        self.finished = True

    def _fail_late(self, task) -> None:
        """A backoff timer that outlived the allocation.  The walltime
        kill always fires first, so the retry is lost: a terminal
        failure of this allocation, with the task's state left alone."""
        self.outcome.failed.append(task)

    def _barrier_late(self) -> None:
        """A barrier timer that outlived the allocation: nothing to launch."""

    def _setup(self, task_count: int) -> None:
        self._free_nodes = deque(self.alloc.nodes)
        # ``Node.speed`` is writable: read the speeds as this allocation
        # starts.  Homogeneous allocations (the common case) divide by
        # one scalar, bit-identical to per-node division by equal floats.
        speeds = [node.speed for node in self.alloc.nodes]
        self._speed0 = speeds[0] if speeds and speeds.count(speeds[0]) == len(speeds) else None
        #: The allocation's stream; recorded only while someone observes the bus.
        self._stream: list | None = [] if self.bus.has_subscribers else None
        failures = self.cluster.failures
        self._draws = None
        if failures.mttf is not None:
            self._draws = _FailureDraws(failures, task_count, self._widest > 1)
        #: Whether the single-node, fault-free inline paths may run.
        self._inline = self.cluster.faults is None and self._widest == 1
        # Policies that don't override timeout_for (all the built-ins)
        # have a task-independent cap; hoist it out of the launch loop.
        self._timeout_const = type(self.policy).timeout_for is RetryPolicy.timeout_for
        self._timeout = self.policy.task_timeout if self._timeout_const else None

    def _place(self, task, t: float, seq: int, i: int) -> tuple:
        """Launch ``task`` at ``t`` on the first free nodes; return its
        end entry.

        The general placement, for any width and with or without a fault
        injector: record the launch, consult the injector, take failure
        draw ``i`` at the task's width, and apply the policy's timeout.
        """
        pop = self._free_nodes.popleft
        width = task.nodes
        if width == 1:
            node = pop()
            indices, speed, wide = [node.index], node.speed, None
        else:
            wide = [pop() for _ in range(width)]
            node = wide[0]
            indices = [other.index for other in wide]
            speed = min([other.speed for other in wide])
        task.state = _RUNNING
        a = TaskAttempt(task, indices, t)
        task.attempts.append(a)
        self.outcome.attempts.append(a)
        attempt = len(task.attempts)
        stream = self._stream
        if stream is not None:
            stream.append(a)
        faults = self.cluster.faults
        decision = None if faults is None else faults.decide(task.name, attempt, task.duration)
        if decision is not None:
            if stream is not None:
                fields = dict(
                    task=task.name, task_id=task.task_id, node=node.index, kind=decision.kind,
                    attempt=attempt, fail_at=decision.fail_at, slowdown=decision.slowdown,
                )
                stream.append((TASK_FAULT_INJECTED, INSTANT, t, fields))
            if decision.slowdown > 1.0:  # a straggler slows only this attempt
                speed /= decision.slowdown
        elapsed = wall = task.duration / speed
        fail_at = None
        draws = self._draws
        if draws is not None:
            if i >= len(draws.vals):
                draws.ensure(i + 1)
            drawn = draws.vals[i] if wide is None else draws.unit[i] * draws.scale(width)
            if drawn < wall:
                fail_at = drawn
        if decision is not None and decision.fail_at is not None:
            # The crash lands at the same *fraction* of the attempt
            # whatever the nodes' speed.
            injected = decision.fail_at / speed
            fail_at = injected if fail_at is None else min(fail_at, injected)
        result = _DONE
        if fail_at is not None:
            elapsed, result = fail_at, _FAILED
        timeout = self._timeout if self._timeout_const else self.policy.timeout_for(task)
        cut = None
        if timeout is not None and timeout < elapsed:
            elapsed = cut = timeout
            result = _FAILED
        if wide is None:
            return (t + elapsed, seq, _END_EV, task, a, node, result, cut)
        return (t + elapsed, seq, _WIDE_END_EV, task, a, wide, result, cut)

    def _free_wide(self, entry, t: float) -> None:
        """Release a multi-node attempt's nodes at ``t``, in placement
        order, and record its end."""
        nodes = entry[5]
        self._free_nodes.extend(nodes)
        stream = self._stream
        if stream is not None:
            if entry[7] is not None:
                _record_timeout(stream.append, entry[3], nodes[0].index, t, entry[7])
            stream.append(entry[4])

    def _retry(self, task, t: float) -> tuple | None:
        """Spend a retry on ``task``, whose attempt failed at ``t``.

        Returns ``(index, delay)``: the 1-based retry index and the
        policy's backoff delay, recorded as a ``task.retry`` instant.
        Returns None when the per-task or per-allocation budget is spent,
        after counting the task as a terminal failure of this allocation.
        """
        retries = self._retry_counts.get(task.task_id, 0)
        policy = self.policy
        if not (policy.allows(retries) and self.budget_left()):
            self.outcome.failed.append(task)
            return None
        index = retries + 1
        self._retry_counts[task.task_id] = index
        self.allocation_retries += 1
        delay = policy.delay(index)
        if self._stream is not None:
            fields = {"task": task.name, "task_id": task.task_id, "retries": index, "delay": delay}
            self._stream.append((TASK_RETRY, INSTANT, t, fields))
        return index, delay

    def _kill_running(self, remnants: list) -> None:
        """The walltime kill, from the local queue entries left at the
        deadline.

        The attempts still running end KILLED at the deadline in launch
        order (== local seq order), as the per-event engine's kill ends
        them; the real deadline event still fires later and finds
        nothing running.  A backoff timer left over was a *real*
        simulator event on the event-driven path, so it is
        re-materialized as one, in ``(time, seq)`` order (the clock
        advances identically in both engines), and resolves through
        :meth:`_fail_late`.
        """
        deadline = self.alloc.deadline
        stream = self._stream
        killed = self.outcome.killed
        for entry in sorted(remnants, key=itemgetter(1)):
            if entry[2] <= _WIDE_END_EV:
                task, a = entry[3], entry[4]
                a.end = deadline
                a.outcome = _KILLED
                task.state = _KILLED
                killed.append(task)
                if stream is not None:
                    stream.append(a)
        schedule_at = self.cluster.sim.schedule_at
        for entry in sorted(remnants):
            if entry[2] > _WIDE_END_EV:
                schedule_at(entry[0], self._fail_late, entry[3])

    def _finalize(self, done_time: float | None) -> None:
        """Commit RNG consumption, publish the stream, arrange the finish."""
        if self._draws is not None:
            # One draw per launch, and every launch appends one attempt
            # to this allocation's own outcome.
            self._draws.commit(len(self.outcome.attempts))
        if self._stream:
            self.bus.publish_batch(AttemptBlock(self._stream, self.outcome.attempts))
        self._stream = None
        if done_time is not None:
            self.finished = True
            self.cluster.sim.schedule_at(done_time, self.done_cb)


class VectorPilotRun(_VectorAllocationRun):
    """Savanna's dynamic pilot: greedy FIFO pull onto freed nodes.

    Failed tasks re-enter the pending queue after the policy's backoff
    delay, up to the per-task and per-allocation retry budgets.  A
    multi-node task at the head of the queue waits until enough nodes
    are free (head-of-line blocking).
    """

    def __init__(self, cluster, alloc, tasks, outcome, done_cb, policy=None):
        super().__init__(cluster, alloc, tasks, outcome, done_cb, policy=policy)
        width = len(alloc.nodes)
        if self._widest > width:
            # A task wider than the allocation can never be placed here.
            # It stays PENDING instead of holding the queue head, which
            # would starve every task behind it until the walltime.
            tasks = [task for task in tasks if task.nodes <= width]
        self.pending = deque(tasks)

    def start(self) -> None:
        """Simulate the whole allocation now.

        One local binary heap of ``(time, seq, ...)`` tuples orders the
        allocation's events in the total order the event engine's heap
        gives them.  There is no running-task dict: interrupted attempts
        are recovered from the heap's remnants at the deadline.  In
        steady state, a single-node, fault-free attempt that ends DONE
        while tasks wait and no other node is free hands its node
        straight to the next pending task; every other launch goes
        through :meth:`_place`.  When the bus is observed, each step
        also appends what it launched, ended or granted to the stream
        :meth:`_finalize` publishes.  Inlined on purpose: this loop is
        the simulator's throughput floor.
        """
        self._setup(len(self.pending))
        deadline = self.alloc.deadline
        pending = self.pending
        free = self._free_nodes
        heap: list[tuple] = []
        timeout = self._timeout
        timeout_for = None if self._timeout_const else self.policy.timeout_for
        inline = self._inline
        place = self._place
        draws = self._draws
        dbuf = draws.vals if draws is not None else []
        dlen = 0
        dpos = 0
        stream = self._stream
        observed = stream is not None
        rec = stream.append if observed else None
        seq = 0
        # Local rebinds: every attribute lookup shed here is paid once
        # per simulated attempt in the loop below.
        push, pop = heappush, heappop
        Attempt = TaskAttempt
        pend_pop, pend_push = pending.popleft, pending.append
        free_push = free.append
        out_push = self.outcome.attempts.append
        done_push = self.outcome.completed.append
        t = self.cluster.sim.now
        while pending and pending[0].nodes <= len(free):
            push(heap, place(pend_pop(), t, seq, dpos))
            seq += 1
            dpos += 1
        # Every running attempt and backoff timer is one heap entry, and
        # a task waits only while another runs: an empty heap is the
        # finish.
        while heap:
            entry = pop(heap)
            t = entry[0]
            if t >= deadline:
                push(heap, entry)
                break
            kind = entry[2]
            if kind == _REQUEUE_EV:  # the backoff timer fired
                task = entry[3]
                task.state = _PENDING
                pend_push(task)
                if observed:
                    _record_requeue(rec, task, t, entry[4])
            else:
                task, a, node, result = entry[3], entry[4], entry[5], entry[6]
                a.end = t
                a.outcome = result
                task.state = result
                if kind == _END_EV:
                    if observed:
                        if entry[7] is not None:
                            _record_timeout(rec, task, node.index, t, entry[7])
                        rec(a)
                    if result is _DONE and inline and pending and not free:
                        # Steady state: the freed node is the FIFO head,
                        # so the next pending task lands on it directly,
                        # with no deque round trip.
                        done_push(task)
                        task = pend_pop()
                        task.state = _RUNNING
                        a = Attempt(task, [node.index], t)
                        task.attempts.append(a)
                        out_push(a)
                        if observed:
                            rec(a)
                        wall = task.duration / node.speed
                        result = _DONE
                        cut = None
                        if draws is not None:
                            if dpos >= dlen:
                                dlen = draws.ensure(dpos + 1)
                            fail_at = dbuf[dpos]
                            dpos += 1
                            if fail_at < wall:
                                wall = fail_at
                                result = _FAILED
                        if timeout_for is not None:
                            timeout = timeout_for(task)
                        if timeout is not None and timeout < wall:
                            wall = cut = timeout
                            result = _FAILED
                        push(heap, (t + wall, seq, _END_EV, task, a, node, result, cut))
                        seq += 1
                        continue
                    free_push(node)
                else:
                    self._free_wide(entry, t)
                if result is _DONE:
                    done_push(task)
                else:
                    granted = self._retry(task, t)
                    if granted is not None:
                        index, delay = granted
                        if delay > 0:
                            push(heap, (t + delay, seq, _REQUEUE_EV, task, index))
                            seq += 1
                        else:
                            task.state = _PENDING
                            pend_push(task)
                            if observed:
                                _record_requeue(rec, task, t, index)
            while pending and pending[0].nodes <= len(free):
                push(heap, place(pend_pop(), t, seq, dpos))
                seq += 1
                dpos += 1
        if heap:  # the deadline came first
            self._kill_running(heap)
        self._finalize(None if heap else t)


class VectorStaticSetRun(_VectorAllocationRun):
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
        self, cluster, alloc, tasks, outcome, done_cb, set_gap: float = 0.0, policy=None
    ):
        super().__init__(cluster, alloc, tasks, outcome, done_cb, policy=policy)
        self.set_gap = set_gap
        self.sets = self._partition(tasks, len(alloc.nodes))

    @staticmethod
    def _partition(tasks: list, width: int) -> list[list]:
        """Chunk ``tasks``, in order, into sets whose node counts fit ``width``."""
        # Bag-of-tasks campaigns (every task single-node) partition by
        # plain slicing — C-speed membership scan instead of a Python
        # loop over what may be tens of thousands of tasks.
        if set(map(_task_nodes, tasks)) == {1}:
            return [tasks[i : i + width] for i in range(0, len(tasks), width)]
        sets: list[list] = []
        current: list = []
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
        """Simulate the whole allocation now, set by set.

        The barrier structure makes whole sets vectorizable: a set of
        single-node attempts that all complete (no fault injector, no
        failure draw, no timeout, no deadline crossing) is processed with
        batched numpy arithmetic — walls and end times in one vector op,
        completion order via a stable argsort (ties break by launch
        order, exactly like the ``(time, seq)`` heap) — and never
        touches an event heap at all.  Any other set falls back to a
        scalar per-event episode through :meth:`_place`; batching
        resumes at the next barrier.  Failure draws are *peeked* before
        committing to the fast path so the fallback consumes the
        identical RNG stream one value at a time.  When the bus is
        observed, both paths also append what they launched, ended or
        granted to the stream :meth:`_finalize` publishes.
        """
        self._setup(sum(map(len, self.sets)))
        sim = self.cluster.sim
        deadline = self.alloc.deadline
        free = self._free_nodes
        heap: list[tuple] = []
        attempts_out = self.outcome.attempts
        completed = self.outcome.completed
        timeout = self._timeout
        timeout_for = None if self._timeout_const else self.policy.timeout_for
        inline = self._inline
        place = self._place
        free_wide = self._free_wide
        draws = self._draws
        dbuf = draws.vals if draws is not None else []
        dlen = 0
        dpos = 0
        stream = self._stream
        observed = stream is not None
        rec = stream.append if observed else None
        set_gap = self.set_gap
        seq = 1
        done_time = None
        push, pop = heappush, heappop
        Attempt = TaskAttempt
        free_pop, free_push = free.popleft, free.append
        out_push = attempts_out.append
        done_push = completed.append
        speed0 = self._speed0
        t = sim.now
        nsets = len(self.sets)
        for number, batch in enumerate(self.sets, 1):
            k = len(batch)
            fast = False
            if inline:
                assigned = [free_pop() for _ in range(k)]
                walls = np.fromiter([task.duration for task in batch], np.float64, k)
                if speed0 is not None:
                    if speed0 != 1.0:
                        walls /= speed0
                else:
                    walls /= np.fromiter([n.speed for n in assigned], np.float64, k)
                max_wall = float(walls.max())
                # Whole-set fast path: every attempt must complete strictly
                # before the deadline with no timeout and no failure draw.
                fast = (
                    timeout_for is None
                    and (timeout is None or max_wall <= timeout)
                    and t + max_wall < deadline
                )
                if fast and draws is not None:
                    if dlen - dpos < k:  # peek k stream values
                        dlen = draws.ensure(dpos + k)
                    vals = dbuf[dpos : dpos + k]
                    fast = not bool((np.fromiter(vals, np.float64, k) < walls).any())
                if not fast:
                    free.extendleft(reversed(assigned))
            if fast:
                dpos += k
                ends = t + walls
                ends_l = ends.tolist()
                base = len(attempts_out)
                for task, node in zip(batch, assigned):
                    a = Attempt(task, [node.index], t)
                    task.attempts.append(a)
                    out_push(a)
                atts = attempts_out[base:]
                if observed:
                    stream.extend(atts)
                order = np.argsort(ends, kind="stable").tolist()
                for j in order:  # completion order == (end, launch) order
                    te = ends_l[j]
                    a = atts[j]
                    a.end = te
                    a.outcome = _DONE
                    batch[j].state = _DONE
                    if observed:
                        rec(a)
                # Bulk equivalents of the per-event free_push/done_push
                # interleaving — same sequences, two C-level extends.
                free.extend(assigned[j] for j in order)
                completed.extend(batch[j] for j in order)
                t_last = ends_l[order[-1]]
            else:
                # Scalar episode: replay this set through the event heap.
                for task in batch:
                    push(heap, place(task, t, seq, dpos))
                    seq += 1
                    dpos += 1
                t_last = t
                while heap:
                    entry = pop(heap)
                    te = entry[0]
                    if te >= deadline:
                        push(heap, entry)
                        break
                    t_last = te
                    task = entry[3]
                    kind = entry[2]
                    if kind != _RELAUNCH_EV:
                        a, node, result = entry[4], entry[5], entry[6]
                        a.end = te
                        a.outcome = result
                        task.state = result
                        if kind == _END_EV:
                            free_push(node)
                            if observed:
                                if entry[7] is not None:
                                    _record_timeout(rec, task, node.index, te, entry[7])
                                rec(a)
                        else:
                            free_wide(entry, te)
                        if result is _DONE:
                            done_push(task)
                            continue
                        granted = self._retry(task, te)
                        if granted is None:
                            continue
                        # In-place retry: the task stays in its set, so
                        # the barrier keeps waiting.
                        delay = granted[1]
                        if delay > 0:
                            push(heap, (te + delay, seq, _RELAUNCH_EV, task))
                            seq += 1
                            continue
                    # Relaunch: the backoff elapsed, or there was none.
                    push(heap, place(task, te, seq, dpos))
                    seq += 1
                    dpos += 1
                if heap:  # deadline break: walltime kill handles the rest
                    break
            if number == nsets:
                done_time = t_last
                break
            t = t_last + set_gap
            if t >= deadline:
                # The event path had already scheduled this barrier
                # timer; it outlives the allocation as a real simulator
                # event (fires after the kill and does nothing).
                sim.schedule_at(t, self._barrier_late)
                break
        if done_time is None:
            self._kill_running(heap)
        self._finalize(done_time)
