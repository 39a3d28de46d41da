"""Vectorized within-allocation fast path (internal).

The event-driven engines in :mod:`repro.savanna._alloc` pay several
Python function calls, one simulator event, and one scalar RNG draw per
task attempt.  For the workloads the figure benches actually run —
single-node bag-of-tasks campaigns with no fault injector — the whole
allocation can instead be simulated *synchronously* inside ``start()``
with a local event queue, batched failure draws, and direct
busy-interval writes, then surfaced to the rest of the stack through a
single simulator event (the early finish) or the scheduler's existing
walltime kill.

There is one vector loop per dispatch policy: :class:`VectorPilotRun`
and :class:`VectorStaticSetRun`.  Whether anything observes the cluster
bus decides only whether that loop records the event batch as it goes.

The contract is **bit-exactness**, not approximation.  A vectorized run
must be indistinguishable from the event-driven run it replaces:

- identical task states, attempt records (start/end/outcome/placement),
  and outcome lists (``attempts``/``completed``/``failed``/``killed``)
  in identical order;
- identical node ``busy_intervals``;
- an identical event stream on the cluster bus when anyone is
  subscribed, emitted once through
  :meth:`~repro.observability.EventBus.publish_batch` with the same
  names, phases, timestamps, field dicts, and sequence numbers the
  per-event path would have produced;
- identical failure-RNG stream consumption, so campaigns that mix
  vectorized and event-driven allocations stay reproducible.  Batched
  ``Generator.exponential`` draws are bit-identical to the equivalent
  scalar draws, so :class:`_FailureDraws` samples speculatively from a
  deep-copied generator and then advances the real stream by exactly
  the number of draws consumed.

Eligibility (:func:`vector_eligible`): no fault injector (its per-launch
``decide`` consults a separate stream and can degrade nodes mid-attempt)
and single-node tasks only.  Everything else — heterogeneous node
speeds, failure sampling, retry policies with backoff and budgets,
timeouts, walltime kills, multi-allocation resume — is handled here.
Tests and benches select the event-driven reference by patching
``vector_eligible`` where :mod:`repro.savanna.pilot` and
:mod:`repro.savanna.static` import it.

The semantic fine print replicated from the event path, for the next
reader who has to extend this: at equal timestamps the walltime-kill
event always wins (it is scheduled before any task event, so it holds a
lower sequence number) — an attempt ending exactly at the deadline is
KILLED; freed nodes re-enter a FIFO free list and survive set barriers;
a retry with no backoff relaunches (static) or requeues (pilot) at once,
inside the failed attempt's end event; killed tasks are finalized in
launch order with busy intervals cut at the deadline; a backoff timer
that outlives its allocation resolves to a terminal failure for that
allocation's outcome without touching task state.
"""

from __future__ import annotations

import copy
from collections import deque
from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import islice
from operator import attrgetter, itemgetter

import numpy as np

from repro.cluster.job import TaskAttempt, TaskState
from repro.observability.events import (
    BEGIN,
    END,
    INSTANT,
    NODE_BUSY,
    NODE_IDLE,
    TASK,
    TASK_REQUEUED,
    TASK_RETRY,
    TASK_TIMEOUT,
)
from repro.resilience.policy import RetryPolicy
from repro.savanna._alloc import PilotRun, StaticSetRun

_DONE = TaskState.DONE
_FAILED = TaskState.FAILED
_KILLED = TaskState.KILLED
_PENDING = TaskState.PENDING
_RUNNING = TaskState.RUNNING

#: Local queue entry kinds.  An end entry is
#: ``(time, seq, _END_EV, task, attempt, node, result, timeout)``, where
#: ``timeout`` is the cap that cut the attempt short, or None.
_END_EV, _REQUEUE_EV, _RELAUNCH_EV = 0, 1, 2

_task_nodes = attrgetter("nodes")


def vector_eligible(cluster, tasks) -> bool:
    """True when the allocation can take the vectorized fast path."""
    if cluster.faults is not None:
        return False
    # set(map(...)) scans at C speed; campaigns hand us tens of
    # thousands of tasks and this runs per allocation.
    counts = set(map(_task_nodes, tasks))
    return not counts or counts == {1}


def _record_launch(rec, task, node, t: float) -> None:
    """Record ``_launch``'s events: ``node.busy``, then the ``task`` begin."""
    index = node.index
    rec((NODE_BUSY, INSTANT, t, {"node": index}))
    rec(
        (
            TASK,
            BEGIN,
            t,
            {
                "task": task.name,
                "task_id": task.task_id,
                "node": index,
                "nodes": [index],
                "attempt": len(task.attempts),
                "payload": dict(task.payload),
            },
        )
    )


def _task_end(task, index: int, t: float, result: TaskState) -> tuple:
    """The ``task`` span's end event, as a batch spec."""
    return (
        TASK,
        END,
        t,
        {"task": task.name, "task_id": task.task_id, "node": index, "outcome": result.value},
    )


def _record_end(rec, task, node, t: float, result: TaskState, timeout) -> None:
    """Record ``_on_task_end``'s events: ``node.idle``, a ``task.timeout``
    when ``timeout`` cut the attempt, then the ``task`` end."""
    index = node.index
    rec((NODE_IDLE, INSTANT, t, {"node": index}))
    if timeout is not None:
        rec(
            (
                TASK_TIMEOUT,
                INSTANT,
                t,
                {"task": task.name, "task_id": task.task_id, "node": index, "timeout": timeout},
            )
        )
    rec(_task_end(task, index, t, result))


def _record_retry(rec, task, t: float, index: int, delay: float) -> None:
    """Record ``grant_retry``'s ``task.retry`` instant."""
    rec(
        (
            TASK_RETRY,
            INSTANT,
            t,
            {"task": task.name, "task_id": task.task_id, "retries": index, "delay": delay},
        )
    )


def _record_requeue(rec, task, t: float, index: int) -> None:
    """Record ``_requeue``'s ``task.requeued`` instant."""
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

    Draws come from a deep copy of the failure model's generator in
    growing batches (batched ``exponential`` is bit-identical to the
    same number of scalar draws); :meth:`commit` then advances the
    *real* generator by exactly the consumed count, leaving its state
    byte-identical to what the event-driven path (one scalar draw per
    launch) would have produced.
    """

    __slots__ = ("_failures", "_scale", "_clone", "_size", "_consumed")

    def __init__(self, failures, hint: int = 64):
        # Caller guarantees failures.mttf is not None.  Replicate the
        # event path's arithmetic exactly: scale = 1.0 / (nodes / mttf)
        # with nodes == 1, which is not always bit-equal to mttf itself.
        hazard = 1 / failures.mttf
        self._scale = 1.0 / hazard
        self._failures = failures
        self._clone = copy.deepcopy(failures._rng)
        self._size = max(8, hint)
        self._consumed = 0

    def refill_list(self) -> list[float]:
        """Next batch of speculative draws as plain Python floats.

        The vector loops walk the list with local index variables and
        report consumption through :meth:`note_consumed`.  ``tolist()``
        converts ``float64`` values exactly, so comparisons against
        durations are bit-identical to the scalar path.
        """
        buf = self._clone.exponential(self._scale, size=self._size)
        self._size = min(self._size * 2, 8192)
        return buf.tolist()

    def note_consumed(self, count: int) -> None:
        """Record draws consumed via :meth:`refill_list` batches."""
        self._consumed += count

    def commit(self) -> None:
        """Advance the real stream by exactly the draws consumed."""
        if self._consumed:
            self._failures._rng.exponential(self._scale, size=self._consumed)


class _VectorAllocationMixin:
    """Synchronous-simulation machinery shared by both vectorized runs."""

    def _vector_setup(self, task_count: int) -> None:
        self._free_nodes = deque(self.alloc.nodes)
        #: The event batch; built only while someone observes the bus.
        self._specs: list | None = [] if self.bus.has_subscribers else None
        failures = self.cluster.failures
        self._draws = (
            _FailureDraws(failures, hint=task_count) if failures.mttf is not None else None
        )
        # Policies that don't override timeout_for (all the built-ins)
        # have a task-independent cap; hoist it out of the launch loop.
        if type(self.policy).timeout_for is RetryPolicy.timeout_for:
            self._timeout_const = True
            self._timeout = self.policy.task_timeout
        else:
            self._timeout_const = False
            self._timeout = None

    def _kill_running(self, remnants, deadline: float) -> None:
        """Finalize the attempts still running at the walltime deadline.

        ``remnants`` are the local queue entries left at the deadline.
        Interrupted attempts finalize in launch order (== local seq
        order).  Events mirror the real kill: the scheduler's node close
        emits ``node.idle`` per still-busy node in allocation order,
        then ``on_walltime_kill`` ends the tasks in launch order.  The
        real deadline event still fires later; it finds nothing running
        (``self.running`` was never populated) and no busy nodes, so it
        is a pure no-op apart from releasing the pool.
        """
        ends = sorted((e for e in remnants if e[2] == _END_EV), key=itemgetter(1))
        specs = self._specs
        if specs is not None and ends:
            busy = {entry[5].index for entry in ends}
            for node in self.alloc.nodes:
                if node.index in busy:
                    specs.append((NODE_IDLE, INSTANT, deadline, {"node": node.index}))
        killed = self.outcome.killed
        for entry in ends:
            task, a, node = entry[3], entry[4], entry[5]
            a.end = deadline
            a.outcome = _KILLED
            task.state = _KILLED
            node.busy_intervals.append((a.start, deadline))
            killed.append(task)
            if specs is not None:
                specs.append(_task_end(task, node.index, deadline, _KILLED))

    def _vector_finalize(self, done_time: float | None) -> None:
        """Commit RNG consumption, publish the batch, arrange the finish."""
        if self._draws is not None:
            self._draws.commit()
        if self._specs:
            self.bus.publish_batch(self._specs)
        self._specs = None
        if done_time is not None:
            self.finished = True
            self.cluster.sim.schedule_at(done_time, self.done_cb)


class VectorPilotRun(_VectorAllocationMixin, PilotRun):
    """Bit-exact synchronous replay of :class:`PilotRun`'s event loop."""

    def start(self) -> None:
        """Simulate the whole allocation now.

        Tuple queue entries, plain-float draw buffers, and no
        running-task dict (interrupted attempts are recovered from the
        queue remnants at the deadline).  When the bus is observed, each
        step also appends the events the event engine would have
        emitted to the batch :meth:`_vector_finalize` publishes.

        The event queue is a sorted list with a read cursor and a
        *lookahead window*, not a binary heap.  No relaunch can finish
        earlier than the shortest task wall, so every event in
        ``[t, t + min_wall)`` is already in the queue: that whole
        contiguous slice is processed without any per-event sift, new
        end times are collected unsorted and merged in one timsort
        (two-run galloping merge) per window.  The window bound is a
        heuristic, never a correctness condition — an entry that does
        land inside the open window (failure-shortened attempt, backoff
        timer) is spliced in at its bisect position.  The ``(time,
        seq)`` tuple prefix gives the identical total order the event
        engine's heap uses.  Inlined on purpose — this loop is the
        simulator's throughput floor, and each method call it sheds is
        ~0.15 µs/task.
        """
        self._vector_setup(len(self.pending))
        sim = self.cluster.sim
        deadline = self.alloc.deadline
        pending = self.pending
        free = self._free_nodes
        q: list[tuple] = []
        qi = 0
        outcome = self.outcome
        attempts_out = outcome.attempts
        completed = outcome.completed
        failed = outcome.failed
        policy = self.policy
        retry_counts = self._retry_counts
        timeout = self._timeout
        timeout_for = None if self._timeout_const else policy.timeout_for
        draws = self._draws
        specs = self._specs
        observed = specs is not None
        rec = specs.append if observed else None
        dbuf: list[float] = []
        dlen = 0
        dpos = 0
        seq = 0
        nrunning = 0
        backing_off = 0
        done_time = None
        # Local rebinds: every attribute lookup shed here is paid once
        # per simulated attempt in the loop below.
        push = insort
        q_push = q.append
        Attempt = TaskAttempt
        pend_pop, pend_push = pending.popleft, pending.append
        free_pop, free_push = free.popleft, free.append
        out_push = attempts_out.append
        done_push = completed.append
        launches_before = len(attempts_out)
        t = sim.now
        while pending and free:
            task = pend_pop()
            node = free_pop()
            task.state = _RUNNING
            a = Attempt(task, [node.index], t)
            task.attempts.append(a)
            out_push(a)
            if observed:
                _record_launch(rec, task, node, t)
            wall = task.duration / node.speed
            result = _DONE
            cut = None
            if draws is not None:
                if dpos == dlen:
                    dbuf = draws.refill_list()
                    dlen = len(dbuf)
                    dpos = 0
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
            q_push((t + wall, seq, _END_EV, task, a, node, result, cut))
            seq += 1
            nrunning += 1
        q.sort()
        # Lookahead window bound: nothing launched at time t can end
        # before t + (shortest duration / fastest node), so that span of
        # the queue is complete and can be drained without sifting.  A
        # constant timeout can only shorten walls, so it tightens the
        # bound.  This is purely a throughput knob: entries that beat it
        # (failure cuts, per-task timeouts, short backoffs) are spliced
        # into the open window at their bisect position.
        sarr = self.cluster.pool.speed_array
        max_speed = float(sarr.max()) if len(sarr) else 1.0
        speed0 = (
            float(sarr[0]) if len(sarr) and bool((sarr == sarr[0]).all()) else None
        )
        bound = min([task.duration for task in pending], default=1.0) / max_speed
        if self._timeout_const and timeout is not None and timeout < bound:
            bound = timeout
        bisect = bisect_left
        while qi < len(q):
            if qi > 4096:  # amortized compaction of the consumed prefix
                del q[:qi]
                qi = 0
            t = q[qi][0]
            if t >= deadline:
                break
            wend = t + bound
            if wend > deadline:
                wend = deadline
            # (wend,) sorts before any (wend, seq, ...) entry, so this
            # is the first event at or past the window end.
            j = bisect(q, (wend,), qi)
            newbuf = []
            new_push = newbuf.append
            # Whole-window batch: when every event in the window is a
            # successful END and none of the replacement launches fails
            # or times out (peeked against the draw stream without
            # consuming it), the window's contents are *closed* — no new
            # entry can land inside it (a relaunch wall is >= the window
            # bound by construction, and the failure cuts that could
            # beat it were just ruled out).  The whole slice then folds
            # with batched numpy wall/end arithmetic and zero splice
            # checks, exactly like the static executor's set batches.
            # An observed run skips it: with every event recorded, the
            # batch measured slower than the per-event path below.
            m = j - qi
            batched = False
            if m > 8 and timeout_for is None and not observed:
                win = q[qi:j]
                for e in win:
                    if e[2] is not _END_EV or e[6] is not _DONE:
                        break
                else:
                    launch_n = min(m, len(pending))
                    walls = None
                    if launch_n:
                        walls = np.fromiter(
                            [task.duration for task in islice(pending, launch_n)],
                            np.float64,
                            launch_n,
                        )
                        if speed0 is not None:
                            if speed0 != 1.0:
                                walls /= speed0
                        else:
                            walls /= np.fromiter(
                                [win[i][5].speed for i in range(launch_n)],
                                np.float64,
                                launch_n,
                            )
                    fits = not launch_n or timeout is None or not bool(
                        (walls > timeout).any()
                    )
                    if fits and launch_n and draws is not None:
                        while dlen - dpos < launch_n:  # peek, don't consume
                            dbuf = dbuf[dpos:]
                            dpos = 0
                            dbuf += draws.refill_list()
                            dlen = len(dbuf)
                        vals = dbuf[dpos : dpos + launch_n]
                        if bool(
                            (np.fromiter(vals, np.float64, launch_n) < walls).any()
                        ):
                            fits = False
                    if fits:
                        batched = True
                        if launch_n:
                            if draws is not None:
                                dpos += launch_n
                            ends_l = (
                                np.fromiter(
                                    [win[i][0] for i in range(launch_n)],
                                    np.float64,
                                    launch_n,
                                )
                                + walls
                            ).tolist()
                        qi = j
                        i = 0
                        for entry in win:
                            te, _s, _k, task, a, node, _r, _c = entry
                            a.end = te
                            a.outcome = _DONE
                            task.state = _DONE
                            node.busy_intervals.append((a.start, te))
                            if i < launch_n:
                                task = pend_pop()
                                task.state = _RUNNING
                                a = Attempt(task, [node.index], te)
                                task.attempts.append(a)
                                out_push(a)
                                new_push(
                                    (ends_l[i], seq, _END_EV, task, a, node, _DONE, None)
                                )
                                seq += 1
                                i += 1
                            else:
                                free_push(node)
                        # Bulk equivalent of the per-event done_push
                        # interleaving — the same completed order.
                        completed.extend(e[3] for e in win)
                        nrunning -= m - launch_n
                        t = win[-1][0]
                        if not nrunning and not pending and not backing_off:
                            done_time = t
            while not batched and qi < j:
                entry = q[qi]
                t = entry[0]
                qi += 1
                if entry[2] == _END_EV:
                    task, a, node, result = entry[3], entry[4], entry[5], entry[6]
                    nrunning -= 1
                    a.end = t
                    a.outcome = result
                    task.state = result
                    node.busy_intervals.append((a.start, t))
                    if observed:
                        _record_end(rec, task, node, t, result, entry[7])
                    if result is _DONE:
                        done_push(task)
                        if pending and not free:
                            # Steady state: the freed node is the FIFO
                            # head, so the next pending task lands on it
                            # directly — no deque round trip, and the
                            # finish check can't pass with a task just
                            # launched.
                            task = pend_pop()
                            task.state = _RUNNING
                            a = Attempt(task, [node.index], t)
                            task.attempts.append(a)
                            out_push(a)
                            if observed:
                                _record_launch(rec, task, node, t)
                            wall = task.duration / node.speed
                            result = _DONE
                            cut = None
                            if draws is not None:
                                if dpos == dlen:
                                    dbuf = draws.refill_list()
                                    dlen = len(dbuf)
                                    dpos = 0
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
                            e = (t + wall, seq, _END_EV, task, a, node, result, cut)
                            seq += 1
                            nrunning += 1
                            if e[0] >= wend:
                                new_push(e)
                            else:  # beat the window: splice in place
                                pos = bisect(q, e, qi)
                                q.insert(pos, e)
                                if pos < j:
                                    j += 1
                            continue
                        free_push(node)
                    else:
                        free_push(node)
                        retries = retry_counts.get(task.task_id, 0)
                        if policy.allows(retries) and self.budget_left():
                            index = retries + 1
                            retry_counts[task.task_id] = index
                            self.allocation_retries += 1
                            delay = policy.delay(index)
                            if observed:
                                _record_retry(rec, task, t, index, delay)
                            if delay > 0:
                                backing_off += 1
                                e = (t + delay, seq, _REQUEUE_EV, task, index)
                                seq += 1
                                if e[0] >= wend:
                                    new_push(e)
                                else:
                                    pos = bisect(q, e, qi)
                                    q.insert(pos, e)
                                    if pos < j:
                                        j += 1
                            else:
                                task.state = _PENDING
                                pend_push(task)
                                if observed:
                                    _record_requeue(rec, task, t, index)
                        else:
                            failed.append(task)
                else:  # _REQUEUE_EV: the backoff timer fired
                    backing_off -= 1
                    task = entry[3]
                    task.state = _PENDING
                    pend_push(task)
                    if observed:
                        _record_requeue(rec, task, t, entry[4])
                while pending and free:
                    task = pend_pop()
                    node = free_pop()
                    task.state = _RUNNING
                    a = Attempt(task, [node.index], t)
                    task.attempts.append(a)
                    out_push(a)
                    if observed:
                        _record_launch(rec, task, node, t)
                    wall = task.duration / node.speed
                    result = _DONE
                    cut = None
                    if draws is not None:
                        if dpos == dlen:
                            dbuf = draws.refill_list()
                            dlen = len(dbuf)
                            dpos = 0
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
                    e = (t + wall, seq, _END_EV, task, a, node, result, cut)
                    seq += 1
                    nrunning += 1
                    if e[0] >= wend:
                        new_push(e)
                    else:
                        pos = bisect(q, e, qi)
                        q.insert(pos, e)
                        if pos < j:
                            j += 1
                if not nrunning and not pending and not backing_off:
                    done_time = t
                    break
            if done_time is not None:
                break
            if newbuf:
                if len(newbuf) < 3:
                    for e in newbuf:
                        push(q, e, qi)
                else:
                    # One two-run galloping merge instead of per-event
                    # sifts: the tail and the sorted new ends.
                    newbuf.sort()
                    tail = q[qi:]
                    tail += newbuf
                    tail.sort()
                    q[qi:] = tail
        if done_time is None:
            # Walltime kill.  Leftover backoff timers were *real*
            # simulator events on the event-driven path, so they are
            # re-materialized as such — each fires after the kill, sees
            # ``finished``, and records a terminal failure (the clock
            # advances identically in both engines).
            remnants = q[qi:]
            self._kill_running(remnants, deadline)
            for entry in remnants:  # already in (time, seq) order
                if entry[2] == _REQUEUE_EV:
                    sim.schedule_at(entry[0], self._requeue, entry[3], entry[4])
        if draws is not None:
            # Exactly one draw is consumed per launch, and every launch
            # appends one attempt — no need for a per-launch counter.
            draws.note_consumed(len(attempts_out) - launches_before)
        self._backing_off = backing_off
        self._vector_finalize(done_time)


class VectorStaticSetRun(_VectorAllocationMixin, StaticSetRun):
    """Bit-exact synchronous replay of :class:`StaticSetRun`'s event loop."""

    def start(self) -> None:
        """Simulate the whole allocation now, set by set.

        The barrier structure makes whole sets vectorizable: a set whose
        attempts all complete (no failure draw, no timeout, no deadline
        crossing) is processed with batched numpy arithmetic — walls and
        end times in one vector op, completion order via a stable
        argsort (ties break by launch order, exactly like the
        ``(time, seq)`` heap) — and never touches an event heap at all.
        A set that *does* interact (failure, timeout, walltime kill)
        falls back to a scalar per-event episode that is bit-exact with
        :class:`~repro.savanna._alloc.StaticSetRun`; batching resumes at
        the next barrier.  Failure draws are *peeked* before committing
        to the fast path so the fallback consumes the identical RNG
        stream one value at a time.  When the bus is observed, both
        paths also append the events the event engine would have
        emitted to the batch :meth:`_vector_finalize` publishes.
        """
        self._vector_setup(sum(len(s) for s in self.sets))
        sim = self.cluster.sim
        deadline = self.alloc.deadline
        free = self._free_nodes
        heap: list[tuple] = []
        outcome = self.outcome
        attempts_out = outcome.attempts
        completed = outcome.completed
        failed = outcome.failed
        policy = self.policy
        retry_counts = self._retry_counts
        timeout = self._timeout
        timeout_for = None if self._timeout_const else policy.timeout_for
        draws = self._draws
        specs = self._specs
        observed = specs is not None
        rec = specs.append if observed else None
        dbuf: list[float] = []
        dlen = 0
        dpos = 0
        sets = self.sets
        nsets = len(sets)
        next_set = self.next_set
        in_flight = self.in_flight
        set_gap = self.set_gap
        seq = 1
        done_time = None
        push, pop = heappush, heappop
        Attempt = TaskAttempt
        free_pop, free_push = free.popleft, free.append
        out_push = attempts_out.append
        done_push = completed.append
        launches_before = len(attempts_out)
        sarr = self.cluster.pool.speed_array
        # Homogeneous pools (the common case) divide by one scalar; the
        # result is bit-identical to per-node division by equal floats.
        speed0 = float(sarr[0]) if len(sarr) and bool((sarr == sarr[0]).all()) else None
        t = sim.now
        while next_set < nsets:
            batch = sets[next_set]
            k = len(batch)
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
            vals = None
            if fast and draws is not None:
                while dlen - dpos < k:  # peek k stream values
                    dbuf = dbuf[dpos:]
                    dpos = 0
                    dbuf += draws.refill_list()
                    dlen = len(dbuf)
                vals = dbuf[dpos : dpos + k]
                if bool((np.fromiter(vals, np.float64, k) < walls).any()):
                    fast = False
            next_set += 1
            if fast:
                if vals is not None:
                    dpos += k
                ends = t + walls
                ends_l = ends.tolist()
                base = len(attempts_out)
                for task, node in zip(batch, assigned):
                    a = Attempt(task, [node.index], t)
                    task.attempts.append(a)
                    out_push(a)
                    if observed:
                        _record_launch(rec, task, node, t)
                atts = attempts_out[base:]
                order = np.argsort(ends, kind="stable").tolist()
                for j in order:  # completion order == (end, launch) order
                    te = ends_l[j]
                    a = atts[j]
                    a.end = te
                    a.outcome = _DONE
                    batch[j].state = _DONE
                    assigned[j].busy_intervals.append((t, te))
                    if observed:
                        _record_end(rec, batch[j], assigned[j], te, _DONE, None)
                # Bulk equivalents of the per-event free_push/done_push
                # interleaving — same sequences, two C-level extends.
                free.extend(assigned[j] for j in order)
                completed.extend(batch[j] for j in order)
                t_last = ends_l[order[-1]]
            else:
                # Scalar episode: replay this set through the event heap.
                in_flight = k
                walls_l = walls.tolist()
                for i, task in enumerate(batch):
                    node = assigned[i]
                    task.state = _RUNNING
                    a = Attempt(task, [node.index], t)
                    task.attempts.append(a)
                    out_push(a)
                    if observed:
                        _record_launch(rec, task, node, t)
                    wall = walls_l[i]
                    result = _DONE
                    cut = None
                    if draws is not None:
                        if dpos == dlen:
                            dbuf = draws.refill_list()
                            dlen = len(dbuf)
                            dpos = 0
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
                t_last = t
                while heap:
                    entry = pop(heap)
                    te = entry[0]
                    if te >= deadline:
                        push(heap, entry)
                        break
                    t_last = te
                    task = entry[3]
                    if entry[2] == _END_EV:
                        a, node, result = entry[4], entry[5], entry[6]
                        a.end = te
                        a.outcome = result
                        task.state = result
                        node.busy_intervals.append((a.start, te))
                        free_push(node)
                        if observed:
                            _record_end(rec, task, node, te, result, entry[7])
                        if result is _DONE:
                            done_push(task)
                            in_flight -= 1
                            continue
                        retries = retry_counts.get(task.task_id, 0)
                        if not (policy.allows(retries) and self.budget_left()):
                            failed.append(task)
                            in_flight -= 1
                            continue
                        index = retries + 1
                        retry_counts[task.task_id] = index
                        self.allocation_retries += 1
                        delay = policy.delay(index)
                        if observed:
                            _record_retry(rec, task, te, index, delay)
                        # In-place retry: the task stays in its set, so
                        # the barrier keeps waiting.
                        if delay > 0:
                            push(heap, (te + delay, seq, _RELAUNCH_EV, task))
                            seq += 1
                            continue
                    # Relaunch: the backoff elapsed, or there was none.
                    node = free_pop()
                    task.state = _RUNNING
                    a = Attempt(task, [node.index], te)
                    task.attempts.append(a)
                    out_push(a)
                    if observed:
                        _record_launch(rec, task, node, te)
                    wall = task.duration / node.speed
                    result = _DONE
                    cut = None
                    if draws is not None:
                        if dpos == dlen:
                            dbuf = draws.refill_list()
                            dlen = len(dbuf)
                            dpos = 0
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
                    push(heap, (te + wall, seq, _END_EV, task, a, node, result, cut))
                    seq += 1
                if heap:  # deadline break: walltime kill handles the rest
                    break
                in_flight = 0
            if next_set >= nsets:
                done_time = t_last
                break
            t = t_last + set_gap
            if t >= deadline:
                # The event path had already scheduled this barrier
                # timer; it outlives the allocation as a real simulator
                # event (fires, sees ``finished``, and is a no-op).
                sim.schedule_at(t, self._barrier_release)
                break
        if done_time is None:
            self._kill_running(heap, deadline)
            for entry in sorted(heap):
                if entry[2] == _RELAUNCH_EV:
                    sim.schedule_at(entry[0], self._relaunch, entry[3])
        if draws is not None:
            draws.note_consumed(len(attempts_out) - launches_before)
        self.next_set = next_set
        self.in_flight = in_flight
        self._vector_finalize(done_time)
