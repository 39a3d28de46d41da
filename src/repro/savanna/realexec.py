"""Real execution engine: genuine Python work behind the manifest boundary.

The manifest layer exists so "existing workflow tools that provide
efficient implementations for workflow patterns such as bag-of-tasks" can
be swapped in behind the campaign abstraction (§IV).  This module is the
production face of that promise: one engine, two pools —

- ``pool="threads"`` — a :class:`concurrent.futures.ThreadPoolExecutor`;
  right when the workload releases the GIL (numpy kernels, I/O).
- ``pool="processes"`` — one worker process per slot, each on its own
  duplex :func:`multiprocessing.Pipe`; right when the workload is
  CPU-bound Python that *holds* the GIL.  Task specs are picklable by
  construction and the app callable must be too (a module-level
  function, not a lambda or closure).

Both pools show the engine one small interface (``submit`` an attempt
to a slot, ``wait`` for finished attempts, ``shutdown``, ``pids`` for
the profiler).  The engine never has more than one attempt in flight per
slot, so the process pool needs no queue: the driver sends
``(app_fn, spec)`` down an idle slot's pipe, waits on the busy pipes and
their workers' process sentinels with
:func:`multiprocessing.connection.wait`, and receives either the
attempt's outcome or the ``BaseException`` the app raised.  Each outcome
is pickled once, in the worker; one whose return value does not pickle
comes back as a failed attempt naming the value's type.

A worker's lifecycle: it starts (with the default start method) on its
slot's first call, closes the driver-side pipe ends it inherited from a
fork, then serves calls until the driver sends it a stop message or goes
away.  Worker starts are serialized process-wide, so a fork made for one
pool never copies another pool's half-made pipe.  If the driver dies,
even by SIGKILL, each worker reads end-of-file or a broken pipe once its
current call returns, and exits.  If a worker dies mid-attempt
(``os._exit``, a segfault, the OOM killer), its sentinel wakes the
driver, only that attempt fails, with a ``WorkerLost`` error naming the
process; the retry policy decides whether it runs again, and the slot
starts a fresh worker for its next call.

Unlike the original side-door thread runner, the engine speaks the same
language as the simulated backends: it enforces a
:class:`~repro.resilience.RetryPolicy` (backoff delays, per-attempt
timeouts, allocation retry budgets), and it narrates itself on an
:class:`~repro.observability.EventBus` with the standard
``campaign``/``alloc``/``task`` span taxonomy over *wall-clock* time
(worker slots stand in for nodes), so checkpoint journaling and trace
analytics work on real runs exactly as on simulated ones.  Drive it
through :func:`repro.savanna.drive.execute_manifest` with
``backend="local-threads"`` or ``backend="local-processes"``.

Determinism: every run gets a seed derived from the engine's base seed
and its ``run_id`` alone (:func:`seed_for_run`); the worker seeds
``random`` and numpy's legacy global RNG before calling the app, so a
campaign executed twice — or resumed on a different pool — reproduces
per-run randomness exactly.

Cancellation: ``KeyboardInterrupt`` is caught, no further attempt is
started, one ``campaign.interrupted`` instant is emitted, and the
partial results come back with ``status="interrupted"`` on everything
unfinished — a resumed drive re-queues exactly those runs.  The same
graceful path is reachable programmatically: pass
``cancel=threading.Event()`` (or any zero-argument truth test) to
:meth:`RealExecutor.execute` and set it from another thread — this is
how :class:`repro.savanna.service.CampaignService` cancels a running
submission without owning the executing thread.

Caveat (documented, not hidden): a *running* attempt cannot be killed
mid-flight by either pool, so a timed-out attempt is marked failed and
its worker slot is reclaimed only when the stale call actually returns.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import random
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import Any, Callable
from zlib import crc32

from repro._util import check_positive
from repro.cheetah.manifest import CampaignManifest
from repro.observability import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    CAMPAIGN_INTERRUPTED,
    END,
    INSTANT,
    TASK,
    TASK_RETRY,
    TASK_TIMEOUT,
    EventBus,
)
from repro.resilience.policy import RetryPolicy, as_policy

#: Pool kinds the engine accepts.
POOLS = ("threads", "processes")

#: How often (seconds) the engine loop re-checks an external ``cancel=``
#: signal while blocked waiting on in-flight calls.
_CANCEL_POLL_INTERVAL = 0.05


class CampaignCancelled(BaseException):
    """Internal control-flow signal: an external ``cancel=`` fired.

    A ``BaseException`` (like ``KeyboardInterrupt``, whose graceful
    shutdown path it shares) so an app callable's blanket ``except
    Exception`` cannot swallow a cancellation.  Never escapes
    :meth:`RealExecutor.execute` — callers observe
    ``result.interrupted`` instead.
    """


def seed_for_run(base_seed: int, run_id: str) -> int:
    """Deterministic per-run seed from the base seed and the run id alone.

    Stable across processes, pools, and resumes (no wall-clock entropy,
    no hash randomization) — the contract the paper's reproducibility
    gauges require of anything calling itself deterministic.
    """
    return crc32(f"{base_seed}:{run_id}".encode()) & 0x7FFFFFFF


def wall_clock_bus(name: str = "realexec") -> EventBus:
    """An :class:`EventBus` clocked by wall time, zeroed at creation.

    Real executions have no simulator to clock their bus; this gives the
    trace a meaningful time base (seconds since the drive started) so
    span durations are real elapsed seconds.
    """
    t0 = time.monotonic()
    return EventBus(clock=lambda: time.monotonic() - t0, name=name)


@dataclass(frozen=True)
class RealTaskSpec:
    """Picklable description of one attempt — everything a worker needs.

    Frozen so an instance can cross the process boundary and be reused
    (``dataclasses.replace`` mints the next attempt).
    """

    run_id: str
    parameters: dict
    seed: int
    attempt: int = 1
    #: Correlation id of the owning execution — crosses the process
    #: boundary with the spec and is round-tripped through the worker's
    #: :class:`_AttemptOutcome`, so a ``task`` END event's trace id is
    #: proof the *worker* saw it, not just the driver.
    trace_id: str | None = None

    def ensure_picklable(self) -> None:
        """Raise ``TypeError`` naming the offending parameter when this
        spec cannot cross a process boundary.

        A bare ``pickle.dumps(spec)`` failure reports only the leaf type
        (``cannot pickle '_thread.lock' object``), forcing a bisection
        over the parameter dict; this probes each value individually so
        the error says *which* key to fix.
        """
        try:
            pickle.dumps(self)
            return
        except Exception as exc:  # noqa: BLE001 - re-raised with context below
            cause = exc
        offenders = []
        for key, value in sorted(self.parameters.items()):
            try:
                pickle.dumps(value)
            except Exception:  # noqa: BLE001 - the probe *is* the test
                offenders.append(f"{key!r} ({type(value).__module__}.{type(value).__qualname__})")
        detail = (
            f"unpicklable parameter(s) {', '.join(offenders)}"
            if offenders
            else f"spec does not pickle: {cause}"
        )
        raise TypeError(
            f"run {self.run_id!r}: {detail}; pool='processes' requires every "
            "parameter value to pickle (use pool='threads' or pass "
            "picklable handles instead)"
        ) from cause


@dataclass
class LocalRunResult:
    """Outcome of one really-executed run."""

    run_id: str
    status: str  # "done" | "failed" | "interrupted"
    value: Any = None
    error: str | None = None
    elapsed: float = 0.0
    #: Full ``traceback.format_exc()`` of the failing attempt — a failed
    #: real run must be debuggable, not summarized to one line.
    traceback: str | None = None
    attempts: int = 1
    seed: int | None = None


@dataclass
class RealCampaignResult:
    """Aggregate outcome of one real campaign execution."""

    results: dict = field(default_factory=dict)  # {run_id: LocalRunResult}
    interrupted: bool = False
    elapsed: float = 0.0
    pool: str = "threads"

    @property
    def completed(self) -> list:
        return [r for r in self.results.values() if r.status == "done"]

    @property
    def failed(self) -> list:
        return [r for r in self.results.values() if r.status == "failed"]

    @property
    def unfinished(self) -> list:
        return [r for r in self.results.values() if r.status == "interrupted"]

    def statuses(self) -> dict:
        return {run_id: r.status for run_id, r in self.results.items()}

    def values(self) -> dict:
        """``{run_id: value}`` for the completed runs."""
        return {rid: r.value for rid, r in self.results.items() if r.status == "done"}

    @property
    def all_done(self) -> bool:
        """True when every run is done — vacuously for an empty result (a
        fully resumed group), as :attr:`CampaignResult.all_done` is."""
        return all(r.status == "done" for r in self.results.values())

    def summary(self) -> str:
        parts = [
            f"{len(self.completed)}/{len(self.results)} runs done",
            f"{len(self.failed)} failed",
        ]
        if self.unfinished:
            parts.append(f"{len(self.unfinished)} interrupted")
        return f"{', '.join(parts)} on {self.pool} in {self.elapsed:.2f}s wall"


@dataclass
class _AttemptOutcome:
    """What one worker call reports back (picklable by construction)."""

    run_id: str
    ok: bool
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    elapsed: float = 0.0
    #: ``spec.trace_id`` echoed back from inside the worker.
    trace_id: str | None = None


def _run_attempt(app_fn, spec: RealTaskSpec) -> _AttemptOutcome:
    """Worker entry point: execute one attempt.  Catches ``Exception``
    (never ``KeyboardInterrupt``) so a failing run reports instead of
    raising — process workers mangle remote tracebacks otherwise."""
    random.seed(spec.seed)
    try:  # numpy is the dominant science dependency; seed it when present
        import numpy

        numpy.random.seed(spec.seed % (2**32))
    except ImportError:  # pragma: no cover - numpy ships with this repo
        pass
    t0 = time.perf_counter()
    try:
        value = app_fn(dict(spec.parameters))
        return _AttemptOutcome(
            run_id=spec.run_id,
            ok=True,
            value=value,
            elapsed=time.perf_counter() - t0,
            trace_id=spec.trace_id,
        )
    except Exception as exc:  # noqa: BLE001 - per-run fault isolation
        return _AttemptOutcome(
            run_id=spec.run_id,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            elapsed=time.perf_counter() - t0,
            trace_id=spec.trace_id,
        )


@dataclass
class _Inflight:
    """Book-keeping for one submitted attempt."""

    spec: RealTaskSpec
    slot: int
    task_id: int  # of the open task span
    deadline: float | None  # monotonic seconds, None = uncapped
    timeout: float | None  # the per-attempt cap that set the deadline


class WorkerLost(RuntimeError):
    """A worker process died in the middle of an attempt."""


class _ThreadSlots:
    """``pool="threads"``: a thread pool behind the slot interface."""

    def __init__(self, slots: int):
        self._executor = ThreadPoolExecutor(max_workers=slots, thread_name_prefix="realexec")
        self._busy: dict = {}  # {future: slot}

    def submit(self, slot: int, app_fn, spec: RealTaskSpec) -> None:
        self._busy[self._executor.submit(_run_attempt, app_fn, spec)] = slot

    def wait(self, timeout: float | None) -> list:
        """``[(slot, ok, value or raised exception)]`` for every call that
        returned within ``timeout`` seconds (``None``: until one does)."""
        done, _ = wait(self._busy, timeout=timeout, return_when=FIRST_COMPLETED)
        replies = []
        for future in done:
            exc = future.exception()
            reply = future.result() if exc is None else exc
            replies.append((self._busy.pop(future), exc is None, reply))
        return replies

    def shutdown(self, wait: bool) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def pids(self) -> dict:
        """``{label: pid}`` to profile: every thread shares the driver."""
        return {"driver": os.getpid()}


#: Driver ends of every live worker pipe in this process.  A worker
#: forked from the driver closes its copies of all of them, so that a
#: dead driver leaves its workers reading end-of-file, not blocking on a
#: pipe that a sibling worker still holds open.
_DRIVER_ENDS: set = set()
#: Guards ``_DRIVER_ENDS`` and makes starting a worker one step, so that
#: a fork made for one pool (a campaign service drives pools on several
#: threads) never copies another pool's half-made pipe: a worker end not
#: yet closed in the driver, or a driver end not yet in ``_DRIVER_ENDS``.
_START_LOCK = threading.Lock()


def _serve(conn) -> None:
    """A worker process: run each attempt ``(app_fn, spec)`` received on
    ``conn`` and send back ``(True, outcome)`` or ``(False, the
    BaseException the app raised)``, until a ``None`` call or the
    driver's end of the pipe goes away."""
    global _START_LOCK
    _START_LOCK = threading.Lock()  # the fork copied it held; an app may start a pool
    for inherited in list(_DRIVER_ENDS):
        inherited.close()
    _DRIVER_ENDS.clear()
    while True:
        try:
            call = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):  # the driver is gone
            return
        if call is None:
            return
        app_fn, spec = call
        try:
            outcome = _run_attempt(app_fn, spec)
        except BaseException as exc:  # noqa: BLE001 - the driver re-raises it
            reply = pickle.dumps((False, exc))
        else:
            try:
                reply = pickle.dumps((True, outcome))
            except Exception as exc:  # noqa: BLE001 - the value does not pickle
                reply = pickle.dumps((True, _unpicklable(spec, outcome, exc)))
        try:
            conn.send_bytes(reply)
        except OSError:  # the driver is gone
            return


def _unpicklable(spec: RealTaskSpec, outcome: _AttemptOutcome, cause) -> _AttemptOutcome:
    """The failed outcome of an attempt whose return value does not pickle."""
    value = outcome.value
    try:
        raise TypeError(
            f"run {spec.run_id!r}: unpicklable return value "
            f"({type(value).__module__}.{type(value).__qualname__}); "
            "pool='processes' requires picklable results"
        ) from cause
    except TypeError as exc:
        return replace(
            outcome,
            ok=False,
            value=None,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def _close_driver_end(driver_end) -> None:
    with _START_LOCK:
        _DRIVER_ENDS.discard(driver_end)
        driver_end.close()


class _ProcessSlots:
    """``pool="processes"``: one worker process and pipe per slot, each
    started on its slot's first call."""

    def __init__(self, slots: int):
        self._workers: list = [None] * slots  # (process, driver end) per slot
        self._busy: dict = {}  # {driver end or worker sentinel: slot}
        self._ready: list = []  # replies settled without a round trip

    def _start(self, slot: int) -> tuple:
        with _START_LOCK:
            driver_end, worker_end = multiprocessing.Pipe()
            _DRIVER_ENDS.add(driver_end)
            process = multiprocessing.Process(
                target=_serve, args=(worker_end,), name=f"realexec-{slot}"
            )
            process.start()
            worker_end.close()
        self._workers[slot] = (process, driver_end)
        return process, driver_end

    def _lost(self, slot: int) -> WorkerLost:
        """Reap a slot's dead worker; the slot's next call starts a fresh one."""
        process, driver_end = self._workers[slot]
        self._workers[slot] = None
        _close_driver_end(driver_end)
        process.join(timeout=1.0)
        if process.exitcode is None:  # alive, but its end of the pipe is closed
            process.kill()
            process.join()
        return WorkerLost(
            f"worker process {process.pid} (slot {slot}) died mid-attempt "
            f"with exit code {process.exitcode}"
        )

    def submit(self, slot: int, app_fn, spec: RealTaskSpec) -> None:
        process, driver_end = self._workers[slot] or self._start(slot)
        try:
            driver_end.send((app_fn, spec))
        except OSError:  # the idle worker died
            self._ready.append((slot, False, self._lost(slot)))
        except Exception as exc:  # noqa: BLE001 - the call does not pickle
            self._ready.append((slot, False, exc))
        else:
            self._busy[driver_end] = self._busy[process.sentinel] = slot

    def wait(self, timeout: float | None) -> list:
        """``[(slot, ok, value or raised exception)]`` for every call that
        returned within ``timeout`` seconds (``None``: until one does).

        A busy worker's exit is seen on its process sentinel too, not only
        as end-of-file on its pipe, which never comes while some other
        process (a fork made elsewhere in the driver) holds the pipe's
        worker end."""
        if self._ready:
            replies, self._ready = self._ready, []
            return replies
        replies = []
        ready = connection.wait(list(self._busy), timeout)
        for slot in {self._busy[handle] for handle in ready}:
            process, driver_end = self._workers[slot]
            del self._busy[driver_end], self._busy[process.sentinel]
            try:
                if driver_end not in ready and not driver_end.poll():
                    raise EOFError  # the worker exited without a reply
                replies.append((slot, *driver_end.recv()))
            except (EOFError, OSError):
                replies.append((slot, False, self._lost(slot)))
            except Exception as exc:  # noqa: BLE001 - the reply does not unpickle here
                replies.append((slot, False, exc))
        return replies

    def shutdown(self, wait: bool) -> None:
        """Stop every worker.  ``wait=False`` leaves a busy worker to
        finish its call; it then finds the driver's end closed and exits."""
        workers = [worker for worker in self._workers if worker is not None]
        self._workers = [None] * len(self._workers)
        self._busy.clear()
        for _, driver_end in workers:
            try:
                driver_end.send(None)
            except OSError:  # already gone
                pass
        for process, driver_end in workers:
            if wait:
                process.join()
            _close_driver_end(driver_end)

    def pids(self) -> dict:
        """``{label: pid}`` to profile: one per started worker process."""
        return {
            f"worker-{worker[0].pid}": worker[0].pid
            for worker in list(self._workers)
            if worker is not None
        }


_SLOT_POOLS = {"threads": _ThreadSlots, "processes": _ProcessSlots}


class RealExecutor:
    """Execute every run of a manifest by calling ``app_fn(parameters)``.

    Parameters
    ----------
    max_workers:
        Concurrent worker slots (threads or processes).
    pool:
        ``"threads"`` or ``"processes"`` (see module docstring for when
        each wins).
    retry_policy:
        A :class:`~repro.resilience.RetryPolicy`, or ``None`` (default)
        for no retries.  Backoff delays are real sleeps; per-attempt
        timeouts mark overdue attempts failed (the stale call keeps its
        slot until it actually returns — neither pool can kill a running
        call).
    seed:
        Base seed for per-run deterministic seeding (:func:`seed_for_run`).
    profile_interval:
        When set (seconds), run a
        :class:`~repro.observability.live.WorkerResourceProfiler` for
        the duration of each :meth:`execute` call: every interval one
        ``worker.sample`` instant per pool worker (CPU seconds, CPU %,
        RSS) lands on the bus — per worker *process* under
        ``pool="processes"``, for the driver process (all threads share
        it) under ``pool="threads"``.  ``None`` (default) profiles
        nothing and adds no thread.
    """

    def __init__(
        self,
        max_workers: int = 4,
        pool: str = "threads",
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
        profile_interval: float | None = None,
    ):
        check_positive("max_workers", max_workers)
        if pool not in POOLS:
            raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
        if profile_interval is not None:
            check_positive("profile_interval", profile_interval)
        self.max_workers = max_workers
        self.pool = pool
        self.retry_policy = as_policy(retry_policy)
        self.seed = int(seed)
        self.profile_interval = profile_interval

    # -- the engine ----------------------------------------------------------

    def execute(
        self,
        manifest: CampaignManifest,
        app_fn: Callable[[dict], Any],
        *,
        bus: EventBus | None = None,
        name: str | None = None,
        cancel=None,
        trace_id: str | None = None,
    ) -> RealCampaignResult:
        """Execute every run of a manifest on the worker pool, one attempt
        per worker call.

        Emits one ``campaign`` span wrapping one ``alloc`` span (the pool
        session; worker slots are its "nodes") wrapping one ``task`` span
        per attempt, plus ``task.retry`` / ``task.timeout`` instants —
        the exact taxonomy the checkpoint journal and the trace analytics
        consume.  Raises ``ValueError`` on duplicate ``run_id``s rather
        than silently keeping the last result.

        ``cancel`` is an optional external stop signal — a
        ``threading.Event`` or any zero-argument callable returning
        truthy to stop.  It is polled between submissions (and at least
        every ``0.05s`` while blocked on in-flight work); once set, the
        engine takes the same graceful path as ``Ctrl-C``: no further
        attempt starts, one ``campaign.interrupted`` instant is emitted,
        and unfinished runs come back ``status="interrupted"`` (resumable
        — they compact to PENDING in the checkpoint journal).  Running
        attempts still cannot be killed mid-flight; they are abandoned to
        the pool.

        ``trace_id`` (optional) is stamped on every event this call
        emits *and* into every :class:`RealTaskSpec`, whose worker
        echoes it back — the ``task`` END events carry the worker-
        round-tripped value, proving propagation into the pool.
        """
        seen: set = set()
        duplicates = sorted(
            {r.run_id for r in manifest.runs if r.run_id in seen or seen.add(r.run_id)}
        )
        if duplicates:
            raise ValueError(
                f"duplicate run_ids in manifest (results would silently "
                f"overwrite each other): {duplicates}"
            )
        if bus is None:
            bus = EventBus(name="realexec")  # unobserved: emits are no-ops
        name = name or manifest.campaign
        cancelled = (
            cancel.is_set if hasattr(cancel, "is_set") else cancel
        )  # Event or plain callable

        # One time base for events: the bus clock when it has one (the
        # drive layer's wall bus, or any caller-provided clock), else
        # seconds since this call started.
        t0 = time.monotonic()
        if bus.clock is not None:
            now = bus.clock
        else:
            now = lambda: time.monotonic() - t0

        # The profiler thread emits onto the same (possibly plain,
        # single-emitter) bus as the engine loop, so when profiling is
        # on, every emission from this call is serialized by one lock.
        emit_lock = threading.Lock() if self.profile_interval is not None else None

        def emit(event_name, phase=INSTANT, **fields):
            if trace_id is not None:
                fields.setdefault("trace_id", trace_id)
            if emit_lock is not None:
                with emit_lock:
                    bus.emit(event_name, phase=phase, time=now(), **fields)
            else:
                bus.emit(event_name, phase=phase, time=now(), **fields)

        result = RealCampaignResult(pool=self.pool)
        job = f"{name}-pool"
        slots = tuple(range(self.max_workers))
        task_ids = itertools.count()
        tiebreak = itertools.count()

        specs = [
            RealTaskSpec(
                run_id=r.run_id,
                parameters=dict(r.parameters),
                seed=seed_for_run(self.seed, r.run_id),
                trace_id=trace_id,
            )
            for r in manifest.runs
        ]
        pending: deque = deque(specs)
        delayed: list = []  # heap[(ready_at_monotonic, tiebreak, spec)]
        running: dict = {}  # {slot: _Inflight}
        abandoned: set = set()  # slots whose timed-out call still runs
        free_slots = list(reversed(slots))
        retries_used: dict = {}  # {run_id: retries granted}
        budget_spent = 0
        if self.pool == "processes":
            # Fail before any worker starts, naming the offending key —
            # otherwise the pickle error surfaces as an opaque pipe
            # failure on whichever attempt carried the bad spec.
            for spec in specs:
                spec.ensure_picklable()

        emit(CAMPAIGN, BEGIN, campaign=name, tasks=len(specs), max_allocations=1)
        emit(ALLOC_SUBMITTED, job=job, nodes=self.max_workers, walltime=None)
        emit(ALLOC, BEGIN, alloc=0, job=job, nodes=list(slots), deadline=None)

        def record_terminal(spec, outcome: _AttemptOutcome, status: str) -> None:
            result.results[spec.run_id] = LocalRunResult(
                run_id=spec.run_id,
                status=status,
                value=outcome.value if status == "done" else None,
                error=outcome.error,
                traceback=outcome.traceback,
                elapsed=outcome.elapsed,
                attempts=spec.attempt,
                seed=spec.seed,
            )

        def consider_retry(spec, task_id, outcome: _AttemptOutcome, reason: str) -> None:
            """Failed attempt: grant a policy retry or record the terminal
            failure."""
            nonlocal budget_spent
            used = retries_used.get(spec.run_id, 0)
            budget = self.retry_policy.allocation_budget
            if self.retry_policy.allows(used) and (
                budget is None or budget_spent < budget
            ):
                retries_used[spec.run_id] = used + 1
                budget_spent += 1
                delay = self.retry_policy.delay(used + 1)
                emit(
                    TASK_RETRY,
                    task=spec.run_id,
                    task_id=task_id,
                    retries=used + 1,
                    delay=delay,
                    reason=reason,
                )
                heapq.heappush(
                    delayed,
                    (
                        time.monotonic() + delay,
                        next(tiebreak),
                        replace(spec, attempt=spec.attempt + 1),
                    ),
                )
            else:
                record_terminal(spec, outcome, "failed")

        def submit(pool, spec) -> None:
            slot = free_slots.pop()
            tid = next(task_ids)
            emit(
                TASK,
                BEGIN,
                task=spec.run_id,
                task_id=tid,
                node=slot,
                nodes=[slot],
                attempt=spec.attempt,
                payload=dict(spec.parameters),
            )
            timeout = self.retry_policy.timeout_for(spec)
            deadline = time.monotonic() + timeout if timeout is not None else None
            pool.submit(slot, app_fn, spec)
            running[slot] = _Inflight(
                spec=spec, slot=slot, task_id=tid, deadline=deadline, timeout=timeout
            )

        def settle(info: _Inflight, outcome: _AttemptOutcome) -> None:
            """Fold one finished attempt's outcome into results/retries.

            The END event's trace id is the *worker-echoed* one (from the
            outcome, not the driver's variable) — its presence on the
            monitoring stream proves the id crossed the pool boundary.
            """
            spec = info.spec
            echoed = (
                {"trace_id": outcome.trace_id} if outcome.trace_id is not None else {}
            )
            emit(
                TASK,
                END,
                task=spec.run_id,
                task_id=info.task_id,
                node=info.slot,
                outcome="done" if outcome.ok else "failed",
                **echoed,
            )
            if outcome.ok:
                record_terminal(spec, outcome, "done")
            else:
                consider_retry(spec, info.task_id, outcome, reason="exception")

        def expire_overdue() -> None:
            """Per-attempt timeout: mark overdue attempts failed.  The call
            keeps running detached; its slot comes back when it returns."""
            mono = time.monotonic()
            for slot, info in list(running.items()):
                if info.deadline is None or mono < info.deadline:
                    continue
                del running[slot]
                abandoned.add(slot)
                spec, tid = info.spec, info.task_id
                emit(
                    TASK_TIMEOUT,
                    task=spec.run_id,
                    task_id=tid,
                    node=info.slot,
                    timeout=info.timeout,
                )
                emit(TASK, END, task=spec.run_id, task_id=tid, node=info.slot, outcome="failed")
                synthetic = _AttemptOutcome(
                    run_id=spec.run_id,
                    ok=False,
                    error=(
                        f"TimeoutError: attempt exceeded the "
                        f"{info.timeout}s per-attempt cap"
                    ),
                    elapsed=info.timeout or 0.0,
                )
                consider_retry(spec, tid, synthetic, reason="timeout")

        pool = _SLOT_POOLS[self.pool](self.max_workers)
        profiler = None
        if self.profile_interval is not None:
            from repro.observability.live import WorkerResourceProfiler

            profiler = WorkerResourceProfiler(
                emit,
                pool.pids,
                interval=self.profile_interval,
                trace_id=trace_id,
            ).start()
        drained = False
        try:
            while pending or delayed or running:
                if cancelled is not None and cancelled():
                    raise CampaignCancelled
                mono = time.monotonic()
                while delayed and delayed[0][0] <= mono:
                    pending.append(heapq.heappop(delayed)[2])
                while pending and free_slots:
                    submit(pool, pending.popleft())
                wakeups = [d[0] for d in delayed[:1]]
                wakeups += [
                    i.deadline for i in running.values() if i.deadline is not None
                ]
                if cancelled is not None:  # poll the external stop signal
                    wakeups.append(time.monotonic() + _CANCEL_POLL_INTERVAL)
                if not running and not abandoned:
                    if wakeups:  # only backoff delays remain: sleep them off
                        time.sleep(max(0.0, min(wakeups) - time.monotonic()))
                    continue
                timeout = (
                    max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
                )
                for slot, ok, reply in pool.wait(timeout):
                    free_slots.append(slot)
                    if slot in abandoned:  # stale timed-out call finished
                        abandoned.discard(slot)
                        continue
                    info = running.pop(slot)
                    if not ok:
                        if not isinstance(reply, Exception):
                            # The app's own KeyboardInterrupt or SystemExit:
                            # re-shelve so the interrupt handler below
                            # records this run as interrupted too.
                            running[slot] = info
                            raise reply
                        # The call never ran to an outcome (a lost worker,
                        # a call that does not pickle, a reply that does
                        # not unpickle here).
                        reply = _AttemptOutcome(
                            run_id=info.spec.run_id,
                            ok=False,
                            error=f"{type(reply).__name__}: {reply}",
                            traceback="".join(traceback.format_exception(reply)),
                        )
                    settle(info, reply)
                expire_overdue()
            drained = True
        except (KeyboardInterrupt, CampaignCancelled):
            result.interrupted = True
            # Graceful cancellation: running attempts are left to finish
            # on their own (see the pool's shutdown); nothing blocks.
            for info in running.values():
                spec = info.spec
                if spec.run_id in result.results:
                    continue
                emit(
                    TASK,
                    END,
                    task=spec.run_id,
                    task_id=info.task_id,
                    node=info.slot,
                    outcome="interrupted",
                )
                record_terminal(
                    spec, _AttemptOutcome(run_id=spec.run_id, ok=False), "interrupted"
                )
            for spec in itertools.chain(pending, (entry[2] for entry in delayed)):
                result.results.setdefault(
                    spec.run_id,
                    LocalRunResult(
                        run_id=spec.run_id,
                        status="interrupted",
                        attempts=spec.attempt,
                        seed=spec.seed,
                    ),
                )
            emit(
                CAMPAIGN_INTERRUPTED,
                campaign=name,
                completed=len(result.completed),
                pending=len(result.unfinished),
            )
        finally:
            pool.shutdown(wait=drained and not abandoned)
            if profiler is not None:
                profiler.stop()  # takes one final sample before the span closes
            emit(
                ALLOC,
                END,
                alloc=0,
                job=job,
                reason="interrupted" if result.interrupted else "drained",
            )
            emit(
                CAMPAIGN,
                END,
                campaign=name,
                completed=len(result.completed),
                allocations=1,
            )
        result.elapsed = time.monotonic() - t0
        return result
