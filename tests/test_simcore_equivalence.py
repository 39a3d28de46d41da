"""Bit-exactness of the vectorized simulator core (`repro.savanna._vector`).

Every scenario here runs twice — once on the per-event reference
engine kept as the oracle in ``tests/_event_engine.py`` (selected
through ``tests/_oracle.py``) and once on the vector engines the
executors ship with — and asserts the runs are *indistinguishable*:
identical task states and attempt records, identical outcome lists in
identical order, an identical failure-RNG stream position and
fault-injector count, and (when a recorder is attached) a byte-identical
Chrome trace and the same recorded events, sequence numbers included.
Node occupancy is compared node by node: the busy
intervals the oracle books on its own nodes must equal the ones the
vector engine's attempts imply.  The fixed
scenario matrix below is joined by a Hypothesis property that draws
the scenario itself, fault plans and multi-node tasks included.  The
vector engine publishes each allocation as one attempt block; the span
fold that reads the block's attempts must rebuild exactly the spans
the block's events give.

Two process-global counters must be normalized before comparing runs
that execute in the same process:

- bus ``pid`` values come from a process-wide counter, so every new
  cluster gets a fresh pid — forced to 0;
- ``Task.task_id`` comes from a process-wide ``itertools.count`` — ids
  are rebased to the smallest id in the run's own task list.

Everything else must match exactly, with no tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _event_engine import oracle_nodes
from _oracle import event_engine
from repro.cluster.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.job import Task
from repro.observability.analysis import StreamingCampaignReport
from repro.observability.analysis.spans import SpanTrace, TaskSpan
from repro.observability.events import TASK_RETRY
from repro.observability.recorder import TraceRecorder
from repro.resilience.policy import (
    ExponentialBackoffPolicy,
    FixedDelayPolicy,
    RetryPolicy,
)
from repro.resilience.faults import (
    CRASH_ON_START,
    FAULT_KINDS,
    MID_RUN_CRASH,
    STRAGGLER,
    TRANSIENT_IO,
    FaultInjector,
    FaultSpec,
)
from repro.savanna import PilotExecutor, StaticSetExecutor
from repro.savanna._vector import VectorPilotRun, VectorStaticSetRun

# ---------------------------------------------------------------------------
# scenario definitions


class _PerTaskTimeout(RetryPolicy):
    """Custom ``timeout_for`` override: exercises the non-hoistable path."""

    def timeout_for(self, task):
        return 450.0 if task.payload.get("capped") else None


def _tasks(n: int, seed: int, mean=600.0, sigma=0.6, cap_half=False, max_nodes=1):
    rng = np.random.default_rng(seed)
    durations = rng.lognormal(mean=math.log(mean), sigma=sigma, size=n)
    widths = rng.integers(1, max_nodes + 1, size=n) if max_nodes > 1 else [1] * n
    return [
        Task(
            name=f"t{i:03d}",
            duration=float(d),
            nodes=int(w),
            payload={"capped": True} if cap_half and i % 2 else {},
        )
        for i, (d, w) in enumerate(zip(durations, widths))
    ]


def _spec(nodes, mttf, speed_sigma=0.0):
    return ClusterSpec(
        nodes=nodes,
        queue_sigma=0.0,
        queue_median_wait=120.0,
        node_mttf=mttf,
        node_speed_sigma=speed_sigma,
    )


def _node0_slowed(make_executor):
    """An executor factory that first halves node 0's speed: ``Node.speed``
    is writable, and an allocation must read it when it starts."""

    def make(cluster):
        cluster.pool.nodes[0].speed = 0.5
        return make_executor(cluster)

    return make


#: A fault plan with every kind the injector knows.
FAULTS = (
    FaultSpec(CRASH_ON_START, 0.05),
    FaultSpec(MID_RUN_CRASH, 0.1),
    FaultSpec(STRAGGLER, 0.15, slowdown=3.0),
    FaultSpec(TRANSIENT_IO, 0.2, max_attempts=2),
)

SCENARIOS = {
    # name: (spec, fault specs, executor factory, task factory, run kwargs)
    "pilot-fig6": (
        _spec(8, 8000.0),
        (),
        lambda c: PilotExecutor(c),
        lambda: _tasks(40, 3),
        {"nodes": 8, "walltime": 40000.0},
    ),
    "static-fig6": (
        _spec(8, 8000.0),
        (),
        lambda c: StaticSetExecutor(c, set_gap=60.0),
        lambda: _tasks(40, 3),
        {"nodes": 8, "walltime": 40000.0},
    ),
    "pilot-backoff-budget": (
        _spec(6, 3000.0),
        (),
        lambda c: PilotExecutor(
            c,
            retry_policy=FixedDelayPolicy(
                max_retries=3, delay_seconds=250.0, allocation_budget=4
            ),
        ),
        lambda: _tasks(30, 11),
        {"nodes": 6, "walltime": 60000.0},
    ),
    "static-exp-backoff": (
        _spec(6, 3000.0),
        (),
        lambda c: StaticSetExecutor(
            c,
            set_gap=30.0,
            retry_policy=ExponentialBackoffPolicy(
                max_retries=2, base=45.0, jitter=0.5, seed=7
            ),
        ),
        lambda: _tasks(30, 11),
        {"nodes": 6, "walltime": 60000.0},
    ),
    "pilot-walltime-kill": (
        _spec(8, 4000.0),
        (),
        lambda c: PilotExecutor(
            c, retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=400.0)
        ),
        lambda: _tasks(40, 5),
        {"nodes": 8, "walltime": 1500.0},
    ),
    "static-kill-no-failures": (
        _spec(8, None),
        (),
        lambda c: StaticSetExecutor(c, set_gap=60.0),
        lambda: _tasks(40, 5),
        {"nodes": 8, "walltime": 1500.0},
    ),
    "pilot-per-task-timeout": (
        _spec(6, 9000.0),
        (),
        lambda c: PilotExecutor(c, retry_policy=_PerTaskTimeout(max_retries=1)),
        lambda: _tasks(30, 9, cap_half=True),
        {"nodes": 6, "walltime": 50000.0},
    ),
    "pilot-heterogeneous": (
        _spec(8, 6000.0, speed_sigma=0.3),
        (),
        lambda c: PilotExecutor(c),
        lambda: _tasks(40, 17),
        {"nodes": 8, "walltime": 50000.0},
    ),
    "static-multi-alloc-inplace": (
        _spec(6, 5000.0),
        (),
        lambda c: StaticSetExecutor(
            c, set_gap=45.0, retry_policy=FixedDelayPolicy(max_retries=2)
        ),
        lambda: _tasks(36, 23),
        {"nodes": 6, "walltime": 2500.0, "max_allocations": 3},
    ),
    "pilot-const-timeout": (
        _spec(6, None),
        (),
        lambda c: PilotExecutor(
            c, retry_policy=RetryPolicy(max_retries=1, task_timeout=700.0)
        ),
        lambda: _tasks(30, 29),
        {"nodes": 6, "walltime": 50000.0},
    ),
    # Wide pilots: 32 nodes keep a deep queue of running attempts, so
    # most launches are the steady-state hand-off of a freed node.
    "pilot-wide": (
        _spec(32, 8000.0),
        (),
        lambda c: PilotExecutor(c),
        lambda: _tasks(400, 5),
        {"nodes": 32, "walltime": 40000.0},
    ),
    "pilot-wide-no-failures": (
        _spec(32, None),
        (),
        lambda c: PilotExecutor(c),
        lambda: _tasks(400, 5),
        {"nodes": 32, "walltime": 40000.0},
    ),
    "pilot-wide-multi-alloc-backoff": (
        _spec(32, 20000.0),
        (),
        lambda c: PilotExecutor(
            c, retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=100.0)
        ),
        lambda: _tasks(400, 5),
        {"nodes": 32, "walltime": 5000.0, "max_allocations": 2},
    ),
    # Fault injection: every kind, on both engines, with retries.
    "pilot-faults": (
        _spec(8, 8000.0),
        FAULTS,
        lambda c: PilotExecutor(c),
        lambda: _tasks(40, 3),
        {"nodes": 8, "walltime": 40000.0},
    ),
    "static-faults-retry": (
        _spec(6, 6000.0),
        FAULTS,
        lambda c: StaticSetExecutor(
            c, set_gap=30.0, retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=120.0)
        ),
        lambda: _tasks(30, 11),
        {"nodes": 6, "walltime": 60000.0},
    ),
    # Multi-node tasks: head-of-line blocking on the pilot, width-packed
    # sets on the static engine.
    "pilot-multinode-faults-kill": (
        _spec(8, 5000.0),
        FAULTS,
        lambda c: PilotExecutor(
            c, retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=300.0)
        ),
        lambda: _tasks(40, 5, max_nodes=4),
        {"nodes": 8, "walltime": 2500.0, "max_allocations": 2},
    ),
    "static-multinode-heterogeneous": (
        _spec(8, 6000.0, speed_sigma=0.3),
        (),
        lambda c: StaticSetExecutor(
            c, set_gap=45.0, retry_policy=FixedDelayPolicy(max_retries=1)
        ),
        lambda: _tasks(36, 17, max_nodes=3),
        {"nodes": 8, "walltime": 50000.0},
    ),
    # Timers that outlive their allocation: a static relaunch backoff
    # and a static barrier gap, each past the walltime kill.
    "static-relaunch-outlives-alloc": (
        _spec(6, 3000.0),
        (),
        lambda c: StaticSetExecutor(
            c, retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=2000.0)
        ),
        lambda: _tasks(30, 11),
        {"nodes": 6, "walltime": 2500.0, "max_allocations": 2},
    ),
    "static-barrier-outlives-alloc": (
        _spec(6, None),
        (),
        lambda c: StaticSetExecutor(c, set_gap=3000.0),
        lambda: _tasks(36, 23),
        {"nodes": 6, "walltime": 3500.0, "max_allocations": 2},
    ),
    # A node slowed after the cluster was built: the static whole-set
    # batch and the pilot's hand-off must see it.
    "static-node-slowed": (
        _spec(2, None),
        (),
        _node0_slowed(lambda c: StaticSetExecutor(c)),
        lambda: [Task(name="t000", duration=10.0), Task(name="t001", duration=10.0)],
        {"nodes": 2, "walltime": 1000.0},
    ),
    "pilot-node-slowed": (
        _spec(20, None),
        (),
        _node0_slowed(lambda c: PilotExecutor(c)),
        lambda: _tasks(200, 31, mean=10.0, sigma=0.01),
        {"nodes": 20, "walltime": 1000.0},
    ),
    # The end-to-end benchmark's sim-campaign shape: thousands of
    # hand-offs on a queue 100 attempts deep.
    "pilot-e2ebench-shape": (
        _spec(100, 2.0e6),
        (),
        lambda c: PilotExecutor(c),
        lambda: _tasks(8000, 2718, sigma=0.35),
        {"nodes": 100, "walltime": 1.0e6},
    ),
}

SEED = 21


# ---------------------------------------------------------------------------
# run + snapshot machinery


def _cluster(spec, faults):
    """A fresh cluster for one run, with an injector for ``faults``, if any."""
    injector = FaultInjector(faults, seed=SEED) if faults else None
    return SimulatedCluster(spec, seed=SEED, faults=injector)


def _run(scenario, mode: str, traced: bool):
    """Execute one scenario under the given engine; snapshot everything.

    ``scenario`` is a :data:`SCENARIOS` name or a ``(spec, fault specs,
    executor factory, task factory, run kwargs)`` tuple.
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    spec, faults, make_executor, make_tasks, run_kwargs = scenario
    cluster = _cluster(spec, faults)
    recorder = TraceRecorder().attach(cluster.bus) if traced else None
    tasks = make_tasks()
    if mode == "event":
        with event_engine():
            result = make_executor(cluster).run(tasks, **run_kwargs)
    else:
        result = make_executor(cluster).run(tasks, **run_kwargs)
    if recorder is not None:
        recorder.detach()
    if mode == "event":
        intervals = [list(node.busy_intervals) for node in oracle_nodes(cluster)]
    else:
        intervals = _attempt_intervals(cluster, result)
    return _snapshot(cluster, tasks, result, recorder, intervals)


def _attempt_intervals(cluster, result):
    """Each node's busy intervals as the attempts record them, in launch order."""
    intervals = [[] for _ in cluster.pool.nodes]
    for outcome in result.outcomes:
        for a in outcome.attempts:
            for index in a.node_indices:
                intervals[index].append((a.start, a.end))
    return intervals


def _snapshot(cluster, tasks, result, recorder, intervals):
    base = min(t.task_id for t in tasks)
    snap = {
        "tasks": [
            (
                t.name,
                t.state.value,
                [
                    (a.start, a.end, a.outcome.value, tuple(a.node_indices))
                    for a in t.attempts
                ],
            )
            for t in tasks
        ],
        "outcomes": [
            {
                "attempts": [
                    (a.task.task_id - base, a.start, a.end, a.outcome.value)
                    for a in o.attempts
                ],
                "completed": [t.task_id - base for t in o.completed],
                "failed": [t.task_id - base for t in o.failed],
                "killed": [t.task_id - base for t in o.killed],
            }
            for o in result.outcomes
        ],
        "intervals": intervals,
        "rng": cluster.failures._rng.bit_generator.state,
        "injected": cluster.faults.injected_count if cluster.faults else 0,
        "now": cluster.sim.now,
    }
    if recorder is not None:
        snap["trace"] = _normalized_trace(recorder, base)
        snap["events"] = _normalized_events(recorder, base)
    return snap


def _normalized_events(recorder, base):
    """Each recorded event as ``(name, phase, time, seq, fields)``, with
    the fields serialized (key order included) and ``task_id`` rebased;
    the pid is left out, as every run's bus gets a fresh one."""
    out = []
    for event in recorder.events:
        fields = dict(event.fields)
        if "task_id" in fields:
            fields["task_id"] -= base
        out.append((event.name, event.phase, event.time, event.seq, json.dumps(fields)))
    return out


def _normalized_trace(recorder, base):
    out = []
    for entry in recorder.to_chrome_trace():
        entry = dict(entry)
        entry["pid"] = 0
        args = dict(entry.get("args") or {})
        if "task_id" in args:
            args["task_id"] -= base
        entry["args"] = args
        # Serialize: catches dict-ordering and float-representation drift
        # too.  One string per entry, so a mismatch reports its index
        # instead of a character diff of the whole trace.
        out.append(json.dumps(entry))
    return out


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_runs_are_bit_identical(name):
    """Unobserved vectorized runs match the event engine exactly."""
    assert _run(name, "vector", False) == _run(name, "event", False)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_runs_produce_identical_chrome_traces(name):
    """Observed vectorized runs emit byte-identical event streams."""
    vec = _run(name, "vector", True)
    evt = _run(name, "event", True)
    assert vec["trace"] == evt["trace"]
    assert vec == evt


def _span_rows(trace):
    """Every span and requeue of ``trace`` as its ``repr``, which spells
    each field and its type (``pid`` forced to 0), each campaign's task
    spans as positions in ``trace.tasks``, and ``last_time``."""
    rows = []
    for kind in ("campaigns", "allocs", "tasks"):
        for span in getattr(trace, kind):
            span.pid = 0
            rows.append((kind, repr(span)))
    rows += [("requeue", repr(event._replace(pid=0))) for event in trace.requeues]
    position = {id(span): i for i, span in enumerate(trace.tasks)}
    for campaign in trace.campaigns:
        rows.append(("members", [position[id(span)] for span in trace.tasks_of(campaign)]))
    rows.append(("last_time", repr(trace.last_time)))
    return rows


def _assert_block_fold_matches(scenario, twice: bool = False) -> None:
    """Drive ``scenario`` (a second time on the same cluster if
    ``twice``) with a streaming report and a recorder attached: the span
    fold of the published attempt blocks equals the fold of the events
    they stand for, field by field."""
    blocks = []
    feed_block = SpanTrace.feed_block

    def counted(self, block):
        blocks.append(block)
        return feed_block(self, block)

    spec, faults, make_executor, make_tasks, run_kwargs = scenario
    cluster = _cluster(spec, faults)
    builder = StreamingCampaignReport().attach(cluster.bus)
    recorder = TraceRecorder().attach(cluster.bus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpanTrace, "feed_block", counted)
        for _ in range(2 if twice else 1):
            make_executor(cluster).run(make_tasks(), **run_kwargs)
    builder.detach()
    recorder.detach()
    assert blocks
    folded = builder.trace
    folded.close_open()
    assert _span_rows(folded) == _span_rows(SpanTrace.from_events(recorder.events))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_block_fold_matches_its_materialized_stream(name):
    """The span fold of each published attempt block equals the fold of
    the events the block stands for, field by field."""
    _assert_block_fold_matches(SCENARIOS[name])


# ---------------------------------------------------------------------------
# generated scenarios

_POLICIES = st.one_of(
    st.none(),  # the executor's default
    st.builds(
        FixedDelayPolicy,
        max_retries=st.integers(0, 3),
        delay_seconds=st.sampled_from([0.0, 100.0, 2000.0]),
        allocation_budget=st.none() | st.integers(0, 6),
    ),
    st.builds(
        ExponentialBackoffPolicy,
        max_retries=st.integers(1, 3),
        base=st.floats(10.0, 1000.0),
        jitter=st.floats(0.1, 1.0),
        seed=st.integers(0, 99),
    ),
    st.builds(RetryPolicy, max_retries=st.integers(0, 2), task_timeout=st.floats(200.0, 1200.0)),
    st.builds(_PerTaskTimeout, max_retries=st.integers(0, 2)),
)


_FAULT_PLANS = st.just(()) | st.lists(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(FAULT_KINDS),
        probability=st.floats(0.0, 0.4),
        slowdown=st.sampled_from([1.0, 2.5, 4.0]),
        max_attempts=st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
).map(tuple)


@st.composite
def _scenarios(draw):
    """One scenario in the :data:`SCENARIOS` tuple shape."""
    nodes = draw(st.integers(1, 48))
    # Log-uniform MTTF: failures are common at one end, rare at the other.
    mttf = st.floats(math.log(3.0e3), math.log(2.0e6)).map(math.exp)
    spec = _spec(
        nodes, draw(st.none() | mttf), speed_sigma=draw(st.sampled_from([0.0, 0.3]))
    )
    faults = draw(_FAULT_PLANS)
    policy = draw(_POLICIES)
    if draw(st.booleans()):
        make_executor = lambda c: PilotExecutor(c, retry_policy=policy)
    else:
        set_gap = draw(st.sampled_from([0.0, 45.0]))
        make_executor = lambda c: StaticSetExecutor(c, set_gap=set_gap, retry_policy=policy)
    n_tasks = draw(st.integers(1, 300))
    task_seed = draw(st.integers(0, 2**16))
    # Tasks up to 4 nodes wide, never wider than the allocation.
    max_nodes = draw(st.integers(1, min(4, nodes)))
    run_kwargs = {
        "nodes": nodes,
        # Short walltimes kill mid-campaign; the long one never does.
        "walltime": draw(st.floats(300.0, 20000.0) | st.just(1.0e6)),
        "max_allocations": draw(st.integers(1, 3)),
    }
    make_tasks = lambda: _tasks(n_tasks, task_seed, cap_half=True, max_nodes=max_nodes)
    return spec, faults, make_executor, make_tasks, run_kwargs


@settings(deadline=None)
@given(_scenarios())
def test_generated_scenarios_are_bit_identical(scenario):
    """Property: over generated scenarios, both engines agree exactly.

    Derandomized by the default profile in ``conftest.py``, so tier-1
    replays the same 100 scenarios; the nightly ``random`` profile draws
    fresh ones with a larger budget.
    """
    assert _run(scenario, "vector", False) == _run(scenario, "event", False)
    vec = _run(scenario, "vector", True)
    evt = _run(scenario, "event", True)
    assert vec["trace"] == evt["trace"]
    assert vec == evt


def test_block_fold_builds_task_spans_only_when_read(monkeypatch):
    """Folding the benchmark-shaped drive's block builds no task span.
    Finalize builds one only for each attempt its report names: a
    critical-path task, a straggler or a retried attempt.  A span read
    from the trace is built once, and it is the one finalize built."""
    built = []
    init = TaskSpan.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaskSpan, "__init__", counted)
    spec, faults, make_executor, make_tasks, run_kwargs = SCENARIOS["pilot-e2ebench-shape"]
    cluster = _cluster(spec, faults)
    builder = StreamingCampaignReport().attach(cluster.bus)
    retries = []
    cluster.bus.subscribe(lambda e: e.name == TASK_RETRY and retries.append(e))
    make_executor(cluster).run(make_tasks(), **run_kwargs)
    builder.detach()
    assert built == []

    (report,) = builder.reports()
    path = {
        (el["label"], el["start"], el["end"])
        for el in report.critical_path
        if el["kind"] == "task"
    }
    stragglers = {(s["task"], s["node"], s["duration"]) for s in report.stragglers}
    assert path and stragglers and retries

    def named(span) -> bool:
        label = f"{span.name} (attempt {span.attempt}, {span.outcome or 'open'})"
        return (
            (label, span.start, span.end) in path
            or (span.name, span.node, span.duration) in stragglers
            or bool(span.retries_granted or span.backoff)
        )

    assert all(map(named, built))
    assert len({id(span) for span in built}) == len(built)
    assert len(built) <= len(path) + len(stragglers) + len(retries)

    trace = builder.trace
    tasks = trace.tasks
    assert len(tasks) == report.counts["attempts"] > 8000
    assert all(trace.tasks[i] is tasks[i] for i in (0, 4000, len(tasks) - 1))
    assert {id(span) for span in built} <= {id(span) for span in tasks}
    assert [id(span) for span in trace.tasks_of(trace.campaigns[0])] == list(map(id, tasks))


@settings(deadline=None)
@given(_scenarios(), st.booleans())
def test_generated_block_folds_match_their_materialized_streams(scenario, twice):
    """Property: over generated drives, ``twice`` a second drive on the
    same cluster, the block fold equals the fold of the block's events."""
    _assert_block_fold_matches(scenario, twice)


#: The timers that can outlive their allocation: (engine, callback).
_LATE_TIMERS = {
    "pilot requeue timer": (VectorPilotRun, "_fail_late"),
    "static relaunch timer": (VectorStaticSetRun, "_fail_late"),
    "static barrier timer": (VectorStaticSetRun, "_barrier_late"),
}


def test_scenarios_cover_interesting_behavior():
    """Meta-test: the suite actually exercises retries, kills, timeouts,
    faults, multi-node tasks and each timer that outlives its allocation."""
    kinds = ["failed", "killed", "retries", "multi", "faults", "wide", *_LATE_TIMERS]
    seen = dict.fromkeys(kinds, 0)
    with pytest.MonkeyPatch.context() as mp:
        for kind, (cls, name) in _LATE_TIMERS.items():

            def counted(self, *args, _kind=kind, _call=getattr(cls, name)):
                seen[_kind] += 1
                return _call(self, *args)

            mp.setattr(cls, name, counted)
        for name in SCENARIOS:
            snap = _run(name, "vector", False)
            for o in snap["outcomes"]:
                seen["failed"] += len(o["failed"])
                seen["killed"] += len(o["killed"])
            seen["retries"] += sum(len(attempts) > 1 for _, _, attempts in snap["tasks"])
            seen["multi"] += len(snap["outcomes"]) > 1
            seen["faults"] += snap["injected"]
            seen["wide"] += any(
                len(nodes) > 1 for _, _, attempts in snap["tasks"] for *_, nodes in attempts
            )
    assert all(seen.values()), f"degenerate scenario coverage: {seen}"
