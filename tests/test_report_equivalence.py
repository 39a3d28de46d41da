"""The column finalize writes the reports the per-attempt passes wrote.

``report_for_campaign`` (``repro.observability.analysis.report``) reads
a campaign's task spans once into numpy columns.  The Python passes it
replaced live on in ``tests/_report_oracle.py``, and every test here
asserts that both serialize to the same bytes: ``json.dumps`` without
``sort_keys``, so key order counts as it does in ``.cheetah/report.json``.
Every leaf of every report must also be a plain ``float``, ``int``,
``str``, ``bool`` or ``None`` (``json`` rejects numpy scalars).

The inputs: the fixed simulator scenarios, the committed Chrome traces,
a Hypothesis property over generated drives, and a strategy that draws
event streams no drive emits — ``node`` without ``nodes`` and the
reverse, attempts outside any allocation or naming an index no
allocation of their campaign has, zero-length and sub-``_EPS``
attempts, streams cut mid-attempt, displaced attempts, and campaigns
with allocations but no attempts, or neither.  A drive's reports are
checked twice: replayed from its recorded events, and folded live by a
streaming report on its bus, which reads the drive's attempt blocks.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _report_oracle
from repro.observability import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    END,
    GROUP,
    TASK,
    TASK_FAULT_INJECTED,
    TASK_RETRY,
    EventBus,
)
from repro.observability.analysis import SpanTrace, StreamingCampaignReport, analyze_events
from repro.observability.analysis.report import _EPS
from repro.observability.recorder import TraceRecorder, events_from_trace
from test_simcore_equivalence import SCENARIOS, _cluster, _scenarios

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
#: Never empty: ``test_streaming_report.py`` fails when it is.
COMMITTED_TRACES = sorted(RESULTS.glob("*.trace.json"))

_LEAF_TYPES = (float, int, str, bool, type(None))


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def assert_matches_oracle(events, live=None) -> list:
    """The reports of ``events``, checked against the oracle's bytes, as
    are the reports ``live`` folded off the bus that emitted them."""
    reports = analyze_events(events)
    trace = SpanTrace.from_events(events)
    expected = [_report_oracle.report_for_campaign(trace, c) for c in trace.campaigns]
    dicts = [r.to_dict() for r in reports]
    assert json.dumps(dicts) == json.dumps([r.to_dict() for r in expected])
    if live is not None:
        assert json.dumps([r.to_dict() for r in live]) == json.dumps(dicts)
    odd = {type(leaf).__name__ for leaf in _leaves(dicts)} - {
        t.__name__ for t in _LEAF_TYPES
    }
    assert not odd, f"report leaves of type {sorted(odd)}"
    return reports


def _drive(scenario, twice: bool) -> tuple[list, list]:
    """The recorded events of a drive, and the reports a streaming
    report attached to its bus folded from its attempt blocks."""
    spec, faults, make_executor, make_tasks, run_kwargs = scenario
    cluster = _cluster(spec, faults)
    recorder = TraceRecorder().attach(cluster.bus)
    builder = StreamingCampaignReport().attach(cluster.bus)
    for _ in range(2 if twice else 1):
        make_executor(cluster).run(make_tasks(), name="drawn", **run_kwargs)
    recorder.detach()
    builder.detach()
    return recorder.events, builder.reports()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fixed_scenarios_match_the_oracle(name):
    reports = assert_matches_oracle(*_drive(SCENARIOS[name], twice=False))
    assert reports and reports[0].counts["attempts"] > 0


@pytest.mark.parametrize("trace_path", COMMITTED_TRACES, ids=[p.stem for p in COMMITTED_TRACES])
def test_committed_traces_match_the_oracle(trace_path):
    assert assert_matches_oracle(events_from_trace(trace_path))


@settings(deadline=None)
@given(_scenarios(), st.booleans())
def test_generated_drives_match_the_oracle(scenario, twice):
    """``twice`` runs the drawn drive a second time on the same cluster
    under the same campaign name: two reports from one stream."""
    reports = assert_matches_oracle(*_drive(scenario, twice))
    assert len(reports) == (2 if twice else 1)


# -- streams no drive emits ----------------------------------------------------

#: Clock steps: none, less than, exactly and more than _EPS, and whole
#: seconds, so zero-length, sub-_EPS and tied spans are common.
_STEPS = st.sampled_from((0.0, 0.4 * _EPS, _EPS, 1.6 * _EPS, 1.0, 2.0))
_NODES = st.integers(0, 2)


@st.composite
def odd_streams(draw):
    """One bus's events over one to three campaign spans."""
    bus = EventBus()
    seen: list = []
    bus.subscribe(seen.append)
    clock = [0.0]

    def tick() -> float:
        clock[0] += draw(_STEPS)
        return clock[0]

    def open_alloc(job: str) -> None:
        now = tick()
        if draw(st.booleans()):
            bus.emit(ALLOC_SUBMITTED, time=now, job=job)
            now = tick()
        # Indices may repeat within a campaign, and nodes may miss tasks.
        bus.emit(ALLOC, phase=BEGIN, time=now, alloc=draw(st.integers(0, 3)), job=job,
                 nodes=draw(st.lists(_NODES, max_size=3, unique=True)))

    if draw(st.booleans()):
        # Opened outside every campaign: its tasks name an allocation
        # their campaign does not hold.
        open_alloc("outer")
    open_tasks: dict = {}  # task_id -> begin fields; a second begin displaces
    for c in range(draw(st.integers(1, 3))):
        group = draw(st.none() | st.sampled_from(("g1", "g2", "")))
        if group is not None:
            bus.emit(GROUP, phase=BEGIN, time=clock[0], campaign=f"c{c}", group=group)
        bus.emit(CAMPAIGN, phase=BEGIN, time=tick(), campaign=f"c{c}")
        alloc_open = draw(st.booleans())
        if alloc_open:
            open_alloc(f"j{c}")
        for step in range(draw(st.integers(0, 20))):
            kind = draw(st.sampled_from(
                ("begin", "begin", "end", "end", "alloc", "group", "retry", "fault")
            ))
            now = tick()
            if kind == "begin":
                task_id = draw(st.integers(0, 5))
                fields = {"task_id": task_id, "task": f"t{task_id}",
                          "attempt": draw(st.integers(1, 3))}
                node = draw(st.none() | _NODES)
                nodes = draw(st.none() | st.lists(_NODES, max_size=3, unique=True))
                if node is not None:
                    fields["node"] = node
                if nodes is not None:
                    fields["nodes"] = nodes
                bus.emit(TASK, phase=BEGIN, time=now, **fields)
                open_tasks[task_id] = fields
            elif kind == "end" and open_tasks:
                fields = open_tasks.pop(draw(st.sampled_from(sorted(open_tasks))))
                outcome = draw(st.sampled_from(("done", "done", "failed", "killed", None)))
                if outcome is not None:
                    fields = {**fields, "outcome": outcome}
                bus.emit(TASK, phase=END, time=now, **fields)
            elif kind == "alloc":
                if alloc_open:
                    bus.emit(ALLOC, phase=END, time=now, reason="walltime")
                else:
                    open_alloc(f"j{c}.{step}")
                alloc_open = not alloc_open
            elif kind == "group":
                # Groups that change inside a campaign span: several
                # per-group rows and straggler groups in one report.
                bus.emit(GROUP, phase=draw(st.sampled_from((BEGIN, END))), time=now,
                         campaign=f"c{c}", group=draw(st.sampled_from(("g1", "g2", ""))))
            elif kind == "retry":
                bus.emit(TASK_RETRY, time=now, task_id=draw(st.integers(0, 5)),
                         delay=draw(st.sampled_from((0.0, 0.5, 30.0))))
            elif kind == "fault":
                bus.emit(TASK_FAULT_INJECTED, time=now, task_id=draw(st.integers(0, 5)))
        if draw(st.booleans()):
            return seen  # cut: spans still open close at the last time
        if alloc_open:
            bus.emit(ALLOC, phase=END, time=tick(), reason="drained")
        bus.emit(CAMPAIGN, phase=END, time=tick(), campaign=f"c{c}")
        if group is not None:
            bus.emit(GROUP, phase=END, time=clock[0], campaign=f"c{c}", group=group)
    return seen


@settings(deadline=None)
@given(odd_streams())
def test_odd_streams_match_the_oracle(events):
    assert_matches_oracle(events)


def _capture(emit) -> list:
    bus = EventBus()
    seen: list = []
    bus.subscribe(seen.append)
    emit(bus)
    return seen


def _allocations_but_no_attempts(bus):
    bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
    bus.emit(ALLOC_SUBMITTED, time=0.0, job="j0")
    bus.emit(ALLOC, phase=BEGIN, time=5.0, alloc=0, job="j0", nodes=[0, 1])
    bus.emit(ALLOC, phase=END, time=9.0, reason="walltime")
    bus.emit(CAMPAIGN, phase=END, time=9.0, campaign="c")


def _neither(bus):
    bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
    bus.emit(CAMPAIGN, phase=END, time=3.0, campaign="c")


def _cut_mid_attempt(bus):
    bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
    bus.emit(ALLOC, phase=BEGIN, time=1.0, alloc=0, job="j0", nodes=[0])
    bus.emit(TASK, phase=BEGIN, time=1.0, task_id=0, task="t0", node=0)
    bus.emit(TASK, phase=END, time=4.0, task_id=0, task="t0", node=0, outcome="done")
    bus.emit(TASK, phase=BEGIN, time=4.0, task_id=1, task="t1", node=0)


def _displaced_attempt(bus):
    bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
    bus.emit(TASK, phase=BEGIN, time=1.0, task_id=5, task="t5", node=0)
    bus.emit(TASK, phase=BEGIN, time=2.0, task_id=5, task="t5", node=1)
    bus.emit(TASK, phase=END, time=3.0, task_id=5, task="t5", node=1, outcome="done")
    bus.emit(CAMPAIGN, phase=END, time=4.0, campaign="c")


@pytest.mark.parametrize(
    "emit", [_allocations_but_no_attempts, _neither, _cut_mid_attempt, _displaced_attempt]
)
def test_fixed_odd_streams_match_the_oracle(emit):
    (report,) = assert_matches_oracle(_capture(emit))
    assert report.makespan > 0
