"""Streaming analytics equivalence: fold-as-you-go == batch replay.

The contract under test (see ``repro.observability.analysis.streaming``):
a :class:`StreamingCampaignReport` fed the same event stream as
:func:`analyze_events` — one event at a time, or in arbitrary batch
chunkings — produces *serialized-identical* reports.  The committed
Chrome traces under ``benchmarks/results/`` are the fixtures: every
``*.trace.json`` in the repo is replayed through both paths.  A
Hypothesis property draws simulated drives, and the reports of one
stream must partition it: every task and alloc span lands in exactly
one campaign's report, even when campaigns share a name or reuse task
ids on one bus.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cluster
from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cluster.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.job import Task
from repro.observability import ALLOC, BEGIN, TASK
from repro.observability.analysis import StreamingCampaignReport, analyze_events
from repro.observability.recorder import TraceRecorder, events_from_trace
from repro.resilience import FixedDelayPolicy
from repro.savanna import PilotExecutor, execute_campaign
from repro.savanna.realexec import wall_clock_bus
from test_simcore_equivalence import _cluster, _scenarios

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
COMMITTED_TRACES = sorted(RESULTS.glob("*.trace.json"))


def _serialize(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


def test_committed_traces_exist():
    """The fixture set must never silently go empty."""
    assert COMMITTED_TRACES, f"no committed *.trace.json under {RESULTS}"


@pytest.mark.parametrize(
    "trace_path", COMMITTED_TRACES, ids=[p.stem for p in COMMITTED_TRACES]
)
def test_streaming_matches_batch_event_by_event(trace_path):
    """Feeding one event at a time reproduces the batch reports exactly."""
    events = events_from_trace(trace_path)
    builder = StreamingCampaignReport()
    for event in events:
        builder.feed(event)
    assert _serialize(builder.reports()) == _serialize(analyze_events(events))


@pytest.mark.parametrize(
    "trace_path", COMMITTED_TRACES, ids=[p.stem for p in COMMITTED_TRACES]
)
@pytest.mark.parametrize("chunk", [1, 7, 64, 100000])
def test_streaming_matches_batch_under_any_chunking(trace_path, chunk):
    """on_batch delivery in arbitrary chunk sizes changes nothing."""
    events = events_from_trace(trace_path)
    builder = StreamingCampaignReport()
    for i in range(0, len(events), chunk):
        builder.on_batch(events[i : i + chunk])
    assert _serialize(builder.reports()) == _serialize(analyze_events(events))


def _small_campaign(bus_taps):
    """Run a small simulated campaign with extra bus subscribers attached."""
    cluster = SimulatedCluster(
        ClusterSpec(nodes=6, queue_sigma=0.0, queue_median_wait=60.0, node_mttf=4000.0),
        seed=5,
    )
    taps = [tap(cluster.bus) for tap in bus_taps]
    tasks = [Task(name=f"t{i}", duration=300.0 + 17.0 * i) for i in range(24)]
    PilotExecutor(cluster).run(tasks, nodes=6, walltime=20000.0)
    return taps


def test_live_capture_matches_recorder_replay():
    """Attached to a live bus, streaming == record-then-analyze."""
    recorder = TraceRecorder()
    builder = StreamingCampaignReport()
    _small_campaign([recorder.attach, builder.attach])
    recorder.detach()
    builder.detach()
    assert _serialize(builder.reports()) == _serialize(analyze_events(recorder.events))


def test_feeding_after_finalize_is_an_error():
    events = events_from_trace(COMMITTED_TRACES[0])
    builder = StreamingCampaignReport()
    builder.on_batch(events)
    builder.reports()
    with pytest.raises(RuntimeError, match="finalized"):
        builder.feed(events[0])
    with pytest.raises(RuntimeError, match="finalized"):
        builder.on_batch(events[:1])


def test_reports_are_cached_and_stable():
    events = events_from_trace(COMMITTED_TRACES[0])
    builder = StreamingCampaignReport()
    builder.on_batch(events)
    assert builder.reports() is builder.reports()


# -- one campaign span per report ----------------------------------------------


def test_same_named_campaigns_on_one_bus_report_separately():
    """Two runs named alike on one cluster keep their own spans."""
    cluster = make_cluster(nodes=2)
    recorder = TraceRecorder().attach(cluster.bus)
    for _ in range(2):
        tasks = [Task(name=f"t{i}", duration=100.0) for i in range(4)]
        PilotExecutor(cluster).run(tasks, nodes=2, walltime=5000.0, name="same")
    recorder.detach()
    reports = analyze_events(recorder.events)
    assert [r.campaign for r in reports] == ["same", "same"]
    for report in reports:
        assert report.counts["attempts"] == 4
        assert report.counts["allocations"] == 1
        assert report.utilization["utilization"] == pytest.approx(1.0)
    assert reports[0].end <= reports[1].start


def fail_first_run_of_g1(params):
    if params["g"] == "g1" and params["x"] == 0:
        raise ValueError("boom")
    return params["x"]


def test_reused_task_ids_keep_their_own_retries():
    """Real groups restart task ids; g1's retries stay out of g2's report."""
    campaign = Campaign("two-groups", app=AppSpec("f"))
    for group in ("g1", "g2"):
        sg = campaign.sweep_group(group, nodes=1, walltime=60.0)
        sg.add(Sweep([SweepParameter("x", (0, 1)), SweepParameter("g", (group,))]))
    bus = wall_clock_bus()
    recorder = TraceRecorder().attach(bus)
    execute_campaign(
        campaign.to_manifest(),
        backend="local-threads",
        app_fn=fail_first_run_of_g1,
        bus=bus,
        max_workers=1,
        retry_policy=FixedDelayPolicy(max_retries=2, delay_seconds=0.01),
    )
    recorder.detach()
    g1, g2 = analyze_events(recorder.events)
    assert (g1.group, g2.group) == ("g1", "g2")
    assert g1.attribution["retry_backoff"] == pytest.approx(0.02)
    assert g1.counts["failed"] == 3
    assert g2.attribution["retry_backoff"] == 0.0
    assert g2.counts["failed"] == 0


@settings(deadline=None)
@given(_scenarios(), st.booleans(), st.integers(1, 500))
def test_generated_drives_fold_live_as_replayed(scenario, twice, chunk):
    """Property: over generated drives, the live fold equals every replay,
    and the reports partition the stream's task and alloc spans.

    ``twice`` runs the scenario a second time on the same cluster under
    the same campaign name; ``chunk`` is the ``on_batch`` size of the
    chunked replay.
    """
    spec, faults, make_executor, make_tasks, run_kwargs = scenario
    cluster = _cluster(spec, faults)
    builder = StreamingCampaignReport().attach(cluster.bus)
    recorder = TraceRecorder().attach(cluster.bus)
    for _ in range(2 if twice else 1):
        make_executor(cluster).run(make_tasks(), name="drawn", **run_kwargs)
    builder.detach()
    recorder.detach()
    events = recorder.events

    live = _serialize(builder.reports())
    assert live == _serialize(analyze_events(events))
    chunked = StreamingCampaignReport()
    for i in range(0, len(events), chunk):
        chunked.on_batch(events[i : i + chunk])
    assert live == _serialize(chunked.reports())

    reports = builder.reports()
    assert len(reports) == (2 if twice else 1)
    begins = [e.name for e in events if e.phase == BEGIN]
    assert sum(r.counts["attempts"] for r in reports) == begins.count(TASK)
    assert sum(r.counts["allocations"] for r in reports) == begins.count(ALLOC)
