"""Integration: the execution layers emit a well-formed event stream.

A pilot-executor campaign recorded end to end must produce a
contract-clean stream (monotone per-bus timestamps, balanced spans),
export as Chrome ``trace_event`` dicts, drive nonzero task counters and
the ``nodes.busy`` gauge, carry the same node occupancy as the
in-process attempts, and feed the Software Provenance gauge.
"""

from repro.cluster.job import Task
from repro.gauges.levels import ProvenanceTier
from repro.observability import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    END,
    GROUP,
    TASK,
    TASK_REQUEUED,
    TraceRecorder,
    observed_provenance_tier,
    observed_software_metadata,
    provenance_store_from_trace,
    validate_event_stream,
)
from repro.observability.analysis import SpanTrace
from repro.savanna import PilotExecutor, RealExecutor

from conftest import make_cluster
from test_realexec import make_manifest, square


def run_recorded_campaign(mttf=None, n_tasks=10, nodes=4, walltime=400.0):
    cluster = make_cluster(nodes=nodes, mttf=mttf)
    recorder = TraceRecorder().attach(cluster.bus)
    tasks = [
        Task(name=f"t{i}", duration=30.0 + 5 * i, payload={"i": i})
        for i in range(n_tasks)
    ]
    result = PilotExecutor(cluster).run(
        tasks, nodes=nodes, walltime=walltime, max_allocations=3
    )
    return cluster, recorder, result


class TestPilotCampaignStream:
    def test_stream_is_well_formed(self):
        _, recorder, result = run_recorded_campaign()
        assert result.all_done
        validate_event_stream(recorder.events)  # monotone, balanced spans

    def test_timestamps_monotone_per_bus(self):
        _, recorder, _ = run_recorded_campaign()
        times = [e.time for e in recorder.events]
        assert times == sorted(times)  # single cluster: globally monotone
        seqs = [e.seq for e in recorder.events]
        assert seqs == sorted(set(seqs))

    def test_taxonomy_coverage(self):
        _, recorder, _ = run_recorded_campaign()
        names = {e.name for e in recorder.events}
        assert {CAMPAIGN, ALLOC, ALLOC_SUBMITTED, TASK} <= names
        # Node occupancy lives on the task spans alone.
        assert not any(name.startswith("node.") for name in names)

    def test_task_spans_nest_inside_alloc_spans(self):
        _, recorder, _ = run_recorded_campaign()
        open_allocs = 0
        for e in recorder.events:
            if e.name == ALLOC:
                open_allocs += 1 if e.phase == BEGIN else -1
            elif e.name == TASK:
                assert open_allocs > 0, "task event outside any alloc span"

    def test_campaign_span_brackets_everything(self):
        _, recorder, _ = run_recorded_campaign()
        assert recorder.events[0].name == CAMPAIGN
        assert recorder.events[0].phase == BEGIN
        assert recorder.events[-1].name == CAMPAIGN
        assert recorder.events[-1].phase == END
        assert recorder.events[-1].fields["completed"] == 10

    def test_counters_nonzero_and_consistent(self):
        _, recorder, result = run_recorded_campaign()
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["tasks.launched"] >= 10
        assert counters["tasks.done"] == len(result.completed) == 10
        assert counters["allocations.granted"] == len(result.outcomes)
        assert counters["allocations.granted"] == counters["allocations.ended"]

    def test_chrome_trace_format(self, tmp_path):
        import json

        _, recorder, _ = run_recorded_campaign()
        path = recorder.write_chrome_trace(tmp_path / "campaign.json")
        trace = json.loads(path.read_text())
        assert isinstance(trace, list) and trace
        for entry in trace:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(entry)
            assert entry["ph"] in ("B", "E", "i")
        # B/E pairing requires matching (pid, tid) per task span.
        task_rows = [e for e in trace if e["name"] == "task"]
        by_id = {}
        for e in task_rows:
            by_id.setdefault(e["args"]["task_id"], []).append(e)
        for entries in by_id.values():
            assert {e["tid"] for e in entries} == {entries[0]["tid"]}

    def test_failure_requeue_emits_events(self):
        _, recorder, result = run_recorded_campaign(mttf=2000.0, n_tasks=20)
        counters = recorder.metrics.snapshot()["counters"]
        if counters.get("tasks.failed", 0):  # mttf makes failures overwhelmingly likely
            assert counters["tasks.requeued"] >= 1
            requeues = [e for e in recorder.events if e.name == TASK_REQUEUED]
            assert all(e.fields["retries"] >= 1 for e in requeues)
        validate_event_stream(recorder.events)


class TestNodeOccupancy:
    def test_task_spans_carry_the_outcome_trace(self):
        """The recorded ``task`` spans place every attempt on the same
        nodes, over the same interval, as each outcome's ``trace()``."""
        _, recorder, result = run_recorded_campaign(mttf=2000.0, n_tasks=20)
        spans = SpanTrace.from_events(recorder.events).tasks
        for index, outcome in enumerate(result.outcomes):
            rows = outcome.trace().rows
            busy = {row.node_index: [] for row in rows}
            for span in spans:
                if span.alloc == index:
                    for node in span.nodes:
                        busy[node].append((span.start, span.end))
            assert [(row.node_index, row.intervals) for row in rows] == list(busy.items())

    def test_gauge_follows_multi_node_attempts(self):
        cluster = make_cluster(nodes=4)
        recorder = TraceRecorder().attach(cluster.bus)
        tasks = [Task(name=f"w{i}", duration=30.0 + i, nodes=2) for i in range(6)]
        PilotExecutor(cluster).run(tasks, nodes=4, walltime=400.0)
        gauge = recorder.metrics.snapshot()["gauges"]["nodes.busy"]
        assert gauge == {"value": 0.0, "peak": 4.0}

    def test_gauge_counts_busy_slots_of_a_real_drive(self):
        recorder = TraceRecorder()
        with recorder.recording():
            RealExecutor(max_workers=2).execute(make_manifest(values=range(6)), square)
        gauge = recorder.metrics.snapshot()["gauges"]["nodes.busy"]
        assert gauge["value"] == 0.0
        assert 1.0 <= gauge["peak"] <= 2.0


class TestProvenanceFromTrace:
    def test_store_holds_one_record_per_attempt(self):
        _, recorder, result = run_recorded_campaign()
        store = provenance_store_from_trace(recorder.events)
        assert len(store) == recorder.metrics.snapshot()["counters"]["tasks.launched"]
        record = store.query(component="t3")[0]
        assert record.outcome == "done"
        assert record.parameters == {"i": 3}
        assert record.elapsed > 0

    def test_observed_tier_ladder(self):
        from repro.metadata.provenance import ExportPolicy

        _, recorder, _ = run_recorded_campaign()
        assert observed_provenance_tier([]) is ProvenanceTier.NONE
        task_only = [e for e in recorder.events if e.name == TASK]
        assert observed_provenance_tier(task_only) is ProvenanceTier.EXECUTION_LOGS
        assert (
            observed_provenance_tier(recorder.events)
            is ProvenanceTier.CAMPAIGN_KNOWLEDGE
        )
        assert (
            observed_provenance_tier(recorder.events, export_policy=ExportPolicy())
            is ProvenanceTier.EXPORTABLE
        )

    def test_assess_earns_the_observed_tier(self):
        from repro.gauges import Gauge, assess
        from repro.gauges.model import WorkflowComponent

        _, recorder, _ = run_recorded_campaign()
        software = observed_software_metadata(recorder.events)
        component = WorkflowComponent(name="pilot-campaign", software=software)
        profile = assess(component).profile
        assert profile.tier(Gauge.SOFTWARE_PROVENANCE) is observed_provenance_tier(
            recorder.events
        )


class TestManifestExecutionStream:
    def test_group_and_composition_events(self):
        from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep
        from repro.savanna import execute_manifest

        cluster = make_cluster(nodes=4)
        recorder = TraceRecorder().attach(cluster.bus)
        campaign = Campaign("obs-study", app=AppSpec("sim"))
        group = campaign.sweep_group("grid", nodes=4, walltime=600.0)
        group.add(Sweep([RangeParameter("x", 0, 6)]))
        manifest = campaign.to_manifest(bus=cluster.bus)
        result = execute_manifest(
            manifest, lambda p: 40.0, cluster, backend="pilot", max_allocations=2
        )
        assert result.all_done
        validate_event_stream(recorder.events)
        names = [e.name for e in recorder.events]
        assert names[0] == "campaign.composed"
        groups = [e for e in recorder.events if e.name == GROUP]
        assert [e.phase for e in groups] == [BEGIN, END]
        assert groups[0].fields["campaign"] == "obs-study"
        assert groups[0].fields["runs"] == 6
        assert groups[1].fields["completed"] == 6
