"""Trace analytics: span reconstruction, reports, diffing, and the CLI.

Most tests drive the analyzer with small synthetic event streams built
through a real :class:`EventBus` (explicit ``time=`` overrides), so every
expected number is computable by hand; integration tests at the bottom
run the real simulated stack through ``savanna.drive`` and the fig6
harness.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _report_oracle
from repro.observability import (
    ALLOC,
    ALLOC_SUBMITTED,
    BEGIN,
    CAMPAIGN,
    CAMPAIGN_REPORT,
    END,
    GROUP,
    GROUP_RESUMED,
    TASK,
    TASK_RETRY,
    EventBus,
    validate_event_stream,
)
from repro.observability.analysis import (
    CampaignReport,
    SpanTrace,
    analyze_events,
    diff_reports,
    load_reports,
    mad,
    robust_threshold,
    write_reports,
)
from repro.observability.analysis.report import _EPS, _Columns, _critical_path
from repro.observability.analysis.spans import AllocSpan, TaskSpan


def capture_bus():
    """An EventBus plus the list its events land in."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    return bus, seen


def emit_task(bus, task_id, start, end, node=0, name=None, attempt=1,
              outcome="done", group=None):
    fields = {"task_id": task_id, "task": name or f"t{task_id}", "node": node,
              "attempt": attempt}
    bus.emit(TASK, phase=BEGIN, time=start, **fields)
    bus.emit(TASK, phase=END, time=end, outcome=outcome, **fields)


def two_node_campaign():
    """campaign 0..400: queue wait 100, two nodes, three tasks.

    node 0: t1 100-200, gap 50, t2 250-400 (ends the campaign)
    node 1: t3 100-150, idle afterward
    """
    bus, seen = capture_bus()
    bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c", tasks=3)
    bus.emit(ALLOC_SUBMITTED, time=0.0, job="j0")
    bus.emit(ALLOC, phase=BEGIN, time=100.0, alloc=0, job="j0", nodes=[0, 1])
    bus.emit(TASK, phase=BEGIN, time=100.0, task_id=1, task="t1", node=0, attempt=1)
    bus.emit(TASK, phase=BEGIN, time=100.0, task_id=3, task="t3", node=1, attempt=1)
    bus.emit(TASK, phase=END, time=150.0, task_id=3, task="t3", node=1, attempt=1, outcome="done")
    bus.emit(TASK, phase=END, time=200.0, task_id=1, task="t1", node=0, attempt=1, outcome="done")
    bus.emit(TASK, phase=BEGIN, time=250.0, task_id=2, task="t2", node=0, attempt=1)
    bus.emit(TASK, phase=END, time=400.0, task_id=2, task="t2", node=0, attempt=1, outcome="done")
    bus.emit(ALLOC, phase=END, time=400.0, alloc=0, job="j0", nodes=[0, 1], reason="drained")
    bus.emit(CAMPAIGN, phase=END, time=400.0, campaign="c", completed=3)
    validate_event_stream(seen)
    return seen


class TestRobustStats:
    def test_mad(self):
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0

    def test_robust_threshold_resists_outliers(self):
        values = [100.0] * 9 + [1000.0]
        # A mean+3*stddev cut would be dragged up by the outlier itself;
        # median+MAD stays near the bulk.
        assert robust_threshold(values) < 200.0


class TestSpanTrace:
    def test_reconstructs_nesting_and_queue_wait(self):
        trace = SpanTrace.from_events(two_node_campaign())
        assert len(trace.campaigns) == 1
        campaign = trace.campaigns[0]
        assert campaign.name == "c" and campaign.end == 400.0
        allocs = trace.allocs_of(campaign)
        assert len(allocs) == 1
        assert allocs[0].queue_wait == 100.0  # submitted 0, granted 100
        tasks = trace.tasks_of(campaign)
        assert {t.task_id for t in tasks} == {1, 2, 3}
        assert all(t.alloc == 0 and t.campaign == "c" for t in tasks)

    def test_truncated_capture_closes_spans_at_last_time(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        bus.emit(TASK, phase=BEGIN, time=5.0, task_id=0, task="t0", node=0)
        # ... driver crashed; no END events.
        trace = SpanTrace.from_events(seen)
        assert trace.campaigns[0].end == 5.0
        assert trace.tasks[0].end == 5.0
        assert trace.tasks[0].outcome is None

    def test_retry_instants_accumulate(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        emit_task(bus, 7, 0.0, 10.0, outcome="failed")
        bus.emit(TASK_RETRY, time=10.0, task_id=7, delay=30.0)
        emit_task(bus, 7, 40.0, 50.0, attempt=2, outcome="failed")
        bus.emit(TASK_RETRY, time=50.0, task_id=7, delay=60.0)
        emit_task(bus, 7, 110.0, 120.0, attempt=3)
        bus.emit(CAMPAIGN, phase=END, time=120.0, campaign="c")
        trace = SpanTrace.from_events(seen)
        # Each grant lands on the attempt it followed.
        assert [t.retries_granted for t in trace.tasks] == [1, 1, 0]
        assert [t.backoff for t in trace.tasks] == [30.0, 60.0, 0.0]


class TestCampaignReport:
    def test_critical_path_accounts_for_full_makespan(self):
        (report,) = analyze_events(two_node_campaign())
        assert report.makespan == 400.0
        kinds = [el["kind"] for el in report.critical_path]
        assert kinds == ["queue-wait", "task", "node-wait", "task"]
        assert report.critical_path_seconds == pytest.approx(400.0)
        # The path ends at the campaign-ending task, which has no slack.
        assert report.critical_path[-1]["label"].startswith("t2")
        assert report.critical_path[-1]["slack"] == 0.0

    def test_slack_of_off_path_task(self):
        (report,) = analyze_events(two_node_campaign())
        # t3 (node 1, ends 150) could slip 250s before hitting campaign end.
        t1 = next(el for el in report.critical_path if el["label"].startswith("t1"))
        assert t1["slack"] == pytest.approx(50.0)  # the gap before t2

    def test_attribution_node_seconds(self):
        (report,) = analyze_events(two_node_campaign())
        ns = report.attribution["node_seconds"]
        assert ns["capacity"] == pytest.approx(600.0)  # 2 nodes x 300s
        assert ns["execution"] == pytest.approx(300.0)  # 100 + 150 + 50
        assert ns["idle_gaps"] == pytest.approx(50.0)  # node 0: 200..250
        assert ns["idle_tail"] == pytest.approx(250.0)  # node 1: 150..400
        wc = report.attribution["wall_clock"]
        assert wc["queue_wait"] == pytest.approx(100.0)
        assert wc["in_allocation"] == pytest.approx(300.0)
        assert wc["resubmit_gaps"] == pytest.approx(0.0)

    def test_utilization_and_timeline(self):
        (report,) = analyze_events(two_node_campaign())
        u = report.utilization
        assert u["busy_node_seconds"] == pytest.approx(300.0)
        assert u["utilization"] == pytest.approx(0.5)
        assert u["peak_concurrency"] == 2
        assert len(u["timeline"]) == 16
        # Bucketed integral equals the total busy node-seconds.
        width = 400.0 / 16
        assert sum(b["busy"] * width for b in u["timeline"]) == pytest.approx(300.0)

    def test_stragglers_flagged_against_group_siblings(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        for i in range(9):
            emit_task(bus, i, 0.0, 100.0, node=i)
        emit_task(bus, 9, 0.0, 1000.0, node=9, name="slowpoke")
        bus.emit(CAMPAIGN, phase=END, time=1000.0, campaign="c")
        (report,) = analyze_events(seen)
        assert [s["task"] for s in report.stragglers] == ["slowpoke"]
        assert report.stragglers[0]["ratio"] == pytest.approx(10.0)

    def test_small_groups_never_flag_stragglers(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        emit_task(bus, 0, 0.0, 10.0)
        emit_task(bus, 1, 10.0, 1000.0)
        bus.emit(CAMPAIGN, phase=END, time=1000.0, campaign="c")
        (report,) = analyze_events(seen)
        assert report.stragglers == []

    def test_retry_hotspot_tasks(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        emit_task(bus, 5, 0.0, 10.0, outcome="failed", name="flaky")
        bus.emit(TASK_RETRY, time=10.0, task_id=5, delay=30.0)
        emit_task(bus, 5, 40.0, 50.0, attempt=2, outcome="failed", name="flaky")
        bus.emit(TASK_RETRY, time=50.0, task_id=5, delay=60.0)
        emit_task(bus, 5, 110.0, 120.0, attempt=3, name="flaky")
        bus.emit(CAMPAIGN, phase=END, time=120.0, campaign="c")
        (report,) = analyze_events(seen)
        (hot,) = report.retry_hotspots["tasks"]
        assert hot == {"task": "flaky", "retries": 2, "backoff": 90.0}
        # ... and the backoff shows up in the attribution.
        assert report.attribution["retry_backoff"] == pytest.approx(90.0)

    def test_report_roundtrips_through_dict(self):
        (report,) = analyze_events(two_node_campaign())
        clone = CampaignReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.makespan == report.makespan
        assert clone.critical_path == report.critical_path

    def test_to_text_names_the_sections(self):
        (report,) = analyze_events(two_node_campaign())
        text = report.to_text()
        for heading in ("critical path", "wait-time attribution",
                        "stragglers", "retry hotspots", "concurrency timeline"):
            assert heading in text


def linear_scan_critical_path(tasks, allocs, window, slack):
    """The critical-path walk as one linear scan of every task per step.

    The oracle for the indexed walk in ``report._critical_path``: the
    same backward walk, with predecessors found by scanning ``tasks`` in
    order (latest end wins, the first such task on ties).  A node
    predecessor must share the task's allocation.
    """
    start, _end = window
    elements = []

    def span_el(kind, label, t0, t1, node=None, el_slack=None):
        elements.append(
            {
                "kind": kind,
                "label": label,
                "start": t0,
                "end": t1,
                "duration": max(0.0, t1 - t0),
                "node": node,
                "slack": el_slack,
            }
        )

    alloc_by_index = {a.index: a for a in allocs}
    visited = set()

    def node_pred(cur):
        cur_nodes = set(cur.nodes or ((cur.node,) if cur.node is not None else ()))
        best = None
        for t in tasks:
            if t is cur or id(t) in visited or t.end > cur.start + _EPS:
                continue
            if t.alloc != cur.alloc:
                continue
            t_nodes = set(t.nodes or ((t.node,) if t.node is not None else ()))
            if not (cur_nodes & t_nodes):
                continue
            if best is None or t.end > best.end:
                best = t
        return best

    def any_pred(before):
        best = None
        for t in tasks:
            if id(t) in visited or t.end > before + _EPS:
                continue
            if best is None or t.end > best.end:
                best = t
        return best

    cur = max(tasks, key=lambda t: t.end) if tasks else None
    if cur is None and allocs:
        alloc = max(allocs, key=lambda a: a.end or a.start)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)
        return elements

    while cur is not None:
        visited.add(id(cur))
        span_el(
            "task",
            f"{cur.name} (attempt {cur.attempt}, {cur.outcome or 'open'})",
            cur.start,
            cur.end,
            node=cur.node,
            el_slack=slack.get(id(cur)),
        )
        pred = node_pred(cur)
        if pred is not None:
            gap = cur.start - pred.end
            if gap > _EPS:
                kind = "retry-backoff" if cur.attempt > 1 else "node-wait"
                span_el(kind, f"before {cur.name}", pred.end, cur.start, node=cur.node)
            cur = pred
            continue
        alloc = alloc_by_index.get(cur.alloc)
        if alloc is None:
            break
        if cur.start - alloc.start > _EPS:
            span_el("dispatch-wait", f"in job {alloc.job}", alloc.start, cur.start, node=cur.node)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)
        submit = alloc.submitted if alloc.submitted is not None else alloc.start
        pred = any_pred(submit)
        if pred is None:
            if submit - start > _EPS:
                span_el("campaign-lead", "before first submission", start, submit)
            break
        gap = submit - pred.end
        if gap > _EPS:
            span_el("resubmit-gap", f"before job {alloc.job}", pred.end, submit)
        cur = pred

    elements.reverse()
    return elements


#: Span times: a coarse grid nudged by less than, exactly, and more than
#: _EPS, so tied and near-tied ends are common.
_TIMES = st.builds(
    lambda base, nudge: base + nudge,
    st.sampled_from((0.0, 1.0, 2.0, 3.0, 5.0)),
    st.sampled_from((0.0, 0.4 * _EPS, _EPS, 1.6 * _EPS)),
)
#: Durations, zero-length and sub-_EPS included.
_LENGTHS = st.sampled_from((0.0, 0.5 * _EPS, 1.0, 2.0))


@st.composite
def walk_inputs(draw):
    """Tasks and allocations in every shape the walk must handle."""
    allocs = []
    for index in range(draw(st.integers(0, 3))):
        grant = draw(_TIMES)
        allocs.append(
            AllocSpan(
                pid=0,
                index=index,
                job=f"j{index}",
                nodes=(0, 1, 2),
                start=grant,
                end=grant + draw(_LENGTHS),
                submitted=draw(st.none() | _TIMES),
            )
        )
    tasks = []
    for task_id in range(draw(st.integers(0, 14))):
        begin = draw(_TIMES)
        tasks.append(
            TaskSpan(
                pid=0,
                task_id=task_id,
                name=f"t{task_id}",
                node=draw(st.none() | st.integers(0, 2)),
                nodes=tuple(draw(st.lists(st.integers(0, 2), max_size=3, unique=True))),
                attempt=draw(st.integers(1, 2)),
                start=begin,
                end=begin + draw(_LENGTHS),
                outcome=draw(st.sampled_from(("done", "failed", None))),
                # Index 3 names no allocation: the walk must stop there.
                alloc=draw(st.none() | st.integers(0, 3)),
            )
        )
    tasks = draw(st.permutations(tasks))
    window = (draw(_TIMES), 10.0)
    return tasks, allocs, window


class TestCriticalPathIndex:
    """The indexed walk picks exactly what a scan of every task picks,
    with the slack the per-attempt passes of ``tests/_report_oracle.py``
    compute."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(walk_inputs())
    def test_indexed_walk_matches_linear_scan_oracle(self, inputs):
        tasks, allocs, window = inputs
        by_node = _report_oracle._busy_intervals_by_node(tasks)
        slack = _report_oracle._slack_by_task(tasks, by_node, window[1])
        assert _critical_path(
            tasks, allocs, window, _Columns(tasks, window[1])
        ) == linear_scan_critical_path(tasks, allocs, window, slack)

    def test_node_predecessor_stays_in_its_allocation(self):
        from repro.cluster.cluster import ClusterSpec, SimulatedCluster
        from repro.cluster.job import Task
        from repro.savanna.pilot import PilotExecutor

        spec = ClusterSpec(
            nodes=4, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=1e12
        )
        cluster = SimulatedCluster(spec, seed=3)
        seen = []
        cluster.bus.subscribe(seen.append)
        tasks = [Task(name=f"t{i}", duration=100.0) for i in range(24)]
        PilotExecutor(cluster).run(tasks, nodes=4, walltime=350.0, max_allocations=4)
        (report,) = analyze_events(seen)
        first, second = report.allocations
        # A walltime kill splits the campaign across two allocations, and
        # both queue waits are real wall clock.
        assert report.attribution["wall_clock"]["queue_wait"] == pytest.approx(
            first["queue_wait"] + second["queue_wait"]
        )
        waits = [el for el in report.critical_path if el["kind"] == "queue-wait"]
        assert [el["label"] for el in waits] == ["job pilot-1", "job pilot-2"]
        assert waits[1]["start"] == pytest.approx(first["end"])
        assert waits[1]["end"] == pytest.approx(second["start"])
        for el in report.critical_path:
            if el["kind"] in ("node-wait", "retry-backoff"):
                assert any(
                    a["start"] - _EPS <= el["start"] and el["end"] <= a["end"] + _EPS
                    for a in report.allocations
                ), el
        assert report.critical_path_seconds == pytest.approx(report.makespan)


class TestAnalyzerEdgeCases:
    """The validate_event_stream contract meets the analyzer's corners."""

    def test_empty_campaign(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="empty", tasks=0)
        bus.emit(CAMPAIGN, phase=END, time=0.0, campaign="empty", completed=0)
        validate_event_stream(seen)
        (report,) = analyze_events(seen)
        assert report.makespan == 0.0
        assert report.critical_path == []
        assert report.utilization["utilization"] == 0.0
        assert report.to_text()  # renders without dividing by zero

    def test_alloc_with_zero_tasks(self):
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        bus.emit(ALLOC_SUBMITTED, time=0.0, job="j0")
        bus.emit(ALLOC, phase=BEGIN, time=50.0, alloc=0, job="j0", nodes=[0, 1])
        bus.emit(ALLOC, phase=END, time=150.0, alloc=0, job="j0", nodes=[0, 1], reason="walltime")
        bus.emit(CAMPAIGN, phase=END, time=150.0, campaign="c", completed=0)
        validate_event_stream(seen)
        (report,) = analyze_events(seen)
        # Every allocated node-second was idle tail; the critical path is
        # the queue wait alone.
        assert report.attribution["node_seconds"]["idle_tail"] == pytest.approx(200.0)
        assert [el["kind"] for el in report.critical_path] == ["queue-wait"]
        assert report.counts["attempts"] == 0

    def test_displaced_task_span_closes_at_last_time(self):
        # A second begin under the same (pid, task_id) while the first
        # attempt is still open: the first never sees its end.
        bus, seen = capture_bus()
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        bus.emit(TASK, phase=BEGIN, time=1.0, task_id=5, task="t5", node=0)
        bus.emit(TASK, phase=BEGIN, time=2.0, task_id=5, task="t5", node=1)
        bus.emit(TASK, phase=END, time=3.0, task_id=5, task="t5", node=1, outcome="done")
        bus.emit(CAMPAIGN, phase=END, time=4.0, campaign="c")
        (report,) = analyze_events(seen)
        assert report.counts["attempts"] == 2
        assert report.counts["done"] == 1
        displaced, second = SpanTrace.from_events(seen).tasks
        assert (displaced.node, displaced.end, displaced.outcome) == (0, 4.0, None)
        assert (second.node, second.end, second.outcome) == (1, 3.0, "done")

    @pytest.mark.parametrize("resumed_first", [False, True], ids=["in-campaign", "in-group"])
    def test_resumed_group_skip_count(self, resumed_first):
        # The drive emits group.resumed inside its group span, before the
        # executor opens the campaign span; an executor may emit it after.
        bus, seen = capture_bus()
        bus.emit(GROUP, phase=BEGIN, time=0.0, campaign="c", group="g", runs=2)
        resumed = dict(time=0.0, campaign="c", total=7, skipped=5, pending=2)
        if resumed_first:
            bus.emit(GROUP_RESUMED, **resumed)
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c/g")
        if not resumed_first:
            bus.emit(GROUP_RESUMED, **resumed)
        emit_task(bus, 0, 0.0, 10.0, group="g")
        emit_task(bus, 1, 10.0, 20.0, group="g")
        bus.emit(CAMPAIGN, phase=END, time=20.0, campaign="c/g", completed=2)
        bus.emit(GROUP, phase=END, time=20.0, campaign="c", group="g", completed=2)
        validate_event_stream(seen)
        (report,) = analyze_events(seen)
        assert report.group == "g"
        assert report.counts["resumed_skipped"] == 5
        assert "skipped by resume" in report.to_text()

    def test_out_of_order_seq_rejected(self):
        events = two_node_campaign()
        shuffled = [events[1], events[0], *events[2:]]
        with pytest.raises(ValueError, match="sequence"):
            validate_event_stream(shuffled)


class TestDiffReports:
    def _reports(self, makespan=400.0):
        events = two_node_campaign()
        reports = analyze_events(events)
        if makespan != 400.0:
            scale = makespan / 400.0
            for r in reports:
                r.makespan *= scale
                r.end = r.start + r.makespan
        return reports

    def test_identical_reports_do_not_regress(self):
        diff = diff_reports(self._reports(), self._reports())
        assert diff.regressions(threshold_pct=0.0) == []
        assert diff.diffs[0].makespan_pct == pytest.approx(0.0)

    def test_makespan_regression_detected(self):
        diff = diff_reports(self._reports(), self._reports(makespan=500.0))
        assert diff.diffs[0].makespan_pct == pytest.approx(25.0)
        assert diff.regressions(threshold_pct=10.0)
        assert diff.regressions(threshold_pct=30.0) == []
        assert "regression" in diff.to_text()

    def test_missing_campaign_fails_the_gate(self):
        diff = diff_reports(self._reports(), [])
        problems = diff.regressions(threshold_pct=100.0)
        assert problems and "missing" in problems[0]

    def test_accepts_plain_dicts(self):
        base = [r.to_dict() for r in self._reports()]
        cand = [r.to_dict() for r in self._reports(makespan=800.0)]
        diff = diff_reports(base, cand)
        assert diff.diffs[0].makespan_pct == pytest.approx(100.0)


class TestReportIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        reports = analyze_events(two_node_campaign())
        path = write_reports(tmp_path / "r.json", reports)
        loaded = load_reports(path)
        assert [r.makespan for r in loaded] == [r.makespan for r in reports]

    def test_load_accepts_raw_trace(self, tmp_path):
        from repro.observability import TraceRecorder

        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        bus.emit(CAMPAIGN, phase=BEGIN, time=0.0, campaign="c")
        bus.emit(CAMPAIGN, phase=END, time=10.0, campaign="c")
        path = rec.write_chrome_trace(tmp_path / "t.json")
        (report,) = load_reports(path)
        assert report.campaign == "c" and report.makespan == 10.0

    def test_load_rejects_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            load_reports(42)


class TestCLI:
    def _trace_file(self, tmp_path, name="t.json"):
        from repro.observability import TraceRecorder

        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        for event in two_node_campaign():
            bus.emit(event.name, phase=event.phase, time=event.time, **event.fields)
        return rec.write_chrome_trace(tmp_path / name)

    def test_report_prints_the_analytics(self, tmp_path, capsys):
        from repro.observability.__main__ import main

        trace = self._trace_file(tmp_path)
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "wait-time attribution" in out

    def test_report_json_and_out_file(self, tmp_path, capsys):
        from repro.observability.__main__ import main

        trace = self._trace_file(tmp_path)
        out_path = tmp_path / "r.json"
        assert main(["report", str(trace), "--format", "json", "--out", str(out_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema"].startswith("repro.observability.report/")
        assert load_reports(out_path)

    def test_diff_gate_passes_and_fails(self, tmp_path, capsys):
        from repro.observability.__main__ import main

        trace = self._trace_file(tmp_path)
        base = tmp_path / "base.json"
        assert main(["report", str(trace), "--out", str(base)]) == 0
        capsys.readouterr()
        # Same trace against its own report: no regression.
        assert main(["diff", str(base), str(trace), "--fail-on-regression", "5"]) == 0
        capsys.readouterr()
        # Degrade the candidate's makespan 50%: gate trips.
        data = json.loads(base.read_text())
        for r in data["reports"]:
            r["makespan"] *= 1.5
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(data))
        assert main(["diff", str(base), str(slow), "--fail-on-regression", "5"]) == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestLiveWiring:
    def _manifest(self, n=8):
        from repro.cheetah.manifest import CampaignManifest, RunSpec

        runs = tuple(
            RunSpec(run_id=f"sweep/run-{i:04d}", group="sweep", parameters={"x": i})
            for i in range(n)
        )
        return CampaignManifest(
            campaign="demo",
            app="app",
            runs=runs,
            executable="app.x",
            groups=({"name": "sweep", "nodes": 4, "walltime": 4000.0},),
        )

    def test_drive_report_emits_event_and_writes_report_json(self, tmp_path):
        from repro.cheetah.directory import CampaignDirectory
        from repro.cluster import ClusterSpec, SimulatedCluster
        from repro.savanna.drive import execute_campaign

        cluster = SimulatedCluster(ClusterSpec(nodes=4, node_mttf=None))
        seen = []
        cluster.bus.subscribe(
            lambda e: seen.append(e) if e.name == CAMPAIGN_REPORT else None
        )
        execute_campaign(
            self._manifest(), lambda p: 100.0, cluster,
            directory=tmp_path, report=True,
        )
        assert len(seen) == 1
        headline = seen[0].fields
        assert headline["group"] == "sweep"
        assert headline["tasks_done"] == 8
        assert headline["makespan"] > 0
        directory = CampaignDirectory.open(tmp_path / "demo")
        (saved,) = directory.read_report()
        assert saved["group"] == "sweep"
        assert saved["makespan"] == pytest.approx(headline["makespan"])

    def test_rerun_replaces_rather_than_duplicates(self, tmp_path):
        from repro.cheetah.directory import CampaignDirectory
        from repro.cluster import ClusterSpec, SimulatedCluster
        from repro.savanna.drive import execute_campaign

        for _ in range(2):
            cluster = SimulatedCluster(ClusterSpec(nodes=4, node_mttf=None))
            execute_campaign(
                self._manifest(), lambda p: 100.0, cluster,
                directory=tmp_path, report=True,
            )
        directory = CampaignDirectory.open(tmp_path / "demo")
        assert len(directory.read_report()) == 1

    def test_report_off_by_default_leaves_no_file(self, tmp_path):
        from repro.cheetah.directory import CampaignDirectory
        from repro.cluster import ClusterSpec, SimulatedCluster
        from repro.savanna.drive import execute_campaign

        cluster = SimulatedCluster(ClusterSpec(nodes=4, node_mttf=None))
        execute_campaign(self._manifest(), lambda p: 100.0, cluster, directory=tmp_path)
        directory = CampaignDirectory.open(tmp_path / "demo")
        assert directory.read_report() == []

    def test_fig6_reports_cover_both_executors(self):
        from repro.experiments import fig6_timeline, run_with_trace

        _, recorder = run_with_trace(
            fig6_timeline, n_tasks=24, nodes=6, walltime=7200.0, seed=21
        )
        reports = analyze_events(recorder.events)
        assert sorted(r.campaign for r in reports) == ["pilot", "static"]
        pilot = next(r for r in reports if r.campaign == "pilot")
        static = next(r for r in reports if r.campaign == "static")
        # The paper's claim, read straight off the trace: dynamic
        # scheduling wastes far less of the allocation than set barriers.
        assert pilot.utilization["utilization"] > static.utilization["utilization"]
        assert pilot.critical_path_seconds == pytest.approx(pilot.makespan)
