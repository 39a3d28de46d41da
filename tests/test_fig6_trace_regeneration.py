"""The committed fig6 trace and reports are still what the code computes.

``benchmarks/bench_fig6_utilization_timeline.py`` writes
``results/fig6_utilization_timeline.trace.json``; the streaming-report
tests replay that file, so a change to what the executors emit would go
unnoticed there.  This reruns the traced drive in process and compares
its Chrome entries with the committed ones, and its metrics snapshot with
the committed ``fig6_utilization_timeline.trace.metrics.json``.  It also
analyzes the rerun
at the bench's quick and full parameters and compares every report with
the committed ``fig6_quick_baseline.report.json`` (the CI diff's
baseline) and ``fig6_utilization_timeline.report.json``.

Two identifiers come from process-global counters: the bus ``pid`` and
``Task.task_id``.  The committed file was written inside a pytest
session, after other tests had advanced both, so each side renumbers
pids, and ``(pid, task_id)`` pairs, in order of first appearance.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.experiments import fig6_timeline, run_with_trace
from repro.observability import events_from_trace
from repro.observability.analysis import analyze_events

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"
COMMITTED = RESULTS / "fig6_utilization_timeline.trace.json"
COMMITTED_METRICS = RESULTS / "fig6_utilization_timeline.trace.metrics.json"


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_fig6_utilization_timeline", BENCHMARKS / "bench_fig6_utilization_timeline.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _fig6_kwargs() -> dict:
    return _bench().FIG6_KWARGS


def _renumbered(entries) -> list:
    pids: dict = {}
    task_ids: dict = {}
    out = []
    for entry in entries:
        entry = dict(entry)
        pid = entry["pid"]
        entry["pid"] = pids.setdefault(pid, len(pids))
        args = entry.get("args")
        if args and "task_id" in args:
            args = dict(args)
            args["task_id"] = task_ids.setdefault((pid, args["task_id"]), len(task_ids))
            entry["args"] = args
        out.append(entry)
    return out


def test_fig6_trace_matches_the_committed_capture():
    _, recorder = run_with_trace(fig6_timeline, **_fig6_kwargs())
    emitted = json.loads(json.dumps(recorder.to_chrome_trace()))
    committed = json.loads(COMMITTED.read_text())
    assert len(emitted) == len(committed)
    for index, (ours, theirs) in enumerate(zip(_renumbered(emitted), _renumbered(committed))):
        assert ours == theirs, f"entry {index} differs"
    snapshot = json.loads(json.dumps(recorder.metrics.snapshot()))
    _assert_same(snapshot, json.loads(COMMITTED_METRICS.read_text()), "metrics")


def _assert_same(ours, theirs, where: str) -> None:
    """Equal, floats to 1e-12: a compensated ``sum()`` (Python 3.12+)
    may move the last bits of a total the committed files summed without."""
    if isinstance(theirs, float) and isinstance(ours, float):
        assert math.isclose(ours, theirs, rel_tol=1e-12), f"{where}: {ours!r} != {theirs!r}"
    elif isinstance(theirs, dict) and isinstance(ours, dict):
        assert list(ours) == list(theirs), f"{where}: keys differ"
        for key in theirs:
            _assert_same(ours[key], theirs[key], f"{where}.{key}")
    elif isinstance(theirs, list) and isinstance(ours, list):
        assert len(ours) == len(theirs), f"{where}: lengths differ"
        for index, (a, b) in enumerate(zip(ours, theirs)):
            _assert_same(a, b, f"{where}[{index}]")
    else:
        assert type(ours) is type(theirs) and ours == theirs, f"{where}: {ours!r} != {theirs!r}"


@pytest.mark.parametrize(
    "kwargs_name, committed",
    [
        ("FIG6_QUICK_KWARGS", "fig6_quick_baseline.report.json"),
        ("FIG6_KWARGS", "fig6_utilization_timeline.report.json"),
    ],
)
def test_fig6_reports_match_the_committed_reports(kwargs_name, committed):
    _, recorder = run_with_trace(fig6_timeline, **getattr(_bench(), kwargs_name))
    ours = [r.to_dict() for r in analyze_events(recorder.events)]
    theirs = json.loads((RESULTS / committed).read_text())["reports"]
    assert len(ours) == len(theirs)
    for index, (a, b) in enumerate(zip(ours, theirs)):
        # pid comes from a process-wide counter.
        a.pop("pid")
        b.pop("pid")
        _assert_same(a, b, f"report[{index}]")


def _with_node_instants(entries) -> list:
    """``entries`` as captures were written while nodes published their
    own occupancy: a ``node.busy`` instant per node before each ``task``
    begin and a ``node.idle`` before each end, sequence numbers left for
    the loader to derive from file order."""
    out, held = [], {}
    for entry in entries:
        entry = {key: value for key, value in entry.items() if key != "seq"}
        if entry["name"] == "task":
            key = (entry["pid"], entry["args"]["task_id"])
            if entry["ph"] == "B":
                name, nodes = "node.busy", entry["args"]["nodes"]
                held[key] = nodes
            else:
                name, nodes = "node.idle", held.pop(key)
            for node in nodes:
                instant = {"name": name, "ph": "i", "s": "t", "ts": entry["ts"], "t": entry["t"]}
                out.append(dict(instant, pid=entry["pid"], tid=node + 1, args={"node": node}))
        out.append(entry)
    return out


def test_captures_with_node_instants_still_analyze():
    committed = json.loads(COMMITTED.read_text())
    old_form = _with_node_instants(committed)
    assert len(old_form) == 890
    ours = [r.to_dict() for r in analyze_events(events_from_trace(old_form))]
    theirs = [r.to_dict() for r in analyze_events(events_from_trace(committed))]
    assert ours == theirs
