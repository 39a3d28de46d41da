"""The committed fig6 trace is still the stream the code emits.

``benchmarks/bench_fig6_utilization_timeline.py`` writes
``results/fig6_utilization_timeline.trace.json``; the streaming-report
tests replay that file, so a change to what the executors emit would go
unnoticed there.  This reruns the traced drive in process and compares
its Chrome entries with the committed ones.

Two identifiers come from process-global counters: the bus ``pid`` and
``Task.task_id``.  The committed file was written inside a pytest
session, after other tests had advanced both, so each side renumbers
pids, and ``(pid, task_id)`` pairs, in order of first appearance.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.experiments import fig6_timeline, run_with_trace

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
COMMITTED = BENCHMARKS / "results" / "fig6_utilization_timeline.trace.json"


def _fig6_kwargs() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_fig6_utilization_timeline", BENCHMARKS / "bench_fig6_utilization_timeline.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.FIG6_KWARGS


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
