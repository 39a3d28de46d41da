"""The per-attempt Python passes that built campaign reports before the
column finalize: the oracle of ``tests/test_report_equivalence.py``.

:func:`report_for_campaign` here takes the same arguments as
:func:`repro.observability.analysis.report.report_for_campaign` and must
return a report that serializes to the same bytes.  The passes walk the
task spans one attempt at a time, with a tuple key per attempt and node
and one sort per percentile, which is slow but easy to read; the
critical-path walk bisects ``(end, -position)`` tuples.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf

from repro.observability.analysis.report import (
    _EPS,
    _STRAGGLER_MIN_RATIO,
    _STRAGGLER_MIN_SIBLINGS,
    CampaignReport,
    robust_threshold,
)
from repro.observability.analysis.spans import SpanTrace
from repro.observability.metrics import percentile


# ---------------------------------------------------------------------------
# analysis passes


def _nodes_of(task) -> tuple:
    """The nodes a task attempt occupied (none for an unplaced one)."""
    return task.nodes or ((task.node,) if task.node is not None else ())


def _busy_intervals_by_node(tasks):
    """node -> sorted [(start, end, task)] occupancy from task spans."""
    by_node: dict = {}
    for t in tasks:
        for node in _nodes_of(t):
            by_node.setdefault(node, []).append(t)
    for spans in by_node.values():
        spans.sort(key=lambda t: (t.start, t.end))
    return by_node


def _slack_by_task(tasks, by_node, window_end: float) -> dict:
    """Task -> seconds it could slip before extending the makespan.

    In this greedy schedule, delaying a task pushes every later task on
    its node(s); the absorbable delay is the summed idle gaps behind it
    on the node plus the node's tail gap to the campaign end.  A
    multi-node task takes the tightest of its nodes.
    """
    node_slack: dict = {}  # (node, task id) -> slack
    for node, spans in by_node.items():
        tail = max(0.0, window_end - spans[-1].end)
        # Walk backward accumulating the gaps behind each task.
        acc = tail
        for i in range(len(spans) - 1, -1, -1):
            node_slack[(node, id(spans[i]))] = acc
            if i > 0:
                acc += max(0.0, spans[i].start - spans[i - 1].end)
    slack = {}
    for t in tasks:
        keys = [(n, id(t)) for n in _nodes_of(t)]
        vals = [node_slack[k] for k in keys if k in node_slack]
        slack[id(t)] = min(vals) if vals else max(0.0, window_end - t.end)
    return slack


def _critical_path(tasks, allocs, window, slack):
    """Backward walk from the last-ending work to the campaign start.

    Each step picks the predecessor that ended last by a bound (ties go
    to the earliest task in ``tasks`` order): first among earlier tasks
    on the current task's node(s) in the same allocation, else, at the
    allocation's first task, among all tasks before its submission.
    Both lookups bisect ``(end, -position)`` keys sorted once per
    report, so the walk is O(n log n) rather than a scan per step.
    """
    start, _end = window
    elements: list[dict] = []

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
    # The rightmost key ending by a bound is the latest end, and among
    # equal ends the earliest position.
    keys = sorted((t.end, -i) for i, t in enumerate(tasks))
    by_alloc_node: dict = {}  # (alloc, node) -> sorted keys of its tasks
    for key in keys:
        t = tasks[-key[1]]
        for node in _nodes_of(t):
            by_alloc_node.setdefault((t.alloc, node), []).append(key)
    visited: set[int] = set()  # positions already on the path

    def latest(index, bound: float):
        """The greatest unvisited key in ``index`` ending by ``bound``."""
        i = bisect_right(index, (bound + _EPS, inf))
        while i:
            i -= 1
            if -index[i][1] not in visited:
                return index[i]
        return None

    def node_pred(cur):
        best = None
        for node in _nodes_of(cur):
            key = latest(by_alloc_node.get((cur.alloc, node), ()), cur.start)
            if key is not None and (best is None or key > best):
                best = key
        return best

    key = keys[-1] if keys else None
    if key is None and allocs:
        # A campaign that granted allocations but launched nothing:
        # the path is just the first allocation's queue wait.
        alloc = max(allocs, key=lambda a: a.end or a.start)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)

    while key is not None:
        visited.add(-key[1])
        cur = tasks[-key[1]]
        span_el(
            "task",
            f"{cur.name} (attempt {cur.attempt}, {cur.outcome or 'open'})",
            cur.start,
            cur.end,
            node=cur.node,
            el_slack=slack.get(id(cur)),
        )
        key = node_pred(cur)
        if key is not None:
            pred = tasks[-key[1]]
            gap = cur.start - pred.end
            if gap > _EPS:
                kind = "retry-backoff" if cur.attempt > 1 else "node-wait"
                span_el(kind, f"before {cur.name}", pred.end, cur.start, node=cur.node)
            continue
        # First task on its node(s) in this allocation: the grant precedes it.
        alloc = alloc_by_index.get(cur.alloc)
        if alloc is None:
            break
        if cur.start - alloc.start > _EPS:
            span_el("dispatch-wait", f"in job {alloc.job}", alloc.start, cur.start, node=cur.node)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)
        submit = alloc.submitted if alloc.submitted is not None else alloc.start
        key = latest(keys, submit)
        if key is None:
            if submit - start > _EPS:
                span_el("campaign-lead", "before first submission", start, submit)
            break
        pred = tasks[-key[1]]
        gap = submit - pred.end
        if gap > _EPS:
            span_el("resubmit-gap", f"before job {alloc.job}", pred.end, submit)

    elements.reverse()
    return elements


def _attribution(tasks, allocs, window, by_node, per_node, retry_backoff: float = 0.0):
    """Node-seconds + wall-clock split; see the module docstring."""
    start, end = window
    capacity = 0.0
    idle_ramp = idle_gaps = idle_tail = 0.0
    execution = sum(t.duration * max(1, len(t.nodes) or 1) for t in tasks)
    for alloc in allocs:
        alloc_end = alloc.end if alloc.end is not None else end
        width = len(alloc.nodes) or 1
        capacity += max(0.0, alloc_end - alloc.start) * width
        for node in alloc.nodes or range(width):
            spans = [
                t
                for t in by_node.get(node, ())
                if t.alloc == alloc.index and t.end > alloc.start - _EPS
            ]
            if not spans:
                idle_tail += max(0.0, alloc_end - alloc.start)
                continue
            idle_ramp += max(0.0, spans[0].start - alloc.start)
            for a, b in zip(spans, spans[1:]):
                idle_gaps += max(0.0, b.start - a.end)
            idle_tail += max(0.0, alloc_end - spans[-1].end)
    queue_wait = sum(a.queue_wait for a in allocs)
    in_allocation = sum(
        max(0.0, (a.end if a.end is not None else end) - a.start) for a in allocs
    )
    resubmit_gaps = max(0.0, (end - start) - queue_wait - in_allocation)
    return {
        "node_seconds": {
            "capacity": capacity,
            "execution": execution,
            "idle_ramp": idle_ramp,
            "idle_gaps": idle_gaps,
            "idle_tail": idle_tail,
        },
        "wall_clock": {
            "queue_wait": queue_wait,
            "in_allocation": in_allocation,
            "resubmit_gaps": resubmit_gaps,
        },
        "retry_backoff": retry_backoff,
        "per_node": per_node,
        "per_group": _per_group(tasks),
    }


def _per_node(tasks) -> dict:
    out: dict = {}
    for t in tasks:
        for node in _nodes_of(t):
            row = out.setdefault(
                str(node), {"busy": 0.0, "attempts": 0, "failed": 0, "faults": 0}
            )
            row["busy"] += t.duration
            row["attempts"] += 1
            if t.outcome not in ("done", None):
                row["failed"] += 1
            row["faults"] += t.faults
    return out


def _group_of(task) -> str:
    return task.group or "(ungrouped)"


def _per_group(tasks) -> dict:
    groups: dict = {}
    for t in tasks:
        groups.setdefault(_group_of(t), []).append(t)
    out = {}
    for name, members in sorted(groups.items()):
        done = [t.duration for t in members if t.outcome == "done"]
        row = {
            "attempts": len(members),
            "unique_tasks": len({t.name for t in members}),
            "execution": sum(t.duration for t in members),
        }
        if done:
            row.update(
                p50=percentile(done, 50.0),
                p95=percentile(done, 95.0),
                p99=percentile(done, 99.0),
            )
        out[name] = row
    return out


def _stragglers(tasks) -> list:
    """Done attempts far beyond their sweep-group siblings (median+MAD)."""
    groups: dict = {}
    for t in tasks:
        if t.outcome == "done":
            groups.setdefault(_group_of(t), []).append(t)
    flagged = []
    for name, members in sorted(groups.items()):
        if len(members) < _STRAGGLER_MIN_SIBLINGS:
            continue
        durations = [t.duration for t in members]
        median = percentile(durations, 50.0)
        if median <= 0:
            continue
        cut = max(robust_threshold(durations), _STRAGGLER_MIN_RATIO * median)
        for t in members:
            if t.duration > cut:
                flagged.append(
                    {
                        "task": t.name,
                        "group": name,
                        "node": t.node,
                        "duration": t.duration,
                        "ratio": t.duration / median,
                        "threshold": cut,
                    }
                )
    flagged.sort(key=lambda s: -s["duration"])
    return flagged


def _retry_hotspots(tasks, per_node) -> dict:
    by_task: dict = {}  # task_id -> [name, retries, backoff]; last attempt names it
    for t in tasks:
        row = by_task.setdefault(t.task_id, [t.name, 0, 0.0])
        row[0] = t.name
        row[1] += t.retries_granted
        row[2] += t.backoff
    hot_tasks = [
        {"task": name, "retries": retries, "backoff": backoff}
        for _, (name, retries, backoff) in sorted(
            (task_id, row) for task_id, row in by_task.items() if row[1] >= 2
        )
    ]
    hot_tasks.sort(key=lambda t: (-t["retries"], t["task"]))

    counts = {node: row["failed"] + row["faults"] for node, row in per_node.items()}
    hot_nodes = []
    if counts:
        cut = max(robust_threshold(list(counts.values())), 3.0)
        for node, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            if count > cut:
                row = per_node[node]
                hot_nodes.append(
                    {"node": node, "failed": row["failed"], "faults": row["faults"]}
                )
    return {"tasks": hot_tasks[:15], "nodes": hot_nodes}


def _utilization(tasks, allocs, window, buckets: int = 16) -> dict:
    start, end = window
    if end - start <= _EPS:
        return {
            "utilization": 0.0,
            "mean_concurrency": 0.0,
            "peak_concurrency": 0,
            "busy_node_seconds": 0.0,
            "capacity_node_seconds": 0.0,
            "timeline": [],
        }
    deltas: dict[float, float] = {}
    for t in tasks:
        width = max(1, len(t.nodes) or 1)
        deltas[t.start] = deltas.get(t.start, 0.0) + width
        deltas[t.end] = deltas.get(t.end, 0.0) - width
    times = sorted(deltas)
    # Integrate the step function into fixed buckets.
    busy_seconds = 0.0
    peak = 0.0
    bucket_width = (end - start) / buckets
    bucket_busy = [0.0] * buckets

    def integrate(lo: float, hi: float, level: float) -> float:
        nonlocal peak
        contribution = level * (hi - lo)
        peak = max(peak, level)
        b0 = min(buckets - 1, int((lo - start) / bucket_width))
        b1 = min(buckets - 1, int((hi - start - _EPS) / bucket_width))
        for b in range(b0, b1 + 1):
            seg_lo = max(lo, start + b * bucket_width)
            seg_hi = min(hi, start + (b + 1) * bucket_width)
            if seg_hi > seg_lo:
                bucket_busy[b] += level * (seg_hi - seg_lo)
        return contribution

    level = 0.0
    prev = start
    for time in times:
        clamped = min(max(time, start), end)
        if clamped > prev:
            busy_seconds += integrate(prev, clamped, level)
            prev = clamped
        level += deltas[time]
    if end > prev:
        busy_seconds += integrate(prev, end, level)
    capacity = sum(
        max(0.0, ((a.end if a.end is not None else end) - a.start)) * (len(a.nodes) or 1)
        for a in allocs
    )
    return {
        "utilization": busy_seconds / capacity if capacity > 0 else 0.0,
        "mean_concurrency": busy_seconds / (end - start),
        "peak_concurrency": peak,
        "busy_node_seconds": busy_seconds,
        "capacity_node_seconds": capacity,
        "timeline": [
            {
                "start": start + b * bucket_width,
                "end": start + (b + 1) * bucket_width,
                "busy": bucket_busy[b] / bucket_width,
            }
            for b in range(buckets)
        ],
    }


# ---------------------------------------------------------------------------
# entry point


def report_for_campaign(trace: SpanTrace, campaign) -> CampaignReport:
    """Build the full report for one reconstructed campaign span."""
    window = trace.campaign_window(campaign)
    tasks = trace.tasks_of(campaign)
    allocs = trace.allocs_of(campaign)
    done = [t.duration for t in tasks if t.outcome == "done"]
    by_node = _busy_intervals_by_node(tasks)
    per_node = _per_node(tasks)
    slack = _slack_by_task(tasks, by_node, window[1])
    critical_path = _critical_path(tasks, allocs, window, slack)
    # Over retried attempts only: a campaign without retries reports int 0.
    retry_backoff = sum(t.backoff for t in tasks if t.retries_granted)
    counts = {
        "attempts": len(tasks),
        "unique_tasks": len({t.task_id for t in tasks}),
        "done": sum(1 for t in tasks if t.outcome == "done"),
        "failed": sum(1 for t in tasks if t.outcome == "failed"),
        "killed": sum(1 for t in tasks if t.outcome == "killed"),
        "allocations": len(allocs),
        "resumed_skipped": campaign.resumed_skipped,
    }
    durations: dict = {"count": len(done)}
    if done:
        durations.update(
            p50=percentile(done, 50.0),
            p95=percentile(done, 95.0),
            p99=percentile(done, 99.0),
            mean=sum(done) / len(done),
            max=max(done),
        )
    else:
        durations.update(p50=None, p95=None, p99=None, mean=None, max=None)
    return CampaignReport(
        campaign=campaign.name,
        pid=campaign.pid,
        group=campaign.group,
        start=window[0],
        end=window[1],
        makespan=window[1] - window[0],
        counts=counts,
        durations=durations,
        critical_path=critical_path,
        critical_path_seconds=sum(el["duration"] for el in critical_path),
        attribution=_attribution(tasks, allocs, window, by_node, per_node, retry_backoff),
        stragglers=_stragglers(tasks),
        retry_hotspots=_retry_hotspots(tasks, per_node),
        utilization=_utilization(tasks, allocs, window),
        allocations=[
            {
                "job": a.job,
                "start": a.start,
                "end": a.end,
                "queue_wait": a.queue_wait,
                "nodes": len(a.nodes),
                "reason": a.reason,
            }
            for a in allocs
        ],
    )

