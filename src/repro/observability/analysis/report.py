"""Campaign performance analytics: the queryable face of a trace.

:func:`report_for_campaign` turns one campaign span of a
:class:`~repro.observability.analysis.spans.SpanTrace` into a
:class:`CampaignReport` (``analyze_events`` in :mod:`.streaming` does so
for every campaign span of a stream), answering the questions the
write-only trace left manual:

- **critical path** — the chain of alloc/task spans that bounds the
  campaign makespan (walked backward from the last-ending work, through
  node-occupancy predecessors, dispatch waits, queue waits, and
  resubmission gaps), with per-span slack;
- **wait-time attribution** — allocated node-seconds split into
  execution vs ramp/gap/tail idle, and wall-clock split into queue wait
  vs in-allocation time, plus summed retry backoff;
- **stragglers & retry hotspots** — attempts far beyond a robust
  median+MAD threshold of their sweep-group siblings, tasks burning the
  retry budget, nodes with outlier failure/fault counts;
- **utilization/concurrency timeline** — busy-node step function over
  the campaign window, bucketed for text rendering.

Quantiles come from :func:`repro.observability.metrics.percentile` — the
same code behind ``Histogram.summary()`` — so "p95 task duration" means
the same thing in a metrics snapshot and in a report.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from math import inf

from repro.observability.analysis.spans import SpanTrace
from repro.observability.metrics import percentile

#: Version tag carried by every serialized report (see analysis.io).
REPORT_SCHEMA = "repro.observability.report/v1"

#: Consistency constant for the normal distribution: MAD * 1.4826 ~ sigma.
_MAD_SCALE = 1.4826

#: Stragglers: attempts beyond median + _STRAGGLER_K * scaled-MAD of their
#: sweep-group siblings (and at least 1.5x the median, so degenerate
#: zero-spread groups flag nothing spurious).
_STRAGGLER_K = 3.5
_STRAGGLER_MIN_RATIO = 1.5
_STRAGGLER_MIN_SIBLINGS = 4

_EPS = 1e-9


def mad(values) -> float:
    """Median absolute deviation (unscaled)."""
    med = percentile(values, 50.0)
    return percentile([abs(v - med) for v in values], 50.0)


def robust_threshold(values, k: float = _STRAGGLER_K) -> float:
    """``median + k * 1.4826 * MAD`` — outlier cut resistant to the
    outliers themselves (a mean/stddev cut is not: one 10x straggler
    inflates the stddev enough to hide itself)."""
    return percentile(values, 50.0) + k * _MAD_SCALE * mad(values)


@dataclass
class CampaignReport:
    """Analytics for one campaign span.  Every field is JSON-ready."""

    campaign: str
    pid: int = 0
    group: str | None = None
    start: float = 0.0
    end: float = 0.0
    makespan: float = 0.0
    counts: dict = field(default_factory=dict)
    durations: dict = field(default_factory=dict)
    critical_path: list = field(default_factory=list)
    critical_path_seconds: float = 0.0
    attribution: dict = field(default_factory=dict)
    stragglers: list = field(default_factory=list)
    retry_hotspots: dict = field(default_factory=dict)
    utilization: dict = field(default_factory=dict)
    allocations: list = field(default_factory=list)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def headline(self) -> dict:
        """The compact summary the ``campaign.report`` event carries."""
        return {
            "campaign": self.campaign,
            "group": self.group,
            "makespan": self.makespan,
            "utilization": self.utilization.get("utilization"),
            "critical_path_seconds": self.critical_path_seconds,
            "stragglers": len(self.stragglers),
            "queue_wait": self.attribution.get("wall_clock", {}).get("queue_wait"),
            "tasks_done": self.counts.get("done"),
        }

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        c, u = self.counts, self.utilization
        lines = [
            f"== campaign report: {self.campaign}"
            + (f" / {self.group}" if self.group else "")
            + f" (pid {self.pid}) ==",
            f"makespan {self.makespan:.0f}s over {c.get('allocations', 0)} "
            f"allocation(s); {c.get('attempts', 0)} attempts / "
            f"{c.get('unique_tasks', 0)} tasks "
            f"({c.get('done', 0)} done, {c.get('failed', 0)} failed, "
            f"{c.get('killed', 0)} killed"
            + (f", {c.get('resumed_skipped', 0)} skipped by resume" if c.get("resumed_skipped") else "")
            + ")",
        ]
        if u:
            lines.append(
                f"utilization {u['utilization']:.1%} "
                f"(mean {u['mean_concurrency']:.1f} / peak {u['peak_concurrency']:.0f} busy nodes)"
            )
        d = self.durations
        if d.get("p50") is not None:
            lines.append(
                f"task durations: p50 {d['p50']:.0f}s  p95 {d['p95']:.0f}s  "
                f"p99 {d['p99']:.0f}s  max {d['max']:.0f}s"
            )
        lines.append("")
        lines.append(
            f"-- critical path ({len(self.critical_path)} spans, "
            f"{self.critical_path_seconds:.0f}s = "
            + (
                f"{self.critical_path_seconds / self.makespan:.1%} of makespan)"
                if self.makespan > 0
                else "n/a)"
            )
            + " --"
        )
        for el in self.critical_path:
            where = f"  node {el['node']}" if el.get("node") is not None else ""
            slack = f"  slack {el['slack']:.0f}s" if el.get("slack") is not None else ""
            lines.append(
                f"  {el['kind']:<14}{el['duration']:>9.0f}s  {el['label']}{where}{slack}"
            )
        a = self.attribution
        if a:
            ns, wc = a["node_seconds"], a["wall_clock"]
            lines.append("")
            lines.append("-- wait-time attribution --")
            cap = ns.get("capacity") or 0.0
            pct = (lambda v: f" ({v / cap:.1%})") if cap > 0 else (lambda v: "")
            lines.append(f"  allocated capacity {cap:.0f} node-s:")
            for key in ("execution", "idle_ramp", "idle_gaps", "idle_tail"):
                lines.append(f"    {key:<12}{ns[key]:>12.0f} node-s{pct(ns[key])}")
            lines.append(
                f"  wall clock: queue wait {wc['queue_wait']:.0f}s, "
                f"in allocation {wc['in_allocation']:.0f}s, "
                f"resubmit gaps {wc['resubmit_gaps']:.0f}s"
            )
            lines.append(f"  retry backoff (summed per task): {a['retry_backoff']:.0f}s")
        lines.append("")
        if self.stragglers:
            lines.append(f"-- stragglers ({len(self.stragglers)}) --")
            for s in self.stragglers:
                lines.append(
                    f"  {s['task']:<28}{s['duration']:>9.0f}s  "
                    f"{s['ratio']:.1f}x group median  node {s['node']}"
                )
        else:
            lines.append("-- stragglers: none --")
        hot = self.retry_hotspots
        if hot.get("tasks") or hot.get("nodes"):
            lines.append("-- retry hotspots --")
            for t in hot.get("tasks", []):
                lines.append(
                    f"  task {t['task']:<24}{t['retries']} retries, "
                    f"backoff {t['backoff']:.0f}s"
                )
            for n in hot.get("nodes", []):
                lines.append(
                    f"  node {n['node']:<4} {n['failed']} failed attempts, "
                    f"{n['faults']} faults injected"
                )
        else:
            lines.append("-- retry hotspots: none --")
        timeline = u.get("timeline") or []
        if timeline:
            peak = max((b["busy"] for b in timeline), default=0.0) or 1.0
            lines.append("")
            lines.append("-- concurrency timeline (mean busy nodes per bucket) --")
            for b in timeline:
                bar = "#" * int(round(24 * b["busy"] / peak))
                lines.append(
                    f"  {b['start']:>8.0f}-{b['end']:<8.0f} {bar:<24} {b['busy']:.1f}"
                )
        return "\n".join(lines)


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

