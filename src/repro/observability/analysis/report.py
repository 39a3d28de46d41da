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

The report is computed on columns.  :class:`_Columns` reads the
campaign's task attempts once into numpy arrays (start, end, duration,
outcome, allocation, group, faults, and one ``(attempt, node)`` pair per
node an attempt occupied), and every section reads those arrays.  An
emitted attempt is read from its task span, and a folded attempt
block's attempt from the attempt itself; the report builds a task span
(the one :meth:`SpanTrace.tasks_of` returns) only for an attempt it
names: a critical-path task, a straggler, a retried attempt.  Each
list is sorted once: the pairs by ``(node, start, end)`` for busy
intervals, slack and idle time; the attempts by ``(end, -position)``
for the critical-path walk; each group's done durations for its
quantiles and straggler cut.  The per-attempt Python passes this
replaced are kept as the test oracle in ``tests/_report_oracle.py``,
and the reports of both serialize to the same bytes.

That needs the same floating-point additions in the same order, so
each total keeps the accumulation it always had:

- a total the builtin ``sum()`` computed is still ``sum()`` of a Python
  list (``array.tolist()``).  From Python 3.12 ``sum()`` compensates
  rounding for Python floats but not for numpy scalars;
- a total a ``+=`` loop computed is still sequential: ``np.cumsum``,
  ``np.bincount`` (which adds in input order), or a Python loop;
- nothing is summed with ``np.sum`` or ``np.add.reduce``, which add
  pairwise.

Every value in :meth:`CampaignReport.to_dict` is a plain ``float``,
``int``, ``str``, ``bool`` or ``None``; ``json`` rejects numpy scalars.

Quantiles come from the interpolation rule of
:func:`repro.observability.metrics.percentile` — the same code behind
``Histogram.summary()`` — so "p95 task duration" means the same thing
in a metrics snapshot and in a report.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate, chain, groupby, repeat
from operator import attrgetter

import numpy as np

from repro.observability.analysis.spans import SpanTrace, TaskSpan
from repro.observability.metrics import _sorted_percentile, percentile

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
# columns

#: Outcome codes.  An outcome outside this table codes as ``_OTHER``; it
#: counts as a failed attempt in ``per_node``, as ``killed`` does.
_NONE, _DONE, _FAILED, _KILLED, _OTHER = range(5)
_OUTCOMES = {None: _NONE, "done": _DONE, "failed": _FAILED, "killed": _KILLED}


def _nodes_of(task) -> tuple:
    """The nodes a task attempt occupied (none for an unplaced one)."""
    return task.nodes or ((task.node,) if task.node is not None else ())


#: How each column reads one attempt: from an emitted attempt's task
#: span, or from a folded block's attempt itself.
_SPAN_READS = {
    column: attrgetter(column) for column in ("start", "end", "outcome", "nodes", "task_id", "name")
}
_ATTEMPT_READS = {
    "start": attrgetter("start"),
    "end": attrgetter("end"),
    "outcome": attrgetter("outcome._value_"),
    "nodes": attrgetter("node_indices"),
    "task_id": attrgetter("task.task_id"),
    "name": attrgetter("task.name"),
}


def _sources(rows: list) -> list:
    """``rows`` (see :meth:`SpanTrace._rows_of`) as sources: each run of
    consecutive emitted spans as one list, each folded block's segment
    as itself."""
    sources = []
    for kind, run in groupby(rows, type):
        if kind is TaskSpan:
            sources.append(list(run))
        else:
            sources.extend(run)
    return sources


class _Spans:
    """The campaign's task spans by attempt position: an emitted
    attempt's own span, and a folded attempt's built when first read."""

    __slots__ = ("_sources", "_bases")

    def __init__(self, sources: list, bases: list) -> None:
        self._sources = sources
        self._bases = bases  # each source's first position, then the count

    def __len__(self) -> int:
        return self._bases[-1]

    def __getitem__(self, position: int) -> TaskSpan:
        i = bisect_right(self._bases, position) - 1
        source = self._sources[i]
        offset = position - self._bases[i]
        return source[offset] if source.__class__ is list else source.view(offset)


def _coded(values: list) -> tuple[np.ndarray, dict]:
    """``values`` as integer codes numbered in first-appearance order,
    with the value -> code table (whose key order is that order)."""
    if values and values.count(values[0]) == len(values):  # one value, no lookups
        return np.zeros(len(values), np.intp), {values[0]: 0}
    table = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return np.fromiter(map(table.__getitem__, values), np.intp, len(values)), table


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)`` of the runs of equal values in ``codes``."""
    change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    if not len(codes):
        return change, change
    return np.concatenate(([0], change)), np.concatenate((change, [len(codes)]))


def _positive(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)``, picking exactly what the builtin picks."""
    return np.where(x > 0.0, x, 0.0)


def _running_total(values: np.ndarray) -> float:
    """``0.0``, then each value added in turn: what a ``+=`` loop sums."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class _Columns:
    """One campaign's task attempts, read once into numpy columns.

    ``rows`` are the campaign's rows in begin order
    (:meth:`SpanTrace._rows_of`): emitted task spans, read as spans, and
    folded blocks' segments, whose attempts are read directly, with the
    segment's alloc and group and the faults its notes count.  A list of
    task spans is such rows too.

    Per attempt, in begin order: ``start``, ``end``, ``duration``,
    ``outcome`` and ``group`` codes, ``faults`` and ``width`` (nodes
    occupied), and the Python lists ``task_id`` and ``name``.  Per
    ``(attempt, node)`` pair, in attempt order: ``pair_task`` and
    ``pair_node``; attempt ``i``'s pairs are ``pair_off[i]:pair_off[i +
    1]``.  ``alloc_codes``, ``group_codes`` and ``node_codes`` map
    values to codes, numbered in first-appearance order.  ``spans[i]``
    is attempt ``i``'s task span, built on first read for a folded
    attempt.

    The orders the passes read, each sorted once:

    - The pairs by ``(node, start, end)``, ties in pair order: each
      node's run of busy intervals.  ``busy_node``, ``busy_start``,
      ``busy_end`` and ``busy_alloc`` are columns in that order;
      ``slack`` holds each pair's slack, summed backward along its
      node's run.
    - ``by_end`` orders the attempts by ``(end, -position)``, the
      critical-path walk's key.  ``path_task``/``path_end`` hold the
      pairs in ``(alloc, node, end, -position)`` order, and
      ``path_slices`` maps a pair's ``pair_group`` to its
      ``(alloc, node)`` slice there.
    """

    def __init__(self, rows: list, window_end: float) -> None:
        self._sources = sources = _sources(rows)
        bases = list(accumulate(map(len, sources), initial=0))
        self.spans = _Spans(sources, bases)
        n = bases[-1]
        # Each source's attempts, and how the columns read one of them.
        read = [
            (s, _SPAN_READS) if s.__class__ is list else (s.attempts, _ATTEMPT_READS)
            for s in sources
        ]

        def column(name: str):
            """The values of column ``name``, attempt by attempt."""
            return chain.from_iterable(map(reads[name], records) for records, reads in read)

        self.start = start = np.fromiter(column("start"), np.float64, n)
        self.end = end = np.fromiter(column("end"), np.float64, n)
        self.duration = end - start
        self.outcome = np.fromiter(map(_OUTCOMES.get, column("outcome"), repeat(_OTHER)), np.int8, n)
        self.task_id = list(column("task_id"))
        self.name = list(column("name"))
        self.faults = faults = np.zeros(n, np.int64)
        allocs, groups = [], []
        for base, source in zip(bases, sources):
            if source.__class__ is list:
                k = len(source)
                faults[base : base + k] = np.fromiter(map(attrgetter("faults"), source), np.int64, k)
                allocs += map(attrgetter("alloc"), source)
                groups += [group or "(ungrouped)" for group in map(attrgetter("group"), source)]
            else:
                for offset, note in source.notes.items():
                    faults[base + offset] = note.faults
                allocs += repeat(source.alloc, len(source))
                groups += repeat(source.group or "(ungrouped)", len(source))
        alloc, self.alloc_codes = _coded(allocs)
        self.group, self.group_codes = _coded(groups)
        nodes = list(column("nodes"))
        if not all(nodes):  # an emitted attempt may name one node, or none
            nodes = list(
                chain.from_iterable(
                    map(_nodes_of if reads is _SPAN_READS else reads["nodes"], records)
                    for records, reads in read
                )
            )
        per_task = np.fromiter(map(len, nodes), np.intp, n)
        self.width = np.maximum(per_task, 1)
        self.pair_off = np.concatenate(([0], np.cumsum(per_task)))
        self.pair_task = task = np.repeat(np.arange(n), per_task)
        self.pair_node, self.node_codes = _coded(list(chain.from_iterable(nodes)))

        # Per node: one stable sort by (node, start, end).
        busy = np.lexsort((end[task], start[task], self.pair_node))
        busy_task = task[busy]
        self.busy_node = self.pair_node[busy]
        self.busy_start, self.busy_end = start[busy_task], end[busy_task]
        self.busy_alloc = alloc[busy_task]
        runs = _runs(self.busy_node)
        # Slack: how far an attempt could slip before extending the
        # makespan.  In this greedy schedule, delaying an attempt pushes
        # every later one on its node, so the absorbable delay is the idle
        # gaps behind it on the node plus the node's tail gap to the
        # campaign end, summed backward from the run's end.  A multi-node
        # attempt takes the tightest of its nodes (``_critical_path``).
        gaps = np.empty(len(busy_task))
        gaps[:-1] = self.busy_start[1:] - self.busy_end[:-1]
        last = runs[1] - 1
        gaps[last] = window_end - self.busy_end[last]
        gaps = _positive(gaps)
        slack = np.empty(len(busy_task))
        for lo, hi in zip(*(bound.tolist() for bound in runs)):
            slack[lo:hi] = np.cumsum(gaps[lo:hi][::-1])[::-1]
        self.slack = np.empty(len(busy_task))
        self.slack[busy] = slack

        # The walk: (end, -position) order, globally and per (alloc, node),
        # so the rightmost entry ending by a bound is the latest end and,
        # among equal ends, the earliest position.  A stable sort of the
        # reversed ends puts equal ends in descending position.
        self.by_end = n - 1 - np.argsort(end[::-1], kind="stable")
        rank = np.empty(n, np.intp)
        rank[self.by_end] = np.arange(n)
        self.pair_group = alloc[task] * len(self.node_codes) + self.pair_node
        path = np.argsort(self.pair_group * n + rank[task])  # (group, rank) as one key
        self.path_task = task[path]
        self.path_end = end[self.path_task]
        groups = self.pair_group[path]
        lo, hi = _runs(groups)
        self.path_slices = dict(zip(groups[lo].tolist(), zip(lo.tolist(), hi.tolist())))

    def granted(self) -> list:
        """The spans of the attempts with a retry or a backoff, in begin
        order; a folded block's notes say which of its attempts."""
        granted = []
        for source in self._sources:
            if source.__class__ is list:
                granted += [t for t in source if t.retries_granted or t.backoff]
            else:
                notes = source.notes
                granted += [
                    source.view(offset)
                    for offset in sorted(notes)
                    if notes[offset].retries_granted or notes[offset].backoff
                ]
        return granted


# ---------------------------------------------------------------------------
# analysis passes


def _critical_path(tasks, allocs, window, cols: _Columns):
    """Backward walk from the last-ending work to the campaign start.

    Each step picks the predecessor that ended last by a bound (ties go
    to the earliest task in ``tasks`` order): first among earlier tasks
    on the current task's node(s) in the same allocation, else, at the
    allocation's first task, among all tasks before its submission.
    Both lookups search ``(end, -position)`` orders sorted once per
    report (``cols.by_end`` and the ``(alloc, node)`` slices of
    ``cols.path_task``), so the walk is O(n log n) rather than a scan
    per step.
    """
    start, end = window
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
    by_end, by_end_end = cols.by_end, cols.end[cols.by_end]
    pair_off = cols.pair_off
    visited = bytearray(len(tasks))  # positions already on the path

    def latest(positions, ends, lo, hi, bound: float):
        """The greatest unvisited ``(end, -position)`` key in
        ``positions[lo:hi]`` ending by ``bound``."""
        i = lo + int(ends[lo:hi].searchsorted(bound + _EPS, "right"))
        while i > lo:
            i -= 1
            position = int(positions[i])
            if not visited[position]:
                return float(ends[i]), -position
        return None

    def node_pred(position, cur):
        best = None
        for pair in range(pair_off[position], pair_off[position + 1]):
            lo, hi = cols.path_slices[int(cols.pair_group[pair])]
            key = latest(cols.path_task, cols.path_end, lo, hi, cur.start)
            if key is not None and (best is None or key > best):
                best = key
        return best

    def slack_of(position, cur):
        lo, hi = pair_off[position], pair_off[position + 1]
        return min(cols.slack[lo:hi].tolist()) if hi > lo else max(0.0, end - cur.end)

    key = (float(by_end_end[-1]), -int(by_end[-1])) if len(by_end) else None
    if key is None and allocs:
        # A campaign that granted allocations but launched nothing:
        # the path is just the first allocation's queue wait.
        alloc = max(allocs, key=lambda a: a.end or a.start)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)

    while key is not None:
        position = -key[1]
        visited[position] = 1
        cur = tasks[position]
        span_el(
            "task",
            f"{cur.name} (attempt {cur.attempt}, {cur.outcome or 'open'})",
            cur.start,
            cur.end,
            node=cur.node,
            el_slack=slack_of(position, cur),
        )
        key = node_pred(position, cur)
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
        key = latest(by_end, by_end_end, 0, len(by_end), submit)
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


def _attribution(cols: _Columns, allocs, window, per_node, per_group, retry_backoff):
    """Node-seconds + wall-clock split; see the module docstring."""
    start, end = window
    capacity = 0.0
    ramps: list[float] = []
    tails: list[float] = []
    gaps: list[np.ndarray] = []  # per (alloc, node), in the loop's order
    execution = sum((cols.duration * cols.width).tolist())
    for alloc in allocs:
        alloc_end = alloc.end if alloc.end is not None else end
        width = len(alloc.nodes) or 1
        capacity += max(0.0, alloc_end - alloc.start) * width
        runs: dict = {}
        code = cols.alloc_codes.get(alloc.index)
        if code is not None:
            # This allocation's intervals, still in (node, start, end) order.
            keep = np.flatnonzero(
                (cols.busy_alloc == code) & (cols.busy_end > alloc.start - _EPS)
            )
            first, last = cols.busy_start[keep], cols.busy_end[keep]
            between = _positive(first[1:] - last[:-1])
            node = cols.busy_node[keep]
            lo, hi = _runs(node)
            runs = dict(zip(node[lo].tolist(), zip(lo.tolist(), hi.tolist())))
        for node in alloc.nodes or range(width):
            run = runs.get(cols.node_codes.get(node))
            if run is None:
                tails.append(max(0.0, alloc_end - alloc.start))
                continue
            lo, hi = run
            ramps.append(max(0.0, float(first[lo]) - alloc.start))
            gaps.append(between[lo : hi - 1])
            tails.append(max(0.0, alloc_end - float(last[hi - 1])))
    idle_ramp = idle_tail = 0.0
    for ramp in ramps:
        idle_ramp += ramp
    for tail in tails:
        idle_tail += tail
    idle_gaps = _running_total(np.concatenate(gaps)) if gaps else 0.0
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
        "per_group": per_group,
    }


def _per_node(cols: _Columns) -> dict:
    node, task = cols.pair_node, cols.pair_task
    k = len(cols.node_codes)
    failed = (cols.outcome != _DONE) & (cols.outcome != _NONE)
    busy = np.bincount(node, weights=cols.duration[task], minlength=k)
    attempts = np.bincount(node, minlength=k)
    n_failed = np.bincount(node[failed[task]], minlength=k)
    faults = np.bincount(node, weights=cols.faults[task], minlength=k).astype(np.int64)
    return {
        str(value): {"busy": b, "attempts": a, "failed": f, "faults": x}
        for value, b, a, f, x in zip(
            cols.node_codes, busy.tolist(), attempts.tolist(), n_failed.tolist(), faults.tolist()
        )
    }


def _groups(cols: _Columns) -> list:
    """``(name, members, done members, sorted done durations)`` per sweep
    group, by name; members are positions in begin order.  The durations
    are sorted once for every quantile read from them."""
    done = cols.outcome == _DONE
    out = []
    for name, code in sorted(cols.group_codes.items()):
        in_group = cols.group == code
        members = np.flatnonzero(in_group)
        done_members = np.flatnonzero(in_group & done)
        out.append((name, members, done_members, np.sort(cols.duration[done_members])))
    return out


def _per_group(cols: _Columns, groups) -> dict:
    out = {}
    for name, members, _, done in groups:
        names = cols.name if len(groups) == 1 else map(cols.name.__getitem__, members.tolist())
        row = {
            "attempts": len(members),
            "unique_tasks": len(set(names)),
            "execution": sum(cols.duration[members].tolist()),
        }
        if len(done):
            row.update(
                p50=_sorted_percentile(done, 50.0),
                p95=_sorted_percentile(done, 95.0),
                p99=_sorted_percentile(done, 99.0),
            )
        out[name] = row
    return out


def _stragglers(tasks, cols: _Columns, groups) -> list:
    """Done attempts far beyond their sweep-group siblings (median+MAD)."""
    flagged = []
    for name, _, members, done in groups:
        if len(members) < _STRAGGLER_MIN_SIBLINGS:
            continue
        median = _sorted_percentile(done, 50.0)
        if median <= 0:
            continue
        spread = _sorted_percentile(np.sort(np.abs(done - median)), 50.0)
        cut = max(median + _STRAGGLER_K * _MAD_SCALE * spread, _STRAGGLER_MIN_RATIO * median)
        for i in members[cols.duration[members] > cut].tolist():
            t = tasks[i]
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


def _retry_hotspots(cols: _Columns, granted, per_node) -> dict:
    """``granted``: the attempts, in order, with a retry or a backoff."""
    by_task: dict = {}  # task_id -> [retries, backoff]
    for t in granted:
        row = by_task.setdefault(t.task_id, [0, 0.0])
        row[0] += t.retries_granted
        row[1] += t.backoff
    hot = sorted((task_id, row) for task_id, row in by_task.items() if row[0] >= 2)
    names = dict(zip(cols.task_id, cols.name)) if hot else {}  # the last attempt names it
    hot_tasks = [
        {"task": names[task_id], "retries": retries, "backoff": backoff}
        for task_id, (retries, backoff) in hot
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


def _utilization(cols: _Columns, allocs, window, buckets: int = 16) -> dict:
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
    # The busy-node step function: +width at each start, -width at each
    # end, in time order.  The levels are sums of integers, so exact.
    width = cols.width.astype(np.float64)
    times = np.concatenate((cols.start, cols.end[cols.by_end]))
    order = np.argsort(times, kind="stable")
    steps = np.concatenate((width, -width[cols.by_end]))[order]
    clamped = np.minimum(np.maximum(times[order], start), end)
    # Segment i runs from the previous clamped time to this one at the
    # level before this step; the last runs to the window's end.
    lo = np.concatenate(([start], clamped))
    hi = np.concatenate((clamped, [end]))
    level = np.concatenate(([0.0], np.cumsum(steps)))
    keep = hi > lo
    lo, hi, level = lo[keep], hi[keep], level[keep]
    busy_seconds = _running_total(level * (hi - lo))
    peak = max(0.0, float(level.max())) if len(level) else 0.0
    # Split each segment at the bucket edges it crosses.
    bucket_width = (end - start) / buckets
    b0 = np.minimum(buckets - 1, ((lo - start) / bucket_width).astype(np.intp))
    b1 = np.minimum(buckets - 1, ((hi - start - _EPS) / bucket_width).astype(np.intp))
    count = np.maximum(b1 - b0 + 1, 0)
    segment = np.repeat(np.arange(len(lo)), count)
    bucket = b0[segment] + np.arange(len(segment)) - np.repeat(np.cumsum(count) - count, count)
    seg_lo = np.maximum(lo[segment], start + bucket * bucket_width)
    seg_hi = np.minimum(hi[segment], start + (bucket + 1) * bucket_width)
    inside = seg_hi > seg_lo
    bucket_busy = np.bincount(
        bucket[inside],
        weights=(level[segment] * (seg_hi - seg_lo))[inside],
        minlength=buckets,
    )
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
                "busy": busy / bucket_width,
            }
            for b, busy in enumerate(bucket_busy.tolist())
        ],
    }


# ---------------------------------------------------------------------------
# entry point


def report_for_campaign(trace: SpanTrace, campaign) -> CampaignReport:
    """Build the full report for one reconstructed campaign span."""
    window = trace.campaign_window(campaign)
    allocs = trace.allocs_of(campaign)
    cols = _Columns(trace._rows_of(campaign), window[1])
    tasks = cols.spans
    groups = _groups(cols)
    per_node = _per_node(cols)
    critical_path = _critical_path(tasks, allocs, window, cols)
    granted = cols.granted()
    # Over retried attempts only: a campaign without retries reports int 0.
    retry_backoff = sum(t.backoff for t in granted if t.retries_granted)
    counts = {
        "attempts": len(tasks),
        "unique_tasks": len(set(cols.task_id)),
        "done": int(np.count_nonzero(cols.outcome == _DONE)),
        "failed": int(np.count_nonzero(cols.outcome == _FAILED)),
        "killed": int(np.count_nonzero(cols.outcome == _KILLED)),
        "allocations": len(allocs),
        "resumed_skipped": campaign.resumed_skipped,
    }
    # One group holds every attempt: its sorted done durations are the
    # campaign's.
    done_mask = cols.outcome == _DONE
    done = np.sort(cols.duration[done_mask]) if len(groups) != 1 else groups[0][3]
    durations: dict = {"count": len(done)}
    if len(done):
        durations.update(
            p50=_sorted_percentile(done, 50.0),
            p95=_sorted_percentile(done, 95.0),
            p99=_sorted_percentile(done, 99.0),
            mean=sum(cols.duration[done_mask].tolist()) / len(done),
            max=float(done[-1]),
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
        attribution=_attribution(
            cols, allocs, window, per_node, _per_group(cols, groups), retry_backoff
        ),
        stragglers=_stragglers(tasks, cols, groups),
        retry_hotspots=_retry_hotspots(cols, granted, per_node),
        utilization=_utilization(cols, allocs, window),
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
