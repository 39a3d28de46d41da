"""Property tests: TelemetrySampler counters reconcile exactly under churn.

Hypothesis generates fleets of submissions — random tenants, backends,
outcomes, task mixes — and random *interleavings* of their event
streams (each submission's own order preserved, as the service
guarantees; everything else shuffled, as concurrent workers produce).
Whatever the interleaving:

- at **every prefix** the counter algebra holds per scope::

      submitted == queued + started + cancelled_queued
      started   == active + finished + failed + cancelled_running

  (and gauges never dip negative);
- at the end, every counter **exactly** equals the count computed by
  replaying the same stream independently — the sampler loses nothing
  and double-counts nothing;
- folding the same stream event-by-event or with its instants
  delivered in attempt blocks is indistinguishable.
"""

from __future__ import annotations

from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import EventBus
from repro.observability.events import AttemptBlock
from repro.observability.live import TelemetrySampler

TENANTS = ("lab-a", "lab-b", "lab-c")
BACKENDS = ("local-threads", "local-processes")

#: (submission outcome, which lifecycle events it produces)
OUTCOMES = ("done", "failed", "cancel_queued", "cancel_running")


@st.composite
def submission_plans(draw):
    """One submission's randomized lifecycle plan."""
    return {
        "tenant": draw(st.sampled_from(TENANTS)),
        "backend": draw(st.sampled_from(BACKENDS)),
        "outcome": draw(st.sampled_from(OUTCOMES)),
        "tasks_done": draw(st.integers(min_value=0, max_value=3)),
        "tasks_failed": draw(st.integers(min_value=0, max_value=2)),
        "retries": draw(st.integers(min_value=0, max_value=2)),
        # lifecycle events after service.submitted may omit tenant/backend
        # (exercises the sampler's route map) or carry them (as the
        # service's forwarded execution events do).
        "tagged": draw(st.booleans()),
    }


def events_for(sub_id: str, plan: dict) -> list[tuple[str, str, dict]]:
    """The (name, phase, fields) sequence one plan produces, in order."""
    tag = (
        {"tenant": plan["tenant"], "backend": plan["backend"]}
        if plan["tagged"]
        else {}
    )
    base = {"submission": sub_id, **tag}
    stream = [(
        "service.submitted", "instant",
        {"submission": sub_id, "tenant": plan["tenant"],
         "backend": plan["backend"]},
    )]
    if plan["outcome"] == "cancel_queued":
        stream.append(("service.cancelled", "instant",
                       {**base, "while": "queued"}))
        return stream
    stream.append(("service.started", "instant", {**base, "queued_for": 0.5}))
    for i in range(plan["tasks_done"]):
        stream.append(("task", "end", {**base, "task": f"d{i}", "outcome": "done"}))
    for i in range(plan["tasks_failed"]):
        stream.append(("task", "end", {**base, "task": f"f{i}", "outcome": "failed"}))
    for i in range(plan["retries"]):
        stream.append(("task.retry", "instant", {**base, "task": f"f{i}"}))
    if plan["outcome"] == "cancel_running":
        stream.append(("service.cancelled", "instant",
                       {**base, "while": "running"}))
    else:
        stream.append(("service.finished", "instant",
                       {**base, "outcome": plan["outcome"], "elapsed": 2.0}))
    return stream


def interleave(streams: list[list], choices) -> list:
    """Merge per-submission streams, preserving each stream's own order.

    ``choices`` is an infinite-ish list of draw indices that picks which
    still-nonempty stream yields its next event at each step.
    """
    cursors = [0] * len(streams)
    merged = []
    step = 0
    while any(cursors[i] < len(streams[i]) for i in range(len(streams))):
        live = [i for i in range(len(streams)) if cursors[i] < len(streams[i])]
        pick = live[choices[step % len(choices)] % len(live)]
        merged.append(streams[pick][cursors[pick]])
        cursors[pick] += 1
        step += 1
    return merged


def expected_counts(merged: list) -> dict:
    """Independent replay: ground-truth terminal counters per scope."""
    routes: dict = {}
    scopes: dict = {}

    def scope(kind, name):
        return scopes.setdefault((kind, name), {
            "submitted": 0, "started": 0, "finished": 0, "failed": 0,
            "cancelled_queued": 0, "cancelled_running": 0,
            "tasks_done": 0, "tasks_failed": 0, "retries": 0,
        })

    def targets(fields):
        sub = fields.get("submission")
        tenant = fields.get("tenant")
        backend = fields.get("backend")
        if sub in routes:
            tenant = tenant or routes[sub][0]
            backend = backend or routes[sub][1]
        out = []
        if tenant:
            out.append(scope("tenant", tenant))
        if backend:
            out.append(scope("backend", backend))
        return out

    for name, phase, fields in merged:
        if name == "service.submitted":
            routes[fields["submission"]] = (fields["tenant"], fields["backend"])
            for s in targets(fields):
                s["submitted"] += 1
        elif name == "service.started":
            for s in targets(fields):
                s["started"] += 1
        elif name == "service.finished":
            key = "failed" if fields["outcome"] == "failed" else "finished"
            for s in targets(fields):
                s[key] += 1
        elif name == "service.cancelled":
            key = (
                "cancelled_running"
                if fields["while"] == "running"
                else "cancelled_queued"
            )
            for s in targets(fields):
                s[key] += 1
        elif name == "task" and phase == "end":
            key = "tasks_done" if fields["outcome"] == "done" else "tasks_failed"
            for s in targets(fields):
                s[key] += 1
        elif name == "task.retry":
            for s in targets(fields):
                s["retries"] += 1
    return scopes


def assert_invariants(status: dict) -> None:
    """The counter algebra every prefix must satisfy, per scope."""
    for table in ("tenants", "backends"):
        for name, s in status[table].items():
            label = f"{table}/{name}"
            assert s["queued"] >= 0, label
            assert s["active"] >= 0, label
            assert s["submitted"] == (
                s["queued"] + s["started"] + s["cancelled_queued"]
            ), label
            assert s["started"] == (
                s["active"] + s["finished"] + s["failed"] + s["cancelled_running"]
            ), label


churn = st.tuples(
    st.lists(submission_plans(), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=97), min_size=1, max_size=64),
)


class TestSamplerReconciliation:
    @given(churn)
    @settings(max_examples=80, deadline=None)
    def test_counters_reconcile_exactly_across_interleavings(self, case):
        plans, choices = case
        streams = [
            events_for(f"sub-{i:04d}", plan) for i, plan in enumerate(plans)
        ]
        merged = interleave(streams, choices)

        bus = EventBus()
        sampler = TelemetrySampler(capacity=4).attach(bus)
        for name, phase, fields in merged:
            bus.emit(name, phase=phase, **fields)
            assert_invariants(sampler.status())  # holds at every prefix

        # terminal: exact agreement with the independent replay
        status = sampler.status()
        truth = expected_counts(merged)
        for (kind, name), want in truth.items():
            table = status["tenants" if kind == "tenant" else "backends"]
            got = table[name]
            for counter, value in want.items():
                assert got[counter] == value, (kind, name, counter)
        # nothing left in flight: every submission reached a terminal state
        assert status["service"]["queued"] == 0
        assert status["service"]["active"] == 0
        assert status["service"]["running"] == 0
        assert status["events"] == len(merged)

    @given(churn)
    @settings(max_examples=30, deadline=None)
    def test_batch_and_single_delivery_agree(self, case):
        plans, choices = case
        streams = [
            events_for(f"sub-{i:04d}", plan) for i, plan in enumerate(plans)
        ]
        merged = interleave(streams, choices)

        single_bus = EventBus()
        single = TelemetrySampler().attach(single_bus)
        for name, phase, fields in merged:
            single_bus.emit(name, phase=phase, **fields)

        # The instants go out in attempt blocks, one block per run of
        # consecutive instants; a block cannot carry a task end with the
        # service's correlation fields, so those are emitted between.
        batch_bus = EventBus()
        batched = TelemetrySampler().attach(batch_bus)
        for instant, run in groupby(merged, key=lambda event: event[1] == "instant"):
            if instant:
                batch_bus.publish_batch(AttemptBlock([(n, p, 0.0, f) for n, p, f in run]))
            else:
                for name, phase, fields in run:
                    batch_bus.emit(name, phase=phase, **fields)

        a, b = single.status(), batched.status()
        assert a["tenants"] == b["tenants"]
        assert a["backends"] == b["backends"]
        assert a["events"] == b["events"] == len(merged)
