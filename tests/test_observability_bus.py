"""Unit tests for the event bus, span tracing, metrics, and recorder."""

import copy
import pickle
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cluster.job import Task, TaskAttempt, TaskState
from repro.observability import (
    BEGIN,
    END,
    INSTANT,
    TASK,
    Counter,
    Event,
    EventBus,
    GaugeMetric,
    Histogram,
    MetricsRegistry,
    SubscriberError,
    TraceRecorder,
    events_from_trace,
    percentile,
    span_key,
    subscribe_all,
    validate_event_stream,
)
from repro.observability.analysis import StreamingCampaignReport
from repro.observability.analysis.spans import SpanTrace
from repro.observability.events import AttemptBlock


class TestEvent:
    def test_phase_validated(self):
        with pytest.raises(ValueError, match="phase"):
            Event(name="task", time=0.0, phase="middle")

    def test_is_span(self):
        assert Event("task", 0.0, phase=BEGIN).is_span
        assert Event("task", 0.0, phase=END).is_span
        assert not Event("node.busy", 0.0, phase=INSTANT).is_span

    def test_span_key_pairs_tasks_on_id(self):
        a = Event(TASK, 0.0, phase=BEGIN, fields={"task_id": 7, "task": "t"})
        b = Event(TASK, 5.0, phase=END, fields={"task_id": 7, "task": "t"})
        c = Event(TASK, 0.0, phase=BEGIN, fields={"task_id": 8, "task": "t"})
        assert span_key(a) == span_key(b)
        assert span_key(a) != span_key(c)

    def test_keyword_and_positional_construction_share_defaults(self):
        by_keyword = Event(name="task", time=1.0)
        assert (by_keyword.phase, by_keyword.seq, by_keyword.pid) == (INSTANT, 0, 0)
        assert by_keyword.fields == {}
        full = Event("task", 1.0, BEGIN, 3, 2, {"task_id": 1})
        assert (full.name, full.time, full.phase, full.seq, full.pid, full.fields) == (
            "task", 1.0, BEGIN, 3, 2, {"task_id": 1}
        )
        assert full == Event(
            name="task", time=1.0, phase=BEGIN, seq=3, pid=2, fields={"task_id": 1}
        )

    def test_omitted_fields_are_a_fresh_dict_per_event(self):
        a, b = Event("a", 0.0), Event("b", 0.0)
        assert a.fields == {} and b.fields == {}
        assert a.fields is not b.fields

    def test_assignment_raises(self):
        event = Event("task", 0.0)
        for attribute in ("name", "time", "phase", "seq", "pid", "fields"):
            with pytest.raises(AttributeError):
                setattr(event, attribute, None)
        assert event == Event("task", 0.0)

    def test_equality_and_repr(self):
        event = Event("task", 1.0, phase=BEGIN, fields={"task_id": 1})
        assert event == Event("task", 1.0, phase=BEGIN, fields={"task_id": 1})
        assert event != Event("task", 1.0, phase=BEGIN, seq=1, fields={"task_id": 1})
        assert repr(event) == (
            "Event(name='task', time=1.0, phase='begin', seq=0, pid=0, fields={'task_id': 1})"
        )

    def test_pickle_and_deepcopy_round_trip(self):
        event = Event("task", 2.5, phase=END, seq=4, pid=1, fields={"outcome": "done"})
        for twin in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event)):
            assert twin == event
            assert type(twin) is Event
            assert twin.fields is not event.fields
            assert twin.is_span


class TestSubscription:
    def test_subscribe_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit("task", phase=BEGIN, task_id=0)
        unsubscribe()
        bus.emit("task", phase=END, task_id=0)
        assert [e.phase for e in seen] == [BEGIN]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(lambda e: None)
        unsubscribe()
        unsubscribe()  # no error

    def test_emit_without_subscribers_returns_none(self):
        bus = EventBus()
        assert bus.emit("task", phase=BEGIN, task_id=0) is None

    def test_seq_strictly_increasing_and_clock_used(self):
        t = [0.0]
        bus = EventBus(clock=lambda: t[0])
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a")
        t[0] = 5.0
        bus.emit("b")
        assert [e.seq for e in seen] == [0, 1]
        assert [e.time for e in seen] == [0.0, 5.0]

    def test_explicit_time_overrides_clock(self):
        bus = EventBus(clock=lambda: 99.0)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", time=3.0)
        assert seen[0].time == 3.0

    def test_global_subscriber_sees_every_bus(self):
        seen = []
        unsubscribe = subscribe_all(seen.append)
        try:
            EventBus().emit("a")
            EventBus().emit("b")
        finally:
            unsubscribe()
        EventBus().emit("c")
        assert [e.name for e in seen] == ["a", "b"]
        assert seen[0].pid != seen[1].pid

    def test_delivery_order_matches_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit("a")
        assert order == ["first", "second"]


class TestSubscriberIsolation:
    """A raising subscriber must not kill the run it observes."""

    def test_raising_subscriber_does_not_break_delivery(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        with pytest.warns(SubscriberError, match="observer bug"):
            event = bus.emit("task", phase=BEGIN, task_id=0)
        assert event is not None  # emit itself succeeded
        assert [e.name for e in seen] == ["task"]  # later subscriber still ran

    def test_raising_subscriber_stays_subscribed_and_warns_once_per_event_name(self):
        bus = EventBus()
        calls = []

        def broken(event):
            calls.append(event.name)
            raise ValueError("still broken")

        bus.subscribe(broken)
        # First failure at each event name warns, and the warning names
        # the event so the failure is debuggable without a local repro.
        with pytest.warns(SubscriberError, match="event 'a'"):
            bus.emit("a")
        with pytest.warns(SubscriberError, match="event 'b'"):
            bus.emit("b")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # repeat failures are silent
            bus.emit("a")
            bus.emit("b")
        assert calls == ["a", "b", "a", "b"]

    def test_subscriber_error_escalates_under_error_filter(self):
        # Tests can surface observer bugs hard by raising the category.
        bus = EventBus()
        bus.subscribe(lambda e: 1 / 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SubscriberError)
            with pytest.raises(SubscriberError):
                bus.emit("a")

    def test_raising_global_subscriber_is_isolated_too(self):
        seen = []
        unsubscribe = subscribe_all(lambda e: (_ for _ in ()).throw(RuntimeError("x")))
        try:
            bus = EventBus()
            bus.subscribe(seen.append)
            with pytest.warns(SubscriberError):
                bus.emit("a")
        finally:
            unsubscribe()
        assert [e.name for e in seen] == ["a"]


class TestSpans:
    def test_span_emits_begin_then_end(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with bus.span("group", group="g0"):
            bus.emit("task", phase=BEGIN, task_id=0)
            bus.emit("task", phase=END, task_id=0, outcome="done")
        assert [(e.name, e.phase) for e in seen] == [
            ("group", BEGIN),
            ("task", BEGIN),
            ("task", END),
            ("group", END),
        ]
        assert seen[-1].fields["outcome"] == "ok"
        validate_event_stream(seen)

    def test_span_closes_on_exception_and_reraises(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with pytest.raises(RuntimeError, match="boom"):
            with bus.span("campaign", campaign="c"):
                raise RuntimeError("boom")
        assert seen[-1].phase == END
        assert seen[-1].fields["outcome"] == "error"
        assert "boom" in seen[-1].fields["error"]
        validate_event_stream(seen)  # no dangling span

    def test_nested_spans_validate(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with bus.span("campaign", campaign="c"):
            with bus.span("alloc", alloc=0):
                pass
        validate_event_stream(seen)


class TestValidateEventStream:
    def test_backwards_time_rejected(self):
        events = [Event("a", 5.0, seq=0), Event("b", 4.0, seq=1)]
        with pytest.raises(ValueError, match="backwards"):
            validate_event_stream(events)

    def test_non_increasing_seq_rejected(self):
        events = [Event("a", 0.0, seq=1), Event("b", 0.0, seq=1)]
        with pytest.raises(ValueError, match="sequence"):
            validate_event_stream(events)

    def test_end_without_begin_rejected(self):
        events = [Event(TASK, 0.0, phase=END, seq=0, fields={"task_id": 0})]
        with pytest.raises(ValueError, match="without begin"):
            validate_event_stream(events)

    def test_open_span_rejected(self):
        events = [Event(TASK, 0.0, phase=BEGIN, seq=0, fields={"task_id": 0})]
        with pytest.raises(ValueError, match="left open"):
            validate_event_stream(events)

    def test_per_pid_clocks_are_independent(self):
        # Two buses, each monotone, interleaved non-monotonically overall.
        events = [
            Event("a", 100.0, seq=0, pid=0),
            Event("b", 0.0, seq=0, pid=1),
            Event("c", 200.0, seq=1, pid=0),
        ]
        validate_event_stream(events)


class TestMetrics:
    def test_counter_monotone(self):
        c = Counter("n")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_peak(self):
        g = GaugeMetric("busy")
        g.add(2)
        g.add(3)
        g.add(-4)
        assert g.value == 1
        assert g.peak == 5

    def test_histogram_summary(self):
        h = Histogram("elapsed")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_registry_get_or_create_and_snapshot(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        m.counter("x").inc()
        m.gauge("g").set(2.0)
        m.histogram("h").observe(1.5)
        snap = m.snapshot()
        assert snap["counters"]["x"] == 1
        assert snap["gauges"]["g"]["value"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1


class TestQuantiles:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([5.0], 50) == 5.0

    def test_percentile_accepts_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_histogram_summary_has_quantiles(self):
        h = Histogram("elapsed")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        s = h.summary()
        assert s["p50"] == pytest.approx(50.5)
        assert s["p95"] == pytest.approx(95.05)
        assert s["p99"] == pytest.approx(99.01)
        assert h.quantile(0) == 1.0 and h.quantile(100) == 100.0

    def test_empty_histogram_quantiles_are_none(self):
        s = Histogram("elapsed").summary()
        assert s["p50"] is None and s["p95"] is None and s["p99"] is None

    def test_snapshot_carries_quantiles(self):
        m = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            m.histogram("h").observe(v)
        snap = m.snapshot()["histograms"]["h"]
        assert snap["p50"] == pytest.approx(2.0)


class TestHistogramReservoir:
    """The bounded seeded reservoir behind Histogram quantiles."""

    def test_memory_is_bounded_but_totals_are_exact(self):
        h = Histogram("elapsed", max_samples=64)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.samples) == 64  # reservoir never grows past the cap
        assert h.count == 10_000  # ...while count/total/min/max stay exact
        assert h.total == pytest.approx(sum(range(10_000)))
        assert h.min == 0.0 and h.max == 9999.0

    def test_quantiles_deterministic_under_fixed_seed(self):
        def fill(seed):
            h = Histogram("elapsed", max_samples=128, seed=seed)
            for v in range(5_000):
                h.observe(float(v))
            return h

        a, b = fill(seed=7), fill(seed=7)
        assert a.samples == b.samples  # identical reservoirs, not just close
        assert a.summary() == b.summary()
        # A different seed keeps a different (but equally valid) subsample.
        c = fill(seed=8)
        assert c.samples != a.samples

    def test_reservoir_quantiles_approximate_truth(self):
        h = Histogram("elapsed", max_samples=512)
        for v in range(20_000):
            h.observe(float(v))
        # Uniform data: reservoir p50 should land near the true median.
        assert h.quantile(50) == pytest.approx(10_000, rel=0.15)

    def test_small_streams_are_exact(self):
        # Below the cap the reservoir is the full stream: quantiles exact.
        h = Histogram("elapsed", max_samples=4096)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(50) == pytest.approx(50.5)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Histogram("elapsed", max_samples=0)

    @pytest.mark.parametrize(
        "values, cap",
        [
            ([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.5, 3.0], 4096),  # ties
            ([7.25], 4096),  # a single sample
            ([float(v % 997) * 1.1 for v in range(20_000)], 4096),  # a full reservoir
        ],
        ids=["ties", "single", "full"],
    )
    def test_summary_reads_the_quantiles_from_one_sort(self, values, cap):
        h = Histogram("elapsed", max_samples=cap, seed=3)
        for v in values:
            h.observe(v)
        assert len(h.samples) == min(cap, len(values))
        summary = h.summary()
        assert [summary[k] for k in ("p50", "p95", "p99")] == [
            h.quantile(50.0),
            h.quantile(95.0),
            h.quantile(99.0),
        ]


class TestEventsFromTrace:
    def _capture(self):
        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        bus.emit(TASK, phase=BEGIN, time=1.0, task_id=0, task="t0", node=2)
        bus.emit("node.busy", time=1.0, node=2)
        bus.emit(TASK, phase=END, time=4.5, task_id=0, task="t0", node=2, outcome="done")
        bus.emit("node.idle", time=4.5, node=2)
        return rec

    def test_roundtrip_through_file_is_exact(self, tmp_path):
        rec = self._capture()
        path = rec.write_chrome_trace(tmp_path / "t.json")
        loaded = events_from_trace(path)
        assert [
            (e.name, e.time, e.phase, e.seq, e.pid, e.fields) for e in loaded
        ] == [
            (e.name, e.time, e.phase, e.seq, e.pid, e.fields) for e in rec.events
        ]

    def test_roundtrip_validates_by_default(self):
        rec = self._capture()
        events = events_from_trace(rec.to_chrome_trace())
        validate_event_stream(events)

    def test_foreign_trace_without_roundtrip_keys(self):
        # A trace some other tool wrote: Chrome fields only, no seq/t.
        entries = [
            {"name": "task", "ph": "B", "ts": 1.0e6, "pid": 9, "tid": 1, "args": {"task_id": 0}},
            {"name": "task", "ph": "E", "ts": 2.0e6, "pid": 9, "tid": 1, "args": {"task_id": 0}},
        ]
        events = events_from_trace(entries)
        assert [e.time for e in events] == [1.0, 2.0]
        assert [e.seq for e in events] == [0, 1]  # derived per pid
        assert events[0].pid == 9

    def test_trace_events_object_form_accepted(self):
        rec = self._capture()
        events = events_from_trace({"traceEvents": rec.to_chrome_trace()})
        assert len(events) == len(rec.events)

    def test_malformed_entry_reports_index(self):
        with pytest.raises(ValueError, match="entry 1"):
            events_from_trace(
                [
                    {"name": "a", "ph": "i", "ts": 0.0, "pid": 0, "args": {}},
                    {"ph": "??"},
                ]
            )


class TestRecorder:
    def _task_span(self, bus, task_id, start, end, outcome="done", node=0):
        bus.emit(TASK, phase=BEGIN, time=start, task_id=task_id, task=f"t{task_id}", node=node)
        bus.emit(TASK, phase=END, time=end, task_id=task_id, task=f"t{task_id}",
                 node=node, outcome=outcome)

    def test_attach_records_and_detach_stops(self):
        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        self._task_span(bus, 0, 0.0, 10.0)
        rec.detach()
        self._task_span(bus, 1, 10.0, 20.0)
        assert len(rec.events) == 2
        assert rec.metrics.snapshot()["counters"]["tasks.launched"] == 1

    def test_task_metrics_and_elapsed(self):
        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        self._task_span(bus, 0, 0.0, 10.0, outcome="done")
        self._task_span(bus, 1, 0.0, 30.0, outcome="failed")
        snap = rec.metrics.snapshot()
        assert snap["counters"]["tasks.done"] == 1
        assert snap["counters"]["tasks.failed"] == 1
        assert snap["histograms"]["task.elapsed"]["mean"] == pytest.approx(20.0)

    def test_chrome_trace_shape(self):
        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        self._task_span(bus, 0, 1.0, 2.0, node=3)
        bus.emit("node.busy", time=1.0, node=3)
        trace = rec.to_chrome_trace()
        assert all(
            {"name", "ph", "ts", "pid", "tid", "args"} <= set(e) for e in trace
        )
        begin = trace[0]
        assert begin["ph"] == "B"
        assert begin["ts"] == pytest.approx(1.0e6)  # microseconds
        assert begin["tid"] == 4  # node 3 -> row 4; row 0 is control
        instant = trace[-1]
        assert instant["ph"] == "i"
        assert instant["s"] == "t"

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        import json

        bus = EventBus()
        rec = TraceRecorder().attach(bus)
        self._task_span(bus, 0, 0.0, 1.0)
        path = rec.write_chrome_trace(tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded == rec.to_chrome_trace()

    def test_recording_context_captures_new_buses(self):
        rec = TraceRecorder()
        with rec.recording():
            bus = EventBus()  # created inside the block, never attached
            self._task_span(bus, 0, 0.0, 5.0)
        EventBus().emit("late")
        assert [e.name for e in rec.events] == [TASK, TASK]


class TestPublishBatch:
    """Publishing an attempt block must be indistinguishable from the emit loop."""

    @staticmethod
    def _instants(*names, time=0.0):
        return AttemptBlock([(name, INSTANT, time, {"k": i}) for i, name in enumerate(names)])

    def test_returns_none_without_subscribers(self):
        bus = EventBus()
        assert bus.publish_batch(self._instants("task.retry")) is None

    def test_takes_only_an_attempt_block(self):
        bus = EventBus()
        with pytest.raises(TypeError, match="AttemptBlock"):
            bus.publish_batch([("mark", INSTANT, 0.0, {})])
        bus.subscribe(lambda e: None)
        with pytest.raises(TypeError, match="AttemptBlock"):
            bus.publish_batch([("mark", INSTANT, 0.0, {})])

    def test_a_block_holds_only_instants_as_specs(self):
        block = AttemptBlock([("task.retry", INSTANT, 0.0, {}), ("task", BEGIN, 1.0, {})])
        with pytest.raises(ValueError, match="holds instants as specs"):
            block.phases()
        bus = EventBus()
        bus.subscribe(lambda e: None)  # iterates the block
        with pytest.raises(ValueError, match="holds instants as specs"):
            bus.publish_batch(block)

    def test_seq_and_order_match_emit_loop(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("before")
        events = bus.publish_batch(self._instants("task.retry", "task.requeued", time=1.0))
        bus.emit("after")
        assert [e.seq for e in seen] == [0, 1, 2, 3]
        assert [e.name for e in seen] == ["before", "task.retry", "task.requeued", "after"]
        assert list(events) == seen[1:3]

    def test_batch_subscriber_gets_one_call(self):
        bus = EventBus()
        calls = []

        class Sink:
            def __call__(self, event):
                calls.append(("single", event))

            def on_batch(self, events):
                calls.append(("batch", list(events)))

        bus.subscribe(Sink())
        bus.publish_batch(self._instants("a", "b"))
        assert len(calls) == 1 and calls[0][0] == "batch"
        assert [e.name for e in calls[0][1]] == ["a", "b"]

    def test_raising_batch_subscriber_is_isolated_and_names_event(self):
        bus = EventBus()
        seen = []

        class Broken:
            def __call__(self, event):
                pass

            def on_batch(self, events):
                raise RuntimeError("boom")

        bus.subscribe(Broken())
        bus.subscribe(seen.append)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bus.publish_batch(self._instants("task.retry"))
        assert len(seen) == 1
        assert len(caught) == 1 and issubclass(caught[0].category, SubscriberError)
        assert "'task.retry'" in str(caught[0].message)
        assert "batch of 1" in str(caught[0].message)


class TestAttemptBlock:
    """A published attempt block reads as the spec stream it stands for."""

    @staticmethod
    def _streams():
        """One stream twice: as the specs of every event, and as a block
        of attempts with its instants left as specs."""
        wide = Task(name="wide", duration=5.0, nodes=2, payload={"x": 1, "dir": "a"})
        small = Task(name="small", duration=1.0)
        first = TaskAttempt(wide, [3, 1], 0.0, 2.0, TaskState.FAILED)
        second = TaskAttempt(wide, [0, 2], 4.0, 9.0, TaskState.DONE)
        third = TaskAttempt(small, [5], 1.0, 3.0, TaskState.KILLED)
        wide.attempts += [first, second]
        small.attempts.append(third)
        retry = ("task.retry", INSTANT, 2.0, {"task": "wide", "task_id": wide.task_id})

        def begin(a, number):
            task = a.task
            return (TASK, BEGIN, a.start, {
                "task": task.name, "task_id": task.task_id, "node": a.node_indices[0],
                "nodes": list(a.node_indices), "attempt": number, "payload": dict(task.payload),
            })

        def end(a):
            task = a.task
            return (TASK, END, a.end, {
                "task": task.name, "task_id": task.task_id, "node": a.node_indices[0],
                "outcome": a.outcome.value,
            })

        specs = [begin(first, 1), begin(third, 1), end(first), retry, end(third),
                 begin(second, 2), end(second)]
        items = [first, third, first, retry, third, second, second]
        return specs, items

    @staticmethod
    def _recorded(block):
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        bus.emit("before", time=0.0)
        returned = bus.publish_batch(block)
        bus.emit("after", time=9.0)
        return recorder.events, returned

    def test_events_equal_the_spec_stream(self):
        specs, items = self._streams()
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        bus.emit("before", time=0.0)
        for name, phase, time, fields in specs:
            bus.emit(name, phase, time, **fields)
        bus.emit("after", time=9.0)
        want = recorder.events
        got, block = self._recorded(AttemptBlock(items))
        assert len(block) == len(items) == 7
        normalized = [
            [(e.name, e.time, e.phase, e.seq, list(e.fields.items())) for e in events]
            for events in (got, want)
        ]
        assert normalized[0] == normalized[1]
        assert [e.seq for e in got] == list(range(9))

    def test_each_event_gets_fresh_fields(self):
        _, items = self._streams()
        block = AttemptBlock(items)
        got, _ = self._recorded(block)
        assert len({id(e.fields) for e in got}) == len(got)
        assert got[1].fields["nodes"] is not items[0].node_indices
        assert got[1].fields["payload"] is not items[0].task.payload
        assert got[4].fields is not items[3][3]  # the retry spec's own dict

    def test_fold_displaces_an_open_attempt_as_the_event_fold_does(self):
        # A task span still open when the block begins the same task
        # again is displaced, and closed at the last time seen.
        _, items = self._streams()
        block = AttemptBlock(items)
        block.pid, block.seq = 7, 1
        leftover = Event(TASK, 0.0, BEGIN, 0, 7, {"task": "wide", "task_id": items[0].task.task_id})
        folded, replayed = SpanTrace(), SpanTrace()
        folded.feed(leftover)
        folded.feed_block(block)
        for event in (leftover, *block):
            replayed.feed(event)
        for trace in (folded, replayed):
            trace.close_open()
        assert len(folded.tasks) == 4
        assert (folded.tasks[0].end, folded.tasks[0].outcome) == (9.0, None)
        assert [repr(t) for t in folded.tasks] == [repr(t) for t in replayed.tasks]
        assert folded.last_time == replayed.last_time == 9.0

    def test_built_only_for_an_iterating_subscriber(self, monkeypatch):
        built = []
        event = AttemptBlock.event
        monkeypatch.setattr(AttemptBlock, "event", lambda self, i: built.append(i) or event(self, i))
        _, items = self._streams()
        bus = EventBus()
        StreamingCampaignReport().attach(bus)
        block = AttemptBlock(items)
        assert bus.publish_batch(block) is block
        assert built == [3]  # the fold feeds the retry spec as its event
        built.clear()
        bus, seen = EventBus(), []
        bus.subscribe(seen.append)
        TraceRecorder().attach(bus)
        block = AttemptBlock(items)
        bus.publish_batch(block)
        assert built == list(range(len(items)))  # once, for both iterating subscribers
        assert seen == list(block)


class TestBatchedEmissionProperty:
    """Property: per-event emit vs any chunking of the same stream of
    instants into attempt blocks yields *byte-identical* recorder output
    (Chrome trace JSON, after normalizing the process-global bus pid)."""

    NAMES = ["task.retry", "task.requeued", "task.timeout", "task.fault_injected", "custom.metric"]

    @staticmethod
    def _normalized_trace(recorder):
        import json

        out = []
        for entry in recorder.to_chrome_trace():
            entry = dict(entry)
            entry["pid"] = 0
            out.append(entry)
        return json.dumps(out)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_is_byte_identical_to_emit_loop(self, data):
        specs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(self.NAMES),
                    st.just(INSTANT),
                    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "task_id": st.integers(0, 5),
                            "node": st.integers(0, 5),
                            "outcome": st.sampled_from(["done", "failed"]),
                            "k": st.one_of(st.integers(-5, 5), st.just("x")),
                        },
                    ),
                ),
                max_size=30,
            )
        )
        # Reference: one emit per event.
        bus_a = EventBus()
        rec_a = TraceRecorder().attach(bus_a)
        for name, phase, time, fields in specs:
            bus_a.emit(name, phase=phase, time=time, **fields)
        # Candidate: the same stream in randomly-drawn block chunks.
        bus_b = EventBus()
        rec_b = TraceRecorder().attach(bus_b)
        i = 0
        while i < len(specs):
            size = data.draw(st.integers(1, len(specs) - i))
            bus_b.publish_batch(AttemptBlock(specs[i : i + size]))
            i += size
        assert self._normalized_trace(rec_a) == self._normalized_trace(rec_b)
        assert rec_a.metrics.snapshot() == rec_b.metrics.snapshot()
