"""Tests for the live telemetry plane (repro.observability.live).

Covers the four moving parts in isolation — sampler folding, HTTP
exposition, JSON-lines logging, worker resource profiling — plus the
``repro top`` renderer, and then the acceptance scenario end to end: a
``CampaignService(serve_telemetry=True)`` driving real campaigns while
``/metrics`` and ``/status`` are scraped over HTTP, with one trace id
per submission carried from the ``service.submitted`` instant through
the drive pipeline into the worker-echoed ``task`` END events.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.observability import INSTANT, EventBus, new_trace_id
from repro.observability.events import AttemptBlock
from repro.observability.live import (
    PROMETHEUS_CONTENT_TYPE,
    STATUS_SCHEMA,
    JsonLogSubscriber,
    TelemetrySampler,
    TelemetryServer,
    WorkerResourceProfiler,
    render_top,
    sample_process,
    watch,
)
from repro.savanna.service import CampaignService


def app(params):
    time.sleep(params.get("sleep", 0.005))
    return params["x"] + 1


def make_manifest(name, n=4, sleep=0.005):
    camp = Campaign(name, app=AppSpec("telemetry-app"))
    sg = camp.sweep_group("g", nodes=2, walltime=600.0)
    sg.add(Sweep([SweepParameter("x", range(n)), SweepParameter("sleep", [sleep])]))
    return camp.to_manifest()


def drive_lifecycle(bus, submission="sub-0000", tenant="lab", backend="bk",
                    tasks=2, outcome="done"):
    """Emit one submission's full lifecycle onto ``bus``."""
    bus.emit("service.submitted", submission=submission, tenant=tenant,
             backend=backend, campaign="c", priority=0)
    bus.emit("service.started", submission=submission, tenant=tenant,
             queued_for=0.25)
    for i in range(tasks):
        bus.emit("task", phase="end", submission=submission, tenant=tenant,
                 backend=backend, task=f"r{i}", outcome="done")
    bus.emit("service.finished", submission=submission, tenant=tenant,
             outcome=outcome, elapsed=1.25)


class TestTelemetrySampler:
    def test_folds_lifecycle_into_per_tenant_aggregates(self):
        bus = EventBus()
        sampler = TelemetrySampler(capacity=2).attach(bus)
        drive_lifecycle(bus, tenant="lab-a", backend="local-threads")
        lab = sampler.status()["tenants"]["lab-a"]
        assert lab["submitted"] == lab["started"] == lab["finished"] == 1
        assert lab["queued"] == lab["active"] == 0
        assert lab["tasks_done"] == 2
        assert lab["queue_wait"]["p50"] == pytest.approx(0.25)
        assert lab["latency"]["p50"] == pytest.approx(1.25)

    def test_backend_scope_fills_from_route_map(self):
        # Only service.submitted names the backend; later lifecycle
        # instants resolve it through the sampler's route map.
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        drive_lifecycle(bus, backend="local-processes")
        be = sampler.status()["backends"]["local-processes"]
        assert be["finished"] == 1 and be["tasks_done"] == 2

    def test_cancelled_splits_queued_and_running(self):
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        bus.emit("service.submitted", submission="s0", tenant="t", backend="b")
        bus.emit("service.cancelled", submission="s0", tenant="t",
                 **{"while": "queued"})
        bus.emit("service.submitted", submission="s1", tenant="t", backend="b")
        bus.emit("service.started", submission="s1", tenant="t", queued_for=0.0)
        bus.emit("service.cancelled", submission="s1", tenant="t",
                 **{"while": "running"})
        t = sampler.status()["tenants"]["t"]
        assert t["cancelled_queued"] == 1 and t["cancelled_running"] == 1
        assert t["cancelled"] == 2
        assert t["queued"] == 0 and t["active"] == 0

    def test_saturation_and_peak(self):
        bus = EventBus()
        sampler = TelemetrySampler(capacity=2).attach(bus)
        for i in range(2):
            bus.emit("service.submitted", submission=f"s{i}", tenant="t", backend="b")
            bus.emit("service.started", submission=f"s{i}", tenant="t", queued_for=0.0)
        bus.emit("service.saturated", queued=2, limit=2, tenant="t")
        status = sampler.status()["service"]
        assert status["saturation"] == pytest.approx(1.0)
        assert status["running_peak"] == 2
        assert status["saturated_total"] == 1

    def test_tenant_status_and_unknown_tenant(self):
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        drive_lifecycle(bus, tenant="lab-a")
        assert sampler.tenant_status("lab-a")["finished"] == 1
        assert sampler.tenant_status("nope") is None

    def test_prometheus_exposition_shape(self):
        bus = EventBus()
        sampler = TelemetrySampler(capacity=4).attach(bus)
        drive_lifecycle(bus, tenant='la"b\n', backend="bk")  # hostile label
        text = sampler.prometheus()
        assert text.endswith("\n")
        # counters end in _total, label values are escaped
        assert 'repro_service_finished_total{tenant="la\\"b\\n"} 1' in text
        assert 'repro_service_latency_seconds{tenant="la\\"b\\n",quantile="0.5"}' in text
        assert "repro_service_latency_seconds_count" in text
        # every non-comment line is "name{labels} value" parseable
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("repro_")

    def test_status_document_is_json_serializable(self):
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        drive_lifecycle(bus)
        doc = json.loads(json.dumps(sampler.status()))
        assert doc["schema"] == STATUS_SCHEMA

    def test_detach_stops_folding(self):
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        drive_lifecycle(bus)
        sampler.detach()
        drive_lifecycle(bus, submission="sub-0001")
        assert sampler.status()["tenants"]["lab"]["submitted"] == 1


class TestTelemetryServer:
    def test_serves_metrics_status_and_tenant_routes(self):
        bus = EventBus()
        sampler = TelemetrySampler().attach(bus)
        drive_lifecycle(bus, tenant="lab-a")
        with TelemetryServer(sampler) as server:
            metrics = urllib.request.urlopen(server.address + "/metrics")
            assert metrics.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            assert b"repro_service_finished_total" in metrics.read()

            status = json.loads(
                urllib.request.urlopen(server.address + "/status").read()
            )
            assert status["schema"] == STATUS_SCHEMA
            assert status["tenants"]["lab-a"]["finished"] == 1

            tenant = json.loads(
                urllib.request.urlopen(server.address + "/status/lab-a").read()
            )
            assert tenant["finished"] == 1

    def test_unknown_tenant_and_route_404(self):
        sampler = TelemetrySampler()
        with TelemetryServer(sampler) as server:
            for path in ("/status/nope", "/bogus"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(server.address + path)
                assert err.value.code == 404

    def test_stop_is_idempotent_and_port_requires_running(self):
        server = TelemetryServer(TelemetrySampler())
        with pytest.raises(RuntimeError):
            server.port
        server.start().start()
        assert server.running and server.port > 0
        server.stop()
        server.stop()
        assert not server.running


class TestJsonLogSubscriber:
    def test_one_json_line_per_event_with_promoted_fields(self):
        bus = EventBus()
        stream = io.StringIO()
        log = JsonLogSubscriber(stream=stream).attach(bus)
        bus.emit("service.submitted", submission="s0", tenant="lab",
                 backend="bk", trace_id="t" * 16, priority=3)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and log.lines == 1
        record = json.loads(lines[0])
        assert record["event"] == "service.submitted"
        assert record["submission"] == "s0"
        assert record["tenant"] == "lab"
        assert record["backend"] == "bk"
        assert record["trace_id"] == "t" * 16
        assert record["fields"] == {"priority": 3}  # the rest, verbatim

    def test_prefix_and_exact_filters(self):
        bus = EventBus()
        stream = io.StringIO()
        JsonLogSubscriber(
            stream=stream, events=("service.*", "worker.sample")
        ).attach(bus)
        bus.emit("service.started", submission="s0")
        bus.emit("task", phase="end", outcome="done")  # filtered out
        bus.emit("worker.sample", worker="w0", pid=1)
        names = [json.loads(l)["event"] for l in stream.getvalue().splitlines()]
        assert names == ["service.started", "worker.sample"]

    def test_batch_delivery_writes_each_event(self):
        bus = EventBus()
        stream = io.StringIO()
        log = JsonLogSubscriber(stream=stream).attach(bus)
        bus.publish_batch(AttemptBlock([
            ("task.retry", INSTANT, 1.0, {"task": "t0", "submission": "s0"}),
            ("task.timeout", INSTANT, 2.0, {"task": "t0", "submission": "s0"}),
        ]))
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(r["event"], r["seq"], r["submission"]) for r in records] == [
            ("task.retry", 0, "s0"), ("task.timeout", 1, "s0"),
        ]
        assert log.lines == 2

    def test_unserializable_fields_fall_back_to_repr(self):
        bus = EventBus()
        stream = io.StringIO()
        JsonLogSubscriber(stream=stream).attach(bus)
        bus.emit("service.finished", submission="s0", error=ValueError("boom"))
        record = json.loads(stream.getvalue())
        assert "boom" in record["fields"]["error"]


class TestWorkerResourceProfiler:
    def test_sample_process_reads_own_resources(self):
        reading = sample_process(os.getpid())
        assert reading is not None
        assert reading["cpu_seconds"] >= 0.0
        assert reading["rss_bytes"] > 0

    def test_sample_process_missing_pid_is_none(self):
        assert sample_process(2**22 + 12345) is None

    def test_sample_once_emits_and_computes_utilization(self):
        events = []

        def emit(name, **fields):
            events.append((name, fields))

        profiler = WorkerResourceProfiler(
            emit, lambda: {"self": os.getpid()}, interval=0.05, trace_id="abc"
        )
        assert profiler.sample_once() == 1
        # burn a little CPU so the second sample sees a delta
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            sum(i * i for i in range(500))
        assert profiler.sample_once() == 1
        first, second = events[0][1], events[1][1]
        assert events[0][0] == "worker.sample"
        assert first["worker"] == "self" and first["trace_id"] == "abc"
        assert first["cpu_pct"] is None  # no delta yet
        assert second["cpu_pct"] is not None and second["cpu_pct"] >= 0.0
        assert profiler.samples == 2

    def test_thread_lifecycle_takes_final_sample(self):
        events = []
        profiler = WorkerResourceProfiler(
            lambda name, **f: events.append(name),
            lambda: {"self": os.getpid()},
            interval=30.0,  # never fires on its own: only stop() samples
        )
        profiler.start()
        profiler.stop()
        assert events == ["worker.sample"]

    def test_dead_pid_map_is_skipped_not_raised(self):
        profiler = WorkerResourceProfiler(
            lambda name, **f: None, lambda: 1 / 0, interval=0.05
        )
        assert profiler.sample_once() == 0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            WorkerResourceProfiler(lambda n, **f: None, dict, interval=0.0)


class TestTopRenderer:
    def _sampler(self):
        bus = EventBus()
        sampler = TelemetrySampler(capacity=2).attach(bus)
        drive_lifecycle(bus, tenant="lab-a", backend="local-threads")
        bus.emit("worker.sample", worker="w0", pid=1, cpu_seconds=1.0,
                 cpu_pct=42.0, rss_bytes=8_000_000)
        return sampler

    def test_render_top_contains_all_sections(self):
        screen = render_top(self._sampler().status())
        assert "repro top" in screen
        assert "lab-a" in screen
        assert "local-threads" in screen
        assert "w0" in screen and "42%" in screen

    def test_watch_in_process_and_over_http(self):
        sampler = self._sampler()
        out = io.StringIO()
        assert watch(sampler, iterations=1, out=out, clear=False) == 1
        assert "lab-a" in out.getvalue()
        with TelemetryServer(sampler) as server:
            out = io.StringIO()
            assert watch(server.address, iterations=1, out=out, clear=False) == 1
            assert "lab-a" in out.getvalue()

    def test_watch_rejects_unusable_source(self):
        with pytest.raises(TypeError):
            watch(object(), iterations=1, out=io.StringIO())

    def test_cli_top_once(self, capsys):
        from repro.observability.__main__ import main

        with TelemetryServer(self._sampler()) as server:
            assert main(["top", server.address, "--once"]) == 0
        assert "lab-a" in capsys.readouterr().out


class TestServiceTelemetryEndToEnd:
    """The acceptance scenario: serve_telemetry=True, scraped mid-flight."""

    def test_service_serves_scrapeable_telemetry_with_matching_trace_ids(self):
        events = []

        async def scenario():
            service = CampaignService(max_workers=2, serve_telemetry=True)
            service.bus.subscribe(events.append)
            async with service:
                address = service.telemetry_server.address
                a = service.submit(
                    make_manifest("tele-a"), backend="local-threads",
                    app_fn=app, tenant="lab-a", profile_interval=0.02,
                )
                b = service.submit(
                    make_manifest("tele-b"), backend="local-threads",
                    app_fn=app, tenant="lab-b",
                )
                await a.wait()
                await b.wait()
                metrics = urllib.request.urlopen(address + "/metrics").read().decode()
                status = json.loads(
                    urllib.request.urlopen(address + "/status").read()
                )
                return a, b, metrics, status

        a, b, metrics, status = asyncio.run(scenario())

        # HTTP views agree with the final outcomes
        assert a.error is None and b.error is None, (a.error, b.error)
        assert status["tenants"]["lab-a"]["finished"] == 1
        assert status["tenants"]["lab-b"]["finished"] == 1
        assert status["tenants"]["lab-a"]["tasks_done"] == len(a.result["g"].completed)
        assert 'repro_service_finished_total{tenant="lab-a"} 1' in metrics
        assert 'repro_service_finished_total{backend="local-threads"} 2' in metrics
        assert status["workers"], "profiler samples missing from /status"

        # one trace id per submission, carried end to end
        assert a.trace_id != b.trace_id
        for handle in (a, b):
            sub_events = [
                e for e in events if e.fields.get("submission") == handle.id
            ]
            names = {e.name for e in sub_events}
            assert {"service.submitted", "service.started",
                    "service.finished", "group", "task"} <= names
            assert all(
                e.fields.get("trace_id") == handle.trace_id for e in sub_events
            )
            # task END carries the worker-echoed id: in-worker propagation
            ends = [
                e for e in sub_events
                if e.name == "task" and e.phase == "end"
            ]
            assert len(ends) == 4
            assert all(e.fields["trace_id"] == handle.trace_id for e in ends)

        # log adapter: the same trace id correlates service + task lines
        stream = io.StringIO()
        log = JsonLogSubscriber(stream=stream)
        for event in events:
            log(event)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        a_lines = [l for l in lines if l.get("trace_id") == a.trace_id]
        assert {"service.submitted", "service.finished", "task"} <= {
            l["event"] for l in a_lines
        }

    def test_telemetry_off_by_default(self):
        service = CampaignService()
        assert service.telemetry is None
        assert service.telemetry_server is None

    def test_caller_supplied_trace_id_wins(self):
        async def scenario():
            service = CampaignService(max_workers=1)
            async with service:
                handle = service.submit(
                    make_manifest("tele-c", n=1), backend="local-threads",
                    app_fn=app, trace_id="feedfacefeedface",
                )
                await handle.wait()
                return handle

        handle = asyncio.run(scenario())
        assert handle.trace_id == "feedfacefeedface"

    def test_new_trace_id_shape(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)  # hex
