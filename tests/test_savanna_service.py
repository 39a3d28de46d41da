"""Tests for the asyncio campaign service (repro.savanna.service).

The acceptance scenario drives three campaigns concurrently through one
``CampaignService`` — mixed priorities, one cancellation mid-flight, one
``resume=True`` re-submission — and asserts interleaved
``service.*``/execution events, fair-share ordering, and backpressure at
the queue bound.  The remaining tests pin the scheduler, the handle API,
the thread-safe bus, and the checkpoint single-writer guard in
isolation.

No pytest-asyncio here: each async scenario runs under ``asyncio.run``
inside a plain test function.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
import warnings

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory
from repro.observability import (
    INSTANT,
    SERVICE_CANCELLED,
    SERVICE_FINISHED,
    SERVICE_SATURATED,
    SERVICE_STARTED,
    SERVICE_SUBMITTED,
)
from repro.observability.events import AttemptBlock
from repro.resilience import CampaignCheckpoint
from repro.savanna import (
    CampaignService,
    ServiceSaturated,
    SubmissionState,
    ThreadSafeBus,
    service_bus,
)


def app(params):
    time.sleep(params.get("sleep", 0.005))
    return params["x"] + 1


def make_manifest(name, n=4, sleep=0.005):
    camp = Campaign(name, app=AppSpec("service-app"))
    sg = camp.sweep_group("g", nodes=2, walltime=600.0)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    manifest = camp.to_manifest()
    for run in manifest.runs:
        run.parameters["sleep"] = sleep
    return manifest


async def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(interval)


class TestAcceptance:
    """The ISSUE scenario, end to end on ``local-threads``."""

    def test_concurrent_campaigns_cancel_resume_fair_share_backpressure(
        self, tmp_path
    ):
        events = []
        slow_manifest = make_manifest("slow-b", n=30, sleep=0.05)
        directory = CampaignDirectory(tmp_path, slow_manifest)
        directory.create()

        async def scenario():
            service = CampaignService(max_workers=2, max_queue_depth=3)
            service.bus.subscribe(events.append)
            async with service:
                # All four submit() calls run before the loop yields, so
                # the queue genuinely holds three when the fourth arrives.
                fast_a = service.submit(make_manifest("fast-a", n=6),
                                        app_fn=app, tenant="lab-a")
                slow_b = service.submit(slow_manifest, app_fn=app,
                                        tenant="lab-b", directory=directory,
                                        max_workers=2)
                fast_c = service.submit(make_manifest("fast-c", n=6),
                                        app_fn=app, tenant="lab-a", priority=1)
                assert service.saturated
                with pytest.raises(ServiceSaturated):
                    service.submit(make_manifest("overflow"), app_fn=app)

                # Cancel the slow campaign once it is genuinely running.
                await wait_for(
                    lambda: slow_b.status() is SubmissionState.RUNNING
                )
                await asyncio.sleep(0.4)
                assert slow_b.cancel()
                await asyncio.gather(
                    fast_a.wait(), slow_b.wait(), fast_c.wait()
                )

                # Re-submit the cancelled campaign: resume from the cut.
                resumed = service.submit(slow_manifest, app_fn=app,
                                         tenant="lab-b", directory=directory,
                                         resume=True, max_workers=2)
                assert await resumed.wait(timeout=30.0) is SubmissionState.DONE
                return fast_a, slow_b, fast_c, resumed

        fast_a, slow_b, fast_c, resumed = asyncio.run(scenario())

        # -- terminal states ------------------------------------------------
        assert fast_a.status() is SubmissionState.DONE
        assert fast_c.status() is SubmissionState.DONE
        assert slow_b.status() is SubmissionState.CANCELLED
        assert fast_a.result["g"].all_done and fast_c.result["g"].all_done

        # -- the cancel cut a running campaign, partial result retained -----
        cut_statuses = slow_b.result["g"].statuses()
        assert "interrupted" in cut_statuses.values()
        done_before_cut = {r for r, s in cut_statuses.items() if s == "done"}
        assert done_before_cut, "cancel should land after some runs finished"

        # -- resume executed exactly the cut set ----------------------------
        all_runs = {run.run_id for run in slow_manifest.runs}
        executed = set(resumed.result["g"].statuses())
        assert executed == all_runs - done_before_cut
        assert resumed.result["g"].all_done
        summary = directory.summary()
        assert summary.get("done") == len(all_runs)

        # -- fair share + priority: started order is C (priority), then B
        #    (lab-b least served), then A ------------------------------------
        started = [e.fields["submission"] for e in events
                   if e.name == SERVICE_STARTED]
        assert started[:3] == [fast_c.id, slow_b.id, fast_a.id]

        # -- backpressure was observable, not just an exception -------------
        saturated = [e for e in events if e.name == SERVICE_SATURATED]
        assert len(saturated) == 1
        assert saturated[0].fields["limit"] == 3

        # -- lifecycle instants ---------------------------------------------
        names = [e.name for e in events]
        assert names.count(SERVICE_SUBMITTED) == 4  # overflow never enqueued
        assert names.count(SERVICE_FINISHED) == 3   # A, C, resumed B
        cancelled = [e for e in events if e.name == SERVICE_CANCELLED]
        assert [e.fields["while"] for e in cancelled] == ["running"]

        # -- execution events forwarded and genuinely interleaved -----------
        spans = {}
        for i, e in enumerate(events):
            sid = e.fields.get("submission")
            if sid and not e.name.startswith("service."):
                lo, hi = spans.get(sid, (i, i))
                spans[sid] = (min(lo, i), max(hi, i))
        assert set(spans) >= {fast_a.id, slow_b.id, fast_c.id}
        b_lo, b_hi = spans[slow_b.id]
        c_lo, c_hi = spans[fast_c.id]
        assert b_lo < c_hi and c_lo < b_hi, "B and C events should interleave"
        # the resumed drive announced the skip on the monitoring bus
        resumed_events = [e for e in events
                          if e.fields.get("submission") == resumed.id]
        assert any(e.name == "group.resumed" for e in resumed_events)


class TestScheduler:
    def test_priority_then_fair_share_then_submission_order(self):
        events = []

        async def scenario():
            service = CampaignService(max_workers=1, max_queue_depth=8)
            service.bus.subscribe(events.append)
            handles = {}
            # Queue everything before the single worker starts.
            handles["a1"] = service.submit(make_manifest("a1", n=2),
                                           app_fn=app, tenant="lab-a")
            handles["a2"] = service.submit(make_manifest("a2", n=2),
                                           app_fn=app, tenant="lab-a")
            handles["b1"] = service.submit(make_manifest("b1", n=2),
                                           app_fn=app, tenant="lab-b")
            handles["b2"] = service.submit(make_manifest("b2", n=2),
                                           app_fn=app, tenant="lab-b")
            handles["hi"] = service.submit(make_manifest("hi", n=2),
                                           app_fn=app, tenant="lab-a",
                                           priority=1)
            async with service:
                await asyncio.gather(*(h.wait() for h in handles.values()))
            return handles

        handles = asyncio.run(scenario())
        started = [e.fields["submission"] for e in events
                   if e.name == SERVICE_STARTED]
        expected = [handles[k].id for k in ("hi", "b1", "a1", "b2", "a2")]
        assert started == expected

    def test_unknown_backend_fails_at_submit(self):
        service = CampaignService()
        with pytest.raises(KeyError):
            service.submit(make_manifest("m"), backend="no-such-backend")

    def test_submit_refused_while_stopping(self):
        async def scenario():
            service = CampaignService()
            async with service:
                pass
            with pytest.raises(RuntimeError, match="stopping"):
                service.submit(make_manifest("late"), app_fn=app)

        asyncio.run(scenario())


class TestBackpressure:
    def test_saturation_raises_and_emits(self):
        events = []
        service = CampaignService(max_queue_depth=2)
        service.bus.subscribe(events.append)
        first = service.submit(make_manifest("one"), app_fn=app)
        service.submit(make_manifest("two"), app_fn=app)
        assert service.saturated and service.queued == 2
        with pytest.raises(ServiceSaturated, match="queue is full"):
            service.submit(make_manifest("three"), app_fn=app)
        assert [e.name for e in events if e.name == SERVICE_SATURATED] == [
            SERVICE_SATURATED
        ]
        # cancelling a queued submission frees a slot again
        assert first.cancel()
        assert not service.saturated

    def test_queued_cancel_is_immediate(self):
        events = []
        service = CampaignService()
        service.bus.subscribe(events.append)
        handle = service.submit(make_manifest("q"), app_fn=app)
        assert handle.cancel()
        assert handle.status() is SubmissionState.CANCELLED
        assert handle.result is None
        cancelled = [e for e in events if e.name == SERVICE_CANCELLED]
        assert [e.fields["while"] for e in cancelled] == ["queued"]
        assert handle.cancel() is False  # terminal: nothing to do


class TestHandle:
    def test_done_submission_exposes_result(self):
        async def scenario():
            service = CampaignService(max_workers=1)
            async with service:
                handle = service.submit(make_manifest("ok", n=3),
                                        app_fn=app, tenant="t", priority=2)
                assert handle.campaign == "ok"
                assert handle.tenant == "t" and handle.priority == 2
                state = await handle.wait(timeout=30.0)
                assert state is SubmissionState.DONE
                assert handle.error is None
                assert handle.outcome() is handle.result
                assert handle.result["g"].values() == {
                    f"g/run-{i:04d}": i + 1 for i in range(3)
                }

        asyncio.run(scenario())

    def test_failed_submission_keeps_error(self):
        async def scenario():
            service = CampaignService(max_workers=1)
            async with service:
                # real backend without app_fn: the drive raises per-submission
                handle = service.submit(make_manifest("broken"))
                assert await handle.wait() is SubmissionState.FAILED
                assert isinstance(handle.error, Exception)
                with pytest.raises(Exception):
                    handle.outcome()
            # the failure stayed isolated: the service still drives others
            return service.submissions()

        submissions = asyncio.run(scenario())
        assert list(submissions.values()) == [SubmissionState.FAILED]

    def test_wait_timeout(self):
        async def scenario():
            service = CampaignService()  # never started: stays QUEUED
            handle = service.submit(make_manifest("stuck"), app_fn=app)
            with pytest.raises(asyncio.TimeoutError):
                await handle.wait(timeout=0.05)

        asyncio.run(scenario())

    def test_stop_without_drain_terminates_everything(self):
        async def scenario():
            service = CampaignService(max_workers=1)
            await service.start()
            slow = service.submit(make_manifest("slow", n=40, sleep=0.05),
                                  app_fn=app)
            queued = service.submit(make_manifest("queued"), app_fn=app)
            await wait_for(lambda: slow.status() is SubmissionState.RUNNING)
            await service.stop(drain=False)
            return slow.status(), queued.status()

        slow_state, queued_state = asyncio.run(scenario())
        assert slow_state is SubmissionState.CANCELLED
        assert queued_state is SubmissionState.CANCELLED


class TestThreadSafeBus:
    def test_concurrent_emission_keeps_seq_unique(self):
        bus = service_bus("test")
        assert isinstance(bus, ThreadSafeBus)
        events = []
        bus.subscribe(events.append)

        def hammer(tag):
            for i in range(200):
                bus.emit("tick", tag=tag, i=i)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(events) == 800
        seqs = [e.seq for e in events]
        assert len(set(seqs)) == 800

    def test_concurrent_publishers_lose_and_interleave_nothing(self):
        """Every emit from every publisher arrives exactly once, and each
        publisher's own events stay in emission order (the lock makes
        delivery atomic, so no subscriber sees a half-published event)."""
        bus = ThreadSafeBus(name="stress")
        events = []
        bus.subscribe(events.append)
        publishers, per_publisher = 8, 250
        barrier = threading.Barrier(publishers)

        def hammer(tag):
            barrier.wait()  # maximise overlap
            for i in range(per_publisher):
                bus.emit("tick", tag=tag, i=i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(publishers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(events) == publishers * per_publisher
        for tag in range(publishers):
            mine = [e.fields["i"] for e in events if e.fields["tag"] == tag]
            assert mine == list(range(per_publisher))  # nothing lost, in order
        # seq is globally unique and delivery order matches assignment order
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_publish_batch_is_serialized_with_emit(self):
        """A block publisher racing an emitter shares its seq counter:
        every event gets its own seq, delivered in seq order."""
        bus = ThreadSafeBus(name="mixed")
        events = []
        bus.subscribe(events.append)
        barrier = threading.Barrier(2)

        def emitter():
            barrier.wait()
            for i in range(3000):
                bus.emit("tick", i=i)

        def batcher():
            barrier.wait()
            for b in range(300):
                block = [("batch", INSTANT, 0.0, {"b": b, "i": i}) for i in range(10)]
                bus.publish_batch(AttemptBlock(block))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=emitter), threading.Thread(target=batcher)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(events) == 6000
        assert [e.seq for e in events] == list(range(6000))
        batched = [(e.fields["b"], e.fields["i"]) for e in events if e.name == "batch"]
        assert batched == [(b, i) for b in range(300) for i in range(10)]

    def test_failing_subscriber_warns_once_under_concurrency(self):
        """Subscriber isolation: a raising subscriber never breaks
        delivery to the others, and its warning fires exactly once per
        (subscriber, event name) even with many racing publishers."""
        from repro.observability import SubscriberError

        bus = ThreadSafeBus(name="isolated")
        good: list = []

        def bad_one(event):
            raise RuntimeError("boom-1")

        def bad_two(event):
            raise RuntimeError("boom-2")

        bus.subscribe(bad_one)
        bus.subscribe(bad_two)
        bus.subscribe(good.append)
        barrier = threading.Barrier(6)

        def hammer():
            barrier.wait()
            for _ in range(100):
                bus.emit("tick")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(good) == 600  # the healthy subscriber saw everything
        isolation = [w for w in caught if issubclass(w.category, SubscriberError)]
        assert len(isolation) == 2  # once per failing subscriber, not per event
        assert {("boom-1" in str(w.message)) for w in isolation} == {True, False}


class TestCheckpointSingleWriter:
    def test_second_attach_on_same_directory_refused(self, tmp_path):
        manifest = make_manifest("guarded")
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        bus = service_bus("guard")
        first = CampaignCheckpoint(directory)
        second = CampaignCheckpoint(directory)
        first.attach(bus, owner="sub-0000")
        try:
            with pytest.raises(RuntimeError, match="sub-0000"):
                second.attach(bus)
        finally:
            first.detach()
        # released: a new writer may attach (and detach is idempotent)
        second.attach(bus)
        second.detach()
        second.detach()
