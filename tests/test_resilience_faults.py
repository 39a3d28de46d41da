"""Tests for deterministic fault injection and fault-tolerant execution."""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.job import Task
from repro.observability import TASK, TASK_FAULT_INJECTED, TASK_RETRY, TASK_TIMEOUT
from repro.resilience import (
    CRASH_ON_START,
    FAULT_KINDS,
    MID_RUN_CRASH,
    STRAGGLER,
    TRANSIENT_IO,
    ExponentialBackoffPolicy,
    FaultInjector,
    FaultSpec,
    no_retry,
    parse_fault_specs,
)
from repro.savanna import PilotExecutor


def fault_cluster(nodes=4, injector=None, seed=7):
    spec = ClusterSpec(
        nodes=nodes,
        queue_sigma=0.0,
        queue_median_wait=10.0,
        node_mttf=None,
        fs_load=None,
    )
    return SimulatedCluster(spec, seed=seed, faults=injector)


def tasks_of(durations):
    return [
        Task(name=f"run-{i:04d}", duration=float(d))
        for i, d in enumerate(durations)
    ]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("cosmic-ray", 0.1)

    def test_probability_must_be_fraction(self):
        with pytest.raises(ValueError):
            FaultSpec(CRASH_ON_START, 1.5)

    def test_slowdown_at_least_one(self):
        with pytest.raises(ValueError, match="slowdown"):
            FaultSpec(STRAGGLER, 0.1, slowdown=0.5)


class TestFaultInjector:
    def test_decisions_are_pure_functions_of_keys(self):
        injector = FaultInjector([FaultSpec(MID_RUN_CRASH, 0.5)], seed=3)
        first = injector.decide("run-0001", attempt=1, duration=100.0)
        second = injector.decide("run-0001", attempt=1, duration=100.0)
        assert first == second

    def test_decisions_are_order_independent(self):
        make = lambda: FaultInjector(  # noqa: E731 - tiny local factory
            [FaultSpec(CRASH_ON_START, 0.4), FaultSpec(STRAGGLER, 0.4)], seed=5
        )
        forward = make()
        a1 = forward.decide("a", 1, 10.0)
        b1 = forward.decide("b", 1, 10.0)
        backward = make()
        assert backward.decide("b", 1, 10.0) == b1
        assert backward.decide("a", 1, 10.0) == a1

    def test_crash_on_start_fails_at_zero(self):
        injector = FaultInjector([FaultSpec(CRASH_ON_START, 1.0)], seed=0)
        decision = injector.decide("x", 1, 200.0)
        assert decision.kind == CRASH_ON_START
        assert decision.fail_at == 0.0

    def test_mid_run_crash_lands_inside_the_attempt(self):
        injector = FaultInjector([FaultSpec(MID_RUN_CRASH, 1.0)], seed=0)
        decision = injector.decide("x", 1, 200.0)
        assert 0.05 * 200.0 <= decision.fail_at <= 0.95 * 200.0

    def test_straggler_slows_but_does_not_fail(self):
        injector = FaultInjector([FaultSpec(STRAGGLER, 1.0, slowdown=3.0)], seed=0)
        decision = injector.decide("x", 1, 200.0)
        assert decision.fail_at is None
        assert decision.slowdown == 3.0

    def test_transient_io_clears_after_max_attempts(self):
        injector = FaultInjector(
            [FaultSpec(TRANSIENT_IO, 1.0, max_attempts=2)], seed=0
        )
        assert injector.decide("x", 1, 50.0).kind == TRANSIENT_IO
        assert injector.decide("x", 2, 50.0).kind == TRANSIENT_IO
        assert injector.decide("x", 3, 50.0) is None

    def test_first_spec_wins(self):
        injector = FaultInjector(
            [FaultSpec(CRASH_ON_START, 1.0), FaultSpec(STRAGGLER, 1.0)], seed=0
        )
        assert injector.decide("x", 1, 50.0).kind == CRASH_ON_START

    def test_injected_count_tracks_strikes(self):
        injector = FaultInjector([FaultSpec(CRASH_ON_START, 1.0)], seed=0)
        injector.decide("x", 1, 50.0)
        injector.decide("y", 1, 50.0)
        assert injector.injected_count == 2

    def test_specs_are_type_checked(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultInjector([("crash-on-start", 0.1)])


class TestParseFaultSpecs:
    def test_parses_plan_string(self):
        specs = parse_fault_specs("crash-on-start=0.1, straggler=0.2", slowdown=2.0)
        assert [(s.kind, s.probability) for s in specs] == [
            (CRASH_ON_START, 0.1),
            (STRAGGLER, 0.2),
        ]
        assert specs[1].slowdown == 2.0

    def test_rejects_malformed_parts(self):
        with pytest.raises(ValueError, match="kind=rate"):
            parse_fault_specs("crash-on-start")

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="no fault specs"):
            parse_fault_specs(" , ")

    def test_every_kind_is_parseable(self):
        plan = ",".join(f"{kind}=0.1" for kind in FAULT_KINDS)
        assert len(parse_fault_specs(plan)) == len(FAULT_KINDS)


class TestNodeDegradation:
    def test_effective_speed_divides_by_slowdown(self):
        # A 4x straggler on a speed-2.0 node runs its attempt at 0.5.
        injector = FaultInjector([FaultSpec(STRAGGLER, 1.0, slowdown=4.0)], seed=2)
        cluster = fault_cluster(nodes=1, injector=injector)
        cluster.pool.nodes[0].speed = 2.0
        result = PilotExecutor(cluster).run(
            tasks_of([100.0]), nodes=1, walltime=10_000.0, max_allocations=1
        )
        assert result.tasks[0].attempts[0].elapsed == pytest.approx(200.0)


class TestFaultTolerantExecution:
    def test_seeded_crash_and_straggler_campaign_completes_via_retry(self):
        # Acceptance: under a seeded crash+straggler mix, a backoff policy
        # carries every run to completion within one allocation.
        injector = FaultInjector(
            [
                FaultSpec(CRASH_ON_START, 0.3),
                FaultSpec(STRAGGLER, 0.3, slowdown=2.0),
            ],
            seed=11,
        )
        cluster = fault_cluster(nodes=4, injector=injector)
        events = []
        cluster.bus.subscribe(events.append)
        executor = PilotExecutor(
            cluster,
            retry_policy=ExponentialBackoffPolicy(max_retries=5, base=10.0),
        )
        result = executor.run(
            tasks_of([100.0] * 16), nodes=4, walltime=20_000.0, max_allocations=1
        )
        assert len(result.completed) == 16
        kinds = {
            e.fields["kind"] for e in events if e.name == TASK_FAULT_INJECTED
        }
        assert CRASH_ON_START in kinds and STRAGGLER in kinds
        assert any(e.name == TASK_RETRY for e in events)

    def test_no_retry_baseline_is_hurt_by_the_same_faults(self):
        injector = FaultInjector([FaultSpec(CRASH_ON_START, 0.3)], seed=11)
        cluster = fault_cluster(nodes=4, injector=injector)
        executor = PilotExecutor(cluster, retry_policy=no_retry())
        result = executor.run(
            tasks_of([100.0] * 16), nodes=4, walltime=20_000.0, max_allocations=1
        )
        assert 0 < len(result.completed) < 16
        assert injector.injected_count > 0

    def test_straggler_stretches_wall_time_and_restores_nodes(self):
        # One node runs every task in turn; a straggler stretches only the
        # attempt it strikes, so the node is back at full speed afterwards.
        plan = [FaultSpec(STRAGGLER, 0.5, slowdown=4.0)]
        tasks = tasks_of([100.0] * 8)
        probe = FaultInjector(plan, seed=2)
        struck = [probe.decide(t.name, 1, t.duration) is not None for t in tasks]
        assert any(struck) and not all(struck)
        cluster = fault_cluster(nodes=1, injector=FaultInjector(plan, seed=2))
        result = PilotExecutor(cluster).run(
            tasks, nodes=1, walltime=10_000.0, max_allocations=1
        )
        elapsed = [t.attempts[0].elapsed for t in result.tasks]
        assert elapsed == pytest.approx([400.0 if s else 100.0 for s in struck])

    def test_timeout_cuts_attempt_and_emits_event(self):
        cluster = fault_cluster(nodes=1)
        events = []
        cluster.bus.subscribe(events.append)
        executor = PilotExecutor(
            cluster, retry_policy=no_retry(task_timeout=40.0)
        )
        result = executor.run(
            tasks_of([100.0]), nodes=1, walltime=10_000.0, max_allocations=1
        )
        assert not result.completed
        timeouts = [e for e in events if e.name == TASK_TIMEOUT]
        assert len(timeouts) == 1
        assert timeouts[0].fields["timeout"] == 40.0
        ends = [e for e in events if e.name == TASK and e.phase == "end"]
        assert ends[0].time == pytest.approx(timeouts[0].time)

    def test_identical_seeds_reproduce_identical_event_streams(self):
        def run_once():
            injector = FaultInjector(
                [FaultSpec(MID_RUN_CRASH, 0.4)], seed=13
            )
            cluster = fault_cluster(nodes=2, injector=injector)
            events = []
            cluster.bus.subscribe(events.append)
            executor = PilotExecutor(
                cluster, retry_policy=ExponentialBackoffPolicy(max_retries=4)
            )
            executor.run(
                tasks_of([60.0] * 8), nodes=2, walltime=20_000.0, max_allocations=1
            )
            return [(e.time, e.name, e.phase, e.fields.get("task")) for e in events]

        assert run_once() == run_once()
