"""Tests for the simulated executors: pilot, static sets, campaign runner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.job import Task, TaskState
from repro.resilience import RetryPolicy, no_retry
from repro.savanna import PilotExecutor, StaticSetExecutor, tasks_from_manifest
from repro.savanna.executor import CampaignResult

from conftest import make_cluster


def tasks_of(durations, nodes=1):
    return [Task(name=f"t{i}", duration=float(d), nodes=nodes) for i, d in enumerate(durations)]


class TestPilot:
    def test_all_tasks_complete_within_walltime(self):
        cluster = make_cluster(nodes=2)
        result = PilotExecutor(cluster).run(tasks_of([10, 10, 10, 10]), nodes=2, walltime=100.0)
        assert len(result.completed) == 4
        assert result.all_done

    def test_nodes_reused_as_they_free(self):
        """4 tasks x 10s on 2 nodes must take ~20s of busy span, not 40."""
        cluster = make_cluster(nodes=2)
        result = PilotExecutor(cluster).run(tasks_of([10, 10, 10, 10]), nodes=2, walltime=100.0)
        outcome = result.outcomes[0]
        span = outcome.last_activity() - outcome.allocation.start
        assert span == pytest.approx(20.0)

    def test_straggler_does_not_block_short_tasks(self):
        cluster = make_cluster(nodes=2)
        result = PilotExecutor(cluster).run(
            tasks_of([90, 5, 5, 5, 5]), nodes=2, walltime=200.0
        )
        outcome = result.outcomes[0]
        # all shorts fit alongside the straggler on the second node
        span = outcome.last_activity() - outcome.allocation.start
        assert span == pytest.approx(90.0)

    def test_walltime_kill_marks_tasks_killed(self):
        cluster = make_cluster(nodes=1)
        result = PilotExecutor(cluster).run(tasks_of([50, 100]), nodes=1, walltime=60.0)
        outcome = result.outcomes[0]
        assert outcome.completed_count == 1
        assert len(outcome.killed) == 1
        assert result.tasks[1].state is TaskState.KILLED

    def test_resume_completes_killed_tasks(self):
        cluster = make_cluster(nodes=1)
        result = PilotExecutor(cluster).run(
            tasks_of([50, 50, 50]), nodes=1, walltime=60.0, max_allocations=5
        )
        assert result.all_done
        assert len(result.outcomes) == 3  # one completion per 60s window

    def test_multinode_task_placement(self):
        cluster = make_cluster(nodes=4)
        result = PilotExecutor(cluster).run(
            tasks_of([10, 10], nodes=2), nodes=4, walltime=100.0
        )
        outcome = result.outcomes[0]
        assert outcome.completed_count == 2
        # both ran concurrently across 4 nodes
        assert outcome.last_activity() - outcome.allocation.start == pytest.approx(10.0)

    def test_failed_task_requeued_and_retried(self):
        cluster = make_cluster(nodes=1, mttf=30.0, seed=5)  # very failure-prone
        tasks = tasks_of([5.0] * 10)
        result = PilotExecutor(cluster, retry_policy=RetryPolicy(max_retries=5)).run(
            tasks, nodes=1, walltime=10000.0
        )
        outcome = result.outcomes[0]
        # with retries, most tasks eventually finish; attempts > tasks
        assert len(outcome.attempts) > 10

    def test_no_retry_mode_records_failures(self):
        cluster = make_cluster(nodes=1, mttf=10.0, seed=5)
        tasks = tasks_of([30.0] * 5)
        result = PilotExecutor(cluster, retry_policy=no_retry()).run(
            tasks, nodes=1, walltime=10000.0
        )
        outcome = result.outcomes[0]
        assert outcome.failed  # at such a low MTTF something must fail

    def test_oversized_task_stays_pending(self):
        # A task wider than the allocation used to hold the pilot's queue
        # head until the walltime, starving the narrow task behind it.
        # It now stays PENDING, and the rest of the queue runs.
        cluster = make_cluster(nodes=4)
        tasks = [Task("a", 10.0), Task("wide", 10.0, nodes=5), Task("b", 10.0)]
        result = PilotExecutor(cluster).run(tasks, nodes=4, walltime=1000.0)
        assert [t.state for t in tasks] == [TaskState.DONE, TaskState.PENDING, TaskState.DONE]
        assert result.pending == [tasks[1]]
        assert cluster.now < 100.0  # released once the runnable work is done


class TestStaticSets:
    def test_barrier_idles_nodes(self):
        """Set {10, 100} then {10, 10}: node 0 idles 90s at the barrier."""
        cluster = make_cluster(nodes=2)
        result = StaticSetExecutor(cluster).run(
            tasks_of([10, 100, 10, 10]), nodes=2, walltime=300.0
        )
        outcome = result.outcomes[0]
        span = outcome.last_activity() - outcome.allocation.start
        assert span == pytest.approx(110.0)
        trace = outcome.trace(end=outcome.last_activity())
        assert trace.utilization() < 0.65

    def test_pilot_beats_static_on_same_workload(self):
        durations = list(np.random.default_rng(3).lognormal(3.0, 1.2, size=40))
        static = StaticSetExecutor(make_cluster(nodes=4)).run(
            tasks_of(durations), nodes=4, walltime=10000.0
        )
        pilot = PilotExecutor(make_cluster(nodes=4)).run(
            tasks_of(durations), nodes=4, walltime=10000.0
        )
        assert pilot.makespan() < static.makespan()

    def test_set_gap_delays_next_set(self):
        cluster = make_cluster(nodes=2)
        result = StaticSetExecutor(cluster, set_gap=25.0).run(
            tasks_of([10, 10, 10, 10]), nodes=2, walltime=300.0
        )
        outcome = result.outcomes[0]
        span = outcome.last_activity() - outcome.allocation.start
        assert span == pytest.approx(10 + 25 + 10)

    def test_failures_not_retried_within_allocation(self):
        cluster = make_cluster(nodes=1, mttf=20.0, seed=5)
        result = StaticSetExecutor(cluster).run(
            tasks_of([50.0] * 4), nodes=1, walltime=10000.0
        )
        outcome = result.outcomes[0]
        # each task attempted exactly once in the allocation
        assert len(outcome.attempts) == 4
        assert outcome.failed

    def test_oversized_task_rejected(self):
        cluster = make_cluster(nodes=2)
        with pytest.raises(ValueError, match="needs 3 nodes"):
            StaticSetExecutor(cluster).run(
                tasks_of([10], nodes=3), nodes=2, walltime=100.0
            )

    def test_sets_partition_respects_node_width(self):
        from repro.savanna._vector import VectorStaticSetRun

        tasks = tasks_of([1] * 7, nodes=2)
        sets = VectorStaticSetRun._partition(tasks, 5)
        for batch in sets:
            assert sum(t.nodes for t in batch) <= 5
        assert sum(len(s) for s in sets) == 7


class TestRunner:
    def test_max_allocations_respected(self):
        cluster = make_cluster(nodes=1)
        result = PilotExecutor(cluster).run(
            tasks_of([100.0] * 50), nodes=1, walltime=150.0, max_allocations=3
        )
        assert len(result.outcomes) == 3
        assert not result.all_done

    def test_inter_allocation_gap_spaces_submissions(self):
        cluster = make_cluster(nodes=1, queue_wait=0.0)
        result = PilotExecutor(cluster).run(
            tasks_of([50.0, 50.0]), nodes=1, walltime=60.0,
            max_allocations=2, inter_allocation_gap=500.0,
        )
        starts = [o.allocation.start for o in result.outcomes]
        assert starts[1] - starts[0] >= 500.0

    def test_end_early_releases_allocation(self):
        cluster = make_cluster(nodes=1, queue_wait=0.0)
        result = PilotExecutor(cluster).run(
            tasks_of([10.0]), nodes=1, walltime=10000.0
        )
        # simulation clock should end near 10s, not at walltime
        assert cluster.now < 100.0

    def test_allocation_utilization_counts_only_its_own_attempts(self):
        """A later allocation on the same nodes, inside this allocation's
        default window, adds nothing to this allocation's trace."""
        cluster = SimulatedCluster(
            ClusterSpec(nodes=2, queue_sigma=0.0, queue_median_wait=10.0), seed=1
        )
        first, second = (
            PilotExecutor(cluster).run(tasks_of([100.0, 100.0]), nodes=2, walltime=10_000)
            for _ in range(2)
        )
        outcome = first.outcomes[0]
        assert second.outcomes[0].allocation.start < outcome.allocation.deadline
        rows = outcome.trace().rows
        assert sum(row.busy_time() for row in rows) == pytest.approx(200.0)
        assert [len(row.intervals) for row in rows] == [1, 1]

    def test_empty_task_list_no_allocations(self):
        cluster = make_cluster(nodes=1)
        result = PilotExecutor(cluster).run([], nodes=1, walltime=100.0)
        assert result.outcomes == []
        assert result.all_done

    def test_mean_completed_per_allocation(self):
        result = CampaignResult(tasks=[])
        assert result.mean_completed_per_allocation() == 0.0


class TestTasksFromManifest:
    def make_manifest(self):
        from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter

        camp = Campaign("c", app=AppSpec("a", nodes_per_run=2))
        sg = camp.sweep_group("g", nodes=4, walltime=100.0)
        sg.add(Sweep([SweepParameter("x", [1, 2, 3])]))
        return camp.to_manifest()

    def test_durations_from_model(self):
        tasks = tasks_from_manifest(self.make_manifest(), lambda p: 10.0 * p["x"])
        assert [t.duration for t in tasks] == [10.0, 20.0, 30.0]
        assert all(t.nodes == 2 for t in tasks)
        assert tasks[0].payload == {"x": 1}

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration model returned"):
            tasks_from_manifest(self.make_manifest(), lambda p: 0.0)


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["pilot", "static"]),
)
def test_task_conservation_property(durations, nodes, kind):
    """Property: after any campaign, every task is DONE, FAILED, KILLED, or
    PENDING, and completed+others == total (nothing lost or duplicated)."""
    cluster = make_cluster(nodes=nodes, mttf=5000.0, seed=1)
    tasks = tasks_of(durations)
    executor = (
        PilotExecutor(cluster) if kind == "pilot" else StaticSetExecutor(cluster)
    )
    result = executor.run(tasks, nodes=nodes, walltime=300.0, max_allocations=2)
    states = [t.state for t in result.tasks]
    assert len(states) == len(durations)
    allowed = {TaskState.DONE, TaskState.FAILED, TaskState.KILLED, TaskState.PENDING}
    assert set(states) <= allowed
    # completed list consistent with task states
    assert len(result.completed) == sum(1 for s in states if s is TaskState.DONE)
    # attempts never overlap on a node within an allocation
    for outcome in result.outcomes:
        by_node = {}
        for attempt in outcome.attempts:
            if attempt.end is None:
                continue
            for node_idx in attempt.node_indices:
                by_node.setdefault(node_idx, []).append((attempt.start, attempt.end))
        for intervals in by_node.values():
            intervals.sort()
            for (_s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-9
