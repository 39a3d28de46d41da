"""Cross-cutting property tests: invariants that span modules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cluster


@settings(deadline=None, max_examples=40)
@given(
    n_items=st.integers(0, 200),
    policy_kind=st.sampled_from(["forward", "sample", "window", "time"]),
    knob=st.integers(1, 12),
)
def test_dataflow_conservation(n_items, policy_kind, knob):
    """Property: the sink receives exactly what the virtual queue emitted,
    and the graph always terminates."""
    from repro.dataflow import (
        DataflowGraph,
        DataScheduler,
        ForwardAll,
        Punctuation,
        SampleEveryK,
        Sink,
        SlidingWindowCount,
        SlidingWindowTime,
        Source,
    )
    from repro.dataflow.components import ControlSource

    policy = {
        "forward": lambda: ForwardAll(),
        "sample": lambda: SampleEveryK(knob),
        "window": lambda: SlidingWindowCount(knob),
        "time": lambda: SlidingWindowTime(float(knob)),
    }[policy_kind]()

    g = DataflowGraph("prop")
    src = g.add(Source("s", ({"v": i} for i in range(n_items))))
    # Control source added before the scheduler: the install must be
    # processed before the first data item (step order = insertion order).
    ctrl = g.add(
        ControlSource("c", [(0, Punctuation("install-policy", ("out", policy)))])
    )
    sched = g.add(DataScheduler("d", subscribers=("out",)))
    sink = g.add(Sink("k"))
    g.connect(src, "out", sched, "in")
    g.connect(ctrl, "out", sched, "control")
    g.connect(sched, "out", sink, "in", capacity=8)  # small: exercise backlog
    g.run()

    assert sched.queue_stats()["out"]["emitted"] == len(sink.received)
    assert sched.items_seen == n_items
    if policy_kind == "forward":
        assert len(sink.received) == n_items
    if policy_kind == "sample":
        assert len(sink.received) == n_items // knob


@settings(deadline=None, max_examples=30)
@given(
    tasks=st.lists(
        st.tuples(st.floats(1.0, 400.0), st.integers(1, 3)), min_size=1, max_size=25
    ),
    nodes=st.integers(3, 6),
    walltime=st.floats(50.0, 1000.0),
    allocations=st.integers(1, 3),
    pilot=st.booleans(),
)
def test_executor_returns_all_nodes(tasks, nodes, walltime, allocations, pilot):
    """Property: after any pilot or static campaign, every node is back in
    the free pool, and no node ran two attempts at once: each outcome's
    utilization rows are time-ordered, pairwise disjoint and inside the
    allocation's window."""
    from repro.cluster.job import Task
    from repro.savanna import PilotExecutor, StaticSetExecutor

    cluster = make_cluster(nodes=nodes)
    executor = PilotExecutor(cluster) if pilot else StaticSetExecutor(cluster)
    result = executor.run(
        [Task(name=f"t{i}", duration=d, nodes=w) for i, (d, w) in enumerate(tasks)],
        nodes=nodes,
        walltime=walltime,
        max_allocations=allocations,
    )
    assert cluster.pool.free_count == nodes
    for outcome in result.outcomes:
        alloc = outcome.allocation
        for a in outcome.attempts:
            assert alloc.start <= a.start < a.end <= alloc.deadline
        rows = outcome.trace().rows
        # Every attempt lies inside the window, so each row keeps all of
        # its node's attempts whole.
        assert sum(len(row.intervals) for row in rows) == sum(
            len(a.node_indices) for a in outcome.attempts
        )
        for row in rows:
            for (_, end), (start, _) in zip(row.intervals, row.intervals[1:]):
                assert end <= start


@settings(deadline=None, max_examples=30)
@given(
    steps=st.integers(1, 40),
    budget=st.floats(0.01, 0.9),
    seed=st.integers(0, 50),
)
def test_checkpoint_accounting_identity(steps, budget, seed):
    """Property: middleware accounting is internally consistent and the
    report matches the per-step log exactly."""
    from repro.apps.simulation.checkpoint import OverheadBudgetPolicy
    from repro.apps.simulation.run import CheckpointedRun, RunConfig

    config = RunConfig(timesteps=steps, grid_n=16)
    report = CheckpointedRun(config, OverheadBudgetPolicy(budget), seed=seed).execute()
    assert report.compute_seconds == pytest.approx(
        sum(s.compute_seconds for s in report.steps)
    )
    assert report.io_seconds == pytest.approx(sum(s.io_seconds for s in report.steps))
    assert report.checkpoints_written == sum(s.wrote_checkpoint for s in report.steps)
    assert 0 <= report.overhead_fraction < 1
    assert report.checkpoint_timesteps == sorted(report.checkpoint_timesteps)


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_gauge_profile_dict_roundtrip(data):
    """Property: as_dict -> from_dict is the identity for any profile."""
    from repro.gauges.levels import TIER_TYPES, Gauge
    from repro.gauges.model import GaugeProfile

    kwargs = {}
    for gauge in Gauge:
        tier = data.draw(st.sampled_from(list(TIER_TYPES[gauge])))
        kwargs[GaugeProfile._FIELD_BY_GAUGE[gauge]] = tier
    profile = GaugeProfile(**kwargs)
    assert GaugeProfile.from_dict(profile.as_dict()) == profile


@settings(deadline=None, max_examples=40)
@given(
    who=st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12
    ),
    count=st.integers(1, 500),
)
def test_generated_file_staleness_property(who, count):
    """Property: freshly generated files are never stale; generating from a
    different model always marks them stale."""
    from repro.skel.generator import Generator, TemplateLibrary, is_stale
    from repro.skel.model import ModelField, ModelSchema, SkelModel

    lib = TemplateLibrary()
    lib.add("t", "out.sh", "run ${who} x${count}\n")
    schema = ModelSchema("m", (ModelField("who"), ModelField("count", "int")))
    model = SkelModel(schema, {"who": who, "count": count})
    generated = Generator(lib).generate(model)[0]
    assert not is_stale(generated.content, model)
    changed = model.updated(count=count + 1)
    assert is_stale(generated.content, changed)


@settings(deadline=None, max_examples=30)
@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=15, unique=True),
    duration=st.floats(1.0, 100.0),
)
def test_manifest_to_execution_name_stability(values, duration):
    """Property: task names survive the manifest round trip and the
    executor, so status recording by name is always safe."""
    from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
    from repro.cheetah.manifest import manifest_from_json, manifest_to_json
    from repro.savanna import PilotExecutor, tasks_from_manifest

    camp = Campaign("names", app=AppSpec("a"))
    camp.sweep_group("g", nodes=2, walltime=10_000.0).add(
        Sweep([SweepParameter("v", values)])
    )
    manifest = manifest_from_json(manifest_to_json(camp.to_manifest()))
    tasks = tasks_from_manifest(manifest, lambda p: duration)
    result = PilotExecutor(make_cluster(nodes=2)).run(
        tasks, nodes=2, walltime=10_000.0
    )
    assert {t.name for t in result.tasks} == {r.run_id for r in manifest.runs}
    assert result.all_done
