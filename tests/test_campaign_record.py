"""A drawn campaign's durable record agrees with itself.

Each campaign from :func:`_campaigns.campaigns` is driven through
``execute_campaign`` into a fresh end point on ``pilot`` and
``static-sets`` (and, for a few draws, ``local-threads``) under a drawn
:class:`_campaigns.DrivePlan`: faults on the simulated cluster, a retry
policy, one to three allocations, and group walltimes that may cut an
allocation short.  Then:

- (a) ``status.json``, the journal overlay and, where one exists, the
  store agree run by run, and name every run of the manifest;
- (b) the DONE set is the union of the groups' ``completed``; without
  faults or cutting walltimes it is every run;
- (c) a second drive with ``resume=True`` is handed exactly the runs the
  record does not hold DONE, starts only those (all of them unless a
  walltime cuts), and its ``group.resumed`` instants skip as many runs
  as are DONE;
- (d) a campaign the lint gate refuses writes nothing to its end point;
- (e) with ``report=True``, each group's report counts as many attempts
  as the journal received attempt ends for its runs;
- (f) a ``pilot`` drive ends with the same statuses as the same drive on
  the oracle engine (``_oracle.event_engine``).

Whether the gate refuses is decided from the per-``RunSpec`` rule
bodies of ``_manifest_oracle``, so the drive's gate is held to them too.
"""

from __future__ import annotations

import tempfile
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _campaigns import campaigns, drive_plans
from _manifest_oracle import lint_manifest
from _oracle import event_engine
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.lint.engine import CampaignLintError
from repro.observability import BEGIN, GROUP_RESUMED, TASK
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.savanna import execute_campaign

SPEC = ClusterSpec(nodes=4, queue_sigma=0.0, queue_median_wait=10.0, node_mttf=None, fs_load=None)

#: Group walltimes: short enough to cut runs of 1-7 s, or generous.
WALLTIMES = st.sampled_from([6.0, 1.0e6, 15.0, 1.0e6])


def duration(parameters) -> float:
    return 1.0 + zlib.crc32(repr(parameters).encode()) % 7


def app(parameters):
    return len(repr(parameters))


def drive(manifest, backend: str, plan, root: Path, resume: bool, report: bool = False):
    """One drive; returns its results, every event it published and the
    journal each compaction folded, in order."""
    events, journals = [], []
    compact = CampaignCheckpoint.compact

    def read_then_compact(self):
        journals.append(self.journal_entries())
        compact(self)

    kwargs = dict(
        directory=str(root), resume=resume, report=report, retry_policy=plan.retry_policy
    )
    with mock.patch.object(CampaignCheckpoint, "compact", read_then_compact):
        if backend == "local-threads":
            from repro.savanna.realexec import wall_clock_bus

            bus = wall_clock_bus("record")
            bus.subscribe(events.append)
            results = execute_campaign(
                manifest, backend=backend, app_fn=app, max_workers=2, bus=bus, **kwargs
            )
        else:
            cluster = SimulatedCluster(SPEC, seed=11, faults=plan.injector())
            cluster.bus.subscribe(events.append)
            results = execute_campaign(
                manifest, duration, cluster, backend=backend,
                max_allocations=plan.max_allocations, **kwargs,
            )
    return results, events, journals


def completed_ids(result) -> set:
    return {getattr(t, "name", None) or t.run_id for t in result.completed}


def handed_ids(result) -> set:
    """The runs a group's executor was handed."""
    tasks = getattr(result, "tasks", None)
    return {t.name for t in tasks} if tasks is not None else set(result.results)


def started_ids(events) -> set:
    return {e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN}


def agreed_record(manifest, directory) -> dict:
    """(a): the record's statuses, once its three views agree."""
    status = directory.read_status()
    assert set(status) == {run.run_id for run in manifest.runs}
    assert CampaignCheckpoint(directory).effective_status() == status
    if directory.store_path().exists():
        with directory.open_store() as store:
            assert store.statuses(manifest.campaign) == {r: s.value for r, s in status.items()}
    return status


def check_record(manifest, backend: str, plan, root: Path, report: bool) -> None:
    if lint_manifest(manifest, SPEC, retry_policy=plan.retry_policy).errors:
        with pytest.raises(CampaignLintError):
            drive(manifest, backend, plan, root / "end", resume=True)
        assert not (root / "end").exists() or list((root / "end").iterdir()) == []  # (d)
        return
    results, _, journals = drive(manifest, backend, plan, root / "end", resume=True, report=report)
    directory = CampaignDirectory.open(root / "end" / manifest.campaign)
    status = agreed_record(manifest, directory)
    ids = {run.run_id for run in manifest.runs}
    done = {run_id for run_id, s in status.items() if s is RunStatus.DONE}
    assert done == set().union(*(completed_ids(r) for r in results.values()))  # (b)
    simulated = backend != "local-threads"
    cuts = simulated and any(g["walltime"] < 1.0e6 for g in manifest.groups)
    if not (cuts or (simulated and plan.fault_specs)):
        assert done == ids

    if report:  # (e)
        group_of = {run.run_id: run.group for run in manifest.runs}
        ends = Counter(
            group_of[e["run"]] for journal in journals for e in journal if e["status"] != "running"
        )
        reports = {r["group"]: r["counts"]["attempts"] for r in directory.read_report()}
        assert reports == {g: n for g, n in ends.items() if n}

    if backend == "pilot":  # (f)
        with event_engine():
            drive(manifest, backend, plan, root / "oracle", resume=True)
        oracle = CampaignDirectory.open(root / "oracle" / manifest.campaign)
        assert oracle.read_status() == status

    again, events, _ = drive(manifest, backend, plan, root / "end", resume=True)
    for result in again.values():  # (c)
        assert handed_ids(result) <= ids - done
    assert set().union(*map(handed_ids, again.values())) == ids - done
    started = started_ids(events)
    assert started <= ids - done
    if not cuts:
        assert started == ids - done
    skipped = sum(e.fields["skipped"] for e in events if e.name == GROUP_RESUMED)
    assert skipped == len(done)
    after = agreed_record(manifest, directory)
    assert done <= {run_id for run_id, s in after.items() if s is RunStatus.DONE}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    camp=campaigns(walltimes=WALLTIMES),
    plan=drive_plans(),
    threads=st.integers(0, 4),
    report=st.sampled_from([True, False]),
)
def test_drawn_campaign_record_agrees_with_itself(camp, plan, threads, report):
    manifest = camp.to_manifest()
    backends = ["pilot", "static-sets"] + (["local-threads"] if threads == 0 else [])
    for backend in backends:
        with tempfile.TemporaryDirectory() as tmp:
            check_record(manifest, backend, plan, Path(tmp), report)
