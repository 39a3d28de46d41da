"""A drawn campaign's durable record agrees with itself.

Each campaign from :func:`_campaigns.campaigns` is driven through
``execute_campaign`` into a fresh end point on ``pilot`` and
``static-sets`` (and, for a few draws, ``local-threads``), and then:

- (a) ``status.json``, the journal overlay and, where one exists, the
  store agree run by run, and name every run of the manifest;
- (b) the DONE set is the union of the groups' ``completed``;
- (c) a second drive with ``resume=True`` starts no run, and its
  ``group.resumed`` instants skip as many runs as are DONE;
- (d) a campaign the lint gate refuses writes nothing to its end point.

Whether the gate refuses is decided from the per-``RunSpec`` rule
bodies of ``_manifest_oracle``, so the drive's gate is held to them too.
"""

from __future__ import annotations

import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _campaigns import campaigns
from _manifest_oracle import oracle_refuses
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.lint.engine import CampaignLintError
from repro.observability import BEGIN, GROUP_RESUMED, TASK
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.savanna import execute_campaign

SPEC = ClusterSpec(nodes=4, queue_sigma=0.0, queue_median_wait=10.0, node_mttf=None, fs_load=None)


def duration(parameters) -> float:
    return 1.0 + zlib.crc32(repr(parameters).encode()) % 7


def app(parameters):
    return len(repr(parameters))


def drive(manifest, backend: str, root: Path, resume: bool):
    """One drive; returns its results and every event it published."""
    events = []
    if backend == "local-threads":
        from repro.savanna.realexec import wall_clock_bus

        bus = wall_clock_bus("record")
        bus.subscribe(events.append)
        results = execute_campaign(
            manifest, backend=backend, directory=str(root), resume=resume,
            app_fn=app, max_workers=2, bus=bus,
        )
        return results, events
    cluster = SimulatedCluster(SPEC, seed=11)
    cluster.bus.subscribe(events.append)
    results = execute_campaign(
        manifest, duration, cluster, backend=backend, directory=str(root), resume=resume,
    )
    return results, events


def completed_ids(result) -> set:
    return {getattr(t, "name", None) or t.run_id for t in result.completed}


def check_record(manifest, backend: str, root: Path) -> None:
    refused = oracle_refuses(manifest, SPEC)
    if refused:
        with pytest.raises(CampaignLintError):
            drive(manifest, backend, root, resume=True)
        assert list(root.iterdir()) == []  # (d)
        return
    results, _ = drive(manifest, backend, root, resume=True)
    directory = CampaignDirectory.open(root / manifest.campaign)
    status = directory.read_status()
    overlay = CampaignCheckpoint(directory).effective_status()
    ids = {run.run_id for run in manifest.runs}
    assert set(status) == ids  # (a)
    assert overlay == status
    if directory.store_path().exists():
        with directory.open_store() as store:
            assert store.statuses(manifest.campaign) == {r: s.value for r, s in status.items()}
    done = {run_id for run_id, s in status.items() if s is RunStatus.DONE}
    assert done == set().union(*(completed_ids(r) for r in results.values()))  # (b)
    assert done == ids  # generous walltimes, no faults: every run finishes

    again, events = drive(manifest, backend, root, resume=True)
    assert not any(e.name == TASK and e.phase == BEGIN for e in events)  # (c)
    skipped = sum(e.fields["skipped"] for e in events if e.name == GROUP_RESUMED)
    assert skipped == len(done)
    assert all(not r.completed for r in again.values())
    assert CampaignCheckpoint(directory).effective_status() == status


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(camp=campaigns(), threads=st.integers(0, 4))
def test_drawn_campaign_record_agrees_with_itself(camp, threads):
    manifest = camp.to_manifest()
    backends = ["pilot", "static-sets"] + (["local-threads"] if threads == 0 else [])
    for backend in backends:
        with tempfile.TemporaryDirectory() as tmp:
            check_record(manifest, backend, Path(tmp))
