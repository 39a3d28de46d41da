"""Tests for the campaign directory schema."""

import json

import pytest

from repro._util import dumps_tagged, loads_tagged
from repro.cheetah.campaign import AppSpec, Campaign, Sweep
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cheetah.parameters import SweepParameter
from repro.store import export_directory


def make_manifest(n=4):
    camp = Campaign("study", app=AppSpec("app"))
    sg = camp.sweep_group("g", nodes=2, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


class TestCreation:
    def test_layout(self, tmp_path):
        """The §IV layout is the export's: create() writes the metadata,
        ``python -m repro.store export`` the per-run directories."""
        man = make_manifest()
        root = CampaignDirectory(tmp_path, man).create()
        assert (root / ".cheetah" / "manifest.json").exists()
        assert (root / ".cheetah" / "status.json").exists()
        export_directory(None, root)
        assert (root / "g" / "run-0000" / "params.json").exists()

    def test_params_json_content(self, tmp_path):
        man = make_manifest()
        cd = CampaignDirectory(tmp_path, man)
        cd.create()
        export_directory(None, cd.root)
        params = json.loads((cd.run_dir("g/run-0002") / "params.json").read_text())
        assert params == {"x": 2}
        for run in man.runs:
            text = (cd.run_dir(run.run_id) / "params.json").read_text()
            assert text == dumps_tagged(run.parameters, indent=2, sort_keys=True)
            assert loads_tagged(text) == run.parameters

    def test_fresh_end_point_holds_only_metadata(self, tmp_path):
        root = CampaignDirectory(tmp_path, make_manifest()).create()
        assert [p.name for p in root.iterdir()] == [".cheetah"]

    def test_write_run_result_creates_the_run_directory(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        assert not cd.run_dir("g/run-0001").exists()
        path = cd.write_run_result("g/run-0001", {"status": "done", "value": 3})
        assert path == cd.run_dir("g/run-0001") / "result.json"
        assert cd.read_run_result("g/run-0001") == {"status": "done", "value": 3}
        assert not cd.run_dir("g/run-0000").exists()

    def test_idempotent_create(self, tmp_path):
        man = make_manifest()
        cd = CampaignDirectory(tmp_path, man)
        cd.create()
        cd.set_status("g/run-0000", RunStatus.DONE)
        cd.create()  # re-create must not reset status
        assert cd.read_status()["g/run-0000"] is RunStatus.DONE

    def test_conflicting_manifest_rejected(self, tmp_path):
        CampaignDirectory(tmp_path, make_manifest(3)).create()
        with pytest.raises(RuntimeError, match="different manifest"):
            CampaignDirectory(tmp_path, make_manifest(5)).create()

    def test_open_existing(self, tmp_path):
        man = make_manifest()
        CampaignDirectory(tmp_path, man).create()
        cd = CampaignDirectory.open(tmp_path / "study")
        assert cd.manifest == man


class TestStatus:
    def test_all_pending_initially(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        assert cd.summary() == {"pending": 4, "running": 0, "done": 0, "failed": 0}

    def test_set_and_read(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.set_status("g/run-0001", RunStatus.RUNNING)
        assert cd.read_status()["g/run-0001"] is RunStatus.RUNNING

    def test_batch_update(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.update_status({"g/run-0000": RunStatus.DONE, "g/run-0001": RunStatus.FAILED})
        assert cd.summary()["done"] == 1
        assert cd.summary()["failed"] == 1

    def test_unknown_run_rejected(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        with pytest.raises(KeyError):
            cd.set_status("ghost", RunStatus.DONE)

    def test_pending_runs_for_resubmission(self, tmp_path):
        """FAILED counts as pending: resubmission retries failures (§V-D)."""
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.update_status({"g/run-0000": RunStatus.DONE, "g/run-0001": RunStatus.FAILED})
        pending = cd.pending_runs()
        ids = [r.run_id for r in pending]
        assert "g/run-0000" not in ids
        assert "g/run-0001" in ids
        assert len(pending) == 3

    def test_pending_runs_group_filter(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        assert len(cd.pending_runs(group="g")) == 4
        assert cd.pending_runs(group="other") == ()

    def test_queries_read_the_journal_like_resume(self, tmp_path):
        """A drive killed before compaction: the status queries agree
        with resume; ``read_status`` stays the compacted record."""
        from repro.resilience.checkpoint import CampaignCheckpoint

        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        checkpoint = CampaignCheckpoint(cd)
        checkpoint.record("g/run-0000", RunStatus.RUNNING)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)
        assert {r.run_id for r in cd.pending_runs()} == checkpoint.pending()
        assert len(cd.pending_runs()) == 3
        assert cd.summary() == {"pending": 2, "running": 1, "done": 1, "failed": 0}
        assert [r.run_id for r in cd.runs_where(status=RunStatus.DONE)] == ["g/run-0000"]
        assert cd.read_status()["g/run-0000"] is RunStatus.PENDING
