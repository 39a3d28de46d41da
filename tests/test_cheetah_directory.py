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

    def test_batch_update_takes_a_status_or_its_value(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.update_status({"g/run-0000": "done", "g/run-0001": RunStatus.FAILED})
        assert cd.read_status()["g/run-0000"] is RunStatus.DONE
        assert cd.read_status()["g/run-0001"] is RunStatus.FAILED
        before = cd._status_path().read_bytes()
        with pytest.raises(ValueError, match="'finished' is not a valid RunStatus"):
            cd.update_status({"g/run-0002": "finished"})
        assert cd._status_path().read_bytes() == before

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


def square(params):
    return params["x"] ** 2


def json_form(reports):
    """Reports as ``dataclasses.asdict`` makes them, through JSON."""
    from dataclasses import asdict

    return json.loads(json.dumps([asdict(r) for r in reports]))


class TestReportSerialization:
    """``write_report`` reads a report's fields in place; what lands in
    ``report.json`` and the store is still the ``asdict`` form."""

    def capture_reports(self, monkeypatch):
        captured = []
        write_report = CampaignDirectory.write_report

        def capturing(directory, reports):
            captured.extend(reports)
            return write_report(directory, reports)

        monkeypatch.setattr(CampaignDirectory, "write_report", capturing)
        return captured

    def assert_stored_as_asdict(self, directory, reports):
        assert reports and not isinstance(reports[0], dict)
        on_disk = json.loads((directory.root / ".cheetah" / "report.json").read_text())
        assert on_disk["reports"] == json_form(reports)
        with directory.open_store() as store:
            assert store.reports(directory.manifest.campaign) == json_form(reports)

    def test_simulated_report(self, tmp_path, monkeypatch):
        from conftest import make_cluster
        from repro.savanna import execute_manifest

        captured = self.capture_reports(monkeypatch)
        directory = CampaignDirectory(tmp_path, make_manifest(6))
        directory.create()
        directory.open_store().close()  # so the report is mirrored too
        execute_manifest(
            directory.manifest, lambda p: 20.0 + p["x"], make_cluster(nodes=2),
            directory=directory, max_allocations=2, report=True,
        )
        self.assert_stored_as_asdict(directory, captured)

    def test_real_report(self, tmp_path, monkeypatch):
        from repro.savanna import execute_manifest

        captured = self.capture_reports(monkeypatch)
        directory = CampaignDirectory(tmp_path, make_manifest(6))
        directory.create()
        execute_manifest(
            directory.manifest, backend="local-threads", app_fn=square,
            directory=directory, report=True,
        )
        self.assert_stored_as_asdict(directory, captured)


def respell_as_older_versions(directory):
    """Rewrite the end point's records as older versions spelled them:
    ``indent=2`` with sorted keys, and ``indent=1`` for the report."""
    meta = directory.root / ".cheetah"
    for name in ("manifest.json", "status.json"):
        doc = json.loads((meta / name).read_text())
        (meta / name).write_text(json.dumps(doc, indent=2, sort_keys=True))
    doc = json.loads((meta / "report.json").read_text())
    (meta / "report.json").write_text(json.dumps(doc, indent=1) + "\n")


class TestOlderIndentedEndPoint:
    """End points written indented by older versions still open,
    re-create, resume and merge reports."""

    def drive(self, directory, max_allocations, events=None):
        from conftest import make_cluster
        from repro.savanna import execute_manifest

        cluster = make_cluster(nodes=2)
        if events is not None:
            cluster.bus.subscribe(events.append)
        return execute_manifest(
            directory.manifest, lambda p: 50.0, cluster, directory=directory,
            max_allocations=max_allocations, report=True,
        )

    def test_create_resume_and_report_merge(self, tmp_path):
        from repro.observability import BEGIN, TASK
        from repro.resilience.checkpoint import CampaignCheckpoint

        manifest = make_manifest(8)
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        self.drive(directory, max_allocations=1)  # 2 of the 8 runs fit
        pending = CampaignCheckpoint(directory).pending()
        assert len(pending) == 6
        (first_report,) = directory.read_report()
        respell_as_older_versions(directory)
        meta = directory.root / ".cheetah"
        assert (meta / "manifest.json").read_text().startswith('{\n  "app"')

        with pytest.raises(RuntimeError, match="different manifest"):
            CampaignDirectory(tmp_path, make_manifest(9)).create()
        CampaignDirectory(tmp_path, manifest).create()
        assert "\n" not in (meta / "manifest.json").read_text()  # rewritten compact
        assert CampaignCheckpoint(directory).pending() == pending
        with pytest.raises(RuntimeError, match="different manifest"):
            CampaignDirectory(tmp_path, make_manifest(9)).create()

        other = dict(first_report, group="other")
        respell_as_older_versions(directory)
        directory.write_report([other])
        assert directory.read_report() == [first_report, other]

        events = []
        result = self.drive(directory, max_allocations=4, events=events)
        started = {e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN}
        assert started == pending
        assert result.all_done
        reports = directory.read_report()
        assert [r["group"] for r in reports] == ["other", "g"]
        assert reports[1]["counts"]["resumed_skipped"] == 2

    def test_store_loads_an_indented_manifest_row(self, tmp_path):
        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        with directory.open_store() as store:
            (text,) = store._conn.execute("SELECT manifest_json FROM campaigns").fetchone()
            assert "\n" not in text
            indented = json.dumps(json.loads(text), indent=2, sort_keys=True)
            store._conn.execute("UPDATE campaigns SET manifest_json = ?", (indented,))
            store._conn.commit()
        with directory.open_store() as store:
            assert store.manifest(manifest.campaign) == manifest
