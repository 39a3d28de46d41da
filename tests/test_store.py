"""Tests for repro.store: store targets, ingestion, catalog, migration, CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cheetah import AppSpec, Campaign, Objective, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.store import (
    CampaignStore,
    StoreError,
    export_directory,
    ingest_directory,
    metrics_from_value,
)

from conftest import make_cluster


def make_manifest(n=4, campaign="store-test"):
    camp = Campaign(campaign, app=AppSpec("app"), objective="minimize loss")
    sg = camp.sweep_group("g", nodes=1, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", range(n)), SweepParameter("mode", ["a", "b"])]))
    return camp.to_manifest()


def fill(store, manifest, loss=lambda i: float(i % 5) + 0.5):
    store.ensure_campaign(manifest)
    for i, run in enumerate(manifest.runs):
        store.add_result(
            manifest.campaign,
            run.run_id,
            value={"loss": loss(i), "cost": float(len(manifest.runs) - i)},
            elapsed=0.01 * i,
            attempts=1,
            seed=i,
        )
    store.set_statuses(
        manifest.campaign, {r.run_id: RunStatus.DONE for r in manifest.runs}
    )
    return store


class TestEngineRegistry:
    """The store opens a sqlite path or ``":memory:"``; URLs are refused."""

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="not URLs"):
            CampaignStore("voldb://nope")

    def test_path_opens_tuned_sqlite(self, tmp_path):
        import threading

        with CampaignStore(tmp_path / "nested" / "c.sqlite") as store:
            pragma = lambda name: store._conn.execute(f"PRAGMA {name}").fetchone()[0]
            assert pragma("journal_mode") == "wal"
            assert pragma("synchronous") == 1  # NORMAL
            assert pragma("foreign_keys") == 1
            # check_same_thread is off: another thread may use the store.
            seen = []
            worker = threading.Thread(target=lambda: seen.append(store.campaigns()))
            worker.start()
            worker.join()
            assert seen == [store.campaigns()]


class TestIngestion:
    def test_ensure_campaign_is_idempotent(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            cid1 = store.ensure_campaign(manifest)
            cid2 = store.ensure_campaign(manifest)
            assert cid1 == cid2
            assert store.run_count(manifest.campaign) == len(manifest.runs)

    def test_manifest_round_trips(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            assert store.manifest(manifest.campaign) == manifest

    def test_write_behind_buffer_flushes_in_chunks(self):
        manifest = make_manifest(n=8)
        with CampaignStore(":memory:", chunk_size=3) as store:
            store.ensure_campaign(manifest)
            for i, run in enumerate(manifest.runs[:2]):
                store.add_result(manifest.campaign, run.run_id, value={"loss": float(i)})
            # below chunk_size: still buffered
            assert len(store._buffer) == 2
            store.add_result(
                manifest.campaign, manifest.runs[2].run_id, value={"loss": 9.0}
            )
            # hit chunk_size: flushed
            assert len(store._buffer) == 0

    def test_queries_flush_first(self):
        manifest = make_manifest()
        with CampaignStore(":memory:", chunk_size=500) as store:
            store.ensure_campaign(manifest)
            run = manifest.runs[0]
            store.add_result(manifest.campaign, run.run_id, value={"loss": 1.0})
            payload = store.read_run_result(manifest.campaign, run.run_id)
            assert payload["value"] == {"loss": 1.0}

    def test_unknown_campaign_raises(self):
        with CampaignStore(":memory:") as store:
            with pytest.raises(StoreError, match="not in the store"):
                store.add_result("ghost", "g/run-0000", value=1)

    def test_statuses_and_summary(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            assert set(store.statuses(manifest.campaign).values()) == {"pending"}
            store.set_statuses(
                manifest.campaign, {manifest.runs[0].run_id: RunStatus.DONE}
            )
            summary = store.summary(manifest.campaign)
            assert summary["done"] == 1
            assert summary["pending"] == len(manifest.runs) - 1

    def test_read_run_result_none_until_executed(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            assert store.read_run_result(manifest.campaign, manifest.runs[0].run_id) is None

    def test_catalog_scope_is_done_and_executed_runs(self):
        """``record`` answers only for runs that are done *and* executed:
        a pending run, and one marked done with no outcome, are unknown."""
        manifest = make_manifest()
        executed, pending, unexecuted = (r.run_id for r in manifest.runs[:3])
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            store.add_result(manifest.campaign, executed, value={"loss": 1.0})
            store.set_statuses(manifest.campaign, {unexecuted: RunStatus.DONE})
            catalog = store.catalog(manifest.campaign)
            record = catalog.record(executed)
            assert (record.run_id, record.metrics) == (executed, {"loss": 1.0})
            assert record.parameters == dict(manifest.runs[0].parameters)
            for run_id in (pending, unexecuted):
                with pytest.raises(KeyError, match="unknown run_id"):
                    catalog.record(run_id)
            assert [r.run_id for r in catalog.records()] == [executed]

    def test_record_run_results_skips_interrupted(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            store.record_run_results(
                manifest.campaign,
                {
                    manifest.runs[0].run_id: {
                        "run_id": manifest.runs[0].run_id,
                        "status": "done", "value": {"loss": 1.0}, "error": None,
                        "traceback": None, "elapsed": 0.1, "attempts": 1, "seed": 7,
                    },
                    manifest.runs[1].run_id: {
                        "run_id": manifest.runs[1].run_id,
                        "status": "interrupted", "value": None, "error": None,
                        "traceback": None, "elapsed": 0.0, "attempts": 1, "seed": 8,
                    },
                },
            )
            assert store.read_run_result(manifest.campaign, manifest.runs[0].run_id)
            assert store.read_run_result(manifest.campaign, manifest.runs[1].run_id) is None

    def test_run_result_dataclass_and_dict_store_identical_rows(self):
        from dataclasses import asdict, dataclass

        from repro.savanna.realexec import LocalRunResult

        @dataclass
        class Point:
            loss: float
            cost: float

        manifest = make_manifest()
        outcomes = {
            run.run_id: LocalRunResult(
                run_id=run.run_id, status=status, value=value, error=error,
                elapsed=0.25, traceback=error and "Traceback ...", attempts=2, seed=i,
            )
            for i, (run, status, value, error) in enumerate(
                zip(
                    manifest.runs,
                    ("done", "failed", "interrupted", "done", "done", "done"),
                    (
                        {"loss": 1.5, "tags": {1, 2}}, None, None, [1, 2.5],
                        # an app that returns dataclasses: stored as asdict stores them
                        Point(1.5, 2.0), [Point(0.5, 1.0), {"p": Point(3.0, 4.0)}],
                    ),
                    (None, "ValueError: boom", None, None, None, None),
                )
            )
        }
        rows = []
        for form in (outcomes, {rid: asdict(r) for rid, r in outcomes.items()}):
            with CampaignStore(":memory:") as store:
                store.ensure_campaign(manifest)
                store.record_run_results(manifest.campaign, form)
                rows.append(
                    store.query(
                        "SELECT r.run_id, r.status, r.value_json, r.error, r.traceback,"
                        " r.elapsed, r.attempts, r.seed, m.name, m.value FROM runs r"
                        " LEFT JOIN metrics m ON m.run_key = r.id ORDER BY r.run_id, m.name"
                    )
                )
                listed = store.read_run_result(manifest.campaign, manifest.runs[5].run_id)
        assert rows[0] == rows[1]
        runs = {row[0]: row for row in rows[0]}
        assert [runs[run.run_id][1] for run in manifest.runs[:4]] == [
            "done", "failed", "pending", "done"
        ]
        assert [row[8:] for row in rows[0] if row[0] == manifest.runs[4].run_id] == [
            ("cost", 2.0), ("loss", 1.5)
        ]
        assert listed["value"] == [{"loss": 0.5, "cost": 1.0}, {"p": {"loss": 3.0, "cost": 4.0}}]

    def test_reports_round_trip(self):
        manifest = make_manifest()
        with CampaignStore(":memory:") as store:
            store.ensure_campaign(manifest)
            store.record_reports(
                manifest.campaign,
                [{"campaign": manifest.campaign, "group": "g", "makespan": 12.5}],
            )
            [report] = store.reports(manifest.campaign)
            assert report["makespan"] == 12.5

    def test_metrics_from_value_filters_non_numeric(self):
        metrics = metrics_from_value(
            {"loss": 1.5, "label": "x", "converged": True, "steps": 10}
        )
        assert metrics == {"loss": 1.5, "steps": 10.0}
        assert metrics_from_value(3.0) == {}


class TestPersistence:
    def test_store_survives_reopen(self, tmp_path):
        manifest = make_manifest()
        db = tmp_path / "store.sqlite"
        with CampaignStore(db) as store:
            fill(store, manifest)
        with CampaignStore(db) as store:
            assert store.campaigns() == [manifest.campaign]
            assert store.summary(manifest.campaign)["done"] == len(manifest.runs)
            obj = Objective("o", metric="loss")
            assert store.catalog(manifest.campaign).best(obj).run_id == "g/run-0000"


class TestMigration:
    def make_directory(self, tmp_path, manifest):
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        directory.update_status({r.run_id: RunStatus.DONE for r in manifest.runs})
        for i, run in enumerate(manifest.runs):
            directory.write_run_result(
                run.run_id,
                {
                    "run_id": run.run_id, "status": "done",
                    "value": {"loss": float(i % 5) + 0.5,
                              "cost": float(len(manifest.runs) - i)},
                    "error": None, "traceback": None,
                    "elapsed": 0.01 * i, "attempts": 1, "seed": i,
                },
            )
        return directory

    def test_round_trip_identical_catalog_answers(self, tmp_path):
        manifest = make_manifest(n=6)
        directory = self.make_directory(tmp_path, manifest)
        # the file-based in-memory catalog (the pre-store answer)
        from repro.cheetah.catalog import CampaignCatalog

        mem = CampaignCatalog(manifest.campaign)
        for run in manifest.runs:
            payload = directory.read_run_result(run.run_id)
            mem.add(run.run_id, dict(run.parameters),
                    metrics_from_value(payload["value"]))

        with CampaignStore(":memory:") as store:
            summary = ingest_directory(store, directory.root)
            assert summary["results"] == len(manifest.runs)
            cat = store.catalog(manifest.campaign)
            obj = Objective("o", metric="loss")
            cost = Objective("c", metric="cost")
            assert cat.best(obj).run_id == mem.best(obj).run_id
            assert [r.run_id for r in cat.rank(obj)] == [
                r.run_id for r in mem.rank(obj)
            ]
            assert sorted(r.run_id for r in cat.pareto_front([obj, cost])) == sorted(
                r.run_id for r in mem.pareto_front([obj, cost])
            )

    def test_export_materializes_result_files(self, tmp_path):
        manifest = make_manifest()
        directory = self.make_directory(tmp_path, manifest)
        with CampaignStore(":memory:") as store:
            ingest_directory(store, directory.root)
            # wipe the files, re-export from the store
            for run in manifest.runs:
                (directory.run_dir(run.run_id) / "result.json").unlink()
            written = export_directory(store, directory.root)
        assert written == len(manifest.runs)
        payload = directory.read_run_result(manifest.runs[0].run_id)
        assert payload["status"] == "done"

    def test_migration_respects_checkpoint_journal(self, tmp_path):
        """Statuses come from the journal overlay — what resume trusts."""
        from repro.resilience import CampaignCheckpoint

        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        checkpoint = CampaignCheckpoint(directory)
        rid = manifest.runs[0].run_id
        checkpoint.record(rid, RunStatus.RUNNING, time=1.0)
        checkpoint.record(rid, RunStatus.DONE, time=2.0)
        with CampaignStore(":memory:") as store:
            ingest_directory(store, directory.root)
            assert store.statuses(manifest.campaign)[rid] == "done"


class TestDirectoryStoreIntegration:
    def test_record_results_store_only_by_default(self, tmp_path):
        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        rid = manifest.runs[0].run_id
        directory.record_results(
            {rid: {"run_id": rid, "status": "done", "value": {"loss": 2.0},
                   "error": None, "traceback": None, "elapsed": 0.1,
                   "attempts": 1, "seed": 3}}
        )
        assert directory.store_path().exists()
        assert not (directory.run_dir(rid) / "result.json").exists()
        # one read API either way
        assert directory.read_run_result(rid)["value"] == {"loss": 2.0}

    def test_status_updates_mirror_into_store(self, tmp_path):
        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        with directory.open_store() as store:  # materialize the store
            assert store.run_count(manifest.campaign) == len(manifest.runs)
        rid = manifest.runs[0].run_id
        directory.set_status(rid, RunStatus.RUNNING)
        with directory.open_store() as store:
            assert store.statuses(manifest.campaign)[rid] == "running"

    def test_the_store_keeps_the_last_status_write(self, tmp_path, monkeypatch):
        # This thread sets a run DONE, and its mirror into the store is
        # held until another thread's update of the same run to FAILED
        # returns, or for a second while that update waits on the status
        # lock.  The store must end with what status.json holds.
        import threading

        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        with directory.open_store():  # materialize the store
            pass
        rid = manifest.runs[0].run_id
        returned = threading.Event()

        def fail_the_run():
            directory.update_status({rid: RunStatus.FAILED})
            returned.set()

        other = threading.Thread(target=fail_the_run)
        set_statuses = CampaignStore.set_statuses

        def held(store, campaign, updates):
            if threading.current_thread() is not other and not other.is_alive():
                other.start()
                returned.wait(timeout=1.0)
            return set_statuses(store, campaign, updates)

        monkeypatch.setattr(CampaignStore, "set_statuses", held)
        directory.update_status({rid: RunStatus.DONE})
        other.join(timeout=30.0)
        assert returned.is_set()
        status = directory.read_status()
        assert status[rid] is RunStatus.FAILED
        with directory.open_store() as store:
            assert store.statuses(manifest.campaign) == {r: s.value for r, s in status.items()}


class TestDriveIntegration:
    def test_real_drive_records_into_store(self, tmp_path):
        from repro.savanna import execute_manifest

        manifest = make_manifest()
        result = execute_manifest(
            manifest,
            backend="local-threads",
            directory=tmp_path,
            app_fn=_loss_app,
            max_workers=2,
        )
        assert len(result.completed) == len(manifest.runs)
        directory = CampaignDirectory.open(tmp_path / manifest.campaign)
        assert directory.store_path().exists()
        # store-only by default: no per-run JSON files
        rid = manifest.runs[0].run_id
        assert not (directory.run_dir(rid) / "result.json").exists()
        payload = directory.read_run_result(rid)
        assert payload["status"] == "done"
        with directory.open_store() as store:
            assert store.summary(manifest.campaign)["done"] == len(manifest.runs)
            obj = Objective("o", metric="loss")
            assert store.catalog(manifest.campaign).best(obj) is not None

    def test_a_re_drive_is_read_from_the_store_not_a_stale_export(self, tmp_path):
        # result.json is an export of the store; a later drive writes only
        # the store, so the store answers once the directory has one.
        from repro.savanna import execute_manifest

        manifest = make_manifest(n=2)
        drive = dict(backend="local-threads", directory=tmp_path, max_workers=1)
        execute_manifest(manifest, app_fn=_first_answer, **drive)
        directory = CampaignDirectory.open(tmp_path / manifest.campaign)
        with directory.open_store() as store:
            assert export_directory(store, directory.root) == len(manifest.runs)
        execute_manifest(manifest, app_fn=_second_answer, resume=False, **drive)
        rid = manifest.runs[0].run_id
        exported = json.loads((directory.run_dir(rid) / "result.json").read_text())
        assert exported["value"] == {"v": 1}
        assert directory.read_run_result(rid)["value"] == {"v": 2}

    def test_store_created_late_agrees_with_status_json(self, tmp_path):
        # A simulated drive leaves 4 of 8 runs DONE and no store; the
        # real drive that finishes the campaign then creates the store.
        from repro.savanna import execute_manifest

        camp = Campaign("late-store", app=AppSpec("app"))
        camp.sweep_group("g", nodes=2, walltime=120.0).add(
            Sweep([SweepParameter("x", range(8))])
        )
        manifest = camp.to_manifest()
        execute_manifest(
            manifest, lambda p: 50.0, make_cluster(nodes=2),
            directory=tmp_path, max_allocations=1,
        )
        directory = CampaignDirectory.open(tmp_path / manifest.campaign)
        assert directory.summary()["done"] == 4
        assert not directory.store_path().exists()
        execute_manifest(
            manifest, backend="local-threads", directory=tmp_path,
            app_fn=_double, max_workers=2,
        )
        status = {rid: s.value for rid, s in directory.read_status().items()}
        assert set(status.values()) == {"done"}
        with directory.open_store() as store:
            assert store.statuses(manifest.campaign) == status

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: a real drive journals DONE as each run settles "
        "but stores the outcomes only after the pool drains, so a driver "
        "that dies in between leaves DONE runs without an outcome, which "
        "resume skips",
    )
    def test_every_done_run_has_a_stored_outcome_after_the_driver_dies(
        self, tmp_path, monkeypatch
    ):
        # The driver's death between the journal's DONE lines and
        # record_results stands in as record_results raising once.
        from repro.savanna import execute_manifest

        manifest = make_manifest(n=3)
        record_results = CampaignDirectory.record_results

        def dies(directory, results):
            monkeypatch.setattr(CampaignDirectory, "record_results", record_results)
            raise RuntimeError("the driver died before recording outcomes")

        monkeypatch.setattr(CampaignDirectory, "record_results", dies)
        drive = dict(backend="local-threads", directory=tmp_path, app_fn=_loss_app)
        with pytest.raises(RuntimeError, match="the driver died"):
            execute_manifest(manifest, **drive)
        execute_manifest(manifest, resume=True, **drive)
        directory = CampaignDirectory.open(tmp_path / manifest.campaign)
        done = [rid for rid, s in directory.effective_status().items() if s is RunStatus.DONE]
        assert done
        assert [rid for rid in done if directory.read_run_result(rid) is None] == []

    def test_empty_store_file_starts_from_status_json(self, tmp_path):
        # A store file that does not hold the campaign (older store CLIs
        # created empty ones) still starts from the finished runs, not
        # from a campaign of pending ones.
        manifest = make_manifest()
        directory = CampaignDirectory(tmp_path, manifest)
        directory.create()
        directory.update_status({r.run_id: RunStatus.DONE for r in manifest.runs})
        CampaignStore(directory.store_path()).close()
        with directory.open_store() as store:
            assert set(store.statuses(manifest.campaign).values()) == {"done"}


def _loss_app(parameters):
    return {"loss": float(parameters["x"]) + (0.25 if parameters["mode"] == "b" else 0.0)}


def _first_answer(parameters):
    return {"v": 1}


def _second_answer(parameters):
    return {"v": 2}


def _double(parameters):
    return 2 * parameters["x"]


class TestCli:
    def run_cli(self, *args):
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run(
            [sys.executable, "-m", "repro.store", *args],
            capture_output=True, text=True, env=env,
        )

    @pytest.fixture()
    def campaign_dir(self, tmp_path):
        manifest = make_manifest()
        directory = TestMigration().make_directory(tmp_path, manifest)
        return directory.root

    @pytest.fixture()
    def simulated_dir(self, tmp_path):
        """A simulated drive's end point: every run DONE, and no store."""
        from repro.savanna import execute_manifest

        manifest = make_manifest(n=2, campaign="simx")
        result = execute_manifest(
            manifest, lambda p: 1.0, make_cluster(nodes=2), directory=tmp_path
        )
        assert result.all_done
        return tmp_path / manifest.campaign

    def test_migrate_then_query(self, campaign_dir):
        migrated = self.run_cli("migrate", str(campaign_dir))
        assert migrated.returncode == 0, migrated.stderr
        assert "8 runs" in migrated.stdout

        best = self.run_cli("query", str(campaign_dir), "best", "--metric", "loss")
        assert best.returncode == 0, best.stderr
        assert "g/run-0000" in best.stdout

        pareto = self.run_cli(
            "query", str(campaign_dir), "pareto",
            "--objective", "loss:minimize", "--objective", "cost:minimize",
        )
        assert pareto.returncode == 0, pareto.stderr
        assert pareto.stdout.strip()

        status = self.run_cli("status", str(campaign_dir))
        assert status.returncode == 0
        assert "done" in status.stdout

    def test_negative_k_is_reported_as_an_error(self, campaign_dir):
        assert self.run_cli("migrate", str(campaign_dir)).returncode == 0
        rank = self.run_cli(
            "query", str(campaign_dir), "rank", "--metric", "loss", "--k", "-1"
        )
        assert rank.returncode == 1
        assert "error: k must be >= 0, got -1" in rank.stderr
        assert rank.stdout == ""

    def test_query_without_migrate_fails_cleanly(self, tmp_path):
        db = tmp_path / "empty.sqlite"
        CampaignStore(db).close()
        result = self.run_cli("query", str(db), "best", "--metric", "loss")
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_info_lists_campaigns(self, campaign_dir):
        assert self.run_cli("migrate", str(campaign_dir)).returncode == 0
        info = self.run_cli("info", str(campaign_dir))
        assert info.returncode == 0
        assert "store-test" in info.stdout

    def test_export_cli(self, campaign_dir):
        assert self.run_cli("migrate", str(campaign_dir)).returncode == 0
        for result_file in campaign_dir.glob("g/run-*/result.json"):
            result_file.unlink()
        export = self.run_cli("export", str(campaign_dir))
        assert export.returncode == 0
        assert "exported 8" in export.stdout
        assert json.loads(
            (campaign_dir / "g" / "run-0000" / "result.json").read_text()
        )["status"] == "done"

    def test_export_without_a_store_writes_the_params_view(self, simulated_dir):
        export = self.run_cli("export", str(simulated_dir))
        assert export.returncode == 0, export.stderr
        assert "exported 0 result.json files" in export.stdout
        directory = CampaignDirectory.open(simulated_dir)
        assert not directory.store_path().exists()
        for run in directory.manifest.runs:
            run_dir = directory.run_dir(run.run_id)
            assert json.loads((run_dir / "params.json").read_text()) == run.parameters
            assert not (run_dir / "result.json").exists()

    @pytest.mark.parametrize(
        "command", [["status"], ["info"], ["query", "best", "--metric", "loss"]]
    )
    def test_read_commands_never_create_a_store(self, simulated_dir, command):
        result = self.run_cli(command[0], str(simulated_dir), *command[1:])
        assert result.returncode == 1
        store_path = simulated_dir / ".cheetah" / "store.sqlite"
        assert f"error: no store at {store_path}" in result.stderr
        assert not store_path.exists()
        # the end point still reads as the drive left it
        directory = CampaignDirectory.open(simulated_dir)
        assert directory.summary()["done"] == len(directory.manifest.runs)
