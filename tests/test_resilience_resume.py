"""Tests for campaign checkpointing and resumable SweepGroups."""

import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.observability import BEGIN, END, GROUP_RESUMED, TASK, EventBus
from repro.resilience import CampaignCheckpoint
from repro.savanna import execute_campaign, execute_manifest

from conftest import make_cluster


def make_manifest(n=8, nodes=2, walltime=120.0):
    camp = Campaign("resume", app=AppSpec("app"))
    sg = camp.sweep_group("g", nodes=nodes, walltime=walltime)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


def make_directory(tmp_path, manifest):
    directory = CampaignDirectory(tmp_path, manifest)
    directory.create()
    return directory


def journal_path(directory):
    return directory.root / ".cheetah" / CampaignCheckpoint.JOURNAL_NAME


def open_descriptors(path):
    """This process's descriptors on ``path``, deleted or not (Linux /proc)."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /proc/self/fd")
    target = os.path.realpath(path)
    held = []
    for fd in os.listdir(fd_dir):
        try:
            link = os.readlink(fd_dir / fd)
        except OSError:  # closed between listdir and readlink
            continue
        if link == target or link == f"{target} (deleted)":
            held.append(fd)
    return held


def emit_run(bus, run_id, time=0.0):
    bus.emit(TASK, phase=BEGIN, task=run_id, time=time)
    bus.emit(TASK, phase=END, task=run_id, outcome="done", time=time + 1.0)


class TestCampaignCheckpoint:
    def test_record_appends_and_reads_back(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        checkpoint.record("g/run-0000", RunStatus.RUNNING, time=1.0)
        checkpoint.record("g/run-0000", RunStatus.DONE, time=2.0)
        entries = checkpoint.journal_entries()
        assert [e["status"] for e in entries] == ["running", "done"]

    def test_unknown_run_rejected(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        with pytest.raises(KeyError, match="unknown run_id"):
            checkpoint.record("g/run-9999", RunStatus.DONE)

    def test_effective_status_overlays_journal_later_wins(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest())
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)
        checkpoint.record("g/run-0001", RunStatus.DONE)
        status = checkpoint.effective_status()
        assert status["g/run-0001"] is RunStatus.DONE
        assert status["g/run-0000"] is RunStatus.PENDING
        assert checkpoint.completed() == {"g/run-0001"}
        # the base record on disk is untouched until compaction
        assert directory.read_status()["g/run-0001"] is RunStatus.PENDING

    def test_compact_folds_journal_and_requeues_running(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest())
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)  # driver died here
        checkpoint.compact()
        status = directory.read_status()
        assert status["g/run-0000"] is RunStatus.DONE
        assert status["g/run-0001"] is RunStatus.PENDING
        assert checkpoint.journal_entries() == []
        checkpoint.compact()  # no journal: a no-op

    def test_attach_journals_task_spans_and_ignores_foreign_tasks(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        bus = EventBus()
        checkpoint.attach(bus)
        bus.emit(TASK, phase=BEGIN, task="g/run-0002", time=0.0)
        bus.emit(TASK, phase=END, task="g/run-0002", outcome="done")
        bus.emit(TASK, phase=BEGIN, task="not-a-campaign-run")
        bus.emit("node.busy", task="g/run-0003")
        checkpoint.detach()
        bus.emit(TASK, phase=BEGIN, task="g/run-0004")  # after detach: ignored
        assert [e["run"] for e in checkpoint.journal_entries()] == [
            "g/run-0002",
            "g/run-0002",
        ]
        assert checkpoint.completed() == {"g/run-0002"}

    def test_attach_twice_rejected_detach_idempotent(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        bus = EventBus()
        checkpoint.attach(bus)
        with pytest.raises(RuntimeError, match="already attached"):
            checkpoint.attach(bus)
        checkpoint.detach()
        checkpoint.detach()
        checkpoint.attach(bus)  # re-attachable after detach
        checkpoint.detach()

    def test_attached_writer_lines_reach_a_concurrent_reader(self, tmp_path):
        # Every line is flushed before record returns: a reader sees the
        # whole journal while the writer still holds it open.
        directory = make_directory(tmp_path, make_manifest())
        writer = CampaignCheckpoint(directory)
        bus = EventBus()
        writer.attach(bus)
        try:
            for i in range(4):
                emit_run(bus, f"g/run-{i:04d}", time=float(i))
            reader = CampaignCheckpoint(directory)
            assert len(reader.journal_entries()) == 8
            assert reader.completed() == {f"g/run-{i:04d}" for i in range(4)}
        finally:
            writer.detach()

    def test_attach_detach_attach_leaves_no_handle_open(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest())
        checkpoint = CampaignCheckpoint(directory)
        bus = EventBus()
        checkpoint.attach(bus)
        emit_run(bus, "g/run-0000")
        assert len(open_descriptors(journal_path(directory))) == 1
        checkpoint.detach()
        assert open_descriptors(journal_path(directory)) == []
        checkpoint.attach(bus)
        emit_run(bus, "g/run-0001")
        checkpoint.detach()
        assert open_descriptors(journal_path(directory)) == []
        assert [e["run"] for e in checkpoint.journal_entries()] == [
            "g/run-0000", "g/run-0000", "g/run-0001", "g/run-0001",
        ]
        checkpoint.compact()
        assert not journal_path(directory).exists()
        assert checkpoint.completed() == {"g/run-0000", "g/run-0001"}

    def test_attach_cuts_a_torn_final_line(self, tmp_path):
        # A driver SIGKILLed mid-write left a fragment without a newline;
        # the resumed drive's lines must not be glued onto it.
        directory = make_directory(tmp_path, make_manifest(n=4))
        done = '{"run": "g/run-0000", "status": "done", "time": 1.0}\n'
        journal_path(directory).write_text(done + '{"run": "g/run-0001", "sta')
        checkpoint = CampaignCheckpoint(directory)
        bus = EventBus()
        checkpoint.attach(bus)
        emit_run(bus, "g/run-0002", time=2.0)
        checkpoint.detach()
        assert journal_path(directory).read_text().startswith(
            done + '{"run": "g/run-0002", "status": "running"'
        )
        assert [e["run"] for e in checkpoint.journal_entries()] == [
            "g/run-0000", "g/run-0002", "g/run-0002",
        ]
        checkpoint.compact()
        assert CampaignCheckpoint(directory).pending() == {"g/run-0001", "g/run-0003"}

    def test_attach_leaves_a_whole_journal_byte_identical(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest(n=4))
        text = '{"run": "g/run-0000", "status": "done", "time": 1.0}\n'
        journal_path(directory).write_text(text)
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.attach(EventBus())
        checkpoint.detach()
        assert journal_path(directory).read_text() == text

    def test_compaction_leaves_a_live_writers_journal_alone(self, tmp_path):
        # A detaches; B (a re-submission) attaches before A compacts.  A's
        # compaction must not delete the journal B is still writing.
        directory = make_directory(tmp_path, make_manifest(n=4))
        first, second = CampaignCheckpoint(directory), CampaignCheckpoint(directory)
        bus_a, bus_b = EventBus(), EventBus()
        first.attach(bus_a)
        emit_run(bus_a, "g/run-0000")
        first.detach()
        second.attach(bus_b)
        emit_run(bus_b, "g/run-0001")
        first.compact()
        emit_run(bus_b, "g/run-0002")
        second.detach()
        second.compact()
        status = directory.read_status()
        assert [status[f"g/run-{i:04d}"] for i in range(4)] == [
            RunStatus.DONE, RunStatus.DONE, RunStatus.DONE, RunStatus.PENDING,
        ]
        assert not journal_path(directory).exists()

    def test_a_writer_cannot_attach_while_compaction_holds_the_slot(
        self, tmp_path, monkeypatch
    ):
        directory = make_directory(tmp_path, make_manifest(n=4))
        compacting, late = CampaignCheckpoint(directory), CampaignCheckpoint(directory)
        compacting.record("g/run-0000", RunStatus.DONE)
        update_status = directory.update_status
        raised = []

        def attach_mid_compaction(updates):
            with pytest.raises(RuntimeError, match="live checkpoint writer"):
                late.attach(EventBus())
            raised.append(True)
            return update_status(updates)

        monkeypatch.setattr(directory, "update_status", attach_mid_compaction)
        compacting.compact()
        assert raised == [True]
        late.attach(EventBus())  # the slot is free again once compaction ends
        late.detach()

    def test_concurrent_drives_and_compactions_lose_no_transition(self, tmp_path):
        # Stress: more writers than cores, each attaching (retrying while
        # another writer or a compaction holds the slot), journaling its
        # runs DONE, detaching and compacting.  A compaction that deleted
        # a live writer's journal would leave that writer's runs pending.
        writers, runs_each = 8, 4
        directory = make_directory(tmp_path, make_manifest(n=writers * runs_each))
        errors = []

        def drive(k):
            try:
                for j in range(runs_each):
                    checkpoint, bus = CampaignCheckpoint(directory), EventBus()
                    while True:
                        try:
                            checkpoint.attach(bus)
                            break
                        except RuntimeError:
                            time.sleep(0.001)
                    emit_run(bus, f"g/run-{k * runs_each + j:04d}")
                    checkpoint.detach()
                    checkpoint.compact()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(k,)) for k in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not journal_path(directory).exists()
        assert set(directory.read_status().values()) == {RunStatus.DONE}

    def test_compact_refuses_an_attached_writer(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        bus = EventBus()
        checkpoint.attach(bus)
        with pytest.raises(RuntimeError, match="detach"):
            checkpoint.compact()
        checkpoint.detach()

    def test_failed_execution_closes_the_journal_and_compacts(
        self, tmp_path, monkeypatch
    ):
        from repro.savanna.pilot import PilotExecutor

        def run_then_raise(self, tasks, **kwargs):
            emit_run(self.cluster.bus, "g/run-0000")
            self.cluster.bus.emit(TASK, phase=BEGIN, task="g/run-0001", time=2.0)
            raise RuntimeError("executor crashed")

        monkeypatch.setattr(PilotExecutor, "run", run_then_raise)
        manifest = make_manifest()
        directory = make_directory(tmp_path, manifest)
        with pytest.raises(RuntimeError, match="executor crashed"):
            execute_manifest(
                manifest, lambda p: 10.0, make_cluster(nodes=2), directory=directory
            )
        assert open_descriptors(journal_path(directory)) == []
        assert not journal_path(directory).exists()
        status = directory.read_status()
        assert status["g/run-0000"] is RunStatus.DONE
        assert status["g/run-0001"] is RunStatus.PENDING


class TestSnapshotReads:
    """``effective_status`` is one snapshot even while a compaction runs,
    and needs no write access."""

    def test_reads_during_compaction_never_undo_a_done_run(self, tmp_path):
        # One thread journals RUNNING then DONE for each run and compacts
        # after each; the other reads in a loop.  A read that took the old
        # status.json and then found the journal already deleted would
        # lose the transitions in between, or hit FileNotFoundError.
        manifest = make_manifest(n=150)
        directory = make_directory(tmp_path, manifest)
        writer, reader = CampaignCheckpoint(directory), CampaignCheckpoint(directory)
        finished = threading.Event()

        def journal_and_compact():
            try:
                for run in manifest.runs:
                    writer.record(run.run_id, RunStatus.RUNNING)
                    writer.record(run.run_id, RunStatus.DONE)
                    writer.compact()
            finally:
                finished.set()

        errors, undone, reads, seen_done = [], 0, 0, set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=journal_and_compact)
        try:
            thread.start()
            while not finished.is_set():
                try:
                    status = reader.effective_status()
                except Exception as exc:  # noqa: BLE001 - counted, asserted below
                    errors.append(repr(exc))
                    continue
                reads += 1
                done = {rid for rid, st in status.items() if st is RunStatus.DONE}
                undone += bool(seen_done - done)
                seen_done |= done
        finally:
            thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert reads > 0
        assert errors == []
        assert undone == 0, f"{undone} of {reads} reads lost a DONE run"
        assert reader.completed() == {run.run_id for run in manifest.runs}

    def test_read_only_directory_is_still_queried(self, tmp_path, monkeypatch):
        # An archived campaign: .cheetah/ chmod-ed read-only, no lock file
        # left in it.  Permission bits do not bind root, so opening a file
        # there for writing is also refused, as a read-only mount does.
        import errno

        import repro._util.io

        manifest = make_manifest(n=4)
        directory = make_directory(tmp_path, manifest)
        directory.set_status(manifest.runs[0].run_id, RunStatus.DONE)
        CampaignCheckpoint(directory).record(manifest.runs[1].run_id, RunStatus.DONE)
        meta = directory.root / ".cheetah"
        for lock in meta.glob("*.lock"):
            lock.unlink()
        real_open = open

        def read_only_open(file, mode="r", *args, **kwargs):
            if Path(file).parent == meta and set(mode) & set("wax+"):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(repro._util.io, "open", read_only_open, raising=False)
        meta.chmod(0o555)
        try:
            assert directory.summary()["done"] == 2
            assert directory.pending_runs() == manifest.runs[2:]
            assert len(directory.runs_where(status=RunStatus.DONE)) == 2
            assert CampaignCheckpoint(directory).completed() == {
                run.run_id for run in manifest.runs[:2]
            }
        finally:
            meta.chmod(0o755)


class TestInterruptedCampaignResume:
    def test_interrupted_then_resumed_completes_exactly_the_remainder(self, tmp_path):
        # Acceptance: a SweepGroup cut off by its allocation budget,
        # resumed in a fresh process, finishes with zero duplicated runs —
        # asserted from the observability event stream.
        manifest = make_manifest(n=8, nodes=2, walltime=120.0)
        directory = make_directory(tmp_path, manifest)
        all_runs = {run.run_id for run in manifest.runs}

        # First invocation: one 2-node/120s allocation fits 4 of the 8
        # 50-second runs, then the walltime guillotine falls.
        execute_manifest(
            manifest,
            lambda p: 50.0,
            make_cluster(nodes=2),
            directory=directory,
            max_allocations=1,
        )
        done_first = {
            run_id
            for run_id, st in directory.read_status().items()
            if st is RunStatus.DONE
        }
        assert len(done_first) == 4

        # Second invocation: a fresh cluster/process resumes the campaign.
        cluster = make_cluster(nodes=2)
        events = []
        cluster.bus.subscribe(events.append)
        result = execute_manifest(
            manifest,
            lambda p: 50.0,
            cluster,
            directory=directory,
            max_allocations=4,
            report=True,
        )
        started = [
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        ]
        # exactly the remainder, each exactly once
        assert sorted(started) == sorted(all_runs - done_first)
        assert len(started) == len(set(started))
        resumed = [e for e in events if e.name == GROUP_RESUMED]
        assert len(resumed) == 1
        assert resumed[0].fields["skipped"] == 4
        assert resumed[0].fields["pending"] == 4
        assert result.all_done
        assert directory.summary()["done"] == 8
        # the stored report credits the skip to the group's campaign span
        (stored,) = directory.read_report()
        assert stored["counts"]["resumed_skipped"] == 4

    def test_journal_survives_a_killed_driver(self, tmp_path):
        # Emulate a driver killed mid-campaign: DONE lines sit in the
        # journal, status.json still says PENDING, nothing was compacted.
        manifest = make_manifest(n=6, nodes=4, walltime=500.0)
        directory = make_directory(tmp_path, manifest)
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)  # in flight at kill

        cluster = make_cluster(nodes=4)
        events = []
        cluster.bus.subscribe(events.append)
        result = execute_manifest(
            manifest, lambda p: 10.0, cluster, directory=directory
        )
        started = {
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        }
        assert "g/run-0000" not in started  # durably done: skipped
        assert "g/run-0001" in started  # interrupted in flight: re-queued
        assert result.all_done
        assert directory.summary()["done"] == 6

    def test_resume_false_re_executes_everything(self, tmp_path):
        manifest = make_manifest(n=4, nodes=4, walltime=500.0)
        directory = make_directory(tmp_path, manifest)
        directory.update_status({"g/run-0000": RunStatus.DONE})
        cluster = make_cluster(nodes=4)
        events = []
        cluster.bus.subscribe(events.append)
        execute_manifest(
            manifest, lambda p: 10.0, cluster, directory=directory, resume=False
        )
        started = {
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        }
        assert started == {run.run_id for run in manifest.runs}
        assert not [e for e in events if e.name == GROUP_RESUMED]


class TestOneStatusWriter:
    """Compaction is the drive's only status write for a group."""

    @pytest.mark.parametrize("resume", [False, True])
    def test_runs_the_group_never_starts_keep_their_status(self, tmp_path, resume):
        # One 2-node/120s allocation runs 4 of the 8 50-second runs and
        # kills 2 more; run-0006 and run-0007 never start.
        manifest = make_manifest(n=8, nodes=2, walltime=120.0)
        directory = make_directory(tmp_path, manifest)
        directory.update_status(
            {"g/run-0006": RunStatus.DONE, "g/run-0007": RunStatus.FAILED}
        )
        execute_manifest(
            manifest,
            lambda p: 50.0,
            make_cluster(nodes=2),
            directory=directory,
            max_allocations=1,
            resume=resume,
        )
        status = directory.read_status()
        assert [status[f"g/run-{i:04d}"] for i in range(6)] == (
            [RunStatus.DONE] * 4 + [RunStatus.PENDING] * 2
        )
        assert status["g/run-0006"] is RunStatus.DONE
        assert status["g/run-0007"] is RunStatus.FAILED
        assert CampaignCheckpoint(directory).pending() == {
            f"g/run-{i:04d}" for i in (4, 5, 7)
        }

    @pytest.mark.parametrize("backend", ["pilot", "local-threads"])
    def test_one_status_write_per_group(self, tmp_path, monkeypatch, backend):
        camp = Campaign("writes", app=AppSpec("app"))
        for name in ("a", "b"):
            sg = camp.sweep_group(name, nodes=2, walltime=500.0)
            sg.add(Sweep([SweepParameter("x", range(3))]))
        manifest = camp.to_manifest()
        writes = []
        update_status = CampaignDirectory.update_status

        def counting(self, updates):
            writes.append(dict(updates))
            return update_status(self, updates)

        monkeypatch.setattr(CampaignDirectory, "update_status", counting)
        if backend == "pilot":
            drive = dict(duration_model=lambda p: 10.0, cluster=make_cluster(nodes=2))
        else:
            drive = dict(app_fn=_square, max_workers=2)
        results = execute_campaign(manifest, backend=backend, directory=tmp_path, **drive)
        assert all(r.all_done for r in results.values())
        assert len(writes) == 2
        assert [sorted(w) for w in writes] == [
            [r.run_id for r in manifest.runs if r.group == group] for group in "ab"
        ]
        directory = CampaignDirectory.open(tmp_path / "writes")
        assert directory.summary()["done"] == 6


def _square(parameters):
    return parameters["x"] ** 2
