"""Tests for campaign checkpointing and resumable SweepGroups."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cluster.job import Task, TaskAttempt, TaskState
from repro.observability import BEGIN, END, GROUP_RESUMED, INSTANT, TASK, EventBus
from repro.observability.events import AttemptBlock
from repro.resilience import CampaignCheckpoint
from repro.resilience.checkpoint import _journal_entries, _journal_line
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

    def test_compaction_rejects_a_status_outside_the_vocabulary(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest(n=2))
        journal_path(directory).write_text(
            '{"run": "g/run-0000", "status": "done", "time": 1.0}\n'
            '{"run": "g/run-0001", "status": "bogus", "time": 2.0}\n'
        )
        before = directory._status_path().read_bytes()
        with pytest.raises(ValueError, match="'bogus' is not a valid RunStatus"):
            CampaignCheckpoint(directory).compact()
        assert directory._status_path().read_bytes() == before
        assert journal_path(directory).exists()

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

    def test_attach_keeps_a_whole_final_line_that_lost_its_newline(self, tmp_path):
        # A batch's lines reach the OS in buffer-sized chunks, so a kill
        # can land just before a line's newline.  Readers trust that
        # line, so resume skips its run; attach must not cut it away.
        directory = make_directory(tmp_path, make_manifest(n=4))
        done = '{"run": "g/run-0000", "status": "done", "time": 1.0}'
        journal_path(directory).write_text(done)
        checkpoint = CampaignCheckpoint(directory)
        assert checkpoint.completed() == {"g/run-0000"}
        bus = EventBus()
        checkpoint.attach(bus)
        emit_run(bus, "g/run-0001", time=2.0)
        checkpoint.detach()
        assert journal_path(directory).read_text().startswith(done + "\n")
        checkpoint.compact()
        assert checkpoint.completed() == {"g/run-0000", "g/run-0001"}

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


#: Run ids with everything ``json`` escapes: quotes, backslashes,
#: control characters and non-ASCII text.
_RUN_IDS = st.text(min_size=1) | st.text(
    alphabet='"\\/\x00\x07\x1f\x7f\n\t\u00e9\u2028\U0001f600 ab', min_size=1
)
_TIMES = st.none() | st.integers() | st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324]
)


def reference_entries(text):
    """The journal read rule, written the direct way: every stripped
    non-blank line parses, except that a malformed last one is dropped."""
    lines = [line.strip() for line in text.split("\n")]
    lines = [line for line in lines if line]
    entries = []
    for i, line in enumerate(lines):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break
            raise
    return entries


_LINE = '{"run": "g/run-0000", "status": "done", "time": 1.5}'
_JOURNAL_PIECES = st.sampled_from(
    [_LINE, f"  {_LINE}\t", "", "   ", "not json", _LINE + " x", "7", "{}"]
) | st.integers(1, len(_LINE) - 1).map(lambda cut: _LINE[:cut])


class TestJournalWriter:
    @given(run_id=_RUN_IDS, status=st.sampled_from(RunStatus), time=_TIMES)
    @example(run_id='a"b\\c\x00\x1f\u00e9\U0001f600', status=RunStatus.DONE, time=0.1)
    @example(run_id="g/run-0000", status=RunStatus.RUNNING, time=None)
    @example(run_id="g/run-0000", status=RunStatus.FAILED, time=3)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=-0.0)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=math.inf)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=-math.inf)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=math.nan)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=1e300)
    @example(run_id="g/run-0000", status=RunStatus.DONE, time=np.float64(2.25))
    def test_line_is_the_json_dumps_line(self, run_id, status, time):
        expected = json.dumps({"run": run_id, "status": status.value, "time": time}) + "\n"
        assert _journal_line(run_id, status.value, time) == expected

    @given(pieces=st.lists(_JOURNAL_PIECES, max_size=6), newline=st.booleans())
    @example(pieces=[_LINE, "not json", _LINE], newline=True)  # interior corruption
    @example(pieces=[_LINE, _LINE[:20], "", "  "], newline=False)  # torn, then blanks
    @example(pieces=[_LINE + " x"], newline=True)  # trailing data on the last line
    def test_streaming_reader_keeps_the_read_rules(self, tmp_path_factory, pieces, newline):
        path = tmp_path_factory.getbasetemp() / "read-rules.jsonl"
        text = "\n".join(pieces) + ("\n" if newline and pieces else "")
        path.write_text(text)
        try:
            expected = reference_entries(text)
        except json.JSONDecodeError:
            with pytest.raises(json.JSONDecodeError):
                list(_journal_entries(path))
        else:
            assert list(_journal_entries(path)) == expected

    def test_batch_and_emit_deliveries_journal_the_same_bytes(self, tmp_path, monkeypatch):
        # The same simulated attempts as two attempt blocks and through an
        # emit loop.  A block's attempts have all ended, so it journals
        # each attempt end and no RUNNING line: its journal is the emit
        # journal without the RUNNING lines, byte for byte.  It makes one
        # record() per line and one flush per block, and skips the
        # instants and a run outside the manifest.  The "interrupted" run
        # is a real drive's outcome, so only the emit loop carries it.
        manifest = make_manifest(n=6)
        outcomes = ["done", "failed", "killed", "done", "done"]
        specs, items = [], []
        for i, outcome in enumerate(outcomes + ["done"]):
            run_id = "not-a-campaign-run" if i == len(outcomes) else f"g/run-{i:04d}"
            start, end = 10.0 * i + 0.1, 10.0 * i + 5.3
            retry = ("task.retry", INSTANT, 10.0 * i + 0.2, {"task": run_id})
            specs += [
                (TASK, BEGIN, start, {"task": run_id}),
                retry,
                (TASK, END, end, {"task": run_id, "outcome": outcome}),
            ]
            task = Task(name=run_id, duration=1.0)
            attempt = TaskAttempt(task, [0], start, end, TaskState(outcome))
            task.attempts.append(attempt)
            items += [attempt, retry, attempt]
        blocks = [items[:6], items[6:]]  # both appearances of an attempt in one block
        interrupted = [
            (TASK, BEGIN, 60.1, {"task": "g/run-0005"}),
            (TASK, END, 65.3, {"task": "g/run-0005", "outcome": "interrupted"}),
        ]

        records = []
        record = CampaignCheckpoint.record

        def counted(self, *args, **kwargs):
            records.append(self)
            return record(self, *args, **kwargs)

        monkeypatch.setattr(CampaignCheckpoint, "record", counted)

        class CountedJournal:
            def __init__(self, fh):
                self.fh, self.flushes = fh, 0

            def write(self, text):
                return self.fh.write(text)

            def flush(self):
                self.flushes += 1
                self.fh.flush()

            def close(self):
                self.fh.close()

        def emit_all(bus, stream):
            for name, phase, time, fields in stream:
                bus.emit(name, phase, time, **fields)

        journals, statuses, counts = {}, {}, {}
        for name, deliver in [
            ("blocks", lambda bus: [bus.publish_batch(AttemptBlock(list(b))) for b in blocks]),
            ("emitted", lambda bus: emit_all(bus, specs + interrupted)),
        ]:
            directory = make_directory(tmp_path / name, manifest)
            checkpoint, bus = CampaignCheckpoint(directory), EventBus()
            checkpoint.attach(bus)
            journal = checkpoint._journal = CountedJournal(checkpoint._journal)
            deliver(bus)
            checkpoint.detach()
            journals[name] = journal_path(directory).read_bytes()
            counts[name] = (records.count(checkpoint), journal.flushes)
            checkpoint.compact()
            statuses[name] = directory._status_path().read_bytes()
        lines = journals["emitted"].splitlines(keepends=True)
        outcome_lines = [line for line in lines if b'"status": "running"' not in line]
        assert len(lines) == 2 * len(outcome_lines) == 12
        assert b"".join(outcome_lines[:-1]) == journals["blocks"]
        assert outcome_lines[-1] == _journal_line("g/run-0005", "pending", 65.3).encode()
        assert counts == {"blocks": (len(outcomes), len(blocks)), "emitted": (12, 12)}
        assert statuses["blocks"] == statuses["emitted"]
        status = json.loads(statuses["blocks"])
        assert [status[f"g/run-{i:04d}"] for i in range(6)] == [
            "done", "failed", "pending", "done", "done", "pending",
        ]

    def test_a_simulated_drive_journals_one_line_per_attempt_end(self, tmp_path, monkeypatch):
        # A seeded pilot drive with node failures, retries, two
        # allocations and walltime kills: read before compaction, its
        # journal holds one line per attempt end, with the attempt's
        # mapped outcome at its end time, and no RUNNING line.
        manifest = make_manifest(n=30, nodes=2, walltime=400.0)
        directory = make_directory(tmp_path, manifest)
        journals = []
        compact = CampaignCheckpoint.compact

        def read_then_compact(self):
            journals.append(self.journal_entries())
            compact(self)

        monkeypatch.setattr(CampaignCheckpoint, "compact", read_then_compact)
        result = execute_manifest(
            manifest,
            lambda p: 40.0 + 7.0 * p["x"],
            make_cluster(nodes=2, mttf=300.0, seed=11),
            directory=directory,
            max_allocations=2,
        )
        attempts = [a for task in result.tasks for a in task.attempts]
        outcomes = {a.outcome.value for a in attempts}
        assert {"done", "failed", "killed"} <= outcomes
        assert any(len(task.attempts) > 1 for task in result.tasks)  # retries
        status = {"done": "done", "failed": "failed", "killed": "pending"}
        (entries,) = journals
        assert sorted((e["run"], e["status"], e["time"]) for e in entries) == sorted(
            (a.task.name, status[a.outcome.value], a.end) for a in attempts
        )


#: A driver in another process: attach a checkpoint to the campaign at
#: ``argv[1]``, journal run-0000 DONE, say so, and hold the writer slot
#: until a line arrives on stdin; then detach, say so, and live on until
#: stdin closes.  With ``fork`` as ``argv[2]`` it first forks a child
#: that sleeps, as a pool worker would, and says the child's pid.
_OTHER_DRIVER = """
import os, sys, time
from repro.cheetah.directory import CampaignDirectory
from repro.observability import BEGIN, END, TASK, EventBus
from repro.resilience import CampaignCheckpoint
checkpoint, bus = CampaignCheckpoint(CampaignDirectory.open(sys.argv[1])), EventBus()
checkpoint.attach(bus)
bus.emit(TASK, phase=BEGIN, task="g/run-0000", time=0.0)
bus.emit(TASK, phase=END, task="g/run-0000", outcome="done", time=1.0)
if sys.argv[2:] == ["fork"]:
    worker = os.fork()
    if worker == 0:
        time.sleep(60.0)
        os._exit(0)
    print(worker, flush=True)
print("attached", flush=True)
sys.stdin.readline()
checkpoint.detach()
print("detached", flush=True)
sys.stdin.read()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX processes")
class TestCrossProcessWriter:
    """One live journal writer per campaign directory across processes."""

    @staticmethod
    def _other_driver(directory, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.Popen(
            [sys.executable, "-c", _OTHER_DRIVER, str(directory.root), *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its forked worker shares its group, not ours
        )

    def test_a_writer_in_another_process_holds_the_slot(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest(n=4))
        other = self._other_driver(directory)
        try:
            assert other.stdout.readline() == "attached\n"
            checkpoint = CampaignCheckpoint(directory)
            with pytest.raises(RuntimeError, match="another process"):
                checkpoint.attach(EventBus())
            checkpoint.compact()  # leaves the other writer's journal alone
            assert journal_path(directory).exists()
            assert directory.read_status()["g/run-0000"] is RunStatus.PENDING
            other.stdin.write("detach\n")
            other.stdin.flush()
            assert other.stdout.readline() == "detached\n"
            checkpoint.attach(EventBus())  # free once the other writer detached
            checkpoint.detach()
        finally:
            other.stdin.close()
            other.wait(timeout=30)
        assert other.returncode == 0
        checkpoint.compact()
        assert directory.read_status()["g/run-0000"] is RunStatus.DONE

    def test_the_slot_ends_with_its_writer_not_its_forked_workers(self, tmp_path):
        # A driver killed with SIGKILL while a worker it forked lives on:
        # the worker holds copies of the driver's descriptors, but not
        # the slot, so a resumed driver attaches at once.
        directory = make_directory(tmp_path, make_manifest(n=4))
        other = self._other_driver(directory, "fork")
        try:
            worker = int(other.stdout.readline())
            assert other.stdout.readline() == "attached\n"
            other.send_signal(signal.SIGKILL)
            other.wait(timeout=30)
            os.kill(worker, 0)  # still alive
            checkpoint = CampaignCheckpoint(directory)
            checkpoint.attach(EventBus())
            checkpoint.detach()
            checkpoint.compact()
            assert directory.read_status()["g/run-0000"] is RunStatus.DONE
        finally:
            try:
                os.killpg(other.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            other.wait(timeout=30)


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
