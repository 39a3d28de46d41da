"""Campaign progress checkpointing — the resume contract made durable.

"If all runs in the SweepGroup cannot be run in the allotted time, the
SweepGroup is simply re-submitted, and Savanna resumes execution of the
experiments" (§V-D).  Resumption is only as good as the on-disk record:
before this layer, run statuses were written once, *after* the campaign
loop drained — a killed driver process left ``status.json`` claiming
nothing ran.

A :class:`CampaignCheckpoint` closes that gap with a write-ahead journal
inside the Cheetah campaign directory::

    <root>/<campaign>/.cheetah/status.json     # compacted base record
    <root>/<campaign>/.cheetah/journal.jsonl   # one line per transition

Every task transition observed on the cluster's event bus appends one
JSON line (O(1) per event — no rewrite of the full status map), and
:meth:`CampaignCheckpoint.compact` folds the journal back into
``status.json`` when a group finishes.  Reading overlays the journal on
the base record, so a driver killed mid-campaign still resumes exactly
the pending set.

The journal is opened once per :meth:`~CampaignCheckpoint.attach` and
closed by :meth:`~CampaignCheckpoint.detach`; each line is flushed to
the OS before :meth:`~CampaignCheckpoint.record` returns, so a
concurrent reader, or a driver killed with SIGKILL, sees every complete
line.  A driver killed mid-write leaves a torn final line, which the
next ``attach`` cuts back to the last newline before appending.  Lines
are not fsynced: they survive the death of the driver process, not of
the machine, while every ``status.json`` write is fsynced.

**Per-submission scoping**: with the campaign service
(:mod:`repro.savanna.service`) many drive pipelines run concurrently in
one process, each attaching its own checkpoint.  The journal format is
append-per-line and therefore safe for *distinct* directories, but two
live writers on the *same* campaign directory would interleave
transitions from unrelated attempts — so :meth:`CampaignCheckpoint.attach`
enforces one attached writer per journal path process-wide and raises
``RuntimeError`` on the second.  A concurrent re-submission of a
still-running campaign fails loudly at attach time instead of silently
corrupting the resume record.  :meth:`CampaignCheckpoint.compact` holds
the same writer slot while it folds and deletes the journal, and leaves
alone a journal another writer holds: that writer's own compaction folds
it.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack
from pathlib import Path

from repro._util import path_lock
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.observability import BEGIN, END, TASK

#: Task-span ``outcome`` field -> durable run status: the one
#: outcome-to-status policy, for simulated and real drives alike.  A
#: walltime-killed run is retryable, so it checkpoints as PENDING; an
#: attempt cut short by Ctrl-C in a real driver (``"interrupted"``) is
#: likewise retryable.
_OUTCOME_TO_STATUS = {
    "done": RunStatus.DONE,
    "failed": RunStatus.FAILED,
    "killed": RunStatus.PENDING,
    "interrupted": RunStatus.PENDING,
}


def _cut_torn_tail(path: Path) -> None:
    """Cut ``path`` back to its last newline (no-op if it ends in one).

    A driver killed mid-write leaves a final line without its newline;
    appending to it would glue the next line onto the fragment and turn
    a droppable torn tail into an interior line that does not parse.
    """
    try:
        fh = path.open("r+b")
    except FileNotFoundError:
        return
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) != b"\n":
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)


class CampaignCheckpoint:
    """Incremental per-run status records inside a campaign directory.

    Parameters
    ----------
    directory:
        The :class:`~repro.cheetah.directory.CampaignDirectory` holding
        the campaign end point (must have been ``create()``-d, so
        ``status.json`` exists).
    """

    JOURNAL_NAME = "journal.jsonl"

    #: Process-wide registry of journal paths with a live attached writer
    #: (per-submission scoping: one writer per campaign directory).
    _ATTACHED: dict = {}
    _ATTACHED_LOCK = threading.Lock()

    def __init__(self, directory: CampaignDirectory):
        self.directory = directory
        self._journal_path = (
            directory.root / CampaignDirectory.METADATA_DIR / self.JOURNAL_NAME
        )
        self._known = {run.run_id for run in directory.manifest.runs}
        self._unsubscribe = None
        self._journal = None  # the journal file, open while attached

    # -- journal -------------------------------------------------------------

    def record(self, run_id: str, status: RunStatus, time: float | None = None) -> None:
        """Append one status transition to the journal (O(1)).

        The complete line reaches the OS before this returns.  While
        attached, it goes through the journal opened by :meth:`attach`;
        otherwise the journal is opened and closed for this one line.
        """
        if run_id not in self._known:
            raise KeyError(f"unknown run_id {run_id!r}")
        line = json.dumps({"run": run_id, "status": status.value, "time": time}) + "\n"
        if self._journal is not None:
            self._journal.write(line)
            self._journal.flush()
            return
        with self._journal_path.open("a") as fh:
            fh.write(line)

    def journal_entries(self) -> list[dict]:
        """Parsed journal lines, in append order (empty if no journal).

        A driver killed hard (SIGKILL, OOM) can die *mid-write*, leaving
        the final line truncated; that line is dropped rather than
        poisoning resume — every complete line before it is still
        trusted.  A malformed line anywhere *else* is a real corruption
        and raises.
        """
        try:
            text = self._journal_path.read_text()
        except FileNotFoundError:  # never written, or compacted away
            return []
        entries = []
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        for i, line in enumerate(lines):
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn final write from a killed driver
                raise
        return entries

    # -- reading -------------------------------------------------------------

    def effective_status(self) -> dict:
        """``{run_id: RunStatus}``: the base record overlaid with the
        journal (later lines win).  This is what resume must trust.

        Both reads happen under the ``status.json`` lock that
        :meth:`compact` holds from its fold to its delete, so the pair is
        one snapshot: never the old base record without the journal that
        a concurrent compaction just folded into the new one.  A reader
        that may not open the lock file (a read-only mount, an archived
        or another user's campaign directory) reads unlocked instead."""
        with ExitStack() as stack:
            try:
                stack.enter_context(path_lock(self.directory._status_path()))
            except OSError:  # no write access to .cheetah/
                pass
            status = self.directory.read_status()
            for entry in self.journal_entries():
                status[entry["run"]] = RunStatus(entry["status"])
        return status

    def completed(self) -> set:
        """Run ids durably recorded DONE (base record or journal)."""
        return {
            run_id
            for run_id, st in self.effective_status().items()
            if st is RunStatus.DONE
        }

    def pending(self) -> set:
        """Run ids a resumed driver must re-queue: everything not DONE.

        An in-flight attempt whose outcome was never journaled reads as
        RUNNING and therefore counts as pending — same rule
        :meth:`compact` applies."""
        return {
            run_id
            for run_id, st in self.effective_status().items()
            if st is not RunStatus.DONE
        }

    # -- compaction ----------------------------------------------------------

    def compact(self) -> None:
        """Fold the journal into ``status.json`` and delete it.

        A run interrupted while RUNNING compacts to PENDING — an
        in-flight attempt whose outcome was never journaled must be
        re-queued, not trusted.  Call it after :meth:`detach`: an
        attached writer would keep appending to the deleted file.

        Compaction holds the writer slot :meth:`attach` takes, so no
        writer can attach between the fold and the delete.  If another
        checkpoint already holds the slot (a re-submission that attached
        after this one detached), the journal is left to that writer,
        whose own compaction folds it.  It also holds the ``status.json``
        lock from the journal read to the delete, which keeps
        :meth:`effective_status` readers out of that window.
        """
        if self._journal is not None:
            raise RuntimeError("detach the checkpoint before compacting its journal")
        key = str(self._journal_path)
        with self._ATTACHED_LOCK:
            if key in self._ATTACHED:
                return
            self._ATTACHED[key] = f"compaction@{id(self):#x}"
        try:
            with path_lock(self.directory._status_path()):
                entries = self.journal_entries()
                if entries:
                    updates: dict[str, RunStatus] = {}
                    for entry in entries:
                        status = RunStatus(entry["status"])
                        if status is RunStatus.RUNNING:
                            status = RunStatus.PENDING
                        updates[entry["run"]] = status
                    self.directory.update_status(updates)  # re-enters the lock
                self._journal_path.unlink(missing_ok=True)
        finally:
            with self._ATTACHED_LOCK:
                self._ATTACHED.pop(key, None)

    # -- bus wiring ----------------------------------------------------------

    def attach(self, bus, owner: str | None = None) -> None:
        """Subscribe to ``bus`` and journal every task transition.

        ``task`` span begins journal RUNNING; ends journal the mapped
        outcome.  Events about tasks that are not runs of this campaign
        (names outside the manifest) are ignored, so a shared bus is safe.

        One live writer per campaign directory, process-wide: attaching
        while another checkpoint is already attached to the same journal
        raises ``RuntimeError`` naming the current holder — this is the
        per-submission scope guard that keeps concurrent campaign-service
        submissions from interleaving transitions into one journal.
        ``owner`` labels this writer (e.g. a submission id) for that
        error message.

        The journal is opened here and stays open until :meth:`detach`;
        a torn final line left by a driver killed mid-write is cut off
        first, so the next line starts on a line of its own.
        """
        if self._unsubscribe is not None:
            raise RuntimeError("checkpoint already attached to a bus")
        key = str(self._journal_path)
        with self._ATTACHED_LOCK:
            holder = self._ATTACHED.get(key)
            if holder is not None:
                raise RuntimeError(
                    f"campaign directory {self.directory.root} already has a "
                    f"live checkpoint writer ({holder}); a campaign must "
                    "finish (or be cancelled) before it is re-submitted "
                    "against the same directory"
                )
            _cut_torn_tail(self._journal_path)
            self._journal = self._journal_path.open("a")
            self._ATTACHED[key] = owner or f"checkpoint@{id(self):#x}"

        def observe(event) -> None:
            if event.name != TASK:
                return
            run_id = event.fields.get("task")
            if run_id not in self._known:
                return
            if event.phase == BEGIN:
                self.record(run_id, RunStatus.RUNNING, time=event.time)
            elif event.phase == END:
                status = _OUTCOME_TO_STATUS.get(event.fields.get("outcome"))
                if status is not None:
                    self.record(run_id, status, time=event.time)

        self._unsubscribe = bus.subscribe(observe)

    def detach(self) -> None:
        """Stop observing the bus, close the journal and release the
        writer slot (idempotent)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
            journal, self._journal = self._journal, None
            try:
                journal.close()
            finally:
                with self._ATTACHED_LOCK:
                    self._ATTACHED.pop(str(self._journal_path), None)
