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

The record belongs to :mod:`repro.cheetah.directory`, which reads and
writes both files, formats and parses journal lines and folds the
journal into ``status.json``; the checkpoint only appends.
``status.json`` appears with the first status write (usually the first
compaction); until then every run reads PENDING.  Every task
transition observed on the cluster's event bus appends one JSON line
(O(1) per event — no rewrite of the full status map), and
:meth:`CampaignCheckpoint.compact` has the directory fold the journal
back into ``status.json`` when a group finishes.  Reading overlays the
journal on the base record
(:meth:`~repro.cheetah.directory.CampaignDirectory.effective_status`), so
a driver killed mid-campaign still resumes exactly the pending set.

The journal is opened once per :meth:`~CampaignCheckpoint.attach`, with
any torn final line cut first, and closed by
:meth:`~CampaignCheckpoint.detach`.  A RUNNING line is written only for
an attempt in flight when the line is written: a real drive
``emit``-s each transition, RUNNING at launch and the mapped outcome at
the end, and the observer flushes each line, so it reaches the OS when
its ``emit`` returns.  A simulated allocation arrives finished, as one
:class:`~repro.observability.events.AttemptBlock` through
``publish_batch``; the journal reads its attempts directly, one
:meth:`~CampaignCheckpoint.record` per attempt end in stream order and
one flush for the block, with no event built.  A driver killed during
that flush loses only the outcomes whose lines had not reached the OS:
those runs keep the status they had before the allocation.

**One writer per campaign directory**: the campaign service
(:mod:`repro.savanna.service`) runs many drive pipelines in one process,
and a campaign may be re-submitted from another.  Two live writers on
one journal would interleave transitions from unrelated attempts, so
:meth:`CampaignCheckpoint.attach` takes the journal's writer slot and
raises ``RuntimeError`` while another writer holds it.  The slot is an
entry in a process-wide registry plus, where ``fcntl`` exists, a
non-blocking exclusive POSIX record lock on ``journal.jsonl.lock``.  A
record lock, unlike an ``flock``, is not shared with the pool workers a
drive forks, so it ends with its writer, even one killed with SIGKILL.
:meth:`CampaignCheckpoint.compact` holds the same slot while the
directory folds and deletes the journal, and leaves alone a journal
another writer holds: that writer's own compaction folds it.
"""

from __future__ import annotations

import os
import threading

from repro.cheetah.directory import CampaignDirectory, RunStatus, journal_line
from repro.observability import BEGIN, END, TASK

try:  # the cross-process writer lock: POSIX only
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

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


class CampaignCheckpoint:
    """Incremental per-run status records inside a campaign directory.

    Parameters
    ----------
    directory:
        The :class:`~repro.cheetah.directory.CampaignDirectory` holding
        the campaign end point, which reads and folds the record this
        checkpoint appends to.
    """

    #: Process-wide registry of held writer slots (one writer per campaign
    #: directory): journal path -> (holder label, lock descriptor or None).
    _ATTACHED: dict = {}
    _ATTACHED_LOCK = threading.Lock()

    def __init__(self, directory: CampaignDirectory):
        self.directory = directory
        self._journal_path = directory.journal_path()
        self._known = directory.run_ids
        self._unsubscribe = None
        self._journal = None  # the journal file, open while attached

    # -- journal -------------------------------------------------------------

    def record(self, run_id: str, status: RunStatus, time: float | None = None) -> None:
        """Append one status transition to the journal (O(1)).

        While attached, the line goes through the journal opened by
        :meth:`attach`, and the bus observer that called this flushes it
        (see the module docstring).  Otherwise the journal is opened and
        closed for this one line.
        """
        if run_id not in self._known:
            raise KeyError(f"unknown run_id {run_id!r}")
        # ``_value_`` is the member's value without the ``value``
        # property's descriptor call: one less per transition.
        line = journal_line(run_id, status._value_, time)
        if self._journal is not None:
            self._journal.write(line)
            return
        with self.directory.open_journal() as fh:
            fh.write(line)

    def journal_entries(self) -> list[dict]:
        """:meth:`CampaignDirectory.journal_entries`."""
        return self.directory.journal_entries()

    # -- reading -------------------------------------------------------------

    def effective_status(self) -> dict:
        """The statuses resume trusts:
        :meth:`CampaignDirectory.effective_status`."""
        return self.directory.effective_status()

    def completed(self) -> set:
        """Run ids durably recorded DONE (base record or journal)."""
        done = RunStatus.DONE  # one attribute lookup, not one per run
        return {r for r, st in self.effective_status().items() if st is done}

    def pending(self) -> set:
        """Run ids a resumed driver must re-queue: everything not DONE,
        RUNNING too (an outcome never journaled; compaction re-queues it)."""
        done = RunStatus.DONE
        return {r for r, st in self.effective_status().items() if st is not done}

    # -- the writer slot ----------------------------------------------------

    def _claim(self, holder: str) -> str | None:
        """Take the writer slot for ``holder``; returns ``None``, or the
        label of the slot's current holder.

        Closing any descriptor of a file drops the process's record locks
        on it, so only the slot opens the lock file, and only while this
        process holds no slot on it."""
        key = str(self._journal_path)
        with self._ATTACHED_LOCK:
            entry = self._ATTACHED.get(key)
            if entry is not None:
                return entry[0]
            fd = None
            if fcntl is not None:
                fd = os.open(key + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
                try:
                    fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:  # another process holds it
                    os.close(fd)
                    return "a writer in another process"
            self._ATTACHED[key] = (holder, fd)
        return None

    def _release(self) -> None:
        """Give the writer slot back."""
        with self._ATTACHED_LOCK:
            _, fd = self._ATTACHED.pop(str(self._journal_path))
            if fd is not None:
                os.close(fd)  # drops the record lock

    # -- compaction ----------------------------------------------------------

    def compact(self) -> None:
        """Have the directory fold the journal into ``status.json``
        (:meth:`CampaignDirectory.fold_journal`).  Call it after
        :meth:`detach`: an attached writer would keep appending to the
        deleted file.

        Compaction holds the writer slot :meth:`attach` takes, so no
        writer can attach between the fold and the delete.  If another
        writer already holds the slot (a re-submission that attached
        after this one detached), the journal is left to that writer,
        whose own compaction folds it.
        """
        if self._journal is not None:
            raise RuntimeError("detach the checkpoint before compacting its journal")
        if self._claim(f"compaction@{id(self):#x}") is not None:
            return
        try:
            self.directory.fold_journal()
        finally:
            self._release()

    # -- bus wiring ----------------------------------------------------------

    def attach(self, bus, owner: str | None = None) -> None:
        """Subscribe to ``bus`` and journal every task transition.

        An emitted ``task`` begin journals RUNNING, an end the mapped
        outcome; a published attempt block journals the mapped outcome
        of each attempt end (see the module docstring).  Events about
        tasks that are not runs of this campaign (names outside the
        manifest) are ignored, so a shared bus is safe.

        One live writer per campaign directory, across processes:
        attaching while another writer holds the journal's slot raises
        ``RuntimeError`` naming the current holder.  ``owner`` labels
        this writer (e.g. a submission id) for that error message.

        The journal is opened here and stays open until :meth:`detach`;
        a torn final line left by a driver killed mid-write is cut off
        first, so the next line starts on a line of its own.
        """
        if self._unsubscribe is not None:
            raise RuntimeError("checkpoint already attached to a bus")
        holder = self._claim(owner or f"checkpoint@{id(self):#x}")
        if holder is not None:
            raise RuntimeError(
                f"campaign directory {self.directory.root} already has a "
                f"live checkpoint writer ({holder}); a campaign must "
                "finish (or be cancelled) before it is re-submitted "
                "against the same directory"
            )
        try:
            self._journal = self.directory.open_journal()
        except BaseException:
            self._release()
            raise
        record, known = self.record, self._known

        def observe(event) -> None:
            if event.name != TASK:
                return
            run_id = event.fields.get("task")
            if run_id not in known:
                return
            if event.phase == BEGIN:
                status = RunStatus.RUNNING
            elif event.phase == END:
                status = _OUTCOME_TO_STATUS.get(event.fields.get("outcome"))
                if status is None:
                    return
            else:
                return
            record(run_id, status, time=event.time)
            self._journal.flush()

        def observe_block(block) -> None:
            # A spec item is an instant, which the journal does not read.
            for item, phase in zip(block.items, block.phases()):
                if phase is not END:
                    continue
                run_id = item.task.name
                if run_id in known:
                    status = _OUTCOME_TO_STATUS.get(item.outcome._value_)
                    if status is not None:
                        record(run_id, status, float(item.end))
            self._journal.flush()

        observe.on_batch = observe_block  # EventBus.publish_batch's hook
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
                self._release()
