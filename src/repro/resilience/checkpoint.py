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
closed by :meth:`~CampaignCheckpoint.detach`.  A RUNNING line is written
only for an attempt in flight when the line is written: a real drive
``emit``-s each transition, RUNNING at launch and the mapped outcome at
the end, each line reaching the OS when its ``emit`` returns.  A
simulated allocation arrives finished, as one
:class:`~repro.observability.events.AttemptBlock` through
``publish_batch``; the journal reads its attempts directly, one
:meth:`~CampaignCheckpoint.record` per attempt end in stream order and
one flush for the block, with no event built.  A driver killed during
that flush loses only the outcomes whose lines had not reached the OS:
those runs keep the status they had before the allocation.  A driver
killed mid-write leaves a torn final line, which the next ``attach``
cuts back to the last newline before appending (a final line that lost
only its newline is kept and terminated).  Lines are not fsynced: they
survive the death of the driver process, not of the machine, while
every ``status.json`` write is fsynced.

Each line is ``json.dumps({"run": ..., "status": ..., "time": ...})``
byte for byte, built by :func:`_journal_line` without the encoder for a
finite float time.  Reading folds the journal in one streaming pass
with one reused decoder (:func:`_journal_entries`).

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
:meth:`CampaignCheckpoint.compact` holds the same slot while it folds
and deletes the journal, and leaves alone a journal another writer
holds: that writer's own compaction folds it.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import ExitStack
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path

from repro._util import path_lock
from repro.cheetah.directory import CampaignDirectory, RunStatus
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


#: Each status value -> its ``RunStatus``.
_STATUS = {s.value: s for s in RunStatus}


def _check_values(values) -> None:
    """Raise ``ValueError``, as ``RunStatus(value)`` does, at the first
    of ``values`` outside the status vocabulary."""
    try:
        if _STATUS.keys() >= set(values):
            return
    except TypeError:  # an unhashable value: let RunStatus name it
        pass
    for value in values:
        RunStatus(value)


def _journal_line(run_id: str, status: str, time) -> str:
    """``json.dumps({"run": run_id, "status": status, "time": time}) + "\\n"``.

    A finite ``float`` time, the case every bus event carries, is spelled
    the way ``json`` spells it (its ``repr``) without the call into the
    encoder; ``None``, other types (float subclasses included) and
    non-finite floats go through ``json.dumps`` itself.
    """
    if type(time) is float and isfinite(time):
        return (
            f'{{"run": {encode_basestring_ascii(run_id)}, "status": "{status}", '
            f'"time": {time!r}}}\n'
        )
    return json.dumps({"run": run_id, "status": status, "time": time}) + "\n"


#: The one decoder every journal read goes through; its C scanner
#: parses a whole line in one call.
_DECODER = json.JSONDecoder()


def _journal_entries(path: Path):
    """Yield the journal's parsed lines in append order, decoding each
    as it is read: neither the file's text nor a list of its entries is
    ever held whole.

    A driver killed hard (SIGKILL, OOM) can die *mid-write*, leaving the
    final line truncated; that line is dropped rather than poisoning
    resume, and every complete line before it is still trusted.  A
    malformed line anywhere *else* is a real corruption and raises.
    Blank lines are skipped.
    """
    scan, decode = _DECODER.scan_once, _DECODER.decode
    try:
        fh = path.open()
    except FileNotFoundError:  # never written, or compacted away
        return
    torn = None  # a malformed line's error: raised if another line follows
    with fh:
        for line in fh:
            try:
                entry, end = scan(line, 0)
                whole = line[end:] == "\n"  # one value, then the newline
            except (StopIteration, ValueError):
                whole = False
            if not whole:  # blank, padded, unterminated or malformed
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = decode(line)
                except ValueError as exc:
                    if torn is not None:
                        raise torn
                    torn = exc
                    continue
            if torn is not None:
                raise torn
            yield entry


def _cut_torn_tail(path: Path) -> None:
    """End ``path`` with a newline before appending (no-op if it does).

    A driver killed mid-write leaves a final line without its newline;
    appending to it would glue the next line onto the fragment and turn
    a droppable torn tail into an interior line that does not parse.  A
    fragment is cut back to the last newline.  A final line that parses,
    one that lost only its newline (a batch reaches the OS in
    buffer-sized chunks, which can end anywhere), is kept and
    terminated: readers already trust it.
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
            text = fh.read()
            start = text.rfind(b"\n") + 1
            try:
                _DECODER.decode(text[start:].decode().strip())
            except ValueError:
                fh.truncate(start)
            else:
                fh.write(b"\n")


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

    #: Process-wide registry of held writer slots (one writer per campaign
    #: directory): journal path -> (holder label, lock descriptor or None).
    _ATTACHED: dict = {}
    _ATTACHED_LOCK = threading.Lock()

    def __init__(self, directory: CampaignDirectory):
        self.directory = directory
        self._journal_path = (
            directory.root / CampaignDirectory.METADATA_DIR / self.JOURNAL_NAME
        )
        self._known = directory.run_ids
        self._unsubscribe = None
        self._journal = None  # the journal file, open while attached
        self._batching = False  # a publish_batch delivery is being journaled

    # -- journal -------------------------------------------------------------

    def record(self, run_id: str, status: RunStatus, time: float | None = None) -> None:
        """Append one status transition to the journal (O(1)).

        While attached, the line goes through the journal opened by
        :meth:`attach` and is flushed before this returns, except during
        a ``publish_batch`` delivery, which flushes once at its end.
        Otherwise the journal is opened and closed for this one line.
        """
        if run_id not in self._known:
            raise KeyError(f"unknown run_id {run_id!r}")
        # ``_value_`` is the member's value without the ``value``
        # property's descriptor call: one less per transition.
        line = _journal_line(run_id, status._value_, time)
        if self._journal is not None:
            self._journal.write(line)
            if not self._batching:
                self._journal.flush()
            return
        with self._journal_path.open("a") as fh:
            fh.write(line)

    def journal_entries(self) -> list[dict]:
        """Parsed journal lines, in append order (empty if no journal).

        A torn final line is dropped; a malformed interior line raises
        (see :func:`_journal_entries`).
        """
        return list(_journal_entries(self._journal_path))

    def _journaled(self) -> dict:
        """``{run_id: status value}`` from the journal, later lines winning."""
        return {entry["run"]: entry["status"] for entry in _journal_entries(self._journal_path)}

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
        return {run_id: _STATUS[value] for run_id, value in self._status_values().items()}

    def _status_values(self) -> dict:
        """:meth:`effective_status` as ``{run_id: status value}``, the
        strings ``status.json`` and the journal hold.

        A value outside the status vocabulary raises ``ValueError``, as
        ``RunStatus(value)`` does: the base record's values first, then
        the journal's."""
        with ExitStack() as stack:
            try:
                stack.enter_context(path_lock(self.directory._status_path()))
            except OSError:  # no write access to .cheetah/
                pass
            status = json.loads(self.directory._status_path().read_text())
            journaled = self._journaled()
        _check_values(status.values())
        _check_values(journaled.values())
        status.update(journaled)
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
        """Fold the journal into ``status.json`` and delete it.

        A run interrupted while RUNNING compacts to PENDING — an
        in-flight attempt whose outcome was never journaled must be
        re-queued, not trusted.  The journal's status strings go to the
        status write as they are.  Call it after :meth:`detach`: an
        attached writer would keep appending to the deleted file.

        Compaction holds the writer slot :meth:`attach` takes, so no
        writer can attach between the fold and the delete.  If another
        writer already holds the slot (a re-submission that attached
        after this one detached), the journal is left to that writer,
        whose own compaction folds it.  It also holds the ``status.json``
        lock from the journal read to the delete, which keeps
        :meth:`effective_status` readers out of that window.
        """
        if self._journal is not None:
            raise RuntimeError("detach the checkpoint before compacting its journal")
        if self._claim(f"compaction@{id(self):#x}") is not None:
            return
        try:
            with path_lock(self.directory._status_path()):
                journaled = self._journaled()
                if journaled:
                    self.directory.update_status(  # re-enters the lock
                        {
                            run_id: "pending" if value == "running" else value
                            for run_id, value in journaled.items()
                        }
                    )
                self._journal_path.unlink(missing_ok=True)
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
            _cut_torn_tail(self._journal_path)
            self._journal = self._journal_path.open("a")
        except BaseException:
            self._release()
            raise

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

        def observe_block(block) -> None:
            # A spec item is an instant, which the journal does not read.
            record, known = self.record, self._known
            self._batching = True
            try:
                for item, phase in zip(block.items, block.phases()):
                    if phase is not END:
                        continue
                    run_id = item.task.name
                    if run_id in known:
                        status = _OUTCOME_TO_STATUS.get(item.outcome._value_)
                        if status is not None:
                            record(run_id, status, float(item.end))
            finally:
                self._batching = False
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
