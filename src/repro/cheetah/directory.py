"""The campaign directory schema — Cheetah's on-disk end point.

"The composition engine further adopts its own directory schema to
represent a campaign end-point.  The directory hierarchy represents
simulation runs, and campaign metadata is hidden from the user" (§IV).

Layout::

    <root>/<campaign>/
      .cheetah/manifest.json        # hidden campaign metadata
      .cheetah/status.json          # per-run status (the resume record)
      .cheetah/journal.jsonl        # transitions not yet compacted into it
      .cheetah/report.json          # trace analytics (drive report=True)
      <group>/run-NNNN/params.json  # the run's parameters (exported view)
      <group>/run-NNNN/result.json  # the run's outcome (exported view)

:meth:`CampaignDirectory.create` writes only the two ``.cheetah/``
records a drive needs, ``manifest.json`` and ``status.json``, so a fresh
end point costs the same for ten runs or a million.  A run's directory
appears when something writes into it: :meth:`~CampaignDirectory.write_run_result`,
or ``python -m repro.store export``, which writes every run's
``params.json`` (regenerated from ``manifest.json``) beside the
``result.json`` files.  The per-run hierarchy of §IV is that exported
view.

Status is the machine-actionable face of "users may simply re-submit a
partially completed SweepGroup ... to continue execution" (§V-D).  The
status queries (:meth:`CampaignDirectory.pending_runs`, ``runs_where``,
``summary``) read ``status.json`` overlaid with the journal, as resume
does; :meth:`CampaignDirectory.read_status` is the compacted record alone.

**Durability.** Every ``.cheetah/`` metadata file and per-run record is
written atomically (temp file + fsync + ``os.replace`` — see
:func:`repro._util.atomic_write_text`), so a driver killed mid-write can
never leave torn JSON behind, and the read-modify-write cycles on
``status.json`` are serialized per directory (:func:`repro._util.path_lock`)
so concurrent campaign-service submissions cannot drop each other's
status transitions.  When a campaign-result store
(:mod:`repro.store`) has been materialized at ``.cheetah/store.sqlite``,
status updates and reports are mirrored into it and
:meth:`CampaignDirectory.read_run_result` reads outcomes from it, not
from the ``result.json`` exports — the store is the durable record at
scale.

**Format.** The ``.cheetah/`` records — ``manifest.json``,
``status.json``, ``report.json`` and ``lint.json`` — are compact JSON
(no indent; sorted keys where the writer sorts them), because machines
read them: resume, the lint gate and the store.  An ``indent`` would
send every write through ``json``'s pure-Python encoder.  Indented
records written by older versions still load, re-create, resume and
merge, since every reader parses the document rather than comparing
text.  The human-readable per-run views come from
``python -m repro.store export``.  A lint cache built on such an older
end point misses once: its digest covers the manifest text, which
:meth:`CampaignDirectory.create` rewrites compact.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

from repro._util import atomic_write_text, loads_tagged, path_lock, tagged_default
from repro.cheetah.manifest import CampaignManifest, manifest_from_json, manifest_to_json


class RunStatus(enum.Enum):
    """Lifecycle of a run within a campaign directory."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: Each status, and each status's value, -> the value ``status.json`` holds.
_STATUS_VALUE = {s: s.value for s in RunStatus} | {s.value: s.value for s in RunStatus}


class CampaignDirectory:
    """Create/read the campaign end-point directory for a manifest."""

    METADATA_DIR = ".cheetah"

    def __init__(self, root: Path, manifest: CampaignManifest):
        self.root = Path(root) / manifest.campaign
        self.manifest = manifest
        self._run_ids: frozenset | None = None

    # -- creation ------------------------------------------------------------

    def create(self) -> Path:
        """Materialize the end point's metadata; idempotent for same manifest.

        Writes ``.cheetah/manifest.json`` and, the first time,
        ``.cheetah/status.json`` with every run PENDING.  No per-run
        directory is made here: see the module docstring.
        """
        meta = self.root / self.METADATA_DIR
        meta.mkdir(parents=True, exist_ok=True)
        manifest_path = meta / "manifest.json"
        text = manifest_to_json(self.manifest)
        if manifest_path.exists():
            held = manifest_path.read_text()
            # The documents, not their spelling: an end point written
            # indented by an older version holds the same manifest.
            if held != text and json.dumps(json.loads(held), sort_keys=True) != text:
                raise RuntimeError(
                    f"campaign directory {self.root} already holds a different manifest"
                )
        atomic_write_text(manifest_path, text)
        status_path = meta / "status.json"
        with path_lock(status_path):
            if not status_path.exists():
                run_ids = (run.run_id for run in self.manifest.runs)
                self._write_status(dict.fromkeys(run_ids, RunStatus.PENDING.value))
        return self.root

    @classmethod
    def open(cls, campaign_root: Path) -> "CampaignDirectory":
        """Open an existing campaign end point from its root directory."""
        campaign_root = Path(campaign_root)
        manifest_path = campaign_root / cls.METADATA_DIR / "manifest.json"
        manifest = manifest_from_json(manifest_path.read_text())
        obj = cls.__new__(cls)
        obj.root = campaign_root
        obj.manifest = manifest
        obj._run_ids = None
        return obj

    # -- status --------------------------------------------------------------

    def _status_path(self) -> Path:
        return self.root / self.METADATA_DIR / "status.json"

    def _write_status(self, status: dict) -> None:
        atomic_write_text(self._status_path(), json.dumps(status, sort_keys=True))

    def read_status(self) -> dict:
        """``{run_id: RunStatus}`` for every run, as compacted into
        ``status.json`` (journal entries not yet folded in are not seen)."""
        raw = json.loads(self._status_path().read_text())
        return {run_id: RunStatus(value) for run_id, value in raw.items()}

    def _effective_status(self) -> dict:
        """Statuses as resume reads them: ``status.json`` overlaid with
        the write-ahead journal (see
        :meth:`~repro.resilience.checkpoint.CampaignCheckpoint.effective_status`)."""
        # Deferred: the checkpoint module imports this one.
        from repro.resilience.checkpoint import CampaignCheckpoint

        return CampaignCheckpoint(self).effective_status()

    def set_status(self, run_id: str, status: RunStatus) -> None:
        """Record one run's status (read-modify-write, locked per directory)."""
        self.update_status({run_id: status})

    def update_status(self, updates: dict) -> None:
        """Batch status update ``{run_id: RunStatus}``.

        A status may also be given as its value (``"done"``), as the
        journal holds it, so compaction writes the journal's strings
        without an enum round trip; anything outside the status
        vocabulary raises ``ValueError``, as ``RunStatus(value)`` does.
        The read-modify-write cycle runs under the per-directory lock
        (:func:`repro._util.path_lock`), so two concurrent submissions
        sharing a campaign directory serialize instead of silently
        dropping each other's transitions; the final write is atomic.
        When the campaign's result store has been materialized, the
        statuses are mirrored into it as well.
        """
        with path_lock(self._status_path()):
            current = json.loads(self._status_path().read_text())
            for run_id, status in updates.items():
                if run_id not in current:
                    raise KeyError(f"unknown run_id {run_id!r}")
                value = _STATUS_VALUE.get(status)
                if value is None:
                    raise ValueError(f"{status!r} is not a valid RunStatus")
                current[run_id] = value
            self._write_status(current)
        self._mirror_status(updates)

    def pending_runs(self, group: str | None = None) -> tuple:
        """RunSpecs not yet DONE (FAILED counts as pending for resubmission)."""
        status = self._effective_status()
        out = []
        for run in self.manifest.runs:
            if group is not None and run.group != group:
                continue
            if status[run.run_id] is not RunStatus.DONE:
                out.append(run)
        return tuple(out)

    def runs_where(self, status: RunStatus | None = None, **param_filters) -> tuple:
        """Query runs by status and/or exact parameter values (§IV: "an API
        to submit a campaign and query its status").

        Example: ``directory.runs_where(status=RunStatus.FAILED, feature=7)``.
        """
        statuses = self._effective_status()
        out = []
        for run in self.manifest.runs:
            if status is not None and statuses[run.run_id] is not status:
                continue
            if any(
                key not in run.parameters or run.parameters[key] != value
                for key, value in param_filters.items()
            ):
                continue
            out.append(run)
        return tuple(out)

    def summary(self) -> dict:
        """Counts by status — the campaign query API of §IV."""
        counts: dict[str, int] = {s.value: 0 for s in RunStatus}
        for status in self._effective_status().values():
            counts[status.value] += 1
        return counts

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    @property
    def run_ids(self) -> frozenset:
        """The manifest's run ids, cached (membership checks are O(1)
        even for very large campaigns)."""
        if self._run_ids is None:
            self._run_ids = frozenset(run.run_id for run in self.manifest.runs)
        return self._run_ids

    # -- real-run outcomes ---------------------------------------------------

    def write_run_result(self, run_id: str, payload: dict) -> Path:
        """Persist one really-executed run's outcome as ``<run>/result.json``.

        ``payload`` is the run's outcome record (status, value, error +
        traceback, elapsed, seed, attempts — whatever the real executor
        reports).  The run's directory is created if it does not exist
        yet.  The write is atomic, and values outside plain JSON
        are encoded losslessly with the tagged form (numpy, complex,
        bytes, set, Path, datetime); a value that cannot round-trip
        raises :class:`repro._util.UnserializableValueError` instead of
        corrupting the record.

        This is the *human-inspection export*: the drive records
        outcomes into the campaign store (:meth:`record_results` /
        :mod:`repro.store`), and ``python -m repro.store export`` writes
        these JSON files from it on request.
        """
        if run_id not in self.run_ids:
            raise KeyError(f"unknown run_id {run_id!r}")
        path = self.run_dir(run_id) / "result.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path,
            json.dumps(payload, indent=2, sort_keys=True, default=tagged_default) + "\n",
        )
        return path

    def read_run_result(self, run_id: str) -> dict | None:
        """The persisted outcome of one run (``None`` if never recorded).

        Reads the campaign store at ``.cheetah/store.sqlite`` when the
        directory has one: the store is the record every drive writes,
        and a ``result.json`` is only an export of it, which a later
        drive does not rewrite.  A directory without a store answers
        from the run's ``result.json`` (tagged values decode back to
        their original types).
        """
        if self.store_path().exists():
            with self.open_store() as store:
                return store.read_run_result(self.manifest.campaign, run_id)
        path = self.run_dir(run_id) / "result.json"
        if path.exists():
            return loads_tagged(path.read_text())
        return None

    # -- result store --------------------------------------------------------

    def store_path(self) -> Path:
        """Where this campaign's SQL-backed result store lives."""
        return self.root / self.METADATA_DIR / "store.sqlite"

    def open_store(self):
        """Open (creating on first use) the campaign's result store.

        Returns a :class:`repro.store.CampaignStore` bound to
        ``.cheetah/store.sqlite`` with this campaign's manifest already
        ingested.  A store that did not yet hold the campaign starts it
        from ``status.json``, so runs that finished before the store
        existed (or while it was empty) are not mirrored as pending.
        Use as a context manager; the store flushes its write-behind
        buffer and closes on exit.
        """
        from repro.store import CampaignStore  # lazy: repro.store imports us

        store = CampaignStore(self.store_path())
        registered = self.manifest.campaign in store.campaigns()
        store.ensure_campaign(self.manifest)
        if not registered:
            recorded = {
                run_id: status
                for run_id, status in self.read_status().items()
                if status is not RunStatus.PENDING
            }
            if recorded:
                store.set_statuses(self.manifest.campaign, recorded)
        return store

    def record_results(self, results: dict) -> None:
        """Record really-executed run outcomes into the campaign store.

        ``results`` maps ``run_id`` to an outcome record (a
        :class:`~repro.savanna.realexec.LocalRunResult` or its dict
        form).  Outcomes land in ``.cheetah/store.sqlite`` via chunked
        bulk ingestion; ``python -m repro.store export`` writes them out
        as per-run ``result.json`` files for human inspection.
        Interrupted runs are never recorded — they are pending, not
        outcomes.
        """
        with self.open_store() as store:
            store.record_run_results(self.manifest.campaign, results)

    def _mirror_status(self, updates: dict) -> None:
        """Mirror status transitions into the store, when one exists."""
        if not self.store_path().exists():
            return
        with self.open_store() as store:
            store.set_statuses(self.manifest.campaign, updates)

    # -- performance reports -------------------------------------------------

    def _report_path(self) -> Path:
        return self.root / self.METADATA_DIR / "report.json"

    def write_report(self, reports: list) -> Path:
        """Merge campaign reports into ``.cheetah/report.json``.

        ``reports`` is a list of report dicts (or objects with
        ``to_dict()``, e.g. ``CampaignReport``) in the
        ``repro.observability.report/v1`` file format.  Reports are keyed
        by ``(campaign, group)`` — re-running a group replaces its entry,
        so the file always reflects the latest execution of each group.
        Returns the report path.
        """
        incoming = [_report_dict(r) for r in reports]
        path = self._report_path()
        with path_lock(path):
            existing: list = []
            schema = "repro.observability.report/v1"
            if path.exists():
                data = json.loads(path.read_text())
                existing = data.get("reports", [])
                schema = data.get("schema", schema)
            key = lambda r: (r.get("campaign"), r.get("group"))
            replaced = {key(r) for r in incoming}
            merged = [r for r in existing if key(r) not in replaced] + incoming
            atomic_write_text(
                path, json.dumps({"schema": schema, "reports": merged}) + "\n"
            )
        if self.store_path().exists():
            with self.open_store() as store:
                store.record_reports(self.manifest.campaign, incoming)
        return path

    def read_report(self) -> list:
        """Report dicts from ``.cheetah/report.json`` (empty if never written)."""
        path = self._report_path()
        if not path.exists():
            return []
        return json.loads(path.read_text()).get("reports", [])

    def _lint_path(self) -> Path:
        return self.root / self.METADATA_DIR / "lint.json"

    def write_lint_report(self, report) -> Path:
        """Persist a lint verdict into ``.cheetah/lint.json``.

        ``report`` is a :class:`repro.lint.LintReport` (or its
        ``to_dict()`` form).  The drive writes the merged manifest +
        ``app_fn`` report here on every gated execution, so the campaign
        end point carries the analysis that admitted it — provenance for
        the lint gate, next to the run results it vouched for.
        """
        payload = report if isinstance(report, dict) else report.to_dict()
        path = self._lint_path()
        atomic_write_text(
            path,
            json.dumps(
                {
                    "schema": "repro.lint.report/v1",
                    "campaign": self.manifest.campaign,
                    "report": payload,
                },
                sort_keys=True,
            )
            + "\n"
        )
        return path

    def read_lint_report(self):
        """The persisted lint verdict as a :class:`repro.lint.LintReport`,
        or ``None`` if the campaign was never linted (or ``lint=False``)."""
        path = self._lint_path()
        if not path.exists():
            return None
        # Imported lazily: repro.lint imports this module at load time.
        from repro.lint.findings import LintReport

        data = json.loads(path.read_text())
        return LintReport.from_dict(data.get("report", {}))


def _report_dict(report) -> dict:
    """``report`` as the dict ``report.json`` and the store hold.

    A dataclass report (``CampaignReport``) is read field by field, in
    place: its ``to_dict()`` would deep-copy the whole report through
    ``dataclasses.asdict`` only for the copy to be serialized.
    """
    if isinstance(report, dict):
        return report
    if is_dataclass(report):
        return {f.name: getattr(report, f.name) for f in fields(report)}
    return report.to_dict()


def resolve_campaign_dir(
    root, manifest: CampaignManifest | None = None, create: bool = False
) -> CampaignDirectory:
    """Resolve ``root`` to a :class:`CampaignDirectory` — the single
    resolution rule shared by ``savanna.drive``, the experiment harness,
    and the ``repro.lint`` CLI (so resume and pre-run lint always look at
    the same end point).

    ``root`` may be either

    - a campaign end point itself (a directory holding
      ``.cheetah/manifest.json``), or
    - a parent directory, with ``manifest`` naming the child end point
      (``root/<manifest.campaign>``), which is opened if present and
      created when ``create=True``.

    Raises ``FileNotFoundError`` when nothing resolves, and ``ValueError``
    when an existing end point belongs to a different campaign than the
    ``manifest`` passed in.
    """
    root = Path(root)

    def _open_checked(path: Path) -> CampaignDirectory:
        directory = CampaignDirectory.open(path)
        if manifest is not None and directory.manifest.campaign != manifest.campaign:
            raise ValueError(
                f"campaign directory {path} holds campaign "
                f"{directory.manifest.campaign!r}, expected {manifest.campaign!r}"
            )
        return directory

    if (root / CampaignDirectory.METADATA_DIR / "manifest.json").is_file():
        return _open_checked(root)
    if manifest is None:
        raise FileNotFoundError(
            f"{root} is not a campaign directory (no "
            f"{CampaignDirectory.METADATA_DIR}/manifest.json) and no manifest "
            "was given to locate one beneath it"
        )
    child = root / manifest.campaign
    if (child / CampaignDirectory.METADATA_DIR / "manifest.json").is_file():
        return _open_checked(child)
    if not create:
        raise FileNotFoundError(
            f"no campaign directory at {root} or {child} "
            "(pass create=True to materialize one)"
        )
    directory = CampaignDirectory(root, manifest)
    directory.create()
    return directory
