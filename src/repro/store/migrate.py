"""Migration: existing campaign directories -> the campaign store.

A campaign that ran before the store existed left its state as files —
``.cheetah/manifest.json``, ``status.json`` (+ an uncompacted
``journal.jsonl`` if the driver died), ``.cheetah/report.json``, and one
``result.json`` per really-executed run.  :func:`ingest_directory`
folds all of it into the store so the §II-C catalog queries run over
SQL, and :func:`export_directory` goes the other way, materializing the
per-run JSON files — the §IV directory hierarchy — for human
inspection.

The migration trusts exactly what resume trusts: run statuses are the
base ``status.json`` *overlaid with the checkpoint journal* (later
lines win), read through
:meth:`repro.cheetah.directory.CampaignDirectory.effective_status` — so
migrating a crashed-mid-campaign directory lands the same pending set a
resumed driver would compute.
"""

from __future__ import annotations

from pathlib import Path

from repro._util import atomic_write_text, dumps_tagged, loads_tagged
from repro.cheetah.directory import CampaignDirectory, resolve_campaign_dir


def ingest_directory(store, root: str | Path) -> dict:
    """Ingest one campaign directory into ``store``.

    Returns a summary dict: ``campaign``, ``runs`` (registered),
    ``results`` (outcomes ingested from ``result.json`` files),
    ``statuses`` (rows recorded), ``reports`` (reports merged).
    """
    directory = resolve_campaign_dir(root)
    manifest = directory.manifest
    store.ensure_campaign(manifest)

    # Status: what resume would trust — base record + journal overlay.
    statuses = directory.effective_status()
    store.set_statuses(manifest.campaign, statuses)

    results = 0
    for run in manifest.runs:
        payload = _read_result_file(directory, run.run_id)
        if payload is None:
            continue
        store.add_result(
            manifest.campaign,
            run.run_id,
            status=payload.get("status", "done"),
            value=payload.get("value"),
            error=payload.get("error"),
            traceback=payload.get("traceback"),
            elapsed=payload.get("elapsed"),
            attempts=payload.get("attempts", 1),
            seed=payload.get("seed"),
        )
        results += 1
    store.flush()

    reports = directory.read_report()
    if reports:
        store.record_reports(manifest.campaign, reports)

    return {
        "campaign": manifest.campaign,
        "runs": len(manifest.runs),
        "results": results,
        "statuses": len(statuses),
        "reports": len(reports),
    }


def _read_result_file(directory: CampaignDirectory, run_id: str) -> dict | None:
    """One run's ``result.json`` payload — *files only*, so migration
    never reads back what a partially-ingested store already holds."""
    path = directory.run_dir(run_id) / "result.json"
    if not path.exists():
        return None
    return loads_tagged(path.read_text())


def export_directory(store, root: str | Path) -> int:
    """Materialize the per-run files of a campaign end point.

    Every run gets ``<group>/run-NNNN/params.json``, its parameters from
    ``manifest.json``, and each run with an outcome in ``store`` gets
    ``result.json`` beside it — the inverse of :func:`ingest_directory`'s
    result pass, as the opt-in human-inspection export.  ``store`` is
    ``None`` for an end point without one (a simulated drive's): only
    the ``params.json`` files are written.  Every file is written
    atomically (temp file, fsync, rename).  Returns the number of
    ``result.json`` files written.
    """
    directory = resolve_campaign_dir(root)
    campaign = directory.manifest.campaign
    written = 0
    for run in directory.manifest.runs:
        run_dir = directory.run_dir(run.run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            run_dir / "params.json",
            dumps_tagged(run.parameters, indent=2, sort_keys=True),
        )
        payload = None if store is None else store.read_run_result(campaign, run.run_id)
        if payload is None:
            continue
        directory.write_run_result(run.run_id, payload)
        written += 1
    return written
