"""The batched, SQL-backed campaign/result store.

Per-run ``result.json`` files and an in-memory catalog do not survive
millions of runs; this store does.  One :class:`CampaignStore` holds any
number of campaigns in one sqlite database and is the durable system of
record behind :class:`~repro.cheetah.directory.CampaignDirectory`, the
drive pipeline, and the §II-C catalog queries.

**Ingestion** is write-behind and chunked: :meth:`CampaignStore.add_result`
appends to an in-memory buffer and the store lands whole chunks with
``executemany`` inside one transaction (default 500 rows per chunk) —
the pattern of batched bulk loaders, not one-INSERT-per-run.  Every
query flushes the buffer first, so reads are always consistent with
writes.

**Queries** are pushed down to SQL: ``best``/``rank`` are one ``ORDER
BY`` scan over a metric, the Pareto front is a skyline over one scan
ordered by the objective columns, and per-parameter impact is a ``GROUP
BY`` over the parameters table — see :class:`repro.store.StoreCatalog`
for the catalog-compatible face, which builds records only for the runs
an answer returns.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from repro._util import UnserializableValueError, dumps_tagged, loads_tagged
from repro.cheetah.manifest import CampaignManifest, manifest_from_json, manifest_to_json
from repro.store.schema import create_schema, schema_version


def _connect(path: str) -> sqlite3.Connection:
    """Open the sqlite database at ``path`` (or ``":memory:"``).

    Tuned for the store's write pattern: WAL journal (concurrent readers
    during bulk ingestion), ``synchronous=NORMAL`` (fsync at WAL
    checkpoints: durable against process crash, fast for chunked
    batches), and foreign keys enforced.  ``check_same_thread`` is off
    because the store serializes access with its own lock; the campaign
    service runs drives on worker threads.
    """
    if "://" in path:
        raise ValueError(
            f"campaign store targets are sqlite paths or ':memory:', not URLs: {path!r}"
        )
    if path != ":memory:":
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path, check_same_thread=False)
    conn.execute("PRAGMA foreign_keys = ON")
    if path != ":memory:":
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
    return conn


def metrics_from_value(value) -> dict:
    """Extract catalog metrics from a run's returned value.

    A run whose ``app_fn`` returns a dict of numbers *is* reporting
    metrics (the codesign-campaign idiom — see
    ``examples/codesign_campaign.py``); every numeric, non-bool entry
    becomes a catalog metric.  Any other return shape contributes no
    metrics (the value itself is still stored and round-trips).
    """
    if not isinstance(value, dict):
        return {}
    out = {}
    for name, item in value.items():
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            continue
        out[str(name)] = float(item)
    return out


class StoreError(RuntimeError):
    """A campaign store operation failed (unknown campaign, bad input)."""


class CampaignStore:
    """Durable campaign/result store in one sqlite database.

    Parameters
    ----------
    path:
        The sqlite file (its parent directory is created), or
        ``":memory:"``.
    chunk_size:
        Write-behind buffer depth: results are bulk-inserted in chunks
        of this many rows inside one transaction.
    """

    def __init__(self, path: str | Path = ":memory:", chunk_size: int = 500):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self._lock = threading.RLock()
        self._conn = _connect(str(path))
        self._buffer: list[tuple] = []
        self._campaign_ids: dict[str, int] = {}
        create_schema(self._conn)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush the write-behind buffer and close the connection."""
        with self._lock:
            if self._conn is None:
                return
            self.flush()
            self._conn.close()
            self._conn = None

    @property
    def version(self) -> int:
        """The schema version of the opened database."""
        with self._lock:
            return schema_version(self._conn)

    # -- campaign registration -----------------------------------------------

    def ensure_campaign(self, manifest: CampaignManifest) -> int:
        """Idempotently register a manifest: campaign, groups, runs, parameters.

        Every run lands with status ``pending`` (``INSERT OR IGNORE`` —
        re-registering an already-ingested manifest touches nothing), in
        bulk chunks.  Returns the campaign's store id.
        """
        with self._lock:
            cid = self._campaign_id(manifest.campaign)
            if cid is None:
                cur = self._conn.execute(
                    "INSERT INTO campaigns (name, app, objective, manifest_json) "
                    "VALUES (?, ?, ?, ?)",
                    (manifest.campaign, manifest.app, manifest.objective,
                     manifest_to_json(manifest)),
                )
                cid = cur.lastrowid
                self._campaign_ids[manifest.campaign] = cid
            n_runs = self._conn.execute(
                "SELECT COUNT(*) FROM runs WHERE campaign_id = ?", (cid,)
            ).fetchone()[0]
            if n_runs >= len(manifest.runs):
                self._conn.commit()
                return cid
            self._conn.executemany(
                "INSERT OR IGNORE INTO sweep_groups (campaign_id, name, nodes, walltime) "
                "VALUES (?, ?, ?, ?)",
                [
                    (cid, g["name"], g.get("nodes"), g.get("walltime"))
                    for g in manifest.groups
                ],
            )
            groups = {
                name: gid
                for gid, name in self._conn.execute(
                    "SELECT id, name FROM sweep_groups WHERE campaign_id = ?", (cid,)
                )
            }
            runs = list(manifest.runs)
            for start in range(0, len(runs), self.chunk_size):
                chunk = runs[start : start + self.chunk_size]
                self._conn.executemany(
                    "INSERT OR IGNORE INTO runs (campaign_id, group_id, run_id) "
                    "VALUES (?, ?, ?)",
                    [(cid, groups.get(r.group), r.run_id) for r in chunk],
                )
                self._conn.executemany(
                    "INSERT OR IGNORE INTO parameters (run_key, name, value_json, value_num) "
                    "SELECT r.id, ?, ?, ? FROM runs r "
                    "WHERE r.campaign_id = ? AND r.run_id = ?",
                    [
                        (name, dumps_tagged(value, sort_keys=True),
                         self._numeric(value), cid, r.run_id)
                        for r in chunk
                        for name, value in r.parameters.items()
                    ],
                )
            self._conn.commit()
            return cid

    def manifest(self, campaign: str) -> CampaignManifest:
        """The manifest a campaign was registered with (round-trips)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT manifest_json FROM campaigns WHERE name = ?", (campaign,)
            ).fetchone()
        if row is None or not row[0]:
            raise StoreError(f"store holds no manifest for campaign {campaign!r}")
        return manifest_from_json(row[0])

    def campaigns(self) -> list[str]:
        """Names of every campaign in the store, sorted."""
        with self._lock:
            self.flush()
            rows = self._conn.execute("SELECT name FROM campaigns ORDER BY name")
            return [name for (name,) in rows]

    # -- write-behind ingestion ----------------------------------------------

    def add_result(
        self,
        campaign: str,
        run_id: str,
        *,
        parameters: dict | None = None,
        metrics: dict | None = None,
        status: str = "done",
        value=None,
        error: str | None = None,
        traceback: str | None = None,
        elapsed: float | None = None,
        attempts: int = 1,
        seed: int | None = None,
        group: str | None = None,
    ) -> None:
        """Buffer one run outcome; flushed in chunks of ``chunk_size``.

        ``metrics`` defaults to :func:`metrics_from_value` of ``value``.
        The run row is upserted, so results may arrive for runs the
        manifest pre-registered *or* for free-standing runs (``parameters``
        then supplies the sweep point).  Values are encoded with the
        lossless tagged codec — an unencodable value raises here, at the
        write, never corrupting the record.
        """
        cid = self._campaign_id_checked(campaign)
        value_json = None if value is None else dumps_tagged(value, sort_keys=True)
        metric_rows = metrics_from_value(value) if metrics is None else {
            str(k): float(v) for k, v in metrics.items()
        }
        param_rows = {} if parameters is None else {
            str(k): (dumps_tagged(v, sort_keys=True), self._numeric(v))
            for k, v in parameters.items()
        }
        with self._lock:
            self._buffer.append(
                (cid, run_id, group, status, value_json, error, traceback,
                 elapsed, attempts, seed, param_rows, metric_rows)
            )
            if len(self._buffer) >= self.chunk_size:
                self.flush()

    def record_run_results(self, campaign: str, results: dict) -> None:
        """Bulk-record really-executed outcomes ``{run_id: outcome}``.

        ``outcome`` is a :class:`~repro.savanna.realexec.LocalRunResult`
        or its dict form.  Interrupted runs are skipped — an interrupted
        attempt is pending work, not an outcome.  The batch is flushed
        before returning: after this call the outcomes are durable.
        """
        from dataclasses import asdict, is_dataclass

        def add(run_id: str, payload: dict) -> None:
            self.add_result(
                campaign,
                run_id,
                status=payload.get("status", "done"),
                value=payload.get("value"),
                error=payload.get("error"),
                traceback=payload.get("traceback"),
                elapsed=payload.get("elapsed"),
                attempts=payload.get("attempts", 1),
                seed=payload.get("seed"),
            )

        for run_id, outcome in results.items():
            # A dataclass's own field dict: read, never copied ...
            payload = vars(outcome) if is_dataclass(outcome) else outcome
            if payload.get("status") == "interrupted":
                continue
            try:
                add(run_id, payload)
            except UnserializableValueError:
                if not is_dataclass(outcome):
                    raise
                # ... unless its value holds a dataclass, which only
                # ``asdict`` turns into the dict that encodes.
                add(run_id, asdict(outcome))
        self.flush()

    def flush(self) -> None:
        """Land the write-behind buffer: one transaction per flush."""
        with self._lock:
            if not self._buffer:
                return
            buffered, self._buffer = self._buffer, []
            run_rows = [row[:10] for row in buffered]
            self._conn.executemany(
                "INSERT INTO runs (campaign_id, run_id, group_id, status, value_json,"
                " error, traceback, elapsed, attempts, seed) "
                "VALUES (?1, ?2, (SELECT g.id FROM sweep_groups g WHERE g.campaign_id = ?1"
                " AND g.name = ?3), ?4, ?5, ?6, ?7, ?8, ?9, ?10) "
                "ON CONFLICT (campaign_id, run_id) DO UPDATE SET "
                "status = excluded.status, value_json = excluded.value_json, "
                "error = excluded.error, traceback = excluded.traceback, "
                "elapsed = excluded.elapsed, attempts = excluded.attempts, "
                "seed = excluded.seed",
                run_rows,
            )
            param_rows = [
                (name, value_json, value_num, row[0], row[1])
                for row in buffered
                for name, (value_json, value_num) in row[10].items()
            ]
            if param_rows:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO parameters (run_key, name, value_json, value_num) "
                    "SELECT r.id, ?, ?, ? FROM runs r "
                    "WHERE r.campaign_id = ? AND r.run_id = ?",
                    param_rows,
                )
            metric_rows = [
                (name, value, row[0], row[1])
                for row in buffered
                for name, value in row[11].items()
            ]
            if metric_rows:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO metrics (run_key, name, value) "
                    "SELECT r.id, ?, ? FROM runs r "
                    "WHERE r.campaign_id = ? AND r.run_id = ?",
                    metric_rows,
                )
            self._conn.commit()

    # -- status --------------------------------------------------------------

    def set_statuses(self, campaign: str, updates: dict) -> None:
        """Record status transitions ``{run_id: RunStatus | str}`` in bulk."""
        cid = self._campaign_id_checked(campaign)
        rows = [
            (getattr(status, "value", status), cid, run_id)
            for run_id, status in updates.items()
        ]
        with self._lock:
            self.flush()
            self._conn.executemany(
                "UPDATE runs SET status = ? WHERE campaign_id = ? AND run_id = ?",
                rows,
            )
            self._conn.commit()

    def statuses(self, campaign: str) -> dict:
        """``{run_id: status string}`` for every run of a campaign."""
        cid = self._campaign_id_checked(campaign)
        with self._lock:
            self.flush()
            rows = self._conn.execute(
                "SELECT run_id, status FROM runs WHERE campaign_id = ? ORDER BY run_id",
                (cid,),
            )
            return dict(rows.fetchall())

    def summary(self, campaign: str) -> dict:
        """Counts by status — the campaign query API of §IV, in SQL."""
        cid = self._campaign_id_checked(campaign)
        with self._lock:
            self.flush()
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM runs WHERE campaign_id = ? GROUP BY status",
                (cid,),
            ).fetchall()
        counts = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for status, count in rows:
            counts[status] = counts.get(status, 0) + count
        return counts

    # -- reading outcomes ------------------------------------------------------

    def read_run_result(self, campaign: str, run_id: str) -> dict | None:
        """One run's recorded outcome, shaped like the ``result.json``
        export (``None`` when no outcome was ever recorded)."""
        cid = self._campaign_id_checked(campaign)
        with self._lock:
            self.flush()
            row = self._conn.execute(
                "SELECT status, value_json, error, traceback, elapsed, attempts, seed "
                "FROM runs WHERE campaign_id = ? AND run_id = ?",
                (cid, run_id),
            ).fetchone()
        if row is None or row[5] is None:  # attempts NULL <=> never executed
            return None
        status, value_json, error, traceback, elapsed, attempts, seed = row
        return {
            "run_id": run_id,
            "status": status,
            "value": None if value_json is None else loads_tagged(value_json),
            "error": error,
            "traceback": traceback,
            "elapsed": elapsed,
            "attempts": attempts,
            "seed": seed,
        }

    def run_count(self, campaign: str) -> int:
        """Number of runs registered for a campaign."""
        cid = self._campaign_id_checked(campaign)
        with self._lock:
            self.flush()
            return self._conn.execute(
                "SELECT COUNT(*) FROM runs WHERE campaign_id = ?", (cid,)
            ).fetchone()[0]

    # -- reports ---------------------------------------------------------------

    def record_reports(self, campaign: str, reports: list) -> None:
        """Merge trace-analytics reports, keyed by group (last write wins)."""
        cid = self._campaign_id_checked(campaign)
        rows = []
        for report in reports:
            payload = report if isinstance(report, dict) else report.to_dict()
            rows.append((cid, payload.get("group") or "", dumps_tagged(payload)))
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO reports (campaign_id, group_name, report_json) "
                "VALUES (?, ?, ?)",
                rows,
            )
            self._conn.commit()

    def reports(self, campaign: str) -> list:
        """Stored reports for a campaign, ordered by group name."""
        cid = self._campaign_id_checked(campaign)
        with self._lock:
            rows = self._conn.execute(
                "SELECT report_json FROM reports WHERE campaign_id = ? ORDER BY group_name",
                (cid,),
            ).fetchall()
        return [loads_tagged(text) for (text,) in rows]

    # -- catalog ---------------------------------------------------------------

    def catalog(self, campaign: str):
        """The SQL-pushdown catalog face for one campaign (§II-C)."""
        from repro.store.catalog import StoreCatalog

        return StoreCatalog(self, campaign)

    # -- internals -------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> list:
        """Run one read query against the store (flushes the buffer first)."""
        with self._lock:
            self.flush()
            return self._conn.execute(sql, params).fetchall()

    def campaign_id(self, campaign: str) -> int:
        """The store id of a campaign (raises :class:`StoreError` if absent)."""
        return self._campaign_id_checked(campaign)

    def _campaign_id_checked(self, campaign: str) -> int:
        cid = self._campaign_id(campaign)
        if cid is None:
            raise StoreError(
                f"campaign {campaign!r} is not in the store; "
                "register it first (ensure_campaign) or migrate its directory"
            )
        return cid

    def _campaign_id(self, campaign: str) -> int | None:
        with self._lock:
            cid = self._campaign_ids.get(campaign)
            if cid is not None:
                return cid
            row = self._conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (campaign,)
            ).fetchone()
            if row is not None:
                self._campaign_ids[campaign] = row[0]
                return row[0]
            return None

    @staticmethod
    def _numeric(value) -> float | None:
        """The numeric projection stored beside a parameter value."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)
