"""The campaign store's relational schema.

One normalized schema serves every §II-C catalog query:

- ``campaigns``     — one row per campaign (manifest kept for round-trip)
- ``sweep_groups``  — one row per SweepGroup (resource envelope)
- ``runs``          — one row per run: status + really-executed outcome
- ``parameters``    — tall table: (run, name, tagged JSON value, numeric
  projection) — the numeric column lets per-parameter impact aggregate
  entirely inside SQL
- ``metrics``       — tall table: (run, name, REAL value) — ``best`` /
  ``rank`` are ``ORDER BY`` scans over it, and the Pareto front is a
  skyline over one scan of it ordered by the objective values
- ``reports``       — merged trace-analytics reports keyed by group

The indexes exist for the catalog's access paths: rank scans
``metrics(name, value)``, resume scans ``runs(campaign_id, status)``,
impact groups ``parameters(name, value_json)``.
"""

from __future__ import annotations

SCHEMA_VERSION = 1

DDL = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS campaigns (
    id            INTEGER PRIMARY KEY,
    name          TEXT NOT NULL UNIQUE,
    app           TEXT NOT NULL DEFAULT '',
    objective     TEXT NOT NULL DEFAULT '',
    manifest_json TEXT
);

CREATE TABLE IF NOT EXISTS sweep_groups (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    nodes       INTEGER,
    walltime    REAL,
    UNIQUE (campaign_id, name)
);

CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    group_id    INTEGER REFERENCES sweep_groups(id) ON DELETE SET NULL,
    run_id      TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    value_json  TEXT,
    error       TEXT,
    traceback   TEXT,
    elapsed     REAL,
    attempts    INTEGER,
    seed        INTEGER,
    UNIQUE (campaign_id, run_id)
);

CREATE TABLE IF NOT EXISTS parameters (
    run_key    INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name       TEXT NOT NULL,
    value_json TEXT NOT NULL,
    value_num  REAL,
    PRIMARY KEY (run_key, name)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS metrics (
    run_key INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_key, name)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS reports (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    group_name  TEXT NOT NULL,
    report_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, group_name)
);

CREATE INDEX IF NOT EXISTS idx_runs_campaign_status
    ON runs(campaign_id, status);
CREATE INDEX IF NOT EXISTS idx_metrics_name_value
    ON metrics(name, value);
CREATE INDEX IF NOT EXISTS idx_parameters_name_value
    ON parameters(name, value_json);
"""


def create_schema(conn) -> None:
    """Create (idempotently) every table and index, and stamp the version."""
    conn.executescript(DDL)
    conn.execute(
        "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('schema_version', ?)",
        (str(SCHEMA_VERSION),),
    )
    conn.commit()


def schema_version(conn) -> int:
    """The schema version stamped into an opened store."""
    row = conn.execute(
        "SELECT value FROM store_meta WHERE key = 'schema_version'"
    ).fetchone()
    return int(row[0]) if row else 0
