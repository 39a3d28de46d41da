"""repro.store — the durable, SQL-backed campaign/result store.

The paper's §II-C argues the product of a codesign campaign is a
*machine-queriable catalog*.  This package is that catalog made durable
at scale: a batched, sqlite-backed store for campaigns, sweep groups,
runs, parameters, and metrics, with chunked write-behind bulk ingestion,
catalog queries pushed down to SQL, migration from file-based campaign
directories, and an opt-in per-run JSON export for human inspection.

- :mod:`repro.store.schema`  — the relational schema and its indexes.
- :mod:`repro.store.store`   — :class:`CampaignStore`: ingestion,
  status, outcomes, reports.
- :mod:`repro.store.catalog` — :class:`StoreCatalog`: the §II-C query
  face (``best`` / ``rank`` / Pareto / impact) evaluated in SQL.
- :mod:`repro.store.migrate` — campaign-directory ingestion and export.

CLI: ``python -m repro.store migrate|query|status|export|info``.
"""

from repro.store.catalog import StoreCatalog
from repro.store.migrate import export_directory, ingest_directory
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import CampaignStore, StoreError, metrics_from_value

__all__ = [
    "CampaignStore",
    "StoreCatalog",
    "StoreError",
    "SCHEMA_VERSION",
    "ingest_directory",
    "export_directory",
    "metrics_from_value",
]
