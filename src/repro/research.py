"""Reusable research objects — the Exportability tier's end product.

"Not all provenance that is useful to the original author is appropriate
to include in a distributable, reusable research object.  However, some
provenance is crucial when reusing workflow components in a new context"
(§III).  :func:`export_research_object` assembles exactly that
distributable bundle: the campaign manifest, per-run parameters and
status, the export-policy-filtered and sanitized provenance, the metric
catalog, and a generated OBJECT.md index — everything a stranger needs to
re-run or extend the study, nothing the policy says must stay home.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cheetah.catalog import CampaignCatalog
from repro.cheetah.directory import CampaignDirectory
from repro.cheetah.manifest import manifest_to_json
from repro.metadata.provenance import ExportPolicy, ProvenanceStore

OBJECT_FORMAT_VERSION = "1.0"


def export_research_object(
    dest: Path,
    directory: CampaignDirectory,
    store: ProvenanceStore | None = None,
    catalog: CampaignCatalog | None = None,
    policy: ExportPolicy | None = None,
) -> Path:
    """Write a self-contained, shareable research object under ``dest``.

    Layout::

        <dest>/
          OBJECT.md            human index (what this is, what's inside)
          manifest.json        the abstract campaign (re-runnable)
          status.json          per-run outcome record, as resume sees it
          provenance.json      exported + sanitized records only
          catalog.json         metrics catalog (if provided)

    The provenance file contains **only** records the export policy
    admits, each sanitized (redacted environment keys removed) — the
    Exportability gauge as a concrete artifact rather than a score.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    policy = policy or ExportPolicy()
    manifest = directory.manifest

    (dest / "manifest.json").write_text(manifest_to_json(manifest))
    # The status resume trusts: the compacted record overlaid with the journal.
    status = {run_id: s.value for run_id, s in directory.effective_status().items()}
    (dest / "status.json").write_text(json.dumps(status, indent=2, sort_keys=True))

    exported_count = 0
    withheld_count = 0
    if store is not None:
        exported = store.export(policy)
        exported_count = len(exported)
        withheld_count = len(store) - exported_count
        (dest / "provenance.json").write_text(
            json.dumps([r.to_dict() for r in exported], indent=2, sort_keys=True)
        )

    if catalog is not None:
        (dest / "catalog.json").write_text(catalog.to_json())

    done = sum(1 for s in status.values() if s == "done")
    lines = [
        f"# Research object: {manifest.campaign}",
        "",
        f"- format: fairflow research object v{OBJECT_FORMAT_VERSION}",
        f"- application: {manifest.app}",
        f"- objective: {manifest.objective or '(unspecified)'}",
        f"- runs: {len(manifest.runs)} ({done} done)",
        f"- sweep groups: {', '.join(g['name'] for g in manifest.groups) or '(none)'}",
        "",
        "## Contents",
        "",
        "| file | what it is |",
        "|---|---|",
        "| manifest.json | the abstract campaign — feed it to any executor backend |",
        "| status.json | per-run outcomes (pending runs are the resume set) |",
    ]
    if store is not None:
        lines.append(
            f"| provenance.json | {exported_count} exported records "
            f"({withheld_count} withheld by the export policy) |"
        )
    if catalog is not None:
        lines.append(f"| catalog.json | metrics for {len(catalog)} runs |")
    lines += [
        "",
        "## Reuse",
        "",
        "```python",
        "from repro.cheetah.manifest import manifest_from_json",
        'manifest = manifest_from_json(open("manifest.json").read())',
        "# any executor that reads this manifest can re-run or extend the study",
        "```",
    ]
    (dest / "OBJECT.md").write_text("\n".join(lines) + "\n")
    return dest


def load_research_object(path: Path) -> dict:
    """Read a research object back: manifest, status, provenance, catalog."""
    from repro.cheetah.manifest import manifest_from_json
    from repro.metadata.provenance import ProvenanceRecord

    path = Path(path)
    out: dict = {
        "manifest": manifest_from_json((path / "manifest.json").read_text()),
        "status": json.loads((path / "status.json").read_text()),
    }
    prov = path / "provenance.json"
    if prov.exists():
        out["provenance"] = [
            ProvenanceRecord.from_dict(d) for d in json.loads(prov.read_text())
        ]
    cat = path / "catalog.json"
    if cat.exists():
        out["catalog"] = CampaignCatalog.from_json(cat.read_text())
    return out
