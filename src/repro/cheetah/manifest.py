"""The campaign manifest — Cheetah↔Savanna interoperability layer.

"Cheetah and Savanna communicate via an interoperability layer designed
to represent an abstract manifest of the campaign.  This layer implements
a JSON schema to describe the full campaign" (§IV).  The manifest is the
boundary that lets other workflow tools be imported as executors: anything
that can read this JSON can run the campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro._util import check_positive

MANIFEST_SCHEMA_VERSION = "1.0"


@dataclass(frozen=True)
class RunSpec:
    """One experiment in the campaign: an id, its parameters, its resources."""

    run_id: str
    group: str
    parameters: dict
    nodes: int = 1

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        if not self.run_id:
            raise ValueError("run_id must be non-empty")


@dataclass(frozen=True)
class CampaignManifest:
    """Abstract, executor-independent description of a full campaign."""

    campaign: str
    app: str
    runs: tuple  # tuple[RunSpec, ...]
    executable: str = ""
    objective: str = ""
    groups: tuple = ()  # tuple[dict, ...] with name/nodes/walltime/runs
    schema_version: str = MANIFEST_SCHEMA_VERSION
    #: Free-form campaign metadata (e.g. ``{"lint": {"suppress": [...]}}``);
    #: round-trips through the JSON interop format.
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [r.run_id for r in self.runs]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate run_ids in manifest")

    def group_meta(self, name: str) -> dict:
        for g in self.groups:
            if g["name"] == name:
                return g
        raise KeyError(name)

    def runs_in_group(self, name: str) -> tuple:
        return tuple(r for r in self.runs if r.group == name)

    def __len__(self) -> int:
        return len(self.runs)


def manifest_to_json(manifest: CampaignManifest) -> str:
    """Serialize to the JSON interop format: compact, with sorted keys.

    Any ``indent`` would send ``json`` through its pure-Python encoder,
    four to five times slower on an 8,000-run manifest; readers parse
    the document, so indented files written by older versions still
    load.
    """
    doc = {
        "schema_version": manifest.schema_version,
        "campaign": manifest.campaign,
        "app": manifest.app,
        "executable": manifest.executable,
        "objective": manifest.objective,
        "metadata": manifest.metadata,
        "groups": list(manifest.groups),
        "runs": [
            {
                "run_id": r.run_id,
                "group": r.group,
                "parameters": r.parameters,
                "nodes": r.nodes,
            }
            for r in manifest.runs
        ],
    }
    return json.dumps(doc, sort_keys=True)


def manifest_from_json(text: str) -> CampaignManifest:
    """Parse the JSON interop format; validates schema version and run ids."""
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema version {version!r}; "
            f"expected {MANIFEST_SCHEMA_VERSION!r}"
        )
    runs = tuple(
        RunSpec(
            run_id=r["run_id"],
            group=r["group"],
            parameters=dict(r["parameters"]),
            nodes=int(r.get("nodes", 1)),
        )
        for r in doc["runs"]
    )
    return CampaignManifest(
        campaign=doc["campaign"],
        app=doc["app"],
        executable=doc.get("executable", ""),
        objective=doc.get("objective", ""),
        groups=tuple(dict(g) for g in doc.get("groups", ())),
        runs=runs,
        metadata=dict(doc.get("metadata", {})),
    )
