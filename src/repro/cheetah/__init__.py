"""Cheetah: workflow campaign composition (§IV).

Cheetah's composition interface "provides an API that allows focusing on
expressing parameters across the software stack, while omitting low-level
system details".  The user composes a :class:`Campaign` of parameter
:class:`Sweep`\\ s grouped into :class:`SweepGroup`\\ s; Cheetah derives
the run set, the campaign directory schema, and the JSON *manifest* — the
interoperability layer Savanna executes.

- :mod:`repro.cheetah.parameters` — parameter types (list, range, linspace,
  derived) and the cartesian-product sweep.
- :mod:`repro.cheetah.campaign` — Campaign / SweepGroup / Sweep / AppSpec.
- :mod:`repro.cheetah.manifest` — the JSON campaign manifest (round-trip)
  and its run table.
- :mod:`repro.cheetah.directory` — the on-disk campaign end-point schema
  with hidden metadata, run directories, and status files.
"""

from repro.cheetah.parameters import (
    ParameterError,
    SweepParameter,
    RangeParameter,
    LinspaceParameter,
    LogspaceParameter,
    DerivedParameter,
)
from repro.cheetah.campaign import AppSpec, Sweep, SweepGroup, Campaign
from repro.cheetah.manifest import (
    CampaignManifest,
    RunSpec,
    RunTable,
    manifest_to_json,
    manifest_from_json,
)
from repro.cheetah.directory import CampaignDirectory, RunStatus, resolve_campaign_dir
from repro.cheetah.objectives import Objective, Direction, standard_objectives
from repro.cheetah.catalog import CampaignCatalog, RunRecord

__all__ = [
    "ParameterError",
    "SweepParameter",
    "RangeParameter",
    "LinspaceParameter",
    "LogspaceParameter",
    "DerivedParameter",
    "AppSpec",
    "Sweep",
    "SweepGroup",
    "Campaign",
    "CampaignManifest",
    "RunSpec",
    "RunTable",
    "manifest_to_json",
    "manifest_from_json",
    "CampaignDirectory",
    "RunStatus",
    "resolve_campaign_dir",
    "Objective",
    "Direction",
    "standard_objectives",
    "CampaignCatalog",
    "RunRecord",
]
