"""Savanna: campaign execution (§IV, §V-D).

Savanna "translates a high-level campaign description into actual system
and scheduler calls, and provides a simple pilot runner to run experiments
on available resources".  Executor backends:

- :class:`~repro.savanna.pilot.PilotExecutor` — Savanna's dynamic resource
  manager: tasks are pulled onto nodes the moment they free, no set
  barriers, failed runs requeued, partially complete groups resumable.
- :class:`~repro.savanna.static.StaticSetExecutor` — the *original*
  workflow baseline of §II-B/§V-D: runs submitted in sets with explicit
  synchronization at the end of each set; stragglers idle nodes; failures
  are only re-curated manually afterwards.
- :class:`~repro.savanna.realexec.RealExecutor` — the real-execution
  engine: genuine Python callables on a thread pool (``"local-threads"``,
  for GIL-releasing workloads) or a process pool (``"local-processes"``,
  for CPU-bound Python), with retry policies, per-attempt timeouts,
  deterministic per-run seeding, checkpoint/resume, and the standard
  event taxonomy over wall-clock time.

- :class:`~repro.savanna.service.CampaignService` — the asyncio
  multi-campaign orchestration layer: a submission queue, a bounded
  worker pool, fair-share/priority scheduling across tenants, live
  status/cancel handles, and queue-depth backpressure — every drive
  capability becomes per-submission middleware (``docs/campaign_service.md``).

Shared machinery lives in :mod:`repro.savanna.executor` (task/outcome
types, manifest→task mapping), :mod:`repro.savanna.runner` (the
simulated multi-allocation campaign loop) and :mod:`repro.savanna.drive`
(the one drive pipeline for every backend: lint gate, journaling and
resume — the §V-D "simply re-submit the SweepGroup" behaviour — status
compaction and reports).  ``python -m repro.savanna --list-backends``
prints the live backend registry.
"""

from repro.savanna.executor import (
    AllocationOutcome,
    CampaignResult,
    tasks_from_manifest,
    DurationModel,
)
from repro.savanna.static import StaticSetExecutor
from repro.savanna.pilot import PilotExecutor
from repro.savanna.realexec import (
    LocalRunResult,
    RealCampaignResult,
    RealExecutor,
    RealTaskSpec,
    seed_for_run,
    wall_clock_bus,
)
from repro.savanna.runner import run_campaign
from repro.savanna.drive import execute_manifest, execute_campaign
from repro.savanna.service import (
    CampaignService,
    ServiceSaturated,
    SubmissionHandle,
    SubmissionState,
    ThreadSafeBus,
    service_bus,
)
from repro.savanna.backends import (
    register_backend,
    unregister_backend,
    get_backend,
    backend_kind,
    available_backends,
    backend_descriptions,
    create_executor,
)

__all__ = [
    "AllocationOutcome",
    "CampaignResult",
    "tasks_from_manifest",
    "DurationModel",
    "StaticSetExecutor",
    "PilotExecutor",
    "LocalRunResult",
    "RealCampaignResult",
    "RealExecutor",
    "RealTaskSpec",
    "seed_for_run",
    "wall_clock_bus",
    "run_campaign",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_kind",
    "available_backends",
    "backend_descriptions",
    "create_executor",
    "execute_manifest",
    "execute_campaign",
    "CampaignService",
    "ServiceSaturated",
    "SubmissionHandle",
    "SubmissionState",
    "ThreadSafeBus",
    "service_bus",
]
