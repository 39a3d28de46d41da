"""High-level drive: manifest in, executed campaign + recorded status out.

Ties the layers together the way §V-D describes the user experience: the
scientist composes the campaign; execution, status tracking, and
resubmission are the tool's problem.  ``execute_manifest`` runs a
campaign manifest through a named backend and (optionally) records
per-run outcomes into the campaign directory so a later invocation
resumes exactly the pending set.

Two execution worlds share this one entry point, routed on the backend's
registered kind (:func:`~repro.savanna.backends.backend_kind`):

- **simulated** backends (``"pilot"``, ``"static-sets"``) take a
  ``duration_model`` and a :class:`~repro.cluster.cluster.SimulatedCluster`
  and replay the campaign on simulated time;
- **real** backends (``"local-threads"``, ``"local-processes"``) take an
  ``app_fn=`` keyword — a picklable ``callable(parameters) -> value`` —
  and execute genuine Python on wall-clock time through
  :class:`~repro.savanna.realexec.RealExecutor`.  ``duration_model`` and
  ``cluster`` may then be ``None``; events ride a wall-clock
  :class:`~repro.observability.EventBus` created per drive (or pass
  ``bus=`` to share one across groups).

The drive is one *pipeline of stages* for both worlds — argument check
and bus, lint gate, end-point resolution (with the verdict persisted as
``.cheetah/lint.json``), group and pending set, execution, status
compaction, report — and only execution branches on the backend's kind.
Both worlds therefore get the same stack: incremental
:class:`~repro.resilience.CampaignCheckpoint` journaling (one JSONL line
per task transition, compacted into ``status.json`` when the group
drains — a driver process killed mid-campaign loses at most the
in-flight attempts), ``resume=True`` re-queuing exactly the runs not yet
recorded DONE, ``group`` spans / ``group.resumed`` instants on the bus,
and ``report=True`` trace analytics: a collector rides the bus for the
duration of the group, the captured events are analyzed (see
:mod:`repro.observability.analysis`), one ``campaign.report`` instant
with the headline numbers (makespan, utilization, critical path,
stragglers) is emitted, and — when a ``directory`` is in play — the full
report is merged into the campaign end point's ``.cheetah/report.json``.
Real runs additionally persist each run's outcome (value, error +
traceback, seed, attempts) into the campaign store at
``.cheetah/store.sqlite`` (:mod:`repro.store`); ``python -m repro.store
export`` writes them out as per-run ``<run>/result.json`` files.

The asyncio campaign service (:mod:`repro.savanna.service`) reuses the
pipeline per submission and runs many of them concurrently.  The
per-submission **middleware order** is fixed and documented on
:func:`execute_manifest`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cheetah.directory import CampaignDirectory, resolve_campaign_dir
from repro.cheetah.manifest import CampaignManifest
from repro.cluster.cluster import SimulatedCluster
from repro.lint.engine import CampaignLintError, lint_app_fn, lint_manifest, suppressions_of
from repro.observability import (
    BEGIN,
    CAMPAIGN_LINTED,
    CAMPAIGN_REPORT,
    END,
    GROUP,
    GROUP_RESUMED,
    new_trace_id,
)
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.savanna.backends import backend_kind, create_executor
from repro.savanna.executor import CampaignResult, tasks_from_manifest
from repro.savanna.realexec import RealCampaignResult, wall_clock_bus


def _pool_of(backend: str) -> str:
    """Which worker pool a real backend dispatches to (pickling matters)."""
    return "processes" if "process" in backend else "threads"


@dataclass
class _DriveArgs:
    """Output of the argument-check stage: the executor, and its bus.

    ``app_fn`` is ``None`` for simulated backends; ``executor`` is what
    the backend's factory built from the cluster (simulated) or from
    ``backend_kwargs`` without the drive's own ``app_fn``/``bus`` (real).
    """

    kind: str
    bus: object
    app_fn: object
    executor: object


def _check_args(manifest, backend, duration_model, cluster, backend_kwargs) -> _DriveArgs:
    """Pipeline stage: check what the backend's kind needs, pick the bus,
    build the executor.

    Simulated backends need a ``duration_model`` and a ``cluster`` and
    narrate on the cluster's bus.  Real backends need an ``app_fn=``
    keyword and narrate on ``bus=`` when given, else the cluster's bus,
    else a fresh wall-clock bus.  The executor is built here, before the
    lint gate writes anything, so an option the backend does not take
    (``TypeError``) or a malformed ``retry_policy=`` (``ValueError``)
    fails with no campaign directory on disk.
    """
    kind = backend_kind(backend)
    if kind == "simulated":
        if duration_model is None or cluster is None:
            raise ValueError(
                f"backend {backend!r} is simulated and requires both a "
                "duration_model and a cluster"
            )
        executor = create_executor(backend, cluster=cluster, **backend_kwargs)
        return _DriveArgs(kind, cluster.bus, None, executor)
    executor_kwargs = dict(backend_kwargs)
    app_fn = executor_kwargs.pop("app_fn", None)
    if app_fn is None:
        raise ValueError(
            f"backend {backend!r} executes real code: pass "
            "app_fn=callable(parameters) -> value (module-level, so the "
            "process pool can pickle it)"
        )
    bus = executor_kwargs.pop("bus", None)
    if bus is None:
        bus = cluster.bus if cluster is not None else wall_clock_bus(
            f"drive-{manifest.campaign}"
        )
    return _DriveArgs(kind, bus, app_fn, create_executor(backend, **executor_kwargs))


def _pre_run_lint(manifest, bus, cluster, retry_policy, app_fn=None, pool="threads"):
    """The ``repro.lint`` gate: refuse campaigns with ERROR findings.

    Runs the manifest rules with the cluster spec (when there is a
    cluster — real backends lint without one) and the retry policy the
    execution will actually use.  For real backends the ``app_fn``
    headed to the workers gets the FAIR5xx concurrency-safety pass too
    (:func:`~repro.lint.engine.lint_app_fn`, honouring the manifest's
    own suppressions), so a function that mutates shared state or
    cannot pickle under ``local-processes`` is refused before a queue
    slot is spent.  Emits one ``campaign.linted`` instant with the
    merged finding counts and raises
    :class:`~repro.lint.engine.CampaignLintError` on any ERROR —
    misconfiguration surfaces at submit time, not mid-allocation.
    Returns the merged report so callers can persist it.
    """
    report = lint_manifest(manifest, cluster=cluster, retry_policy=retry_policy)
    if app_fn is not None:
        report = report.merged(
            lint_app_fn(app_fn, pool=pool, suppress=suppressions_of(manifest))
        )
    counts = report.counts()
    bus.emit(
        CAMPAIGN_LINTED,
        campaign=manifest.campaign,
        errors=counts["error"],
        warnings=counts["warning"],
        infos=counts["info"],
        suppressed=len(report.suppressed),
    )
    if report.errors:
        raise CampaignLintError(report, campaign=manifest.campaign)
    return report


def _gate(manifest, backend, args: _DriveArgs, cluster, directory, lint):
    """Pipeline stages: the lint gate, then the campaign end point.

    ``directory`` may be a :class:`~repro.cheetah.directory.CampaignDirectory`
    or a path, resolved through
    :func:`~repro.cheetah.directory.resolve_campaign_dir` (created on
    first use) only once the gate has admitted the campaign.  The
    verdict is persisted there as ``.cheetah/lint.json``.  Returns the
    resolved directory (or ``None``).
    """
    report = None
    if lint:
        report = _pre_run_lint(
            manifest, args.bus, cluster, getattr(args.executor, "retry_policy", None),
            app_fn=args.app_fn, pool=_pool_of(backend),
        )
    if directory is not None and not isinstance(directory, CampaignDirectory):
        directory = resolve_campaign_dir(directory, manifest, create=True)
    if directory is not None and report is not None:
        directory.write_lint_report(report)
    return directory


def _resolve_group(manifest: CampaignManifest, group: str | None) -> str:
    """Pipeline stage: pin down which SweepGroup's envelope applies."""
    if group is not None:
        return group
    if len(manifest.groups) != 1:
        raise ValueError(
            "manifest has multiple groups; pass group= to pick the "
            f"resource envelope (groups: {[g['name'] for g in manifest.groups]})"
        )
    return manifest.groups[0]["name"]


@dataclass
class _PendingWork:
    """Output of the resume-resolution stage: exactly what is left to run.

    ``sub`` is the input manifest narrowed to one group and (with
    ``resume=True``) to the runs not yet durably DONE, its runs a
    :meth:`~repro.cheetah.manifest.RunTable.take` of the input's table;
    ``skipped`` is how many the journal let us skip (reported via
    ``group.resumed``).
    """

    checkpoint: CampaignCheckpoint | None
    sub: CampaignManifest
    meta: dict
    skipped: int


def _resolve_pending(
    manifest: CampaignManifest,
    group: str,
    directory: CampaignDirectory | None,
    resume: bool,
) -> _PendingWork:
    """Pipeline stage: the group's pending set and its checkpoint.

    Constructs the write-ahead :class:`~repro.resilience.CampaignCheckpoint`
    over the campaign directory and — when resuming — drops every run
    the record holds DONE (``status.json`` overlaid with the journal, as
    :meth:`~repro.cheetah.directory.CampaignDirectory.effective_status`
    reads it).  The pending set is a list of the group's rows in the
    manifest's run table.  An unknown status raises ``ValueError``, as
    ``RunStatus(value)`` does, and a ``status.json`` that does not name
    a run raises ``KeyError``.  This is the drive's one resume path, for
    every backend and every campaign-service submission.
    """
    meta = manifest.group_meta(group)
    table = manifest.runs
    rows = table.rows_of(group)
    checkpoint = None
    skipped = 0
    if directory is not None:
        checkpoint = CampaignCheckpoint(directory)
        if resume:
            done, ids = checkpoint.completed(), table.ids
            pending = [i for i in rows if ids[i] not in done]
            skipped = len(rows) - len(pending)
            rows = pending
    sub = CampaignManifest(
        campaign=manifest.campaign,
        app=manifest.app,
        runs=table.take(rows),
        executable=manifest.executable,
        objective=manifest.objective,
        groups=(dict(meta),),
    )
    return _PendingWork(checkpoint=checkpoint, sub=sub, meta=meta, skipped=skipped)


def _check_cancelled(cancel) -> bool:
    """Normalize the external stop signal: Event, callable, or None."""
    if cancel is None:
        return False
    return bool(cancel.is_set() if hasattr(cancel, "is_set") else cancel())


def execute_campaign(
    manifest: CampaignManifest,
    duration_model=None,
    cluster: SimulatedCluster | None = None,
    backend: str = "pilot",
    directory: CampaignDirectory | None = None,
    max_allocations: int = 1,
    inter_allocation_gap: float = 0.0,
    resume: bool = True,
    lint: bool = True,
    report: bool = False,
    cancel=None,
    trace_id: str | None = None,
    **backend_kwargs,
) -> dict:
    """Execute every SweepGroup of a campaign, in declaration order.

    Groups run sequentially (each group's allocation is submitted when
    the previous group finishes), matching how a scientist walks through
    a multi-group study.  Returns ``{group name: CampaignResult}`` (or
    ``RealCampaignResult`` for real backends).

    The whole campaign is linted once up front (see
    :func:`execute_manifest`'s ``lint`` parameter) and a path
    ``directory`` is resolved once, with the verdict persisted there;
    per-group calls then skip the redundant re-analysis.  Every other
    keyword means what it means to :func:`execute_manifest`;
    ``max_allocations`` is each group's allocation budget.
    ``report=True`` analyzes each group's trace as it completes (see
    :func:`execute_manifest`).

    ``cancel`` (a ``threading.Event`` or zero-argument callable) stops
    the campaign between groups — already-finished groups keep their
    results, remaining groups are never started — and, on real backends,
    also interrupts the group currently executing (see
    :meth:`~repro.savanna.realexec.RealExecutor.execute`).  The campaign
    service drives every submission through this parameter.

    ``trace_id`` is the campaign's correlation id (minted here when not
    supplied — the campaign service mints one per submission): every
    group span and, on real backends, every task event down to the
    worker processes carries it, so one ``grep trace_id=...`` lines up
    the whole execution across logs and buses.
    """
    trace_id = trace_id or new_trace_id()
    args = _check_args(manifest, backend, duration_model, cluster, backend_kwargs)
    if args.kind == "real":
        # One wall-clock bus for the whole campaign, so the groups share
        # a time base and any subscriber sees the full story.
        backend_kwargs["bus"] = args.bus
    directory = _gate(manifest, backend, args, cluster, directory, lint)
    results: dict = {}
    for meta in manifest.groups:
        if _check_cancelled(cancel):
            break
        results[meta["name"]] = execute_manifest(
            manifest,
            duration_model,
            cluster,
            group=meta["name"],
            backend=backend,
            directory=directory,
            max_allocations=max_allocations,
            inter_allocation_gap=inter_allocation_gap,
            resume=resume,
            lint=False,
            report=report,
            cancel=cancel,
            trace_id=trace_id,
            **backend_kwargs,
        )
    return results


def execute_manifest(
    manifest: CampaignManifest,
    duration_model=None,
    cluster: SimulatedCluster | None = None,
    group: str | None = None,
    backend: str = "pilot",
    directory: CampaignDirectory | None = None,
    max_allocations: int = 1,
    inter_allocation_gap: float = 0.0,
    resume: bool = True,
    lint: bool = True,
    report: bool = False,
    cancel=None,
    trace_id: str | None = None,
    **backend_kwargs,
) -> CampaignResult | RealCampaignResult:
    """Execute (part of) a campaign manifest through a named backend.

    This is the drive *pipeline*, one function body for simulated and
    real backends; every stage below is per-submission middleware when
    called through the campaign service (:mod:`repro.savanna.service`).
    The **middleware order** is fixed:

    1. **argument check and bus** — what the backend's kind needs
       (``duration_model`` + ``cluster``, or ``app_fn``), the bus the
       drive narrates on, and the executor (an option the backend does
       not take fails here, before anything is written);
    2. **lint gate** (``lint=True``) — manifest rules against the
       cluster spec + retry policy (plus the FAIR5xx pass over a real
       ``app_fn``); ERROR findings refuse the campaign
       (``campaign.linted`` instant either way);
    3. **end-point resolution** — a path ``directory`` is resolved (and
       created on first use) and the lint verdict lands in its
       ``.cheetah/lint.json``;
    4. **group and pending set** — pin the SweepGroup whose
       nodes/walltime envelope applies; with ``directory`` +
       ``resume=True``, overlay the write-ahead journal on
       ``status.json`` and narrow the group to the runs not yet DONE
       (``group.resumed`` instant);
    5. **execution** — the only stage that branches on
       :func:`~repro.savanna.backends.backend_kind`: the simulated
       engine replays the tasks, a real pool runs ``app_fn`` (honouring
       ``cancel``) and its outcomes are recorded into the campaign store
       at ``.cheetah/store.sqlite``.  The
       :class:`~repro.resilience.CampaignCheckpoint` journals every task
       transition meanwhile;
    6. **status compaction** — the journal folds into ``status.json``
       (mirrored into the store), even when execution raised.  This is
       the group's one status write: runs the group never started keep
       their recorded status;
    7. **report** (``report=True``) — the group's captured events become
       a ``CampaignReport`` + one ``campaign.report`` instant.

    Parameters
    ----------
    manifest:
        The abstract campaign.
    duration_model:
        ``fn(parameters) -> seconds`` mapping runs to nominal durations.
        Required by simulated backends; ignored by real ones (real code
        takes however long it takes).
    group:
        Restrict execution to one SweepGroup (default: the whole
        campaign; the manifest must then contain exactly one group so the
        nodes/walltime envelope is unambiguous).
    backend:
        Executor backend name (see :mod:`repro.savanna.backends`).
        Every backend takes ``retry_policy=`` (a
        :class:`~repro.resilience.RetryPolicy`, or ``None`` for the
        backend's default).  Simulated backends need ``cluster``;
        ``"static-sets"`` also takes ``set_gap=``.  Real backends need an
        ``app_fn=`` keyword (picklable ``callable(parameters) -> value``
        — module-level, not a lambda, for ``"local-processes"``) and
        accept ``max_workers=``, ``seed=``, ``profile_interval=`` and
        ``bus=``.
    directory:
        If given, per-run progress is journaled incrementally (the
        resume record survives a killed driver) and compacted back into
        ``status.json``; real-run outcomes land in the campaign store
        (``python -m repro.store export`` writes them out as per-run
        ``result.json`` files).  A path is accepted too and resolved
        through :func:`~repro.cheetah.directory.resolve_campaign_dir`
        (created on first use) — the same resolution the ``repro.lint``
        CLI uses, so the linted end point and the resumed end point are
        one.
    resume:
        With a ``directory``: skip runs whose durable status (base
        record + journal) is already DONE, emitting ``group.resumed``.
        ``resume=False`` re-executes every run of the group.
    lint:
        Run the ``repro.lint`` manifest rules before executing anything
        and refuse (``CampaignLintError``) on ERROR findings.  Pass
        ``lint=False`` to execute a campaign the analyzer rejects.
    report:
        Collect this group's events off the bus and analyze them after
        the group drains: emits one ``campaign.report`` instant carrying
        the headline numbers and, with a ``directory``, merges the full
        :class:`~repro.observability.analysis.CampaignReport` into
        ``.cheetah/report.json`` (read it back with
        ``directory.read_report()``).  For real backends the spans are
        genuine wall-clock measurements, so the critical path and the
        straggler list describe the machine you actually ran on.
    cancel:
        External stop signal (``threading.Event`` or zero-argument
        callable).  Real backends poll it while executing and take the
        graceful-interrupt path when it fires (unfinished runs report
        ``status="interrupted"`` and compact to PENDING — resumable);
        simulated backends honour it only between groups (the
        discrete-event simulation of one group is atomic).
    trace_id:
        Correlation id stamped on the group span events and — on real
        backends — propagated into every task spec and worker process
        (minted fresh when not supplied).
    """
    trace_id = trace_id or new_trace_id()
    args = _check_args(manifest, backend, duration_model, cluster, backend_kwargs)
    directory = _gate(manifest, backend, args, cluster, directory, lint)
    group = _resolve_group(manifest, group)
    work = _resolve_pending(manifest, group, directory, resume)

    bus = args.bus
    name = f"{manifest.campaign}/{group}"
    executor = args.executor
    # Streaming analysis: events fold into report state as they are
    # emitted (batch-aware, O(1) memory per event) instead of being
    # buffered whole and replayed after the run.
    streaming = _make_streaming(bus) if report else None
    bus.emit(
        GROUP,
        phase=BEGIN,
        campaign=manifest.campaign,
        group=group,
        runs=len(work.sub.runs),
        backend=backend,
        trace_id=trace_id,
    )
    if work.skipped:
        bus.emit(
            GROUP_RESUMED,
            campaign=manifest.campaign,
            total=len(work.sub.runs) + work.skipped,
            skipped=work.skipped,
            pending=len(work.sub.runs),
            trace_id=trace_id,
        )
    if work.checkpoint is not None:
        work.checkpoint.attach(bus)
    try:
        if args.kind == "real":
            result = executor.execute(
                work.sub, args.app_fn, bus=bus, name=name, cancel=cancel, trace_id=trace_id
            )
            if directory is not None:
                # Before compaction, so its status mirror finds the store.
                directory.record_results(result.results)
        else:
            result = executor.run(
                tasks_from_manifest(work.sub, duration_model),
                nodes=work.meta["nodes"],
                walltime=work.meta["walltime"],
                max_allocations=max_allocations,
                inter_allocation_gap=inter_allocation_gap,
                name=name,
            )
    finally:
        if work.checkpoint is not None:
            work.checkpoint.detach()
            work.checkpoint.compact()
    bus.emit(
        GROUP,
        phase=END,
        campaign=manifest.campaign,
        group=group,
        completed=len(result.completed),
        trace_id=trace_id,
    )
    if streaming is not None:
        streaming.detach()
        _report_group(bus, directory, streaming.reports())
    return result


def _make_streaming(bus):
    """Attach a streaming report builder to ``bus`` (import kept local)."""
    from repro.observability.analysis import StreamingCampaignReport

    return StreamingCampaignReport().attach(bus)


def _report_group(bus, directory, reports) -> None:
    """Publish one group's finalized campaign reports.

    Emits one ``campaign.report`` instant per campaign span the
    streaming builder saw (normally one — the executor wraps the group's
    allocations in a single campaign span) and writes the full reports
    into the campaign directory when there is one.
    """
    for r in reports:
        bus.emit(CAMPAIGN_REPORT, **r.headline())
    if directory is not None and reports:
        directory.write_report(reports)
