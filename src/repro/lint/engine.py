"""The lint engine: subjects in, :class:`LintReport` out.

Entry points mirror the layers the analyzer understands::

    lint_campaign(campaign)       # Campaign object (structure + sweeps)
    lint_manifest(manifest)       # the Cheetah<->Savanna interop form
    lint_graph(graph)             # a DataflowGraph
    lint_component(component)     # gauge debt vs. a declared profile
    lint_model(model, library)    # Skel model vs. its templates
    lint_generated(files)         # skel GeneratedFile output
    lint_source(text, path)       # one source artifact
    lint_app_fn(fn, pool=...)     # concurrency safety of a live app_fn
    lint_paths([...])             # CLI face: campaign dirs + files

plus :func:`lint`, which dispatches on the subject's type.  Nothing is
ever executed or imported from the analyzed artifacts; every check reads
metadata, specs, or source text only.

Suppression: a campaign opts out of specific rules via its metadata —
``Campaign(..., metadata={"lint": {"suppress": ["FAIR005"]}})`` — which
travels through the manifest JSON, so suppression decisions are
themselves provenance.  Suppressed findings are not discarded: they move
to ``report.suppressed`` and stay visible to reporters.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cheetah.campaign import Campaign
from repro.cheetah.directory import resolve_campaign_dir
from repro.cheetah.manifest import CampaignManifest, manifest_from_json
from repro.lint import (  # noqa: F401  (rule registration)
    campaign_rules,
    code_rules,
    concurrency,
    gauge_rules,
    graph_rules,
)
from repro.lint import cache as _cache
from repro.lint import flow as _flow
from repro.lint.context import FunctionArtifact, LintContext, ModelArtifact, SourceArtifact
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import REGISTRY


class CampaignLintError(RuntimeError):
    """Raised by the ``savanna.drive`` pre-run hook on ERROR findings."""

    def __init__(self, report: LintReport, campaign: str = ""):
        self.report = report
        self.campaign = campaign
        listed = "\n".join(f"  {f.format()}" for f in report.errors)
        super().__init__(
            f"campaign {campaign!r} has {len(report.errors)} lint error(s); "
            f"refusing to execute (pass lint=False to override):\n{listed}"
        )


def suppressions_of(subject) -> frozenset:
    """Rule ids suppressed via campaign/manifest ``metadata``."""
    metadata = getattr(subject, "metadata", None) or {}
    suppress = metadata.get("lint", {}).get("suppress", ())
    return frozenset(str(rule_id) for rule_id in suppress)


def _run_rules(target: str, subject, ctx: LintContext) -> list:
    findings: list[Finding] = []
    for rule in REGISTRY.for_target(target):
        findings.extend(rule.check(subject, ctx))
    return findings


def _cluster_spec(cluster):
    """Accept a SimulatedCluster or a bare ClusterSpec."""
    return getattr(cluster, "spec", cluster)


def lint_manifest(
    manifest: CampaignManifest,
    cluster=None,
    retry_policy=None,
    suppress=(),
) -> LintReport:
    """Statically analyze a campaign manifest (no execution)."""
    suppress = frozenset(suppress) | suppressions_of(manifest)
    ctx = LintContext(
        subject_name=f"campaign {manifest.campaign!r}",
        cluster_spec=_cluster_spec(cluster),
        retry_policy=retry_policy,
        suppress=suppress,
    )
    return LintReport.of(_run_rules("manifest", manifest, ctx), suppress)


def lint_campaign(
    campaign: Campaign,
    cluster=None,
    retry_policy=None,
    suppress=(),
) -> LintReport:
    """Analyze a live Campaign: sweep-level rules plus manifest rules."""
    suppress = frozenset(suppress) | suppressions_of(campaign)
    ctx = LintContext(
        subject_name=f"campaign {campaign.name!r}",
        cluster_spec=_cluster_spec(cluster),
        retry_policy=retry_policy,
        suppress=suppress,
    )
    findings = _run_rules("campaign", campaign, ctx)
    findings += _run_rules("manifest", campaign.to_manifest(), ctx)
    return LintReport.of(findings, suppress)


def lint_graph(graph, suppress=()) -> LintReport:
    """Analyze a dataflow graph without running it."""
    suppress = frozenset(suppress)
    ctx = LintContext(subject_name=f"graph {graph.name!r}", suppress=suppress)
    return LintReport.of(_run_rules("graph", graph, ctx), suppress)


def lint_component(
    component,
    declared=None,
    scenarios=(),
    suppress=(),
) -> LintReport:
    """Gauge-debt analysis: metadata vs. ``declared`` profile + scenarios."""
    suppress = frozenset(suppress)
    ctx = LintContext(
        subject_name=f"component {component.name!r}",
        declared_profile=declared,
        scenarios=tuple(scenarios),
        suppress=suppress,
    )
    return LintReport.of(_run_rules("component", component, ctx), suppress)


def lint_model(
    model,
    library,
    template_names=None,
    extra_names=(),
    suppress=(),
) -> LintReport:
    """Check a Skel model against the templates it is about to render."""
    suppress = frozenset(suppress)
    bundle = ModelArtifact(
        model=model,
        library=library,
        template_names=tuple(template_names) if template_names is not None else None,
        extra_names=frozenset(extra_names),
    )
    ctx = LintContext(
        subject_name=f"model {model.schema.name!r}",
        model=model,
        suppress=suppress,
    )
    return LintReport.of(_run_rules("model", bundle, ctx), suppress)


def lint_source(
    text: str,
    path: str = "<source>",
    generated: bool | None = None,
    parameters=(),
    model=None,
    suppress=(),
) -> LintReport:
    """AST/text analysis of one source artifact.

    ``generated=None`` auto-detects the skel fingerprint stamp; pass an
    explicit bool to force or forbid the generated-only checks.
    """
    suppress = frozenset(suppress)
    if generated is None:
        generated = code_rules.looks_generated(text)
    artifact = SourceArtifact(
        path=str(path),
        text=text,
        generated=generated,
        parameters=frozenset(parameters),
    )
    ctx = LintContext(subject_name=str(path), model=model, suppress=suppress)
    findings = _run_rules("source", artifact, ctx)
    if artifact.is_python:
        findings += _function_findings(text, str(path), ctx)
    return LintReport.of(findings, suppress)


def _function_findings(text: str, path: str, ctx: LintContext) -> list:
    """Concurrency-safety pass over each module-level function.

    Every top-level function is analyzed as its own entry point (with
    full interprocedural context for exculpatory evidence like seeding),
    but findings are reported from the entry scope only — callees are
    entries of their own pass, so nothing is missed or duplicated.
    """
    index = _flow.ModuleIndex.from_source(text, path)
    if index is None:
        return []
    findings: list[Finding] = []
    for name, node in index.functions.items():
        artifact = FunctionArtifact(
            name=name,
            path=path,
            analysis=_flow.analyze_function(index, node),
            role="unknown",
            interprocedural=False,
        )
        findings.extend(_run_rules("function", artifact, ctx))
    return findings


def lint_app_fn(app_fn, pool: str = "threads", suppress=(), subject: str = "") -> LintReport:
    """Concurrency-safety analysis of a live ``app_fn`` callable.

    This is the pre-flight gate ``savanna.drive`` and
    ``CampaignService.submit`` run before handing a function to a real
    backend: the function's module source is analyzed interprocedurally
    (entry plus reachable module-level callees) at full ``"worker"``
    severity, and under ``pool="processes"`` the callable is also
    pickle-probed — nothing from the function is ever *called*.
    """
    suppress = frozenset(suppress)
    requires_pickling = pool == "processes"
    name = getattr(app_fn, "__qualname__", None) or getattr(app_fn, "__name__", "app_fn")
    artifact = FunctionArtifact(
        name=name,
        path=getattr(getattr(app_fn, "__code__", None), "co_filename", "<function>"),
        analysis=_flow.analyze_callable(app_fn),
        role="worker",
        requires_pickling=requires_pickling,
        pickle_failure=_flow.probe_pickle(app_fn) if requires_pickling else None,
        pickle_hints=_flow.pickle_hints_for(app_fn),
        interprocedural=True,
    )
    ctx = LintContext(subject_name=subject or f"app_fn {name!r}", suppress=suppress)
    return LintReport.of(_run_rules("function", artifact, ctx), suppress)


def lint_generated(files, model=None, suppress=()) -> LintReport:
    """Analyze :class:`~repro.skel.generator.GeneratedFile` output.

    With the generating ``model``, parameter shadowing and staleness are
    checked too (the model's value names are the shadowing universe).
    """
    parameters = frozenset(model.params()) if model is not None else frozenset()
    report = LintReport()
    for generated_file in files:
        report = report.merged(
            lint_source(
                generated_file.content,
                path=generated_file.relpath,
                generated=True,
                parameters=parameters,
                model=model,
                suppress=suppress,
            )
        )
    return report


def lint(subject, **kwargs) -> LintReport:
    """Type-dispatching face: hand it what you have."""
    if isinstance(subject, Campaign):
        return lint_campaign(subject, **kwargs)
    if isinstance(subject, CampaignManifest):
        return lint_manifest(subject, **kwargs)
    # Late imports keep heavy layers out of the module import path.
    from repro.dataflow.graph import DataflowGraph
    from repro.gauges.model import WorkflowComponent
    from repro.skel.model import SkelModel

    if isinstance(subject, DataflowGraph):
        return lint_graph(subject, **kwargs)
    if isinstance(subject, WorkflowComponent):
        return lint_component(subject, **kwargs)
    if isinstance(subject, SkelModel):
        return lint_model(subject, **kwargs)
    if isinstance(subject, (str, Path)):
        return lint_paths([subject], **kwargs)
    raise TypeError(
        f"cannot lint a {type(subject).__name__}; expected a Campaign, "
        "CampaignManifest, DataflowGraph, WorkflowComponent, SkelModel, or path"
    )


# ---------------------------------------------------------------------------
# Path walking — the CLI face


_SOURCE_SUFFIXES = (".py", ".sh")


def _is_campaign_dir(path: Path) -> bool:
    return (path / ".cheetah" / "manifest.json").is_file()


def _campaign_sources(path: Path) -> list[Path]:
    return sorted(
        file
        for file in path.rglob("*")
        if file.suffix in _SOURCE_SUFFIXES and file.is_file()
    )


def _lint_campaign_dir(path: Path, suppress=(), cache: bool = True) -> LintReport:
    """Manifest rules + source rules over every run artifact on disk.

    With ``cache`` (the default) the finished report is memoized in
    ``.cheetah/lintcache.json`` keyed by a content digest of the
    manifest, the source artifacts, the rule catalog, and the caller's
    suppressions — an unchanged directory costs file reads plus one
    hash, no rule runs.  Manifest-metadata suppressions need no key of
    their own: they live inside the hashed manifest text.
    """
    sources = _campaign_sources(path)
    cache_path = _cache.cache_path_for(path)
    digest = None
    manifest_text = (path / ".cheetah" / "manifest.json").read_text()
    if cache:
        digest = _cache.campaign_digest(
            manifest_text,
            ((str(f.relative_to(path)), f.read_bytes()) for f in sources),
            suppress,
        )
        cached = _cache.load_cached_report(cache_path, digest)
        if cached is not None:
            return cached
    directory = resolve_campaign_dir(path)
    manifest = directory.manifest
    suppress = frozenset(suppress) | suppressions_of(manifest)
    report = lint_manifest(manifest, suppress=suppress)
    for file in sources:
        relative = file.relative_to(path)
        report = report.merged(
            lint_source(
                file.read_text(),
                path=f"{path}/{relative}",
                suppress=suppress,
            )
        )
    if cache and digest is not None:
        _cache.store_cached_report(cache_path, digest, report)
    return report


def _is_manifest(text: str) -> bool:
    """Whether ``text`` is a manifest: a JSON object holding
    ``schema_version`` and ``runs``.  Sorted keys put ``schema_version``
    after the whole runs list, so the file is parsed, not searched."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return isinstance(doc, dict) and "schema_version" in doc and "runs" in doc


def lint_path(path, suppress=(), cache: bool = True) -> LintReport:
    """Lint one path: a campaign directory, a directory tree, or a file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such path: {path}")
    if path.is_dir():
        if _is_campaign_dir(path):
            return _lint_campaign_dir(path, suppress, cache=cache)
        report = LintReport()
        campaign_roots = set()
        for candidate in sorted(p for p in path.rglob(".cheetah") if p.is_dir()):
            root = candidate.parent
            if _is_campaign_dir(root):
                campaign_roots.add(root)
                report = report.merged(_lint_campaign_dir(root, suppress, cache=cache))
        for file in sorted(path.rglob("*.py")):
            # set lookup per ancestor, not a scan over every campaign root
            if any(parent in campaign_roots for parent in file.parents):
                continue
            report = report.merged(
                lint_source(file.read_text(), path=str(file), suppress=suppress)
            )
        return report
    text = path.read_text()
    if path.suffix == ".json" and _is_manifest(text):
        return lint_manifest(manifest_from_json(text), suppress=suppress)
    return lint_source(text, path=str(path), suppress=suppress)


def lint_paths(paths, suppress=(), cache: bool = True) -> LintReport:
    """Lint several paths into one merged report."""
    report = LintReport()
    for path in paths:
        report = report.merged(lint_path(path, suppress, cache=cache))
    return report
