"""Per-``RunSpec`` oracles of the manifest's column passes.

Before the manifest held a run table, the interop JSON was
``json.dumps`` of one dict per run and the manifest lint rules walked
every ``RunSpec``.  Those bodies live on here, unchanged, as the oracles
that ``tests/test_run_table.py`` and ``tests/test_campaign_record.py``
hold the column passes to: the same text byte for byte, and the same
findings (rule id, message, location and order).
"""

from __future__ import annotations

import json

from repro.lint.context import LintContext
from repro.lint.engine import suppressions_of
from repro.lint.findings import LintReport
from repro.lint.rules import REGISTRY, FunctionRule


def manifest_to_json(manifest) -> str:
    """The interop text as ``json.dumps`` writes it, one dict per run."""
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


def empty_group(manifest, ctx):
    for group in manifest.groups:
        if not tuple(r for r in manifest.runs if r.group == group["name"]):
            yield (
                "expands to zero runs (all sweep points pruned or no sweeps added)",
                f"group {group['name']!r}",
            )


def duplicate_sweep_point(manifest, ctx):
    seen: dict[tuple, object] = {}
    for run in manifest.runs:
        key = (run.group, tuple(sorted((k, repr(v)) for k, v in run.parameters.items())))
        if key in seen:
            yield (
                f"parameters {run.parameters} duplicate run {seen[key].run_id!r}",
                f"group {run.group!r}: run {run.run_id!r}",
            )
        else:
            seen[key] = run


def run_oversubscribes_group(manifest, ctx):
    envelopes = {g["name"]: g["nodes"] for g in manifest.groups}
    for run in manifest.runs:
        envelope = envelopes.get(run.group)
        if envelope is not None and run.nodes > envelope:
            yield (
                f"needs {run.nodes} nodes but group {run.group!r} requests "
                f"only {envelope}",
                f"run {run.run_id!r}",
            )


def inconsistent_parameters(manifest, ctx):
    by_group: dict[str, dict[frozenset, str]] = {}
    for run in manifest.runs:
        shapes = by_group.setdefault(run.group, {})
        shape = frozenset(run.parameters)
        if shape not in shapes:
            shapes[shape] = run.run_id
    for group, shapes in sorted(by_group.items()):
        if len(shapes) > 1:
            listed = sorted(tuple(sorted(s)) for s in shapes)
            yield (
                f"runs carry {len(shapes)} different parameter-name sets: {listed}",
                f"group {group!r}",
            )


def undefined_template_parameter(manifest, ctx):
    from repro.lint.campaign_rules import _template_variables

    variables = _template_variables(manifest.executable)
    if variables is None:
        yield (
            f"executable template {manifest.executable!r} does not parse",
            "executable",
        )
        return
    if not variables:
        return
    by_group: dict[str, set] = {}
    for run in manifest.runs:
        by_group.setdefault(run.group, set()).update(run.parameters)
    for group in manifest.groups:
        known = by_group.get(group["name"], set()) | {"run_id", "group"}
        missing = sorted(variables - known)
        if missing:
            yield (
                f"executable reads undefined parameters {missing} "
                f"(swept: {sorted(by_group.get(group['name'], set()))})",
                f"group {group['name']!r}",
            )


#: Rule id -> the per-``RunSpec`` body the column rule replaced.
RULES = {
    "FAIR001": empty_group,
    "FAIR002": duplicate_sweep_point,
    "FAIR003": run_oversubscribes_group,
    "FAIR005": inconsistent_parameters,
    "FAIR006": undefined_template_parameter,
}


def lint_manifest(manifest, cluster=None, retry_policy=None) -> LintReport:
    """``repro.lint.lint_manifest`` with the oracle bodies in place of
    the column rules; every other manifest rule runs as registered."""
    suppress = suppressions_of(manifest)
    ctx = LintContext(
        subject_name=f"campaign {manifest.campaign!r}",
        cluster_spec=getattr(cluster, "spec", cluster),
        retry_policy=retry_policy,
        suppress=suppress,
    )
    findings = []
    for rule in REGISTRY.for_target("manifest"):
        body = RULES.get(rule.rule_id)
        if body is not None:
            rule = FunctionRule(
                rule.rule_id, rule.severity, rule.target, rule.title, rule.rationale, body
            )
        findings.extend(rule.check(manifest, ctx))
    return LintReport.of(findings, suppress)


def oracle_refuses(manifest, cluster=None) -> bool:
    """Whether the oracle rules find an ERROR in ``manifest``."""
    return bool(lint_manifest(manifest, cluster).errors)
