"""FAIR0xx — campaign-structure rules.

These run over the :class:`~repro.cheetah.manifest.CampaignManifest`
(the executor-independent interop form, so the same checks serve the
CLI, the library API, and the ``savanna.drive`` pre-run hook) plus a few
Sweep-level rules that need the live :class:`~repro.cheetah.campaign.Campaign`
object.  Misconfigurations caught here fail at *submit* time instead of
mid-allocation — unserviced debt surfaced before the node-hours burn.
"""

from __future__ import annotations

from itertools import chain

from repro.lint.findings import Severity
from repro.lint.rules import REGISTRY, rule
from repro.skel.templates import Template, TemplateError


def _template_variables(text: str) -> set | None:
    """Top-level ``${...}`` variables of ``text``; ``None`` if unparseable."""
    if "${" not in text and "{%" not in text:
        return set()
    try:
        return Template(text).variables()
    except TemplateError:
        return None


@rule(
    "FAIR001",
    Severity.ERROR,
    target="manifest",
    title="empty sweep group",
    rationale="A group that expands to zero runs burns a batch allocation "
    "on nothing; an over-aggressive sweep filter is the usual cause.",
)
def empty_group(manifest, ctx):
    present = [seg.group for seg in manifest.runs.segments]
    for group in manifest.groups:
        if group["name"] not in present:
            yield (
                "expands to zero runs (all sweep points pruned or no sweeps added)",
                f"group {group['name']!r}",
            )


@rule(
    "FAIR002",
    Severity.ERROR,
    target="manifest",
    title="duplicate sweep point",
    rationale="Two runs with identical parameters re-measure the same "
    "configuration: node-hours spent without new information.  Usually "
    "two overlapping sweeps in one group.",
)
def duplicate_sweep_point(manifest, ctx):
    table = manifest.runs
    classes: dict[tuple, list] = {}  # (group, name set) -> its segments
    for seg in table.segments:
        classes.setdefault((seg.group, frozenset(seg.names)), []).append(seg)
    duplicates = []  # (row, row of the first run with its point)
    for segments in classes.values():
        rows = list(chain.from_iterable(range(seg.start, seg.stop) for seg in segments))
        # A point is the repr of each value in sorted name order, so 1,
        # 1.0 and True stay distinct.
        reprs = []
        for name in sorted(segments[0].names):
            values = (seg.columns[seg.names.index(name)] for seg in segments)
            reprs.append(list(map(repr, chain.from_iterable(values))))
        keys = list(zip(*reprs)) if reprs else [()] * len(rows)
        if len(set(keys)) == len(keys):
            continue
        first: dict = {}
        for row, key in zip(rows, keys):
            if key in first:
                duplicates.append((row, first[key]))
            else:
                first[key] = row
    for row, earlier in sorted(duplicates):
        run = table[row]
        yield (
            f"parameters {run.parameters} duplicate run {table.ids[earlier]!r}",
            f"group {run.group!r}: run {run.run_id!r}",
        )


@rule(
    "FAIR003",
    Severity.ERROR,
    target="manifest",
    title="run oversubscribes its group envelope",
    rationale="A run needing more nodes than its SweepGroup's batch "
    "envelope can never be scheduled: the allocation is granted, the run "
    "starves, the walltime burns.",
)
def run_oversubscribes_group(manifest, ctx):
    envelopes = {g["name"]: g["nodes"] for g in manifest.groups}
    table = manifest.runs
    for seg in table.segments:
        envelope = envelopes.get(seg.group)
        if envelope is None or max(table.widths[seg.start : seg.stop]) <= envelope:
            continue
        for i in range(seg.start, seg.stop):
            if table.widths[i] > envelope:
                yield (
                    f"needs {table.widths[i]} nodes but group {seg.group!r} requests "
                    f"only {envelope}",
                    f"run {table.ids[i]!r}",
                )


@rule(
    "FAIR004",
    Severity.ERROR,
    target="manifest",
    title="group exceeds the cluster",
    rationale="A SweepGroup requesting more nodes than the target machine "
    "has will sit in the queue forever; the scheduler cannot grant it.",
)
def group_exceeds_cluster(manifest, ctx):
    spec = ctx.cluster_spec
    if spec is None:
        return
    for group in manifest.groups:
        if group["nodes"] > spec.nodes:
            yield (
                f"requests {group['nodes']} nodes but the cluster has "
                f"only {spec.nodes}",
                f"group {group['name']!r}",
            )


@rule(
    "FAIR005",
    Severity.WARNING,
    target="manifest",
    title="inconsistent parameter sets within a group",
    rationale="Sweeps in one group yielding different parameter names "
    "produce runs a shared duration model / template / analysis cannot "
    "treat uniformly — the classic cross-sweep composition slip.",
)
def inconsistent_parameters(manifest, ctx):
    by_group: dict[str, set] = {}
    for seg in manifest.runs.segments:
        by_group.setdefault(seg.group, set()).add(frozenset(seg.names))
    for group, shapes in sorted(by_group.items()):
        if len(shapes) > 1:
            listed = sorted(tuple(sorted(s)) for s in shapes)
            yield (
                f"runs carry {len(shapes)} different parameter-name sets: {listed}",
                f"group {group!r}",
            )


@rule(
    "FAIR006",
    Severity.ERROR,
    target="manifest",
    title="executable references undefined parameters",
    rationale="The executable template reads ${variables} no sweep "
    "defines; rendering the launch command would fail (or worse, leave "
    "holes) after the allocation is granted.",
)
def undefined_template_parameter(manifest, ctx):
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
    for seg in manifest.runs.segments:
        by_group.setdefault(seg.group, set()).update(seg.names)
    for group in manifest.groups:
        known = by_group.get(group["name"], set()) | {"run_id", "group"}
        missing = sorted(variables - known)
        if missing:
            yield (
                f"executable reads undefined parameters {missing} "
                f"(swept: {sorted(by_group.get(group['name'], set()))})",
                f"group {group['name']!r}",
            )


@rule(
    "FAIR007",
    Severity.ERROR,
    target="manifest",
    title="retry budget contradiction",
    rationale="A retry policy granting per-task retries under a zero "
    "allocation budget never actually retries: the resilience layer is "
    "wired but inert, and failures stay terminal.",
)
def retry_budget_contradiction(manifest, ctx):
    policy = ctx.retry_policy
    if policy is None:
        return
    budget = getattr(policy, "allocation_budget", None)
    retries = getattr(policy, "max_retries", 0)
    if retries > 0 and budget == 0:
        yield (
            f"policy allows {retries} per-task retries but the allocation "
            "budget is 0 — no retry can ever be spent",
            "retry policy",
        )


@rule(
    "FAIR008",
    Severity.WARNING,
    target="manifest",
    title="task timeout at or beyond group walltime",
    rationale="A per-attempt timeout >= the group walltime can never "
    "fire: the batch allocation kills the attempt first, so the timeout "
    "(and the retry it should trigger) is dead configuration.",
)
def timeout_exceeds_walltime(manifest, ctx):
    policy = ctx.retry_policy
    timeout = getattr(policy, "task_timeout", None) if policy is not None else None
    if timeout is None:
        return
    for group in manifest.groups:
        if timeout >= group["walltime"]:
            yield (
                f"task timeout {timeout:g}s >= walltime {group['walltime']:g}s "
                "— the walltime guillotine always falls first",
                f"group {group['name']!r}",
            )


@rule(
    "FAIR009",
    Severity.INFO,
    target="campaign",
    title="constant sweep parameter",
    rationale="A single-value sweep parameter explores nothing; a "
    "DerivedParameter or the Skel model is the right home for constants.",
)
def constant_parameter(campaign, ctx):
    for group in campaign.groups:
        for sweep in group.sweeps:
            for parameter in sweep.parameters:
                if len(parameter.values) == 1:
                    yield (
                        f"parameter {parameter.name!r} has a single value "
                        f"({parameter.values[0]!r}); nothing is swept",
                        f"group {group.name!r}: sweep {sweep.name!r}",
                    )


@rule(
    "FAIR010",
    Severity.WARNING,
    target="campaign",
    title="sweep filter prunes most of the cartesian product",
    rationale="A filter rejecting the overwhelming majority of sweep "
    "points usually means the parameter ranges encode the wrong space; "
    "expressing the constraint in the ranges keeps the campaign legible.",
)
def filter_prunes_most(campaign, ctx):
    for group in campaign.groups:
        for sweep in group.sweeps:
            if sweep.filter is None:
                continue
            full = 1
            for parameter in sweep.parameters:
                full *= len(parameter.values)
            kept = len(sweep)
            if full >= 10 and kept > 0 and kept / full < 0.1:
                yield (
                    f"filter keeps {kept}/{full} points "
                    f"({kept / full:.1%}) of the cartesian product",
                    f"group {group.name!r}: sweep {sweep.name!r}",
                )


@rule(
    "FAIR900",
    Severity.WARNING,
    target="manifest",
    title="unknown suppressed rule id",
    rationale="Suppressing an id the registry does not know is inert "
    "configuration — usually a renamed rule whose opt-out no longer "
    "protects anything.",
)
def unknown_suppression(manifest, ctx):
    for rule_id in sorted(ctx.suppress):
        if rule_id != "FAIR900" and rule_id not in REGISTRY:
            yield (
                f"suppressed rule id {rule_id!r} is not a known rule",
                "metadata lint.suppress",
            )
