"""FAIR3xx / FAIR4xx — generated-code and Skel-model rules.

The FAIR3xx band inspects source text (generated scripts and Python
files) via :mod:`ast` without importing or executing anything; the
FAIR4xx band checks a Skel model against the template library it is
about to render, so holes are caught before a single file is stamped.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Severity
from repro.lint.flow import parse_source
from repro.lint.rules import rule
from repro.skel.generator import is_stale

_PLACEHOLDER_RE = re.compile(r"\$\{[^{}]*\}")
_FINGERPRINT_MARKER = "model-fingerprint="


def looks_generated(text: str) -> bool:
    """True if ``text`` carries a skel fingerprint stamp in its header."""
    return any(_FINGERPRINT_MARKER in line for line in text.splitlines()[:3])


def _parse_python(artifact):
    """Parse the artifact; returns ``None`` on syntax errors
    (FAIR305 reports those — other AST rules just stand down)."""
    try:
        return parse_source(artifact.text)
    except SyntaxError:
        return None


@rule(
    "FAIR301",
    Severity.ERROR,
    target="source",
    title="unrendered template placeholder in generated file",
    rationale="A ${...} hole surviving into generated output is exactly "
    "the debt Skel exists to remove: the script will fail — or silently "
    "do the wrong thing — when executed.",
)
def unrendered_placeholder(artifact, ctx):
    if not artifact.generated:
        return
    for lineno, line in enumerate(artifact.text.splitlines(), start=1):
        for match in _PLACEHOLDER_RE.finditer(line):
            yield (
                f"unrendered placeholder {match.group(0)!r}",
                f"line {lineno}",
            )


@rule(
    "FAIR302",
    Severity.WARNING,
    target="source",
    title="model parameter shadowed in generated code",
    rationale="Generated Python rebinding a name the model provided "
    "means later statements no longer reflect the model: editing the "
    "model stops changing the behaviour — invisible drift.",
)
def shadowed_parameter(artifact, ctx):
    if not artifact.is_python or not artifact.parameters:
        return
    tree = _parse_python(artifact)
    if tree is None:
        return
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = [node.target]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)),
            ):
                if arg.arg in artifact.parameters:
                    yield (
                        f"argument {arg.arg!r} of {node.name!r} shadows a "
                        "model parameter",
                        f"line {arg.lineno}",
                    )
        for target in targets:
            for name_node in ast.walk(target):
                if (
                    isinstance(name_node, ast.Name)
                    and name_node.id in artifact.parameters
                ):
                    yield (
                        f"assignment rebinds model parameter {name_node.id!r}",
                        f"line {name_node.lineno}",
                    )


@rule(
    "FAIR303",
    Severity.WARNING,
    target="source",
    title="bare except swallows everything",
    rationale="A bare `except:` hides the very failures campaign "
    "resilience is supposed to count, retry, and report; provenance "
    "records a success that never happened.",
)
def bare_except(artifact, ctx):
    if not artifact.is_python:
        return
    tree = _parse_python(artifact)
    if tree is None:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ("bare `except:` clause", f"line {node.lineno}")


@rule(
    "FAIR304",
    Severity.WARNING,
    target="source",
    title="stale generated file",
    rationale="The fingerprint stamp disagrees with the current model: "
    "the file no longer reflects the single point of user interaction "
    "and is free to delete and regenerate.",
)
def stale_generated(artifact, ctx):
    if not artifact.generated or ctx.model is None:
        return
    if is_stale(artifact.text, ctx.model):
        yield (
            "fingerprint stamp does not match the current model; "
            "regenerate (nothing of value is lost)",
        )


@rule(
    "FAIR305",
    Severity.ERROR,
    target="source",
    title="generated Python does not parse",
    rationale="A syntax error in an analyzed Python artifact guarantees "
    "a mid-allocation crash; generated code that cannot parse means the "
    "template itself is broken.",
)
def python_syntax_error(artifact, ctx):
    if not artifact.is_python:
        return
    try:
        parse_source(artifact.text)
    except SyntaxError as exc:
        yield (f"syntax error: {exc.msg}", f"line {exc.lineno or 0}")


@rule(
    "FAIR401",
    Severity.ERROR,
    target="model",
    title="template reads variables the model does not define",
    rationale="Rendering would raise (or leave holes) at generation "
    "time; the model schema is the contract, and the template breaks it.",
)
def unbound_template_variable(bundle, ctx):
    names = (
        bundle.template_names
        if bundle.template_names is not None
        else bundle.library.names()
    )
    provided = set(bundle.model.params()) | set(bundle.extra_names) | {"loop"}
    for template_name in names:
        path_t, body_t, _comment = bundle.library.get(template_name)
        missing = sorted((path_t.variables() | body_t.variables()) - provided)
        if missing:
            yield (
                f"reads undefined model variables {missing}",
                f"template {template_name!r}",
            )


@rule(
    "FAIR402",
    Severity.WARNING,
    target="model",
    title="model field never read by any template",
    rationale="A field no template consumes is a decision the user is "
    "asked to make that changes nothing — the model should be exactly "
    "the set of decisions that matter.",
)
def unused_model_field(bundle, ctx):
    names = (
        bundle.template_names
        if bundle.template_names is not None
        else bundle.library.names()
    )
    used = bundle.library.required_variables(names)
    for field_name in sorted(set(bundle.model.values) - used):
        yield (
            f"field {field_name!r} is never read by templates {sorted(names)}",
            f"model {bundle.model.schema.name!r}",
        )
