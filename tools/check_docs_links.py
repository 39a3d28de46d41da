#!/usr/bin/env python
"""Doc-rot checker: do the docs' links and module paths still resolve?

Scans ``README.md`` and ``docs/*.md`` for three kinds of claims and
verifies each against the working tree / the importable package:

1. Markdown links ``[text](target)`` — relative targets must exist
   (``http(s)://``, ``mailto:`` and pure-anchor targets are skipped;
   an anchor on a relative target is stripped before checking).
2. Backticked file paths (inline code ending in ``.md`` or ``.py``) —
   must exist relative to the doc, the repo root, or anywhere in the
   tree (basename match covers prose like ```` `_vector.py` ````).
3. Dotted module paths — inline code starting with ``repro.``, plus
   ``import``/``from`` statements and architecture-table rows inside
   fenced code blocks.  Each must resolve: the longest importable
   module prefix is imported and the remaining segments looked up with
   ``getattr`` (so ``repro.cheetah.Campaign.to_manifest`` works).
4. Fenced ``python`` blocks — every one must *compile*
   (``compile(src, doc, "exec")``), so a doc example cannot rot into a
   SyntaxError.  Examples with deliberate ellipses should use a
   non-``python`` fence language (or none).
5. The rule catalog in ``docs/lint.md`` — the set of ``FAIRnnn`` ids in
   its table must equal the live registry (what ``python -m repro.lint
   --list-rules`` prints), so adding or retiring a rule without
   regenerating the doc fails here.

Run directly (exits 1 and lists problems if any)::

    PYTHONPATH=src python tools/check_docs_links.py

or under pytest via ``tests/test_docs_links.py``, which keeps the docs
honest in tier-1.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

INLINE_CODE = re.compile(r"`([^`\n]+)`")
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```(\w*)\s*$")
DOTTED_PATH = re.compile(r"^repro(?:\.\w+)+$")
FENCE_MODULE_ROW = re.compile(r"^(repro(?:\.\w+)+)\b")
IMPORT_LINE = re.compile(r"^\s*(?:from\s+(repro[\w.]*)\s+import\s+(.+)|import\s+(repro[\w.]*))")


def doc_files() -> list[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    return [REPO_ROOT / "README.md", *docs]


def resolve_module_path(dotted: str) -> bool:
    """True if ``dotted`` names an importable module, or an attribute
    chain hanging off one (longest importable prefix + getattr walk)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _normalize_code_span(span: str) -> str:
    """Reduce an inline-code span to a checkable dotted path, if it is one:
    drop a call suffix (``Campaign.to_manifest(bus=...)``) and anything
    after whitespace."""
    head = span.split("(", 1)[0].split()
    return head[0].rstrip(".") if head else ""


def _file_path_exists(target: str, doc: Path) -> bool:
    if (doc.parent / target).exists() or (REPO_ROOT / target).exists():
        return True
    name = Path(target).name
    return any(REPO_ROOT.glob(f"**/{name}"))


def _split_fences(text: str) -> tuple[str, list[tuple[str, str]]]:
    """Separate prose from fenced code; returns (prose, [(lang, body)])."""
    prose_lines: list[str] = []
    fences: list[tuple[str, str]] = []
    lang = None
    body: list[str] = []
    for line in text.splitlines():
        m = FENCE.match(line)
        if m and lang is None:
            lang, body = m.group(1), []
        elif line.strip() == "```" and lang is not None:
            fences.append((lang, "\n".join(body)))
            lang = None
        elif lang is not None:
            body.append(line)
        else:
            prose_lines.append(line)
    return "\n".join(prose_lines), fences


def _fence_module_claims(lang: str, body: str):
    """Dotted paths asserted inside one fenced block: import statements
    (parsed with ast when the block is valid Python) and architecture-
    table rows that lead with a ``repro.*`` path."""
    claims: list[str] = []
    parsed = None
    if lang == "python":
        try:
            parsed = ast.parse(body)
        except SyntaxError:
            parsed = None
    if parsed is not None:
        for node in ast.walk(parsed):
            if isinstance(node, ast.Import):
                claims += [a.name for a in node.names if a.name.startswith("repro")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                claims += [f"{node.module}.{a.name}" for a in node.names]
    else:
        for line in body.splitlines():
            row = FENCE_MODULE_ROW.match(line)
            if row:
                claims.append(row.group(1))
            imp = IMPORT_LINE.match(line)
            if imp:
                if imp.group(3):
                    claims.append(imp.group(3))
                else:
                    names = [n.strip() for n in imp.group(2).split(",")]
                    claims += [
                        f"{imp.group(1)}.{n}" for n in names if n.isidentifier()
                    ]
    return claims


def _compile_error(body: str, filename: str) -> str | None:
    """Compile one fenced ``python`` block; return a short error string
    on SyntaxError (line numbers are fence-relative), None when fine."""
    try:
        compile(body, filename, "exec")
    except SyntaxError as exc:
        return f"{exc.msg} (fence line {exc.lineno})"
    return None


def check_doc(doc: Path) -> list[str]:
    rel = doc.relative_to(REPO_ROOT)
    problems: list[str] = []
    prose, fences = _split_fences(doc.read_text())

    for target in MARKDOWN_LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if path_part and not _file_path_exists(path_part, doc):
            problems.append(f"{rel}: broken link target {target!r}")

    for span in INLINE_CODE.findall(prose):
        candidate = _normalize_code_span(span)
        if DOTTED_PATH.match(candidate):
            if not resolve_module_path(candidate):
                problems.append(f"{rel}: module path `{candidate}` does not resolve")
        elif candidate.endswith((".md", ".py")):
            if not _file_path_exists(candidate, doc):
                problems.append(f"{rel}: file `{candidate}` not found")

    for lang, body in fences:
        if lang == "python":
            err = _compile_error(body, str(rel))
            if err:
                problems.append(f"{rel}: ```python block does not compile: {err}")
        for claim in _fence_module_claims(lang, body):
            if not resolve_module_path(claim):
                problems.append(f"{rel}: module path `{claim}` (in ```{lang} block) does not resolve")

    return problems


RULE_TABLE_ROW = re.compile(r"^\|\s*(FAIR\d{3})\s*\|", re.MULTILINE)


def check_rule_catalog() -> list[str]:
    """The ``docs/lint.md`` rule table vs. the registered catalog."""
    doc = REPO_ROOT / "docs" / "lint.md"
    documented = set(RULE_TABLE_ROW.findall(doc.read_text()))
    from repro.lint.rules import REGISTRY

    registered = set(REGISTRY.ids())
    problems = []
    rel = doc.relative_to(REPO_ROOT)
    for rule_id in sorted(registered - documented):
        problems.append(
            f"{rel}: rule {rule_id} is registered (see --list-rules) but "
            "missing from the catalog table — regenerate it"
        )
    for rule_id in sorted(documented - registered):
        problems.append(
            f"{rel}: rule {rule_id} is documented but not registered — "
            "stale catalog table"
        )
    return problems


def collect_problems() -> list[str]:
    problems: list[str] = []
    for doc in doc_files():
        problems.extend(check_doc(doc))
    problems.extend(check_rule_catalog())
    return problems


def main() -> int:
    problems = collect_problems()
    for p in problems:
        print(p)
    checked = len(doc_files())
    if problems:
        print(f"{len(problems)} problem(s) across {checked} docs")
        return 1
    print(f"ok: {checked} docs — links, module paths, and python examples all check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
