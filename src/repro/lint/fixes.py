"""Auto-fixes for a safe subset of lint findings (``--fix``).

Three mechanical rewrites whose correctness does not depend on intent:

- **FAIR303** — ``except:`` → ``except Exception:`` (same set of
  exceptions user code can actually mean, minus the interpreter-control
  ones a bare except wrongly swallows).
- **FAIR502** — insert a seeding preamble at the top of a function that
  draws ambient randomness: a crc32 of the function's first parameter
  (the run's parameter dict) seeds ``random`` and, if drawn from,
  ``numpy.random`` — the same derivation
  :func:`repro.savanna.realexec.seed_for_run` uses for run ids.
- **FAIR504** — qualify a run-invariant path in an ``open(path, "w")``
  or ``numpy.save``-family call with the run's directory:
  ``os.path.join(str(params.get("run_dir", ".")), <path>)``.  Only the
  call-argument form is rewritten; ``Path(...).write_text`` receivers
  are left alone because the rewrite would change the receiver's type.

The default is a **dry run**: callers get the fixed text and a unified
diff, nothing touches disk unless ``write=True``.  Fixed output re-lints
clean for the rewritten findings — the seeding preamble is exactly the
evidence FAIR502 looks for, and a joined path mentions the parameter so
it is no longer run-invariant.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass
from pathlib import Path

from repro.lint import concurrency
from repro.lint import flow as _flow

_BARE_EXCEPT = re.compile(r"\bexcept(\s*):")


@dataclass(frozen=True)
class AppliedFix:
    """One rewrite the fixer performed (or would, in a dry run)."""

    rule_id: str
    line: int
    description: str


@dataclass(frozen=True)
class FileFixes:
    """The fix outcome for one file."""

    path: str
    original: str
    fixed: str
    applied: tuple

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    def diff(self) -> str:
        """Unified diff of the rewrite (empty when nothing changed)."""
        if not self.changed:
            return ""
        return "".join(
            difflib.unified_diff(
                self.original.splitlines(keepends=True),
                self.fixed.splitlines(keepends=True),
                fromfile=self.path,
                tofile=f"{self.path} (fixed)",
            )
        )


def _import_insertion_line(tree: ast.Module) -> int:
    """0-based line to insert a new top-level import at."""
    line = 0
    body = tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        line = body[0].end_lineno or body[0].lineno
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            line = node.end_lineno or node.lineno
    return line


def _module_alias(index: _flow.ModuleIndex, module: str) -> str | None:
    for alias, origin in index.imports.items():
        if origin == module:
            return alias
    return None


def _usable_alias(index: _flow.ModuleIndex, module: str, imports_to_add: set) -> str | None:
    """A name the fixed code can call ``module`` through, or ``None``.

    Prefers an existing import alias; otherwise plans a new top-level
    ``import module`` — unless the bare name is already bound to
    something else at module level (e.g. ``from random import random``),
    where a textual rewrite would silently change meaning.
    """
    alias = _module_alias(index, module)
    if alias is not None:
        return alias
    if module in index.module_names:
        return None
    imports_to_add.add(module)
    return module


def _preamble_anchor(node) -> ast.stmt:
    """First real statement of a function (docstring skipped)."""
    body = node.body
    if (
        len(body) > 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1]
    return body[0]


def fix_source(text: str, path: str = "<source>") -> FileFixes:
    """Compute the auto-fixed form of one Python source file."""
    try:
        tree = _flow.parse_source(text)
    except SyntaxError:
        return FileFixes(path=path, original=text, fixed=text, applied=())

    lines = text.splitlines(keepends=True)
    applied: list[AppliedFix] = []
    # (0-based line, 0-based col or None, rewrite) — applied bottom-up so
    # earlier edits never shift later offsets.
    span_edits: list[tuple[int, int, int, str]] = []
    line_subs: list[int] = []
    inserts: list[tuple[int, list[str]]] = []
    needed_imports: set[str] = set()

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            line_subs.append(node.lineno - 1)
            applied.append(
                AppliedFix("FAIR303", node.lineno, "bare `except:` → `except Exception:`")
            )

    index = _flow.ModuleIndex(tree, path)
    for name, fn_node in index.functions.items():
        args = fn_node.args
        positional = args.posonlyargs + args.args
        param = positional[0].arg if positional else None
        analysis = _flow.analyze_function(index, fn_node)
        entry_only = [analysis.entry]

        draws = list(concurrency.unseeded_draw_sites(analysis, entry_only))
        if draws and param is not None:
            seed_calls, imports_to_add = [], set()
            if any(r.dotted.startswith("random.") for _, _, r in draws):
                alias = _usable_alias(index, "random", imports_to_add)
                if alias:
                    seed_calls.append(f"{alias}.seed(_run_seed)\n")
            if any(r.dotted.startswith("numpy.random.") for _, _, r in draws):
                alias = _usable_alias(index, "numpy", imports_to_add)
                if alias:
                    seed_calls.append(f"{alias}.random.seed(_run_seed % (2 ** 32))\n")
            zlib_alias = _usable_alias(index, "zlib", imports_to_add)
            if seed_calls and zlib_alias is not None:
                anchor = _preamble_anchor(fn_node)
                indent = " " * anchor.col_offset
                preamble = [
                    f"{indent}_run_seed = {zlib_alias}.crc32("
                    f"repr(sorted({param}.items())).encode('utf-8')) & 0x7FFFFFFF\n"
                ] + [indent + call for call in seed_calls]
                needed_imports.update(imports_to_add)
                inserts.append((anchor.lineno - 1, preamble))
                applied.append(
                    AppliedFix(
                        "FAIR502",
                        anchor.lineno,
                        f"seed ambient RNG from {param!r} at the top of {name}()",
                    )
                )

        if param is None:
            continue
        for scope, call, target in concurrency.constant_write_sites(analysis, entry_only):
            # Only the call-argument form: rewriting a .write_text
            # receiver would hand a str where a Path is expected.
            if target not in call.args:
                continue
            if target.lineno != target.end_lineno:
                continue
            replacement = (
                f'os.path.join(str({param}.get("run_dir", ".")), '
                f"{ast.unparse(target)})"
            )
            span_edits.append(
                (target.lineno - 1, target.col_offset, target.end_col_offset, replacement)
            )
            if _module_alias(index, "os") is None:
                needed_imports.add("os")
            applied.append(
                AppliedFix(
                    "FAIR504",
                    target.lineno,
                    f"qualify run-invariant path {ast.unparse(target)} "
                    "with the per-run directory",
                )
            )

    if not applied:
        return FileFixes(path=path, original=text, fixed=text, applied=())

    for line_index, col_start, col_end, replacement in sorted(
        span_edits, key=lambda e: (e[0], e[1]), reverse=True
    ):
        line = lines[line_index]
        lines[line_index] = line[:col_start] + replacement + line[col_end:]
    for line_index in sorted(set(line_subs), reverse=True):
        lines[line_index] = _BARE_EXCEPT.sub("except Exception:", lines[line_index], count=1)
    if needed_imports:
        inserts.append(
            (
                _import_insertion_line(tree),
                [f"import {module}\n" for module in sorted(needed_imports)],
            )
        )
    for line_index, new_lines in sorted(inserts, key=lambda e: e[0], reverse=True):
        lines[line_index:line_index] = new_lines

    return FileFixes(
        path=path,
        original=text,
        fixed="".join(lines),
        applied=tuple(sorted(applied, key=lambda f: (f.line, f.rule_id))),
    )


def fix_paths(paths, write: bool = False) -> list[FileFixes]:
    """Fix every Python file under ``paths``; dry run unless ``write``."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no such path: {path}")
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    results = []
    for file in files:
        outcome = fix_source(file.read_text(), str(file))
        if outcome.changed and write:
            file.write_text(outcome.fixed)
        results.append(outcome)
    return results


__all__ = ["AppliedFix", "FileFixes", "fix_source", "fix_paths"]
