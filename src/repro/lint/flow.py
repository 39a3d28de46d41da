"""Interprocedural AST flow analysis backing the FAIR5xx rule pack.

This module knows nothing about concurrency rules; it answers the
questions those rules ask of a function body and its surroundings:

- **Symbol resolution** — what does this name refer to?  A parameter, a
  local, a module-level binding of the analyzed module, an imported
  module attribute (``np.random.rand`` → ``numpy.random.rand``), or an
  unbound (builtin) name.
- **Call-graph construction** — which module-level functions are
  reachable from an entry function, following direct calls *and* bare
  references (a helper passed as a callback is still worker code).
- **Constness** — is this expression provably the same value on every
  run?  Parameters and anything derived from a call are *run-varying*;
  literals, f-strings of literals, ``Path``/``os.path.join`` over
  literals, and module constants are not.  Constness is what turns "this
  function writes a file" into "every run writes the *same* file".
- **Attribute-write tracking** — stores into ``obj.attr`` / ``obj[k]``
  and mutating method calls, with the receiver resolved.

Everything here is pure :mod:`ast` analysis — nothing from the analyzed
source is ever imported or executed.
"""

from __future__ import annotations

import ast
import inspect
import pickle
import threading
from dataclasses import dataclass, field

#: Serializes every parse in the lint package.  CPython (seen on 3.11)
#: keeps the bookkeeping of its tree-to-object conversion per
#: interpreter, not per thread, so two threads parsing at once — lint
#: gates of concurrent service submissions — can fail with
#: ``SystemError('AST constructor recursion depth mismatch')``.
_PARSE_LOCK = threading.Lock()


def parse_source(text: str) -> ast.Module:
    """``ast.parse(text)``, one thread at a time (see ``_PARSE_LOCK``)."""
    with _PARSE_LOCK:
        return ast.parse(text)


#: Method names that mutate their receiver in place.  Used to detect
#: module-state mutation through a method call rather than a store.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Callables (by resolved dotted name) that build a constant value from
#: constant arguments — paths assembled from literals are still literals.
_CONSTANT_BUILDERS = frozenset(
    {"pathlib.Path", "pathlib.PurePath", "os.path.join", "posixpath.join", "str"}
)


class ModuleIndex:
    """Module-level bindings of one parsed module.

    Only top-level statements are indexed: the point is to resolve what
    a *function body* sees in its enclosing module namespace.
    """

    def __init__(self, tree: ast.Module, path: str = "<module>"):
        self.tree = tree
        self.path = path
        #: local alias -> dotted origin ("np" -> "numpy",
        #: "rand" -> "numpy.random.rand" for from-imports).
        self.imports: dict[str, str] = {}
        #: module-level function name -> its def node.
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: module-level simple assignment name -> value expression
        #: (``None`` when rebound and therefore ambiguous).
        self.constants: dict[str, ast.expr | None] = {}
        #: every name bound at module level (classes included).
        self.module_names: set[str] = set()
        for node in tree.body:
            self._index(node)

    @classmethod
    def from_source(cls, text: str, path: str = "<module>") -> "ModuleIndex | None":
        try:
            tree = parse_source(text)
        except SyntaxError:
            return None
        return cls(tree, path)

    def _index(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports[local] = origin
                self.module_names.add(local)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.imports[local] = f"{base}.{alias.name}" if base else alias.name
                self.module_names.add(local)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.functions[node.name] = node
            self.module_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            self.module_names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _bound_names(target):
                    ambiguous = name in self.constants
                    only_name = isinstance(target, ast.Name)
                    self.constants[name] = node.value if only_name and not ambiguous else None
                    self.module_names.add(name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            self.constants[node.target.id] = node.value
            self.module_names.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional module bodies (TYPE_CHECKING guards, optional
            # imports) still bind names the functions below can see.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index(child)


def _bound_names(target: ast.expr):
    """Names bound by an assignment target (tuple unpack included)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


@dataclass(frozen=True)
class Resolution:
    """Where a dotted reference points.

    ``kind`` is one of ``"local"`` (parameter or local binding — not
    resolvable past the function), ``"import"``, ``"module"`` (a
    module-level binding of the analyzed module), or ``"unknown"``
    (unbound anywhere visible: a builtin or a star-import survivor).
    ``dotted`` is the fully resolved dotted path when one exists —
    imports are followed, so ``np.random.rand`` resolves to
    ``numpy.random.rand``.
    """

    kind: str
    dotted: str = ""


@dataclass
class FunctionScope:
    """One function's names, locals, and single-assignment bindings."""

    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    name: str
    module: ModuleIndex
    params: frozenset = frozenset()
    #: every name bound inside the function (params, locals, loop vars).
    local_names: set = field(default_factory=set)
    #: local -> value expr when assigned exactly once (else ``None``).
    local_assigns: dict = field(default_factory=dict)
    #: names the function declared ``global`` (resolve to the module).
    declared_global: frozenset = frozenset()

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @classmethod
    def build(cls, module: ModuleIndex, node) -> "FunctionScope":
        name = getattr(node, "name", "<lambda>")
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        scope = cls(node=node, name=name, module=module, params=frozenset(params))
        scope.local_names = set(params)
        declared_global: set[str] = set()
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Global):
                    declared_global.update(child.names)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        for bound in _bound_names(target):
                            scope.local_names.add(bound)
                            ambiguous = bound in scope.local_assigns
                            only = isinstance(target, ast.Name) and len(child.targets) == 1
                            scope.local_assigns[bound] = (
                                child.value if only and not ambiguous else None
                            )
                elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                    scope.local_names.add(child.target.id)
                    scope.local_assigns[child.target.id] = child.value
                elif isinstance(child, (ast.AugAssign, ast.For, ast.AsyncFor)):
                    target = child.target
                    for bound in _bound_names(target):
                        scope.local_names.add(bound)
                        scope.local_assigns[bound] = None
                elif isinstance(child, (ast.With, ast.AsyncWith)):
                    for item in child.items:
                        if item.optional_vars is not None:
                            for bound in _bound_names(item.optional_vars):
                                scope.local_names.add(bound)
                                scope.local_assigns[bound] = None
                elif isinstance(child, ast.ExceptHandler) and child.name:
                    scope.local_names.add(child.name)
                elif isinstance(child, ast.comprehension):
                    for bound in _bound_names(child.target):
                        scope.local_names.add(bound)
                        scope.local_assigns[bound] = None
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not node:
                    scope.local_names.add(child.name)
        scope.declared_global = frozenset(declared_global)
        scope.local_names -= declared_global
        return scope

    # -- resolution ---------------------------------------------------

    def resolve(self, node: ast.expr) -> Resolution:
        """Resolve a Name/Attribute chain to its origin."""
        parts = dotted_parts(node)
        if parts is None:
            return Resolution("local")
        base, rest = parts[0], parts[1:]
        if base in self.local_names and base not in self.declared_global:
            return Resolution("local")
        index = self.module
        if base in index.imports:
            return Resolution("import", ".".join([index.imports[base], *rest]))
        if base in index.module_names:
            return Resolution("module", ".".join(parts))
        return Resolution("unknown", ".".join(parts))

    def resolve_call(self, call: ast.Call) -> Resolution:
        return self.resolve(call.func)

    # -- constness ----------------------------------------------------

    def is_constant(self, node: ast.expr, _depth: int = 0) -> bool:
        """True when ``node`` provably evaluates to the same value on
        every run of the function: no parameter, local of unknown
        provenance, or arbitrary call participates."""
        if _depth > 8 or node is None:
            return False
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, (ast.Tuple, ast.List)):
            return all(self.is_constant(e, _depth + 1) for e in node.elts)
        if isinstance(node, ast.JoinedStr):
            return all(
                self.is_constant(v.value, _depth + 1) if isinstance(v, ast.FormattedValue)
                else isinstance(v, ast.Constant)
                for v in node.values
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Div, ast.Mod)):
            return self.is_constant(node.left, _depth + 1) and self.is_constant(
                node.right, _depth + 1
            )
        if isinstance(node, ast.Call):
            resolved = self.resolve_call(node)
            builder = resolved.dotted in _CONSTANT_BUILDERS or (
                resolved.kind == "unknown" and resolved.dotted in ("str", "Path")
            )
            if not builder or node.keywords:
                return False
            return all(self.is_constant(a, _depth + 1) for a in node.args)
        if isinstance(node, ast.Name):
            if node.id in self.params:
                return False
            if node.id in self.local_names:
                value = self.local_assigns.get(node.id)
                return value is not None and self.is_constant(value, _depth + 1)
            value = self.module.constants.get(node.id)
            return value is not None and self.is_constant(value, _depth + 1)
        return False

    # -- traversal ----------------------------------------------------

    def walk(self):
        """Walk the function body, *excluding* nested function bodies —
        each reachable function gets its own scope."""
        body = self.node.body if isinstance(self.node.body, list) else [self.node.body]
        stack = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                stack.append(child)

    def calls(self):
        for node in self.walk():
            if isinstance(node, ast.Call):
                yield node


def dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


@dataclass
class FlowAnalysis:
    """An entry function plus every reachable module-level callee."""

    module: ModuleIndex
    entry: FunctionScope
    #: entry first, then callees in breadth-first call-graph order.
    scopes: list = field(default_factory=list)

    @property
    def reachable_names(self) -> list[str]:
        return [s.name for s in self.scopes]


def analyze_function(module: ModuleIndex, node) -> FlowAnalysis:
    """Build the call graph rooted at ``node``.

    A module-level function is reachable when the body under analysis
    mentions its name at all — a helper handed to ``map``/``submit`` as
    a callback runs in the same worker as a direct call.
    """
    entry = FunctionScope.build(module, node)
    analysis = FlowAnalysis(module=module, entry=entry, scopes=[entry])
    visited = {entry.name}
    queue = [entry]
    while queue:
        scope = queue.pop(0)
        for walked in scope.walk():
            if not isinstance(walked, ast.Name) or not isinstance(walked.ctx, ast.Load):
                continue
            name = walked.id
            if name in visited or name in scope.local_names:
                continue
            callee = module.functions.get(name)
            if callee is None:
                continue
            visited.add(name)
            callee_scope = FunctionScope.build(module, callee)
            analysis.scopes.append(callee_scope)
            queue.append(callee_scope)
    return analysis


# ---------------------------------------------------------------------------
# Runtime face: analyzing a live callable (the drive/service app_fn gate)


def pickle_hints_for(fn) -> tuple:
    """Human explanations of *why* a callable resists pickling."""
    hints = []
    name = getattr(fn, "__name__", "")
    qualname = getattr(fn, "__qualname__", name)
    if name == "<lambda>":
        hints.append("defined as a lambda (pickle serializes functions by importable name)")
    elif "<locals>" in qualname:
        hints.append(f"nested function {qualname!r} is not importable at module scope")
    if inspect.ismethod(fn):
        hints.append("bound method: pickling it drags the whole instance along")
    code = getattr(fn, "__code__", None)
    if getattr(fn, "__closure__", None) and code is not None:
        captured = ", ".join(sorted(code.co_freevars))
        hints.append(f"closes over {captured} (captured state travels to every worker)")
    return tuple(hints)


def probe_pickle(fn) -> str | None:
    """``None`` when ``fn`` pickles; else a one-line failure description."""
    try:
        pickle.dumps(fn)
    except Exception as exc:  # noqa: B902 - pickle raises a zoo of types
        return f"{type(exc).__name__}: {exc}"
    return None


def analyze_callable(fn) -> FlowAnalysis | None:
    """Flow analysis for a live function via its module's source.

    Returns ``None`` when source is unavailable (builtins, C
    extensions, interactive definitions) — runtime pickle probing still
    applies in that case, static rules stand down.
    """
    try:
        module = inspect.getmodule(fn)
        source = inspect.getsource(module) if module is not None else None
    except (OSError, TypeError):
        source = None
    if source is None:
        return None
    index = ModuleIndex.from_source(source, getattr(module, "__file__", "") or "<module>")
    if index is None:
        return None
    code = getattr(fn, "__code__", None)
    target = None
    fn_name = getattr(fn, "__name__", "")
    if fn_name in index.functions:
        target = index.functions[fn_name]
    elif code is not None:
        # Lambdas and nested defs: locate by line number anywhere in the tree.
        for node in ast.walk(index.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if node.lineno == code.co_firstlineno:
                    target = node
                    break
    if target is None:
        return None
    return analyze_function(index, target)


__all__ = [
    "MUTATING_METHODS",
    "ModuleIndex",
    "Resolution",
    "FunctionScope",
    "FlowAnalysis",
    "analyze_function",
    "analyze_callable",
    "dotted_parts",
    "parse_source",
    "pickle_hints_for",
    "probe_pickle",
]
