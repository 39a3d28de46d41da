"""Executor backend registry.

"While Savanna provides a simple job runner for the campaign, this design
allows us to import existing workflow tools that provide efficient
implementations for workflow patterns such as bag-of-tasks, pilot-based
system, large-scale MPI runs etc." (§IV).  The registry is that import
point: backends register a factory under a name; campaign drivers look
executors up by name, so swapping the execution engine is a string
change, not a code change.

Backends come in two kinds, and the drive layer routes on the kind:

- ``"simulated"`` — factory takes a ``cluster`` and returns an object
  with ``make_run(alloc, tasks, outcome, done_cb)`` plus the
  ``run(tasks, nodes=..., walltime=..., ...)`` campaign loop;
- ``"real"`` — factory takes pool options and returns an object with
  ``execute(manifest, app_fn, bus=..., name=..., cancel=..., trace_id=...)``
  (see :meth:`~repro.savanna.realexec.RealExecutor.execute`) that
  executes genuine Python on wall-clock time.

Every built-in factory takes the retry setting under one spelling,
``retry_policy=`` (a :class:`~repro.resilience.RetryPolicy`, or ``None``
for the backend's default), so a campaign's settings survive a backend
swap unchanged.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

BACKEND_KINDS = ("simulated", "real")


class _Backend(NamedTuple):
    factory: Callable
    description: str
    kind: str


_BACKENDS: dict[str, _Backend] = {}


def register_backend(
    name: str,
    factory: Callable,
    description: str = "",
    replace: bool = False,
    kind: str = "simulated",
) -> None:
    """Register an executor factory under ``name``.

    ``factory(**kwargs)`` must return an object honouring the executor
    protocol of its ``kind`` (see module docstring).  Registering an
    already-taken name raises unless ``replace=True``.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if kind not in BACKEND_KINDS:
        raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {kind!r}")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} already registered")
    _BACKENDS[name] = _Backend(factory, description, kind)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (KeyError if absent) — test/plugin
    hygiene, so a registration experiment can undo itself."""
    del _BACKENDS[name]


def get_backend(name: str) -> Callable:
    """Look up a backend factory by name."""
    try:
        return _BACKENDS[name].factory
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r}; available: {available_backends()}"
        ) from None


def backend_kind(name: str) -> str:
    """``"simulated"`` or ``"real"`` — how the drive layer must call it."""
    try:
        return _BACKENDS[name].kind
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> list[str]:
    return sorted(_BACKENDS)


def backend_descriptions() -> dict:
    return {name: b.description for name, b in _BACKENDS.items()}


def create_executor(name: str, **kwargs):
    """Instantiate a backend: ``create_executor("pilot", cluster=...)``."""
    return get_backend(name)(**kwargs)


def _make_local_threads(**kwargs):
    from repro.savanna.realexec import RealExecutor

    return RealExecutor(pool="threads", **kwargs)


def _make_local_processes(**kwargs):
    from repro.savanna.realexec import RealExecutor

    return RealExecutor(pool="processes", **kwargs)


def _register_builtins() -> None:
    from repro.savanna.pilot import PilotExecutor
    from repro.savanna.static import StaticSetExecutor

    register_backend(
        "pilot",
        PilotExecutor,
        "Savanna's dynamic pilot: pull-on-free scheduling with failure requeue",
        kind="simulated",
    )
    register_backend(
        "static-sets",
        StaticSetExecutor,
        "the original set-synchronized baseline (barrier per set)",
        kind="simulated",
    )
    register_backend(
        "local-threads",
        _make_local_threads,
        "real execution of Python callables on a thread pool "
        "(GIL-releasing workloads: numpy kernels, I/O)",
        kind="real",
    )
    register_backend(
        "local-processes",
        _make_local_processes,
        "real execution of Python callables on a process pool "
        "(CPU-bound Python that holds the GIL)",
        kind="real",
    )


_register_builtins()
