"""Run the simulated executors on the per-event reference engine.

``tests/_event_engine.py`` is the oracle the vector engines in
``repro.savanna._vector`` must match bit for bit.  Inside
:func:`event_engine`, both executors build its ``PilotRun`` or
``StaticSetRun`` instead; the equivalence tests and
``benchmarks/bench_simcore.py`` select the oracle this way.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from _event_engine import PilotRun, StaticSetRun

from repro.savanna import PilotExecutor, StaticSetExecutor


def make_event_run(executor, alloc, tasks, outcome, done_cb):
    """``make_run`` for either executor, building the oracle's engine."""
    if isinstance(executor, StaticSetExecutor):
        return StaticSetRun(
            executor.cluster,
            alloc,
            tasks,
            outcome,
            done_cb,
            set_gap=executor.set_gap,
            policy=executor.retry_policy,
        )
    return PilotRun(executor.cluster, alloc, tasks, outcome, done_cb, policy=executor.retry_policy)


@contextmanager
def event_engine():
    """Run both simulated executors on the oracle inside the block."""
    with mock.patch.object(PilotExecutor, "make_run", make_event_run), mock.patch.object(
        StaticSetExecutor, "make_run", make_event_run
    ):
        yield
