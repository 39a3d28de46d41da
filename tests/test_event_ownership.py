"""Every published event owns its ``fields`` dict.

Subscribers share each event, so no two events may share a ``fields``
dict: a later write through one would rewrite the other.  ``emit``
builds a fresh dict from its keyword arguments, and an attempt block
builds fresh dicts and lists for each event it stands for.  This
records every drive of the simulator-equivalence scenario matrix (pilot
and static sets; faults, retries, timeouts, multi-node tasks and
walltime kills) on both engines and checks that no two events share a
``fields`` dict and that no ``task`` begin hands out a task's own
``payload`` dict or its attempt's ``node_indices`` list.  The vector
engine publishes attempt blocks, so its events here are the ones a
block built for the recorder.
"""

from __future__ import annotations

import pytest

from _oracle import event_engine
from repro.observability import BEGIN, TASK
from repro.observability.recorder import TraceRecorder
from test_simcore_equivalence import SCENARIOS, _cluster


def _recorded_drive(name: str, engine: str):
    spec, faults, make_executor, make_tasks, run_kwargs = SCENARIOS[name]
    cluster = _cluster(spec, faults)
    recorder = TraceRecorder().attach(cluster.bus)
    tasks = make_tasks()
    if engine == "event":
        with event_engine():
            make_executor(cluster).run(tasks, **run_kwargs)
    else:
        make_executor(cluster).run(tasks, **run_kwargs)
    recorder.detach()
    return recorder.events, tasks


@pytest.mark.parametrize("engine", ["vector", "event"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_event_owns_its_fields(name, engine):
    events, tasks = _recorded_drive(name, engine)
    assert events
    assert len({id(e.fields) for e in events}) == len(events)
    payloads = {t.task_id: t.payload for t in tasks}
    attempts = {(t.task_id, n): a for t in tasks for n, a in enumerate(t.attempts, 1)}
    begins = [e for e in events if e.name == TASK and e.phase == BEGIN]
    assert begins
    for event in begins:
        f = event.fields
        assert f["payload"] is not payloads[f["task_id"]]
        attempt = attempts[f["task_id"], f["attempt"]]
        assert f["nodes"] == attempt.node_indices
        assert f["nodes"] is not attempt.node_indices
