"""Swapping the backend is a string change.

Every registered backend takes each execution setting under one
spelling: ``retry_policy=`` is a :class:`~repro.resilience.RetryPolicy`
or ``None`` everywhere, and the allocation budget is ``max_allocations=``
on both drive entry points.  A malformed or unknown option fails in the
drive's argument check, before the lint gate writes a campaign directory.
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.resilience import FixedDelayPolicy
from repro.savanna import (
    CampaignService,
    SubmissionState,
    backend_kind,
    create_executor,
    execute_campaign,
    execute_manifest,
)

from conftest import make_cluster

BACKENDS = ("pilot", "static-sets", "local-threads", "local-processes")


def double(params):  # module-level so local-processes can pickle it
    return params["x"] * 2


def make_manifest(n=4, walltime=600.0):
    camp = Campaign("swap", app=AppSpec("double"))
    sg = camp.sweep_group("g", nodes=2, walltime=walltime)
    sg.add(Sweep([SweepParameter("x", tuple(range(n)))]))
    return camp.to_manifest()


def needs(backend) -> dict:
    """What the backend's kind needs besides the manifest."""
    if backend_kind(backend) == "simulated":
        return {"duration_model": lambda p: 10.0, "cluster": make_cluster(nodes=2)}
    return {"app_fn": double, "max_workers": 2}


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_policy_reaches_the_executor(backend):
    policy = FixedDelayPolicy(max_retries=1, delay_seconds=0.0)
    kwargs = {"cluster": make_cluster(nodes=2)} if backend_kind(backend) == "simulated" else {}
    assert create_executor(backend, retry_policy=policy, **kwargs).retry_policy is policy


@pytest.mark.parametrize("backend", BACKENDS)
def test_integer_retry_policy_rejected_before_anything_is_written(backend, tmp_path):
    message = "retry_policy must be a RetryPolicy or None, got int"
    with pytest.raises(ValueError, match=re.escape(message)):
        execute_manifest(
            make_manifest(), backend=backend, directory=tmp_path, retry_policy=2,
            **needs(backend),
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_option_the_backend_does_not_take_fails_before_anything_is_written(
    backend, tmp_path
):
    with pytest.raises(TypeError, match="max_retries"):
        execute_manifest(
            make_manifest(), backend=backend, directory=tmp_path, max_retries=2,
            **needs(backend),
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_fully_resumed_group_is_all_done(backend, tmp_path):
    first = execute_manifest(make_manifest(), backend=backend, directory=tmp_path, **needs(backend))
    assert first.all_done and len(first.completed) == 4
    again = execute_manifest(make_manifest(), backend=backend, directory=tmp_path, **needs(backend))
    assert len(again.completed) == 0
    assert again.all_done


def test_execute_campaign_takes_max_allocations():
    # Two nodes, 10 s runs, a 25 s walltime: each allocation fits four
    # of the eight runs.
    result = execute_campaign(
        make_manifest(n=8, walltime=25.0), backend="pilot", max_allocations=2,
        **needs("pilot"),
    )
    assert len(result["g"].outcomes) == 2
    assert result["g"].all_done


def test_service_submission_takes_max_allocations():
    async def scenario():
        async with CampaignService(max_workers=1) as service:
            handle = service.submit(
                make_manifest(n=8, walltime=25.0), backend="pilot", max_allocations=2,
                **needs("pilot"),
            )
            state = await handle.wait(timeout=30.0)
            return state, handle

    state, handle = asyncio.run(scenario())
    assert state is SubmissionState.DONE, handle.error
    assert len(handle.result["g"].outcomes) == 2
    assert handle.result["g"].all_done
