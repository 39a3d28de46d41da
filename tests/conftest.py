"""Shared fixtures for the fairflow test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import ClusterSpec, SimulatedCluster

# Tier-1 is deterministic: every Hypothesis test replays the same
# examples on every run.  The nightly CI job passes
# ``--hypothesis-profile=random`` to draw fresh ones instead, five times
# as many for the tests that do not pin ``max_examples``.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("random", derandomize=False, max_examples=500, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster():
    """A 4-node deterministic-queue cluster with failures disabled."""
    spec = ClusterSpec(
        nodes=4,
        queue_sigma=0.0,
        queue_median_wait=10.0,
        node_mttf=None,
        fs_load=None,
    )
    return SimulatedCluster(spec, seed=7)


def make_cluster(nodes=4, mttf=None, queue_wait=10.0, seed=7):
    """Parameterizable cluster factory for executor tests."""
    spec = ClusterSpec(
        nodes=nodes,
        queue_sigma=0.0,
        queue_median_wait=queue_wait,
        node_mttf=mttf,
        fs_load=None,
    )
    return SimulatedCluster(spec, seed=seed)
