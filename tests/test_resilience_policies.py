"""Tests for the retry-policy layer and its executor integration."""

import pytest

from repro.resilience import (
    ExponentialBackoffPolicy,
    FixedDelayPolicy,
    RetryPolicy,
    as_policy,
    no_retry,
)
from repro.savanna import PilotExecutor, StaticSetExecutor

from conftest import make_cluster


class TestRetryPolicy:
    def test_defaults_never_retry(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0
        assert not policy.allows(0)
        assert policy.delay(1) == 0.0
        assert policy.timeout_for(object()) is None

    def test_allows_counts_against_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="silently disable"):
            RetryPolicy(max_retries=-1)

    def test_non_int_max_retries_rejected(self):
        with pytest.raises(ValueError, match="non-negative int"):
            RetryPolicy(max_retries=2.5)
        with pytest.raises(ValueError, match="non-negative int"):
            RetryPolicy(max_retries=True)

    def test_timeout_validation(self):
        assert RetryPolicy(task_timeout=10.0).task_timeout == 10.0
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)

    def test_allocation_budget_validation(self):
        assert RetryPolicy(allocation_budget=0).allocation_budget == 0
        with pytest.raises(ValueError, match="allocation_budget"):
            RetryPolicy(allocation_budget=-3)


class TestFixedDelayPolicy:
    def test_constant_delay(self):
        policy = FixedDelayPolicy(max_retries=3, delay_seconds=45.0)
        assert policy.delay(1) == policy.delay(3) == 45.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FixedDelayPolicy(delay_seconds=-1.0)


class TestExponentialBackoffPolicy:
    def test_geometric_progression(self):
        policy = ExponentialBackoffPolicy(base=30.0, factor=2.0)
        assert [policy.delay(k) for k in (1, 2, 3)] == [30.0, 60.0, 120.0]

    def test_max_delay_caps(self):
        policy = ExponentialBackoffPolicy(base=30.0, factor=2.0, max_delay=100.0)
        assert policy.delay(5) == 100.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = ExponentialBackoffPolicy(base=30.0, jitter=0.5, seed=9)
        b = ExponentialBackoffPolicy(base=30.0, jitter=0.5, seed=9)
        for k in (1, 2, 3):
            assert a.delay(k) == b.delay(k)
            raw = 30.0 * 2.0 ** (k - 1)
            assert raw <= a.delay(k) <= raw * 1.5

    def test_jitter_varies_with_seed(self):
        a = ExponentialBackoffPolicy(base=30.0, jitter=0.5, seed=1)
        b = ExponentialBackoffPolicy(base=30.0, jitter=0.5, seed=2)
        assert a.delay(1) != b.delay(1)

    def test_retry_index_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ExponentialBackoffPolicy().delay(0)

    def test_jitter_range_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            ExponentialBackoffPolicy(jitter=1.5)


class TestAsPolicyShim:
    def test_policy_passes_through(self):
        policy = FixedDelayPolicy()
        assert as_policy(policy) is policy

    def test_negative_int_rejected(self):
        # Integers are not a retry spelling: rejected like any non-policy.
        with pytest.raises(ValueError, match="must be a RetryPolicy or None, got int"):
            as_policy(-1)
        with pytest.raises(ValueError, match="must be a RetryPolicy or None, got int"):
            as_policy(3)

    def test_bool_and_other_types_rejected(self):
        with pytest.raises(ValueError, match="RetryPolicy"):
            as_policy(True)
        with pytest.raises(ValueError, match="RetryPolicy"):
            as_policy("twice")

    def test_no_retry_helper(self):
        policy = no_retry(task_timeout=60.0)
        assert policy.max_retries == 0
        assert policy.task_timeout == 60.0


class TestExecutorPolicyWiring:
    def test_pilot_negative_max_retries_raises(self):
        # Regression: a negative max_retries used to silently disable
        # every retry instead of failing loudly.
        with pytest.raises(ValueError, match="silently disable"):
            PilotExecutor(make_cluster(), retry_policy=RetryPolicy(max_retries=-1))

    def test_pilot_rejects_non_policy(self):
        with pytest.raises(ValueError, match="RetryPolicy"):
            PilotExecutor(make_cluster(), retry_policy="aggressive")

    def test_static_rejects_non_policy(self):
        with pytest.raises(ValueError, match="RetryPolicy"):
            StaticSetExecutor(make_cluster(), retry_policy=3)

    def test_static_default_has_no_policy(self):
        assert StaticSetExecutor(make_cluster()).retry_policy is None
