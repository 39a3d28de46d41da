"""Retry policies: how a campaign spends its failure budget.

The paper frames manual babysitting of failed runs as *serviced* technical
debt (§IV–V): every hand-resubmitted run is a payment on debt the workflow
system should have absorbed.  A :class:`RetryPolicy` is the machine-
actionable version of that absorption — it decides, per task, whether a
failed attempt gets another try, how long to wait before the retry
(backoff), how long any single attempt may run (timeout), and how many
retries one batch allocation may spend in total (the allocation budget).

Everything is deterministic: backoff jitter derives from an explicit seed
and the retry index, never from wall-clock entropy, so a campaign executed
twice under the same fault seed produces identical traces.

Every backend takes its policy under one spelling, ``retry_policy=``:
a :class:`RetryPolicy`, or ``None`` for the backend's default (the pilot
retries twice with no delay; static sets and the real pools do not
retry).  :func:`as_policy` is the one check they share.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonnegative, check_positive


class RetryPolicy:
    """Base policy: up to ``max_retries`` immediate retries, no backoff.

    Parameters
    ----------
    max_retries:
        Per-task retry budget (attempts beyond the first).  ``0`` disables
        retries entirely.
    task_timeout:
        Wall-second cap on any single attempt; an attempt that would run
        longer is cut at the timeout, emits ``task.timeout``, and counts
        as a failure (so it re-enters the retry path).  ``None`` = no cap.
    allocation_budget:
        Total retries one batch allocation may spend across *all* its
        tasks; once exhausted, further failures in that allocation are
        terminal.  ``None`` = unbounded.
    """

    def __init__(
        self,
        max_retries: int = 0,
        task_timeout: float | None = None,
        allocation_budget: int | None = None,
    ):
        if not isinstance(max_retries, int) or isinstance(max_retries, bool):
            raise ValueError(
                f"max_retries must be a non-negative int, got {max_retries!r}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries} "
                "(negative values would silently disable retries)"
            )
        if task_timeout is not None:
            check_positive("task_timeout", task_timeout)
        if allocation_budget is not None:
            if not isinstance(allocation_budget, int) or allocation_budget < 0:
                raise ValueError(
                    f"allocation_budget must be a non-negative int, got {allocation_budget!r}"
                )
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.allocation_budget = allocation_budget

    # -- decisions -----------------------------------------------------------

    def allows(self, retries_so_far: int) -> bool:
        """May a task that already retried ``retries_so_far`` times retry again?"""
        return retries_so_far < self.max_retries

    def delay(self, retry_index: int) -> float:
        """Seconds to wait before retry number ``retry_index`` (1-based)."""
        return 0.0

    def timeout_for(self, task) -> float | None:
        """Per-attempt wall-second cap for ``task`` (``None`` = uncapped)."""
        return self.task_timeout

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"{type(self).__name__}(max_retries={self.max_retries}, "
            f"task_timeout={self.task_timeout}, "
            f"allocation_budget={self.allocation_budget})"
        )


class FixedDelayPolicy(RetryPolicy):
    """Retry after a constant delay — the simplest debt-absorbing policy."""

    def __init__(
        self,
        max_retries: int = 2,
        delay_seconds: float = 0.0,
        task_timeout: float | None = None,
        allocation_budget: int | None = None,
    ):
        super().__init__(
            max_retries=max_retries,
            task_timeout=task_timeout,
            allocation_budget=allocation_budget,
        )
        check_nonnegative("delay_seconds", delay_seconds)
        self.delay_seconds = float(delay_seconds)

    def delay(self, retry_index: int) -> float:
        return self.delay_seconds


class ExponentialBackoffPolicy(RetryPolicy):
    """Exponential backoff with deterministic jitter.

    Retry ``k`` (1-based) waits ``base * factor**(k-1)`` seconds, clipped
    to ``max_delay``, plus a jitter term in ``[0, jitter * delay)``.  The
    jitter derives from ``seed`` and ``k`` alone — *not* from a shared
    mutable RNG stream — so two identically-seeded campaigns back off
    identically regardless of how their failure interleavings differ.
    """

    def __init__(
        self,
        max_retries: int = 3,
        base: float = 30.0,
        factor: float = 2.0,
        max_delay: float = 3600.0,
        jitter: float = 0.0,
        seed: int = 0,
        task_timeout: float | None = None,
        allocation_budget: int | None = None,
    ):
        super().__init__(
            max_retries=max_retries,
            task_timeout=task_timeout,
            allocation_budget=allocation_budget,
        )
        check_positive("base", base)
        check_positive("factor", factor)
        check_positive("max_delay", max_delay)
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.base = float(base)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def delay(self, retry_index: int) -> float:
        if retry_index < 1:
            raise ValueError(f"retry_index is 1-based, got {retry_index}")
        raw = min(self.base * self.factor ** (retry_index - 1), self.max_delay)
        if self.jitter == 0.0:
            return raw
        # Keyed, stateless jitter: a fresh draw from (seed, k), not a
        # shared stream, so delays are independent of failure interleaving.
        u = float(np.random.default_rng([self.seed, retry_index]).uniform())
        return raw * (1.0 + self.jitter * u)


def no_retry(task_timeout: float | None = None) -> RetryPolicy:
    """A policy that never retries (the original workflow's behaviour)."""
    return RetryPolicy(max_retries=0, task_timeout=task_timeout)


def as_policy(value) -> RetryPolicy:
    """Check a ``retry_policy=`` argument: a :class:`RetryPolicy` passes
    through and ``None`` means "no retries" (the :func:`no_retry` default
    of the real-execution engine).

    Raises ``ValueError`` for anything else, integers included — a retry
    budget is spelled ``RetryPolicy(max_retries=n)`` on every backend.
    """
    if value is None:
        return no_retry()
    if isinstance(value, RetryPolicy):
        return value
    raise ValueError(
        f"retry_policy must be a RetryPolicy or None, got {type(value).__name__}"
    )
