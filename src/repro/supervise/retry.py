"""Bounded retries with deterministic, seeded exponential backoff.

A :class:`RetryPolicy` is a frozen value object describing *how* to
retry an operation that can fail with a transient ``OSError`` — how
many attempts and how long to back off between them.  The backoff
schedule is exponential with multiplicative jitter drawn from a
:class:`numpy.random.SeedSequence`, so two processes running the same
policy with the same ``key`` sleep for bit-identical durations — chaos
soaks replay exactly.

The policy deliberately re-raises the *original* exception once the
attempt budget is spent: call sites keep their existing ``except
OSError`` / ``except ArtifactCorruptedError`` handling, and the retry
layer stays invisible to the type system of failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from ..configbase import ConfigMixin
from ..obs.core import obs_event

__all__ = ["RetryPolicy", "RetryCounters"]

R = TypeVar("R")

#: Spawn-key namespace of the jitter streams.  Its value seeds every
#: backoff schedule, so changing it changes every published delay.
_JITTER_NAMESPACE = 0x52455452  # "RETR"
#: Exception types :meth:`RetryPolicy.call` treats as transient.
RETRY_ON: tuple[type[BaseException], ...] = (OSError,)
#: Growth of the backoff between consecutive attempts, and its cap.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 1.0
#: Root seed of the jitter streams (``key`` separates call sites).
JITTER_SEED = 0


@dataclass
class RetryCounters:
    """Mutable tally of what a policy's calls actually did."""

    calls: int = 0          # top-level call() invocations
    retries: int = 0        # extra attempts beyond the first
    exhausted: int = 0      # calls that failed every attempt

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class RetryPolicy(ConfigMixin):
    """How to retry one logical operation.

    ``max_attempts`` bounds total tries (1 = no retry).  Backoff before
    attempt ``k`` (k >= 2) is ``backoff_base_s * BACKOFF_FACTOR**(k-2)``
    capped at ``MAX_BACKOFF_S``, scaled by a jitter factor drawn
    uniformly from ``[1 - jitter, 1 + jitter]`` out of a seeded stream
    keyed by ``key`` — deterministic, schedule-independent.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.01
    jitter: float = 0.1
    # A live tally has no JSON form; it stays off the config dict
    # surface (see repro.configbase).
    counters: RetryCounters = field(default_factory=RetryCounters,
                                    compare=False,
                                    metadata={"config_exclude": True})

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # ------------------------------------------------------------------
    def delays(self, key: int = 0) -> list[float]:
        """The full deterministic backoff schedule for one call site.

        ``delays(key)[k]`` is the sleep before attempt ``k + 2``; the
        list is empty when the policy never retries.
        """
        rng = np.random.default_rng(np.random.SeedSequence(
            JITTER_SEED, spawn_key=(_JITTER_NAMESPACE, int(key))))
        out: list[float] = []
        for attempt in range(self.max_attempts - 1):
            base = min(self.backoff_base_s * BACKOFF_FACTOR ** attempt,
                       MAX_BACKOFF_S)
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(base * factor)
        return out

    # ------------------------------------------------------------------
    def call(self, fn: Callable[..., R], *args, key: int = 0,
             sleep: Callable[[float], None] = time.sleep,
             **kwargs) -> R:
        """Run ``fn(*args, **kwargs)`` under this policy.

        Retries only the exception types in ``RETRY_ON``; anything else
        propagates immediately.  When every attempt fails, the *last*
        exception is re-raised unchanged, so existing handlers keep
        working.  ``key`` selects the jitter stream (use a stable
        per-call-site integer); ``sleep`` is injectable for tests.
        """
        delays = self.delays(key)
        self.counters.calls += 1
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except RETRY_ON as exc:
                failure = exc
            if attempt + 1 >= self.max_attempts:
                self.counters.exhausted += 1
                obs_event("retry.exhausted", key=int(key),
                          attempts=self.max_attempts, error=str(failure))
                raise failure
            self.counters.retries += 1
            obs_event("retry.attempt", key=int(key), attempt=attempt + 2,
                      error=str(failure))
            sleep(delays[attempt])
        raise AssertionError("unreachable")  # pragma: no cover
