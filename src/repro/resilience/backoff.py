"""Retry backoff of the supervised ensemble runtime.

:class:`BackoffPolicy` spaces the retries of killed, hung or failed
worker tasks (:mod:`repro.runtime`) with capped exponential delays and
*deterministic* jitter: the jitter of retry ``attempt`` for a given
``seed`` is a pure function of ``(seed, attempt)``, so a re-executed
campaign schedules identically (the repo-wide reproducibility contract
extends to failure handling).

Nothing in this module reads a clock: delays are computed, not slept,
so policies stay unit-testable and schedulers own their own waiting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes
    ----------
    initial:
        Delay (seconds) of the first retry (attempt 0), pre-jitter.
    factor:
        Multiplicative growth per retry; must be >= 1.
    max_delay:
        Cap applied before jitter.
    jitter:
        Fractional half-width of the uniform jitter band: a delay ``d``
        becomes ``d * (1 + jitter * u)`` with ``u ~ U(-1, 1)`` drawn
        deterministically from ``(seed, attempt)``.  ``0`` disables
        jitter entirely.
    max_retries:
        Retries a consumer should attempt before giving up; advisory —
        :meth:`delay` itself accepts any attempt index.
    """

    initial: float = 0.25
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ConfigurationError(
                f"initial must be >= 0, got {self.initial}")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")

    def delay(self, attempt: int, *, seed: int = 0) -> float:
        """Jittered delay (seconds) before 0-based retry ``attempt``.

        Deterministic: the same ``(policy, seed, attempt)`` always
        yields the same delay, independent of call order — each draw
        uses its own ``default_rng([seed, attempt])`` substream.
        """
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.initial * self.factor ** attempt, self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = 2.0 * np.random.default_rng([seed, attempt]).random() - 1.0
        return raw * (1.0 + self.jitter * u)

    def delays(self, *, seed: int = 0) -> list[float]:
        """The full retry schedule: one delay per allowed retry."""
        return [self.delay(a, seed=seed) for a in range(self.max_retries)]
