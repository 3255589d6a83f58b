"""Retry backoff of the supervised ensemble runtime.

:func:`retry_delay` spaces the retries of killed, hung or failed
worker tasks (:mod:`repro.runtime`) with capped exponential delays and
*deterministic* jitter: the jitter of retry ``attempt`` for a given
``seed`` is a pure function of ``(seed, attempt)``, so a re-executed
campaign schedules identically (the repo-wide reproducibility contract
extends to failure handling).  How many retries a task gets is the
supervisor's business (:data:`repro.runtime.supervisor.MAX_TASK_FAILURES`).

Nothing in this module reads a clock: delays are computed, not slept,
so the schedule stays unit-testable and schedulers own their own
waiting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["retry_delay"]

#: Delay (seconds) of the first retry (attempt 0), pre-jitter.
RETRY_INITIAL = 0.25
#: Multiplicative growth per retry.
RETRY_FACTOR = 2.0
#: Cap (seconds) applied before jitter.
RETRY_MAX_DELAY = 30.0
#: Fractional half-width of the uniform jitter band: a delay ``d``
#: becomes ``d * (1 + RETRY_JITTER * u)`` with ``u ~ U(-1, 1)``.
RETRY_JITTER = 0.1


def retry_delay(attempt: int, seed: int = 0) -> float:
    """Jittered delay (seconds) before 0-based retry ``attempt``.

    Deterministic: the same ``(seed, attempt)`` always yields the same
    delay, independent of call order — each draw uses its own
    ``default_rng([seed, attempt])`` substream.
    """
    if attempt < 0:
        raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
    raw = min(RETRY_INITIAL * RETRY_FACTOR ** attempt, RETRY_MAX_DELAY)
    if raw == 0.0:
        return raw
    u = 2.0 * np.random.default_rng([seed, attempt]).random() - 1.0
    return raw * (1.0 + RETRY_JITTER * u)
