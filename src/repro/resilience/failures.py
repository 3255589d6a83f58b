"""Failure taxonomy of the fault-tolerant simulation runtime.

Long production runs (the paper's Fig. 3: 500,000 steps over ~10 hours)
fail in a small number of recurring ways.  This module names them —
:class:`FailureKind` — and wraps every occurrence in a single
structured exception, :class:`StepFailure`, carrying the step number,
the retry attempt and the solver diagnostics, so the recovery machinery
in :mod:`repro.resilience.recovery` can decide *how* to degrade instead
of pattern-matching on exception strings.
"""

from __future__ import annotations

import enum
from typing import Any

from ..errors import (
    CheckpointCorruptionError,
    ConvergenceError,
    NotPositiveDefiniteError,
    ReproError,
)

__all__ = ["FailureKind", "StepFailure", "classify_exception"]


class FailureKind(str, enum.Enum):
    """The recognised ways a BD step (or its support machinery) fails."""

    #: (Block) Lanczos exhausted ``max_iter`` before reaching ``e_k``.
    LANCZOS_NONCONVERGENCE = "lanczos-nonconvergence"
    #: Cholesky factorization of the dense mobility broke down.
    CHOLESKY_BREAKDOWN = "cholesky-breakdown"
    #: A force evaluation produced NaN/Inf entries.
    NONFINITE_FORCES = "nonfinite-forces"
    #: A proposed displacement or position update was NaN/Inf.
    NONFINITE_STATE = "nonfinite-state"
    #: A checkpoint file failed its integrity verification.
    CHECKPOINT_CORRUPTION = "checkpoint-corruption"
    #: Anything else raised from inside the step loop.
    UNKNOWN = "unknown"


def classify_exception(exc: BaseException) -> FailureKind:
    """Map a low-level exception to its :class:`FailureKind`."""
    if isinstance(exc, StepFailure):
        return exc.kind
    if isinstance(exc, ConvergenceError):
        return FailureKind.LANCZOS_NONCONVERGENCE
    if isinstance(exc, NotPositiveDefiniteError):
        return FailureKind.CHOLESKY_BREAKDOWN
    if isinstance(exc, CheckpointCorruptionError):
        return FailureKind.CHECKPOINT_CORRUPTION
    return FailureKind.UNKNOWN


def _diagnostics_from(exc: BaseException) -> dict[str, Any]:
    """Pull structured solver diagnostics off a wrapped exception."""
    diag: dict[str, Any] = {}
    if isinstance(exc, ConvergenceError):
        if exc.iterations is not None:
            diag["iterations"] = exc.iterations
        if exc.residual is not None:
            diag["rel_change"] = exc.residual
        if exc.n_matvecs is not None:
            diag["n_matvecs"] = exc.n_matvecs
    return diag


class StepFailure(ReproError):
    """A BD step failed, with enough context to attempt recovery.

    Parameters
    ----------
    kind:
        The :class:`FailureKind` classification.
    message:
        Human-readable description.
    step:
        The (1-based) step being attempted when the failure occurred;
        ``None`` when the failure is not tied to a step (e.g. a corrupt
        checkpoint discovered at load time).
    attempt:
        Zero-based retry attempt on which this failure occurred.
    cause:
        The wrapped low-level exception, if any (also set as
        ``__cause__``).
    diagnostics:
        Structured solver context (``iterations``, ``rel_change``,
        ``n_matvecs``, ...); merged with whatever can be extracted from
        ``cause``.
    """

    def __init__(self, kind: FailureKind, message: str, *,
                 step: int | None = None, attempt: int = 0,
                 cause: BaseException | None = None,
                 diagnostics: dict[str, Any] | None = None):
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"[{kind.value}{where}, attempt {attempt}] {message}")
        self.kind = kind
        self.step = step
        self.attempt = attempt
        self.cause = cause
        self.diagnostics = dict(diagnostics or {})
        if cause is not None:
            self.__cause__ = cause
            for key, value in _diagnostics_from(cause).items():
                self.diagnostics.setdefault(key, value)

    @classmethod
    def from_exception(cls, exc: BaseException, *, step: int | None = None,
                       attempt: int = 0) -> StepFailure:
        """Wrap ``exc`` in a classified :class:`StepFailure`."""
        if isinstance(exc, cls):
            return exc
        return cls(classify_exception(exc), str(exc), step=step,
                   attempt=attempt, cause=exc)
