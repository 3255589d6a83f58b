"""Exception types used across the :mod:`repro` package.

A small, flat hierarchy: every error raised by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still distinguishing configuration problems from
numerical failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """A simulation or operator was configured with invalid parameters.

    Examples: non-positive box length, B-spline order larger than the
    mesh, a cutoff radius exceeding half the box, or a volume fraction
    that cannot be packed, or a malformed argument array (the checks
    of :mod:`repro.utils.validation`).  Also subclasses
    :class:`ValueError` so callers can treat malformed argument values
    with the standard idiom.
    """


class ConvergenceError(ReproError):
    """An iterative method failed to reach its tolerance.

    Raised by the (block) Lanczos solvers when the maximum number of
    iterations is exhausted before the relative-error stopping criterion
    ``e_k`` is met, and by the PME parameter tuner when no parameter set
    achieves the requested accuracy within the allowed mesh sizes.

    The solvers attach their diagnostics so the recovery ladder
    (:mod:`repro.resilience.recovery`) can log why it degraded to a
    more robust method.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None,
                 n_matvecs: int | None = None):
        super().__init__(message)
        #: Number of iterations performed before giving up (if known).
        self.iterations = iterations
        #: Last observed relative residual/error estimate (if known).
        self.residual = residual
        #: Operator applications spent before giving up (if known).
        self.n_matvecs = n_matvecs

    @property
    def rel_change(self) -> float | None:
        """Alias of :attr:`residual` (the relative-update criterion)."""
        return self.residual


class NotPositiveDefiniteError(ReproError):
    """A matrix expected to be symmetric positive definite was not.

    The RPY mobility matrix is SPD for every particle configuration, so
    this error indicates either catastrophic particle overlap with
    regularization disabled or an internal inconsistency.
    """


class CheckpointCorruptionError(ReproError):
    """A checkpoint file failed its integrity check.

    Raised by :func:`repro.core.checkpoint.load_checkpoint` when the
    file is truncated, bit-flipped (embedded checksum mismatch) or not
    a readable archive at all.  Distinct from
    :class:`ConfigurationError` (a structurally valid file that is not
    a repro checkpoint) so recovery code can fall back to a previous
    checkpoint on corruption while still failing loudly on user error.
    """
