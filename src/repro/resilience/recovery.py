"""The retry/degrade ladder for Brownian displacement generation.

Fiore et al. (PAPERS.md) observe that iterative square-root methods
degrade as particles approach overlap — the mobility spectrum widens
and (block) Lanczos needs more iterations than the configured budget.
Instead of aborting a 10-hour run, the ladder implemented here walks
down a configurable sequence of increasingly robust (and increasingly
expensive) methods:

1. retry Lanczos with a grown ``max_iter`` and a looser-then-tighter
   tolerance (:meth:`RecoveryPolicy.lanczos_retry_schedule`),
2. optionally accept the best partial iterate if it got close enough,
3. fall back to the Chebyshev (Fixman) polynomial square root,
4. fall back to the dense Cholesky / eigendecomposition reference
   (materializing the operator — last resort, modest ``n`` only).

Every rung is recorded in the :class:`~repro.resilience.policy.RecoveryLog`.
The no-failure fast path is byte-for-byte the same computation as the
unguarded code, so enabling a policy does not perturb trajectories.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from .. import obs
from ..errors import (
    ConfigurationError,
    ConvergenceError,
    NotPositiveDefiniteError,
)
from ..krylov.block_lanczos import LanczosInfo
from ..krylov.chebyshev import chebyshev_sqrt, eigenvalue_bounds
from ..krylov.reference import cholesky_displacements, dense_sqrtm
from .failures import FailureKind, StepFailure, classify_exception
from .policy import RecoveryLog, RecoveryPolicy

__all__ = ["krylov_displacements_resilient",
           "cholesky_displacements_resilient", "materialize_operator"]


def materialize_operator(matvec: Any, dim: int) -> np.ndarray:
    """Dense ``(dim, dim)`` matrix of a matrix-free operator.

    Accepts anything :func:`~repro.core.mobility.as_mobility` does: a
    :class:`~repro.core.mobility.MobilityOperator`, a dense matrix or a
    legacy matvec callable.  A dense operator is returned directly;
    anything else is applied column by column (a vector-only callable
    accepts nothing wider; for PME one column is one pass of the
    batched pipeline with the smallest workspace).
    """
    from ..core.mobility import DenseMobilityMatrix, as_mobility  # cycle
    operator = as_mobility(matvec, dim=dim)
    if isinstance(operator, DenseMobilityMatrix):
        return operator.matrix.astype(np.float64, copy=True)
    eye = np.eye(dim)
    cols = [np.asarray(operator.apply(eye[:, j]),
                       dtype=np.float64).reshape(dim)
            for j in range(dim)]
    return np.column_stack(cols)


def _dense_displacements(matvec, z2: np.ndarray, scale: float,
                         policy: RecoveryPolicy) -> tuple[np.ndarray, str]:
    """Last-resort rung: materialize and use the dense reference."""
    d = z2.shape[0]
    if d > policy.dense_fallback_max_dim:
        raise StepFailure(
            FailureKind.LANCZOS_NONCONVERGENCE,
            f"dense fallback refused: operator dimension {d} exceeds "
            f"dense_fallback_max_dim={policy.dense_fallback_max_dim}")
    with obs.span("recovery.dense_fallback", d=d):
        m = materialize_operator(matvec, d)
        m = 0.5 * (m + m.T)  # symmetrize against operator round-off
        try:
            return cholesky_displacements(m, z2, scale=scale), "cholesky"
        except NotPositiveDefiniteError:
            # clip the (round-off) negative part of the spectrum
            return scale * (dense_sqrtm(m, floor=0.0) @ z2), "eigh"


def krylov_displacements_resilient(
        generator, matvec: Any,
        z: np.ndarray, policy: RecoveryPolicy, log: RecoveryLog,
        step: int) -> tuple[np.ndarray, LanczosInfo | None]:
    """``sqrt(2 kT dt) M^(1/2) Z`` with the full recovery ladder.

    Parameters
    ----------
    generator:
        A :class:`~repro.core.brownian.KrylovBrownianGenerator` (or
        fault-injection wrapper); supplies the baseline ``tol`` /
        ``max_iter`` and the physical scale.
    matvec:
        The mobility application.
    z:
        Standard-normal block ``(d, s)`` (or vector ``(d,)``).
    policy, log:
        The recovery policy and the log receiving every event.
    step:
        Step anchor recorded with the events (completed-step count).

    Returns
    -------
    (displacements, info):
        The scaled displacement block and the diagnostics of the solve
        that produced it (``None`` for the dense fallback).
    """
    try:
        d = generator.generate(matvec, z)
        return d, generator.last_info
    except ConvergenceError as exc:
        first = exc
    kind = classify_exception(first)
    log.record(step, kind, "detect", attempt=0,
               **StepFailure.from_exception(first, step=step).diagnostics)

    best: ConvergenceError = first

    with obs.span("recovery.ladder", step=step, kind=kind.value):
        # Rung 1: Lanczos retries, grown budget, looser-then-tighter tol.
        schedule = policy.lanczos_retry_schedule(generator.tol,
                                                 generator.max_iter)
        for attempt, (tol, max_iter) in enumerate(schedule, start=1):
            retry = copy.copy(generator)
            retry.tol = tol
            retry.max_iter = max_iter
            try:
                d = retry.generate(matvec, z)
                info = retry.last_info
                log.record(step, kind, "retry-lanczos", attempt=attempt,
                           tol=tol, max_iter=max_iter,
                           iterations=info.iterations if info else None)
                return d, info
            except ConvergenceError as exc:
                log.record(step, classify_exception(exc), "detect",
                           attempt=attempt, tol=tol, max_iter=max_iter,
                           **StepFailure.from_exception(exc, step=step,
                                                        attempt=attempt
                                                        ).diagnostics)
                if (exc.residual is not None
                        and exc.best_iterate is not None
                        and (best.residual is None
                             or exc.residual < best.residual)):
                    best = exc

        # Rung 2: accept the best partial iterate if close enough.
        z2 = np.atleast_2d(np.asarray(z).T).T
        threshold = policy.accept_partial_rel_change
        if (threshold is not None and best.best_iterate is not None
                and best.residual is not None
                and best.residual <= threshold
                and np.asarray(best.best_iterate).shape == z2.shape):
            log.record(step, kind, "accept-partial",
                       rel_change=best.residual,
                       iterations=best.iterations)
            y = generator.scale * np.asarray(best.best_iterate)
            info = LanczosInfo(best.iterations or 0, False,
                               best.residual, best.n_matvecs or 0)
            return (y[:, 0] if np.asarray(z).ndim == 1 else y), info

        # Rung 3: Chebyshev (Fixman) polynomial square root.
        if policy.chebyshev_fallback:
            try:
                l_min, l_max = eigenvalue_bounds(
                    matvec, z2.shape[0],
                    n_iter=policy.chebyshev_bound_iterations)
                y, info = chebyshev_sqrt(matvec, z2, l_min, l_max,
                                         tol=generator.tol)
                log.record(step, kind, "fallback-chebyshev",
                           degree=info.iterations, l_min=l_min,
                           l_max=l_max)
                y = generator.scale * y
                return (y[:, 0] if np.asarray(z).ndim == 1 else y), info
            except ConvergenceError as exc:
                log.record(step, classify_exception(exc), "detect",
                           **StepFailure.from_exception(exc, step=step
                                                        ).diagnostics)

        # Rung 4: dense reference.
        if policy.cholesky_fallback:
            y, method = _dense_displacements(matvec, z2, generator.scale,
                                             policy)
            log.record(step, kind, "fallback-cholesky", method=method)
            return (y[:, 0] if np.asarray(z).ndim == 1 else y), None

        raise StepFailure.from_exception(best, step=step,
                                         attempt=len(schedule))


def cholesky_displacements_resilient(
        generator, matrix: np.ndarray, z: np.ndarray,
        policy: RecoveryPolicy, log: RecoveryLog,
        step: int) -> np.ndarray:
    """Algorithm 1 displacements with eigendecomposition fallback.

    The dense Cholesky factorization breaks down when round-off (or
    catastrophic overlap) pushes the mobility spectrum slightly
    negative; the eigendecomposition square root with clipping
    tolerates the semi-definite case.
    """
    try:
        return generator.generate(matrix, z)
    except (NotPositiveDefiniteError, ConfigurationError) as exc:
        # ConfigurationError: the strict-mode SPD contract rejects a
        # non-SPD matrix before the factorization ever runs.
        log.record(step, FailureKind.CHOLESKY_BREAKDOWN, "detect",
                   message=str(exc))
    m = 0.5 * (np.asarray(matrix, dtype=np.float64)
               + np.asarray(matrix, dtype=np.float64).T)
    y = generator.scale * (dense_sqrtm(m, floor=0.0)
                           @ np.asarray(z, dtype=np.float64))
    log.record(step, FailureKind.CHOLESKY_BREAKDOWN, "fallback-eigh")
    return y
