"""The recovery policy: the retry/degrade ladder and its constants.

Fiore et al. (PAPERS.md) observe that iterative square-root methods
degrade as particles approach overlap — the mobility spectrum widens
and (block) Lanczos needs more iterations than the configured budget.
Instead of aborting a 10-hour run, the ladder implemented here walks
down two increasingly robust (and increasingly expensive) rungs:

1. retry Lanczos with a grown ``max_iter`` and a looser-then-tighter
   tolerance (:data:`LANCZOS_RETRY_SCHEDULE`),
2. fall back to the dense Cholesky / eigendecomposition reference
   (materializing the operator — last resort, modest ``n`` only).

Above :data:`DENSE_FALLBACK_MAX_DIM` a solve that exhausts both retries
raises :class:`~repro.resilience.failures.StepFailure`: the step loop
rolls the block back, and re-raises after :data:`MAX_ROLLBACKS` rather
than continuing on a sample of unknown accuracy.

The step-level half of the policy — dt backoff on non-finite states
(:func:`next_dt_scale`) and block rollback — is driven by
:meth:`repro.core.integrators.BrownianDynamicsBase.run` with the
constants below.  Recovery is always on and has no knobs: every
constant has the one value production uses.

Every rung is recorded in the :class:`~repro.resilience.policy.RecoveryLog`.
The no-failure fast path is byte-for-byte the same computation as an
unguarded solve, so the ladder does not perturb trajectories.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from .. import obs
from ..errors import ConvergenceError, NotPositiveDefiniteError
from ..krylov.block_lanczos import LanczosInfo, mobility_product
from ..krylov.reference import cholesky_displacements, dense_sqrtm
from .failures import FailureKind, StepFailure, classify_exception
from .policy import RecoveryLog

__all__ = ["krylov_displacements_resilient",
           "cholesky_displacements_resilient", "materialize_operator",
           "next_dt_scale"]

#: Lanczos retries as ``(tol factor, max_iter factor)``: loosen first
#: (grab *a* usable sample fast), then restore the original tolerance
#: with a larger iteration budget.
LANCZOS_RETRY_SCHEDULE = ((10.0, 4), (1.0, 16))
#: Largest operator dimension (``3n``) the dense rung materializes.
DENSE_FALLBACK_MAX_DIM = 6000
#: Attempts per inner step (first try + dt-backoff retries) before a
#: block rollback.
MAX_STEP_ATTEMPTS = 3
#: Time-step scale factor applied on a rejected (non-finite) step.
DT_BACKOFF_FACTOR = 0.5
#: Floor of the cumulative dt scale; reaching it escalates instead.
MIN_DT_SCALE = 1.0 / 64.0
#: Clean steps after which a backed-off dt is doubled back to nominal.
DT_RECOVERY_STEPS = 10
#: Block rollbacks tolerated per ``run`` call before re-raising.
MAX_ROLLBACKS = 3


def next_dt_scale(scale: float) -> float | None:
    """One rung of the geometric dt-backoff ladder.

    Returns ``scale * DT_BACKOFF_FACTOR``, or ``None`` when the decayed
    scale would undershoot :data:`MIN_DT_SCALE` — the caller escalates
    instead of shrinking the time step further.
    """
    nxt = scale * DT_BACKOFF_FACTOR
    return None if nxt < MIN_DT_SCALE else nxt


def materialize_operator(mobility: Any, dim: int) -> np.ndarray:
    """Dense ``(dim, dim)`` matrix of a mobility.

    ``mobility`` is an operator with ``apply_block`` or a dense matrix
    (:func:`~repro.krylov.block_lanczos.mobility_product`).  A matrix
    is returned as a float64 copy; an operator is applied column by
    column (for PME one column is one pass of the batched pipeline with
    the smallest workspace).
    """
    product = mobility_product(mobility)
    if isinstance(mobility, np.ndarray):
        return np.array(mobility, dtype=np.float64)
    eye = np.eye(dim)
    cols = [np.asarray(product(eye[:, j]), dtype=np.float64).reshape(dim)
            for j in range(dim)]
    return np.column_stack(cols)


def _dense_displacements(mobility, z2: np.ndarray,
                         scale: float) -> tuple[np.ndarray, str]:
    """Last-resort rung: materialize and use the dense reference."""
    d = z2.shape[0]
    if d > DENSE_FALLBACK_MAX_DIM:
        raise StepFailure(
            FailureKind.LANCZOS_NONCONVERGENCE,
            f"dense fallback refused: operator dimension {d} exceeds "
            f"DENSE_FALLBACK_MAX_DIM={DENSE_FALLBACK_MAX_DIM}")
    with obs.span("recovery.dense_fallback", d=d):
        m = materialize_operator(mobility, d)
        m = 0.5 * (m + m.T)  # symmetrize against operator round-off
        try:
            return cholesky_displacements(m, z2, scale=scale), "cholesky"
        except NotPositiveDefiniteError:
            # clip the (round-off) negative part of the spectrum
            return scale * (dense_sqrtm(m, floor=0.0) @ z2), "eigh"


def krylov_displacements_resilient(
        generator, mobility: Any, z: np.ndarray, log: RecoveryLog,
        step: int) -> tuple[np.ndarray, LanczosInfo | None]:
    """``sqrt(2 kT dt) M^(1/2) Z`` with the full recovery ladder.

    Parameters
    ----------
    generator:
        A :class:`~repro.core.brownian.KrylovBrownianGenerator` (or
        fault-injection wrapper); supplies the baseline ``tol`` /
        ``max_iter`` and the physical scale.
    mobility:
        An operator with ``apply_block`` or a dense matrix
        (:func:`~repro.krylov.block_lanczos.mobility_product`).
    z:
        Standard-normal block ``(d, s)`` (or vector ``(d,)``).
    log:
        The log receiving every event.
    step:
        Step anchor recorded with the events (completed-step count).

    Returns
    -------
    (displacements, info):
        The scaled displacement block and the diagnostics of the solve
        that produced it (``None`` for the dense fallback).

    Raises
    ------
    StepFailure
        When the dense rung refuses the operator dimension; the step
        loop answers it with a block rollback.
    """
    try:
        d = generator.generate(mobility, z)
        return d, generator.last_info
    except ConvergenceError as exc:
        first = exc
    kind = classify_exception(first)
    log.record(step, kind, "detect", attempt=0,
               **StepFailure.from_exception(first, step=step).diagnostics)

    with obs.span("recovery.ladder", step=step, kind=kind.value):
        # Rung 1: Lanczos retries, grown budget, looser-then-tighter tol.
        for attempt, (tol_factor, iter_factor) in enumerate(
                LANCZOS_RETRY_SCHEDULE, start=1):
            retry = copy.copy(generator)
            retry.tol = tol = generator.tol * tol_factor
            retry.max_iter = max_iter = max(generator.max_iter * iter_factor,
                                            generator.max_iter + 1)
            try:
                d = retry.generate(mobility, z)
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

        # Rung 2: dense reference.
        z2 = np.atleast_2d(np.asarray(z).T).T
        y, method = _dense_displacements(mobility, z2, generator.scale)
        log.record(step, kind, "fallback-cholesky", method=method)
        return (y[:, 0] if np.asarray(z).ndim == 1 else y), None


def cholesky_displacements_resilient(
        generator, matrix: np.ndarray, z: np.ndarray, log: RecoveryLog,
        step: int) -> np.ndarray:
    """Algorithm 1 displacements with eigendecomposition fallback.

    The dense Cholesky factorization breaks down when round-off (or
    catastrophic overlap) pushes the mobility spectrum slightly
    negative; the eigendecomposition square root with clipping
    tolerates the semi-definite case.
    """
    try:
        return generator.generate(matrix, z)
    except NotPositiveDefiniteError as exc:
        log.record(step, FailureKind.CHOLESKY_BREAKDOWN, "detect",
                   message=str(exc))
    m = 0.5 * (np.asarray(matrix, dtype=np.float64)
               + np.asarray(matrix, dtype=np.float64).T)
    y = generator.scale * (dense_sqrtm(m, floor=0.0)
                           @ np.asarray(z, dtype=np.float64))
    log.record(step, FailureKind.CHOLESKY_BREAKDOWN, "fallback-eigh")
    return y
