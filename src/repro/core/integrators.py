"""The two BD propagation algorithms of the paper.

Both integrate the Ermak-McCammon equation (paper Eq. 1) with the
divergence term zero (true for the RPY tensor)::

    r(t + dt) = r(t) + M f dt + g,   g ~ N(0, 2 kT dt M)

and both exploit that the mobility changes slowly: the mobility
representation is rebuilt only every ``lambda_RPY`` steps and the
``lambda_RPY`` Brownian displacement vectors of the coming steps are
generated together (Section II.D).

* :class:`EwaldBD` — **Algorithm 1**: dense Ewald matrix, Cholesky
  factorization, ``O(n^2)`` memory, ``O(n^3)`` factor.
* :class:`MatrixFreeBD` — **Algorithm 2**: PME operator, block Krylov
  displacements, ``O(n)`` memory, ``O(n log n)`` per application.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..pme.cache import MobilityCache
from ..pme.operator import PMEOperator, PMEParams
from ..pme.tuning import tune_parameters
from ..resilience.backoff import next_dt_scale
from ..resilience.failures import FailureKind, StepFailure
from ..resilience.policy import RecoveryLog, RecoveryPolicy
from ..resilience.recovery import (
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
)
from ..rpy.ewald import EwaldSummation
from ..units import FluidParams, REDUCED
from ..utils.timing import PhaseTimer
from ..utils.validation import as_positions
from .brownian import CholeskyBrownianGenerator, KrylovBrownianGenerator
from .forces import ForceField

__all__ = ["EwaldBD", "MatrixFreeBD", "BDStepStats"]


@dataclass
class BDStepStats:
    """Aggregate statistics of a :meth:`BrownianDynamicsBase.run` call.

    Attributes
    ----------
    n_steps:
        Inner time steps taken.
    mobility_updates:
        Number of mobility rebuilds (outer iterations).
    krylov_iterations:
        Block-Lanczos iteration counts per outer iteration
        (matrix-free algorithm only).
    timers:
        Phase timer with ``mobility``, ``brownian``, ``forces`` and
        ``propagate`` phases.
    recovery:
        The :class:`~repro.resilience.policy.RecoveryLog` of every
        failure observed and recovery action taken during the run
        (empty when no recovery policy is active or nothing failed).
    stopped_early:
        ``True`` when the run ended at a step boundary because its
        ``stop`` predicate fired (graceful shutdown / wall-time limit)
        rather than completing the requested step count.
    """

    n_steps: int = 0
    mobility_updates: int = 0
    krylov_iterations: list[int] = field(default_factory=list)
    timers: PhaseTimer = field(
        default_factory=lambda: PhaseTimer(prefix="bd"))
    recovery: RecoveryLog = field(default_factory=RecoveryLog)
    stopped_early: bool = False

    @property
    def seconds_per_step(self) -> float:
        """Mean wall-clock seconds per inner time step."""
        return self.timers.total / self.n_steps if self.n_steps else 0.0


class BrownianDynamicsBase(ABC):
    """Shared propagation loop of Algorithms 1 and 2.

    Subclasses provide the mobility representation: how it is rebuilt
    (:meth:`_prepare`), applied (:meth:`_apply_mobility`) and sampled
    from (:meth:`_generate_displacements`).

    Parameters
    ----------
    box, fluid:
        Geometry and fluid parameters.
    force_field:
        Deterministic forces ``f(r)``; ``None`` means force-free
        (diffusion only).
    dt:
        Time step (reduced units: fractions of ``a^2 / D_0``).
    lambda_rpy:
        Mobility update interval ``lambda_RPY`` (paper: 10-100).
    seed:
        Seed (or generator) for the Brownian noise.
    recovery:
        Optional :class:`~repro.resilience.policy.RecoveryPolicy`
        enabling the fault-tolerant step loop (retry/degrade ladder,
        dt backoff on non-finite states, block rollback).  ``None``
        (default) keeps the fail-fast behaviour; with a policy active
        but no failures occurring, trajectories are bit-identical to
        the unguarded loop.
    context:
        Optional :class:`~repro.exec.ExecutionContext` threaded into
        the mobility representation (the matrix-free path parallelizes
        PME applications on its workers; results stay bit-identical
        across backends).  ``None`` uses the process default.
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 force_field: ForceField | None = None, dt: float = 1e-3,
                 lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 recovery: RecoveryPolicy | None = None, context=None):
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if lambda_rpy < 1:
            raise ConfigurationError(
                f"lambda_rpy must be >= 1, got {lambda_rpy}")
        self.box = box
        self.fluid = fluid
        self.force_field = force_field
        self.dt = float(dt)
        self.lambda_rpy = int(lambda_rpy)
        self.rng = (seed if isinstance(seed, np.random.Generator)
                    else np.random.default_rng(seed))
        self.recovery = recovery
        self.context = context
        #: Cumulative dt backoff scale (1.0 = nominal time step).
        self._dt_scale = 1.0
        self._clean_steps = 0

    # -- mobility interface, provided by the two algorithms --------------

    @abstractmethod
    def _prepare(self, positions: np.ndarray) -> None:
        """Rebuild the mobility representation at ``positions`` (wrapped)."""

    @abstractmethod
    def _apply_mobility(self, forces_flat: np.ndarray) -> np.ndarray:
        """``u = M f`` with the current representation."""

    @abstractmethod
    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        """``(3n, n_cols)`` Brownian displacements for the coming steps."""

    @abstractmethod
    def mobility_memory_bytes(self) -> int:
        """Bytes held by the current mobility representation (Fig. 7a)."""

    # -- propagation ------------------------------------------------------

    def run(self, positions, n_steps: int, callback=None,
            stats: BDStepStats | None = None, stop=None,
            unwrapped0=None) -> tuple[np.ndarray, BDStepStats]:
        """Propagate ``n_steps`` BD steps from ``positions``.

        Parameters
        ----------
        positions:
            Initial particle positions ``(n, 3)`` (any image).
        n_steps:
            Number of inner time steps.
        callback:
            Optional ``callback(step, wrapped, unwrapped)`` invoked
            after every step (step counts from 1).
        stats:
            Optional pre-existing stats object to accumulate into.
        stop:
            Optional zero-argument predicate consulted after every
            completed step (after ``callback``); returning true ends
            the run gracefully at that step boundary with
            ``stats.stopped_early`` set.  Used by the graceful-shutdown
            path (``repro simulate --max-wall-time``, the ensemble
            runtime's SIGTERM drain).
        unwrapped0:
            Optional initial *unwrapped* frame, for continuing a
            checkpointed run.  The accumulator starts from these exact
            values, so the continued unwrapped trajectory is
            byte-for-byte the uninterrupted one — reconstructing the
            image offset after the fact is not (adding the offset
            before vs. after the displacement sum rounds differently
            once a particle has crossed the box).  Defaults to the
            wrapped input (a fresh run).

        Returns
        -------
        (unwrapped, stats):
            Final *unwrapped* positions (for MSD analysis) and the run
            statistics.  The initial unwrapped positions coincide with
            the wrapped input.
        """
        r = as_positions(positions)
        n = r.shape[0]
        wrapped = self.box.wrap(r)
        unwrapped = (wrapped.copy() if unwrapped0 is None
                     else np.array(as_positions(unwrapped0),
                                   dtype=np.float64))
        stats = stats or BDStepStats()
        policy = self.recovery
        rollbacks = 0

        step = 0
        while step < n_steps:
            block = min(self.lambda_rpy, n_steps - step)
            if policy is not None:
                # block-boundary snapshot: positions + RNG state, the
                # rollback target if this block fails beyond repair
                snapshot = (wrapped.copy(), unwrapped.copy(),
                            self.rng.bit_generator.state, step,
                            stats.n_steps)
            try:
                with obs.span("bd.block", step=step, size=block):
                    with stats.timers.phase("mobility"):
                        self._prepare(wrapped)
                    stats.mobility_updates += 1
                    with stats.timers.phase("brownian"):
                        disp = self._generate_displacements(block, stats)
                    for col in range(block):
                        dr = self._propose_step(wrapped, disp[:, col], n,
                                                stats, step)
                        unwrapped += dr
                        wrapped = self.box.wrap(wrapped + dr)
                        step += 1
                        stats.n_steps += 1
                        obs.inc("bd_steps_total")
                        self._after_clean_step(stats, step)
                        if callback is not None:
                            callback(step, wrapped, unwrapped)
                        if stop is not None and stop():
                            # graceful stop: the completed step is kept,
                            # the rest of the block (and run) is dropped
                            stats.stopped_early = True
                            return unwrapped, stats
            except StepFailure as failure:
                if policy is None or rollbacks >= policy.max_rollbacks:
                    raise
                rollbacks += 1
                wrapped, unwrapped, rng_state, step, n_steps_done = snapshot
                wrapped = wrapped.copy()
                unwrapped = unwrapped.copy()
                self.rng.bit_generator.state = rng_state
                stats.n_steps = n_steps_done
                # the backed-off dt scale is deliberately kept: a
                # deterministic physics failure must not replay verbatim
                stats.recovery.record(step, failure.kind, "rollback",
                                      attempt=rollbacks,
                                      message=str(failure))
        return unwrapped, stats

    def _propose_step(self, wrapped: np.ndarray, g_col: np.ndarray, n: int,
                      stats: BDStepStats, step: int) -> np.ndarray:
        """One inner-step displacement, with dt-backoff retries.

        Without a recovery policy this is byte-for-byte the original
        step arithmetic (the finite checks are skipped and the dt scale
        is pinned at 1.0).  With a policy, a non-finite force or
        displacement rejects the step, halves the effective dt and
        retries; exhausting ``max_step_attempts`` (or the dt floor)
        escalates a :class:`StepFailure` to the block-rollback handler.
        """
        policy = self.recovery
        attempt = 0
        while True:
            try:
                scaled = self._dt_scale != 1.0
                g = g_col if not scaled else g_col * math.sqrt(self._dt_scale)
                if self.force_field is not None:
                    with stats.timers.phase("forces"):
                        f = self.force_field.forces(wrapped).reshape(3 * n)
                    if policy is not None and not np.all(np.isfinite(f)):
                        raise StepFailure(
                            FailureKind.NONFINITE_FORCES,
                            "force evaluation returned non-finite entries",
                            step=step + 1, attempt=attempt)
                    with stats.timers.phase("propagate"):
                        dt_eff = (self.dt if not scaled
                                  else self.dt * self._dt_scale)
                        drift = self._apply_mobility(f) * dt_eff
                        dr = (drift + g).reshape(n, 3)
                else:
                    with stats.timers.phase("propagate"):
                        dr = g.reshape(n, 3)
                if policy is not None and not np.all(np.isfinite(dr)):
                    raise StepFailure(
                        FailureKind.NONFINITE_STATE,
                        "proposed displacement contains non-finite entries",
                        step=step + 1, attempt=attempt)
                return dr
            except StepFailure as failure:
                if policy is None:
                    raise
                stats.recovery.record(step + 1, failure.kind, "detect",
                                      attempt=attempt)
                attempt += 1
                # the decay/floor decision lives in the shared backoff
                # utility (repro.resilience.backoff), not inline here
                next_scale = next_dt_scale(self._dt_scale,
                                           policy.dt_backoff_factor,
                                           policy.min_dt_scale)
                if attempt >= policy.max_step_attempts or next_scale is None:
                    raise
                self._dt_scale = next_scale
                self._clean_steps = 0
                obs.set_gauge("bd_dt_scale", self._dt_scale)
                stats.recovery.record(step + 1, failure.kind, "dt-backoff",
                                      attempt=attempt,
                                      dt_scale=self._dt_scale)

    def _after_clean_step(self, stats: BDStepStats, step: int) -> None:
        """Walk a backed-off dt back to nominal after clean steps."""
        if self.recovery is None or self._dt_scale == 1.0:
            return
        self._clean_steps += 1
        if self._clean_steps >= self.recovery.dt_recovery_steps:
            self._clean_steps = 0
            self._dt_scale = min(1.0, self._dt_scale * 2.0)
            obs.set_gauge("bd_dt_scale", self._dt_scale)
            stats.recovery.record(step, FailureKind.NONFINITE_STATE,
                                  "restore-dt", dt_scale=self._dt_scale)


class EwaldBD(BrownianDynamicsBase):
    """**Algorithm 1** — conventional Ewald BD (the paper's baseline).

    Builds the dense ``3n x 3n`` mobility every ``lambda_RPY`` steps,
    Cholesky-factors it, and draws ``lambda_RPY`` correlated
    displacement vectors with one triangular multiply.

    Parameters
    ----------
    ewald_tol:
        Truncation tolerance of the Ewald series.
    xi:
        Optional fixed splitting parameter (``None``: automatic).
    Remaining parameters as :class:`BrownianDynamicsBase`.
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 force_field: ForceField | None = None, dt: float = 1e-3,
                 lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 ewald_tol: float = 1e-6, xi: float | None = None,
                 recovery: RecoveryPolicy | None = None, context=None):
        # the dense path has no parallel stage; context accepted (and
        # stored) so Simulation can forward it uniformly
        super().__init__(box, fluid, force_field, dt, lambda_rpy, seed,
                         recovery=recovery, context=context)
        self._summation = EwaldSummation(box=box, fluid=fluid, xi=xi,
                                         tol=ewald_tol)
        self._generator = CholeskyBrownianGenerator(kT=fluid.kT, dt=dt)
        self._matrix: np.ndarray | None = None

    def _prepare(self, positions: np.ndarray) -> None:
        self._matrix = self._summation.matrix(positions)

    def _apply_mobility(self, forces_flat: np.ndarray) -> np.ndarray:
        return self._matrix @ forces_flat

    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        z = self.rng.standard_normal((self._matrix.shape[0], n_cols))
        if self.recovery is None:
            return self._generator.generate(self._matrix, z)
        return cholesky_displacements_resilient(
            self._generator, self._matrix, z, self.recovery,
            stats.recovery, step=stats.n_steps)

    def mobility_memory_bytes(self) -> int:
        if self._matrix is None:
            return 0
        # matrix plus its Cholesky factor (LAPACK potrf works on a copy
        # here; the conventional algorithm stores both)
        return 2 * self._matrix.nbytes

    @property
    def mobility_matrix(self) -> np.ndarray | None:
        """The current dense mobility (``None`` before the first step)."""
        return self._matrix


class MatrixFreeBD(BrownianDynamicsBase):
    """**Algorithm 2** — the paper's matrix-free BD.

    Every ``lambda_RPY`` steps a fresh :class:`~repro.pme.operator.PMEOperator`
    is constructed (line 4) and the Brownian displacement block is
    computed with block Lanczos using only PME products (line 6).

    Parameters
    ----------
    pme_params:
        Explicit PME parameters; if ``None`` they are tuned once for
        ``target_ep`` at the first :meth:`run` call.
    target_ep:
        PME relative-error target used when auto-tuning.
    e_k:
        Krylov relative-error tolerance (Table II).
    store_p:
        Precompute the interpolation matrix ``P`` (Fig. 4 optimization).
    Remaining parameters as :class:`BrownianDynamicsBase`.
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 force_field: ForceField | None = None, dt: float = 1e-3,
                 lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 pme_params: PMEParams | None = None, target_ep: float = 1e-3,
                 e_k: float = 1e-2, store_p: bool = True,
                 max_krylov_iter: int = 200,
                 recovery: RecoveryPolicy | None = None, context=None):
        super().__init__(box, fluid, force_field, dt, lambda_rpy, seed,
                         recovery=recovery, context=context)
        self.pme_params = pme_params
        self.target_ep = float(target_ep)
        self.store_p = bool(store_p)
        self._generator = KrylovBrownianGenerator(kT=fluid.kT, dt=dt, tol=e_k,
                                                  max_iter=max_krylov_iter)
        self._operator: PMEOperator | None = None
        #: Position-independent PME state reused across mobility rebuilds.
        self._mobility_cache = MobilityCache()

    def _prepare(self, positions: np.ndarray) -> None:
        if self.pme_params is None:
            self.pme_params = tune_parameters(
                positions.shape[0], self.box, target_ep=self.target_ep,
                fluid=self.fluid)
        self._operator = PMEOperator(
            positions, self.box, self.pme_params, fluid=self.fluid,
            store_p=self.store_p,
            cache=self._mobility_cache, context=self.context)

    def _apply_mobility(self, forces_flat: np.ndarray) -> np.ndarray:
        return self._operator.apply(forces_flat)

    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        z = self.rng.standard_normal((3 * self._operator.n, n_cols))
        # hand the operator itself (not a bound matvec) down: block
        # Lanczos then issues one batched apply_block per iteration
        if self.recovery is None:
            d = self._generator.generate(self._operator, z)
            iters = self._generator.last_info.iterations
        else:
            d, info = krylov_displacements_resilient(
                self._generator, self._operator, z, self.recovery,
                stats.recovery, step=stats.n_steps)
            iters = info.iterations if info is not None else 0
        stats.krylov_iterations.append(iters)
        obs.observe("bd_krylov_iterations", iters)
        return d

    def mobility_memory_bytes(self) -> int:
        if self._operator is None:
            return 0
        return self._operator.memory_report()["total"]

    @property
    def operator(self) -> PMEOperator | None:
        """The current PME operator (``None`` before the first step)."""
        return self._operator
