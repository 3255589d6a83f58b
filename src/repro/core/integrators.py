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
* :class:`MatrixFreeBD` — **Algorithm 2**: PME operator, matrix-free
  displacements (block Lanczos on the real-space half, the wave-space
  half in each step's drift apply), ``O(n)`` memory, ``O(n log n)``
  per application.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..geometry.box import Box
from ..neighbor.verlet import VerletList
from ..pme.cache import MobilityCache
from ..pme.operator import PMEOperator, PMEParams
from ..pme.tuning import tune_parameters
from ..resilience.failures import FailureKind, StepFailure
from ..resilience.policy import RecoveryLog
from ..resilience.recovery import (
    DT_RECOVERY_STEPS,
    MAX_ROLLBACKS,
    MAX_STEP_ATTEMPTS,
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
    next_dt_scale,
)
from ..rpy.ewald import EwaldSummation
from ..units import FluidParams, REDUCED
from ..utils.validation import as_positions
from .brownian import CholeskyBrownianGenerator, KrylovBrownianGenerator
from .forces import ForceField

__all__ = ["EwaldBD", "MatrixFreeBD", "BDStepStats", "PAIR_LIST_SKIN"]

#: Skin of the real-space pair list of :class:`MatrixFreeBD`, in radii:
#: the cheapest per rebuild of a measured sweep (EXPERIMENTS.md).
PAIR_LIST_SKIN = 1.5


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
        (empty when nothing failed).
    stopped_early:
        ``True`` when the run ended at a mobility-block boundary
        because its ``stop`` predicate fired (graceful shutdown /
        wall-time limit) rather than completing the requested step
        count.
    """

    n_steps: int = 0
    mobility_updates: int = 0
    krylov_iterations: list[int] = field(default_factory=list)
    timers: obs.PhaseTimer = field(
        default_factory=lambda: obs.PhaseTimer(prefix="bd"))
    recovery: RecoveryLog = field(default_factory=RecoveryLog)
    stopped_early: bool = False

    @property
    def seconds_per_step(self) -> float:
        """Mean wall-clock seconds per inner time step."""
        return self.timers.total / self.n_steps if self.n_steps else 0.0


class BrownianDynamicsBase(ABC):
    """Shared propagation loop of Algorithms 1 and 2.

    The loop is always guarded by the recovery runtime
    (:mod:`repro.resilience.recovery`): the displacement solve walks
    the retry/degrade ladder, a non-finite force or displacement backs
    the time step off, and a failure beyond repair rolls the block
    back to its mobility rebuild.  When nothing fails, the guard adds
    checks but no arithmetic: trajectories are bit-identical to an
    unguarded Ermak-McCammon loop.

    Subclasses provide the mobility representation: how it is rebuilt
    (:meth:`_prepare`), sampled from per block and per step
    (:meth:`_generate_displacements`, :meth:`_step_noise`) and applied
    (:meth:`_displacement`).

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
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 force_field: ForceField | None = None, dt: float = 1e-3,
                 lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0):
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
        #: Cumulative dt backoff scale (1.0 = nominal time step).
        self._dt_scale = 1.0
        self._clean_steps = 0

    # -- mobility interface, provided by the two algorithms --------------

    @abstractmethod
    def _prepare(self, positions: np.ndarray) -> None:
        """Rebuild the mobility representation at ``positions`` (wrapped)."""

    @abstractmethod
    def _displacement(self, forces, g, noise, dt_eff) -> np.ndarray:
        """One step's flat ``M f dt_eff + g`` (``forces`` is ``None``
        when force-free), plus what the step's ``noise`` carries."""

    @abstractmethod
    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        """``(3n, n_cols)`` Brownian displacements for the coming steps."""

    def _step_noise(self) -> np.ndarray | None:
        """Noise drawn once per step, before its forces, for every
        attempt of the step (``None``: the block carries it all)."""
        return None

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
            Optional zero-argument predicate consulted after the last
            step of every mobility block (after ``callback``);
            returning true ends the run gracefully at that block
            boundary with ``stats.stopped_early`` set.  A block
            boundary is where a resumed run rebuilds the mobility and
            redraws the noise, so a run continued from there is
            bit-identical to an uninterrupted one.  Used by the
            graceful-shutdown path (``repro simulate --max-wall-time``,
            the ensemble runtime's SIGTERM drain).
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
        rollbacks = 0

        step = 0
        while step < n_steps:
            block = min(self.lambda_rpy, n_steps - step)
            # block-boundary snapshot: positions + RNG state, the
            # rollback target if this block fails beyond repair
            snapshot = (wrapped.copy(), unwrapped.copy(),
                        self.rng.bit_generator.state, step, stats.n_steps)
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
            except StepFailure as failure:
                if rollbacks >= MAX_ROLLBACKS:
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
                continue
            if step < n_steps and stop is not None and stop():
                # graceful stop at the block boundary: the rest of the
                # run is dropped
                stats.stopped_early = True
                break
        return unwrapped, stats

    def _propose_step(self, wrapped: np.ndarray, g_col: np.ndarray, n: int,
                      stats: BDStepStats, step: int) -> np.ndarray:
        """One inner-step displacement, with dt-backoff retries.

        At the nominal dt this is byte-for-byte the plain step
        arithmetic.  A non-finite force or displacement rejects the
        step, halves the effective dt and retries; exhausting
        ``MAX_STEP_ATTEMPTS`` (or the dt floor) escalates a
        :class:`StepFailure` to the block-rollback handler.
        """
        with stats.timers.phase("brownian"):
            noise = self._step_noise()
        attempt = 0
        while True:
            try:
                scaled = self._dt_scale != 1.0
                g = g_col if not scaled else g_col * math.sqrt(self._dt_scale)
                dt_eff = self.dt if not scaled else self.dt * self._dt_scale
                f = None
                if self.force_field is not None:
                    with stats.timers.phase("forces"):
                        f = self.force_field.forces(wrapped).reshape(3 * n)
                    if not np.all(np.isfinite(f)):
                        raise StepFailure(
                            FailureKind.NONFINITE_FORCES,
                            "force evaluation returned non-finite entries",
                            step=step + 1, attempt=attempt)
                with stats.timers.phase("propagate"):
                    dr = self._displacement(f, g, noise, dt_eff).reshape(n, 3)
                if not np.all(np.isfinite(dr)):
                    raise StepFailure(
                        FailureKind.NONFINITE_STATE,
                        "proposed displacement contains non-finite entries",
                        step=step + 1, attempt=attempt)
                return dr
            except StepFailure as failure:
                stats.recovery.record(step + 1, failure.kind, "detect",
                                      attempt=attempt)
                attempt += 1
                next_scale = next_dt_scale(self._dt_scale)
                if attempt >= MAX_STEP_ATTEMPTS or next_scale is None:
                    raise
                self._dt_scale = next_scale
                self._clean_steps = 0
                obs.set_gauge("bd_dt_scale", self._dt_scale)
                stats.recovery.record(step + 1, failure.kind, "dt-backoff",
                                      attempt=attempt,
                                      dt_scale=self._dt_scale)

    def _after_clean_step(self, stats: BDStepStats, step: int) -> None:
        """Walk a backed-off dt back to nominal after clean steps."""
        if self._dt_scale == 1.0:
            return
        self._clean_steps += 1
        if self._clean_steps >= DT_RECOVERY_STEPS:
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
                 ewald_tol: float = 1e-6, xi: float | None = None):
        super().__init__(box, fluid, force_field, dt, lambda_rpy, seed)
        self._summation = EwaldSummation(box=box, fluid=fluid, xi=xi,
                                         tol=ewald_tol)
        self._generator = CholeskyBrownianGenerator(kT=fluid.kT, dt=dt)
        self._matrix: np.ndarray | None = None

    def _prepare(self, positions: np.ndarray) -> None:
        self._matrix = self._summation.matrix(positions)

    def _displacement(self, forces, g, noise, dt_eff):
        if forces is None:
            return g
        return (self._matrix @ forces) * dt_eff + g

    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        z = self.rng.standard_normal((self._matrix.shape[0], n_cols))
        return cholesky_displacements_resilient(
            self._generator, self._matrix, z, stats.recovery,
            step=stats.n_steps)

    def mobility_memory_bytes(self) -> int:
        if self._matrix is None:
            return 0
        # matrix plus its Cholesky factor (LAPACK potrf works on a copy
        # here; the conventional algorithm stores both)
        return 2 * self._matrix.nbytes


class MatrixFreeBD(BrownianDynamicsBase):
    """**Algorithm 2** — the paper's matrix-free BD.

    Every ``lambda_RPY`` steps a fresh :class:`~repro.pme.operator.PMEOperator`
    is constructed (line 4) and the Brownian displacements are computed
    matrix-free (line 6); its :class:`~repro.pme.cache.MobilityCache` and
    real-space pair list (:attr:`pair_list`) are kept across rebuilds.
    The operator's Ewald split is positive
    (:mod:`repro.rpy.pse`), so they are two independent samples: the
    real-space half per block by block Lanczos on its sparse matrix
    alone, the wave-space half per step, exactly, in the step's drift
    apply (``W^_t`` drawn before the step's forces; a force-free step
    runs the noise-only pass).  (Block Lanczos on the whole operator,
    the paper's own line 6, stays available as
    :class:`~repro.core.brownian.KrylovBrownianGenerator` on the
    operator; Table II and the ablation use it.)

    Parameters
    ----------
    pme_params:
        Explicit PME parameters; if ``None`` they are tuned once for
        ``target_ep`` at the first :meth:`run` call.
    target_ep:
        PME relative-error target used when auto-tuning.
    e_k:
        Krylov relative-error tolerance (Table II) of the real-space
        half's block Lanczos.
    context:
        Optional :class:`~repro.exec.ExecutionContext` the PME
        applications run on (results stay bit-identical across
        backends).  ``None`` uses the process default.
    Remaining parameters as :class:`BrownianDynamicsBase`.
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 force_field: ForceField | None = None, dt: float = 1e-3,
                 lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 pme_params: PMEParams | None = None, target_ep: float = 1e-3,
                 e_k: float = 1e-2, context=None):
        super().__init__(box, fluid, force_field, dt, lambda_rpy, seed)
        self.context = context
        self.pme_params = pme_params
        self.target_ep = float(target_ep)
        self._generator = KrylovBrownianGenerator(kT=fluid.kT, dt=dt, tol=e_k)
        self._operator: PMEOperator | None = None
        #: Position-independent PME state reused across mobility rebuilds.
        self._mobility_cache = MobilityCache()
        #: The real-space pair list, remade only when ``r_max`` changes.
        self.pair_list: VerletList | None = None

    def _prepare(self, positions: np.ndarray) -> None:
        if self.pme_params is None:
            self.pme_params = tune_parameters(
                positions.shape[0], self.box, target_ep=self.target_ep,
                fluid=self.fluid)
        r_max = self.pme_params.r_max
        if self.pair_list is None or self.pair_list.cutoff != r_max:
            self.pair_list = VerletList(
                self.box, r_max, skin=PAIR_LIST_SKIN * self.fluid.radius)
        self._operator = None       # freed first: one matrix at the peak
        self._operator = PMEOperator(
            positions, self.box, self.pme_params, fluid=self.fluid,
            cache=self._mobility_cache, context=self.context,
            pairs=self.pair_list)

    def _step_noise(self) -> np.ndarray:
        return self._operator.influence.white_noise(self.rng)

    def _displacement(self, forces, g, noise, dt_eff):
        """``M f dt_eff + sqrt(2 kT dt_eff mu0) P C^(1/2) W^ + g``, the
        noise pre-divided by the drift's ``dt_eff mu0``."""
        op, mu0 = self._operator, self.fluid.mobility0
        amplitude = math.sqrt(2.0 * self.fluid.kT * dt_eff * mu0)
        if forces is None:
            return op.apply_reciprocal(None, noise * amplitude) + g
        return (op.apply(forces, noise=noise * (amplitude / (dt_eff * mu0)))
                * dt_eff + g)

    def _generate_displacements(self, n_cols: int,
                                stats: BDStepStats) -> np.ndarray:
        """The real-space half of the block: block Lanczos on the
        sparse real-space matrix alone."""
        op = self._operator
        z = self.rng.standard_normal((3 * op.n, n_cols))
        # hand the real half itself (not a bound matvec) down: block
        # Lanczos then issues one batched SpMM per iteration
        d, info = krylov_displacements_resilient(
            self._generator, op.real, z, stats.recovery,
            step=stats.n_steps)
        iters = info.iterations if info is not None else 0
        stats.krylov_iterations.append(iters)
        obs.observe("bd_krylov_iterations", iters)
        # the real half is in mu0 units
        d *= math.sqrt(self.fluid.mobility0)
        return d

    def mobility_memory_bytes(self) -> int:
        if self._operator is None:
            return 0
        return self._operator.memory_report()["total"]

    @property
    def operator(self) -> PMEOperator | None:
        """The current PME operator (``None`` before the first step)."""
        return self._operator
