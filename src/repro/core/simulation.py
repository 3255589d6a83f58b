"""High-level simulation driver and trajectory container.

``Simulation`` wires a :class:`~repro.systems.suspension.Suspension`,
a force field and one of the two BD integrators together, records a
:class:`Trajectory` at a configurable interval, and hands it to the
analysis subpackage — the workflow of the paper's Fig. 3 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..systems.suspension import Suspension
from ..units import FluidParams
from .checkpoint import (
    checkpoint_callback,
    load_resume_state,
    save_checkpoint,
)
from .forces import ForceField, RepulsiveHarmonic
from .integrators import BDStepStats, BrownianDynamicsBase, EwaldBD, MatrixFreeBD

__all__ = ["Simulation", "Trajectory"]


@dataclass
class Trajectory:
    """Recorded BD trajectory.

    Attributes
    ----------
    times:
        Sample times, shape ``(T,)`` (time 0 is the initial state).
    positions:
        *Unwrapped* positions, shape ``(T, n, 3)`` — suitable for mean
        squared displacements without image bookkeeping.
    box_length:
        Box edge (to re-wrap for structural analysis).
    fluid:
        Fluid parameters of the run.
    """

    times: np.ndarray
    positions: np.ndarray
    box_length: float
    fluid: FluidParams

    @property
    def n_frames(self) -> int:
        """Number of stored frames."""
        return self.positions.shape[0]

    @property
    def n_particles(self) -> int:
        """Number of particles."""
        return self.positions.shape[1]

    @property
    def dt_frame(self) -> float:
        """Time between consecutive frames (assumes uniform sampling)."""
        if self.n_frames < 2:
            raise ConfigurationError("trajectory has fewer than 2 frames")
        return float(self.times[1] - self.times[0])


class Simulation:
    """One BD simulation: system + forces + integrator + recording.

    Parameters
    ----------
    suspension:
        The initial configuration (carries box and fluid).
    algorithm:
        ``"matrix-free"`` (Algorithm 2, default) or ``"ewald"``
        (Algorithm 1).
    force_field:
        Deterministic forces; the default is the paper's repulsive
        harmonic contact force.  Pass ``force_field=None`` explicitly
        for force-free diffusion.
    dt, lambda_rpy, seed:
        Forwarded to the integrator.  The step loop is always guarded
        by the recovery runtime (see ``docs/robustness.md``); the
        recovery log of a run is available as ``stats.recovery``.
    **integrator_kwargs:
        Algorithm-specific options (``e_k``, ``target_ep``,
        ``pme_params``, ``ewald_tol``, ...) plus the
        shared ``context=`` (an :class:`~repro.exec.ExecutionContext`
        parallelizing the matrix-free mobility applications).
    """

    _DEFAULT_FORCE = object()  # sentinel: "give me the paper's default"

    def __init__(self, suspension: Suspension, algorithm: str = "matrix-free",
                 force_field: ForceField | None = _DEFAULT_FORCE,
                 dt: float = 1e-3, lambda_rpy: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 **integrator_kwargs):
        self.suspension = suspension
        if force_field is Simulation._DEFAULT_FORCE:
            force_field = RepulsiveHarmonic(suspension.box, suspension.fluid)
        common = dict(box=suspension.box, fluid=suspension.fluid,
                      force_field=force_field, dt=dt, lambda_rpy=lambda_rpy,
                      seed=seed)
        if algorithm == "matrix-free":
            self.integrator: BrownianDynamicsBase = MatrixFreeBD(
                **common, **integrator_kwargs)
        elif algorithm == "ewald":
            self.integrator = EwaldBD(**common, **integrator_kwargs)
        else:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                "use 'matrix-free' or 'ewald'")
        self.algorithm = algorithm
        self._current = suspension.positions.copy()
        #: Step of the current configuration: where the last
        #: :meth:`run` ended, counted from step 0 of the checkpointed
        #: run it continued (from its own start otherwise).
        self.step = 0

    def run(self, n_steps: int, record_interval: int = 1,
            checkpoint_path: str | None = None,
            checkpoint_interval: int | None = None,
            extra_callback=None,
            stats: BDStepStats | None = None,
            stop=None
            ) -> tuple[Trajectory, BDStepStats]:
        """Propagate and record.

        Parameters
        ----------
        n_steps:
            Inner BD steps to take — in total, when a checkpoint is
            continued (see ``checkpoint_path``).
        record_interval:
            Store every this-many-th frame (frame 0 always stored).
        checkpoint_path:
            Optional path for rotating crash-safe checkpoints
            (``<path>.prev`` keeps the previous one) written every
            ``checkpoint_interval`` steps.  When it already holds a
            checkpoint (``.prev`` fallback), the run continues it: it
            starts from the checkpointed state and RNG and takes only
            the steps left to ``n_steps``, bit-identical to an
            uninterrupted run.  The trajectory then starts at the
            checkpointed step.
        checkpoint_interval:
            Steps between checkpoints; defaults to the integrator's
            ``lambda_RPY`` (the block-aligned, bit-exact choice).
        extra_callback:
            Optional additional ``callback(step, wrapped, unwrapped)``
            invoked after recording (used by the fault-injection soak).
        stats:
            Optional pre-existing stats object to accumulate into (so
            external callbacks can share the run's recovery log).
        stop:
            Optional zero-argument predicate, consulted at every
            mobility-block boundary; returning true ends the run
            gracefully at the end of the current block
            (``stats.stopped_early``).  When a ``checkpoint_path`` is
            set, a final checkpoint at the stopped step is written
            before returning, so continuing from it reproduces the
            uninterrupted run bit-exactly.

        Returns
        -------
        (trajectory, stats)
        """
        if n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
        if record_interval < 1:
            raise ConfigurationError(
                f"record_interval must be >= 1, got {record_interval}")
        dt = self.integrator.dt
        step0 = 0
        unwrapped0 = None
        ckpt = None
        if checkpoint_path is not None:
            state = load_resume_state(checkpoint_path)
            if state is not None:
                (self._current, unwrapped0, step0,
                 self.integrator.rng) = state
            interval = checkpoint_interval or self.integrator.lambda_rpy
            ckpt = checkpoint_callback(checkpoint_path, self.integrator,
                                       interval)
        # keyed by step so a recovery rollback that replays steps simply
        # overwrites the frames recorded before the rollback
        frames: dict[int, np.ndarray] = {step0: (
            self._current if unwrapped0 is None else unwrapped0).copy()}

        last_state: dict[str, np.ndarray] = {}

        def record(step, wrapped, unwrapped):
            step += step0
            if step % record_interval == 0:
                frames[step] = unwrapped.copy()
            last_state["wrapped"] = wrapped
            last_state["unwrapped"] = unwrapped
            if ckpt is not None:
                ckpt(step, wrapped, unwrapped)
            if extra_callback is not None:
                extra_callback(step, wrapped, unwrapped)

        if step0 >= n_steps:
            # continued a run that had already finished
            stats = stats if stats is not None else BDStepStats()
        else:
            with obs.span("sim.run", n_steps=n_steps - step0,
                          n=self._current.shape[0],
                          algorithm=self.algorithm):
                final, stats = self.integrator.run(
                    self._current, n_steps - step0, callback=record,
                    stats=stats, stop=stop, unwrapped0=unwrapped0)
            self._current = self.suspension.box.wrap(final)
        self.step = step0 + stats.n_steps
        if (stats.stopped_early and checkpoint_path is not None
                and "wrapped" in last_state
                and self.step % (checkpoint_interval
                                 or self.integrator.lambda_rpy) != 0):
            # the interval callback missed the stopped step; write one
            # final checkpoint so the interrupted run resumes from here
            save_checkpoint(checkpoint_path, last_state["wrapped"],
                            last_state["unwrapped"], self.step,
                            self.integrator.rng)
        steps = sorted(frames)
        traj = Trajectory(np.array([s * dt for s in steps]),
                          np.array([frames[s] for s in steps]),
                          self.suspension.box.length, self.suspension.fluid)
        return traj, stats
