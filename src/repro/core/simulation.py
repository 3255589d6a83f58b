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
from .checkpoint import run_checkpointed, save_checkpoint
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
        ``pme_params``, ``context``, ``ewald_tol``, ...).
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
            stop=None, save=save_checkpoint
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
            checkpointed step.  See
            :func:`~repro.core.checkpoint.run_checkpointed`.
        checkpoint_interval:
            Steps between checkpoints; defaults to the integrator's
            ``lambda_RPY`` (the block-aligned, bit-exact choice).
        stop:
            Optional zero-argument predicate, consulted at every
            mobility-block boundary; returning true ends the run
            gracefully at the end of the current block
            (``stats.stopped_early``).  When a ``checkpoint_path`` is
            set, a final checkpoint at the stopped step is written
            before returning, so continuing from it reproduces the
            uninterrupted run bit-exactly.
        save:
            The checkpoint writer (the fault drill passes one that
            corrupts scheduled writes).

        Returns
        -------
        (trajectory, stats)
        """
        if n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
        if record_interval < 1:
            raise ConfigurationError(
                f"record_interval must be >= 1, got {record_interval}")
        # keyed by step so a recovery rollback that replays steps simply
        # overwrites the frames recorded before the rollback
        frames: dict[int, np.ndarray] = {}

        def record(step, wrapped, unwrapped):
            if step % record_interval == 0:
                frames[step] = unwrapped.copy()

        with obs.span("sim.run", n_steps=n_steps, n=self._current.shape[0],
                      algorithm=self.algorithm):
            final, stats, step0, start = run_checkpointed(
                checkpoint_path, self.integrator, self._current, n_steps,
                interval=checkpoint_interval, callback=record, stop=stop,
                save=save)
        frames[step0] = start.copy()
        self._current = self.suspension.box.wrap(final)
        self.step = step0 + stats.n_steps
        dt = self.integrator.dt
        steps = sorted(frames)
        traj = Trajectory(np.array([s * dt for s in steps]),
                          np.array([frames[s] for s in steps]),
                          self.suspension.box.length, self.suspension.fluid)
        return traj, stats
