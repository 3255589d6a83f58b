"""Brownian dynamics core: forces, displacement generators, integrators.

This subpackage implements both BD algorithms of the paper:

* :class:`~repro.core.integrators.EwaldBD` — Algorithm 1, the
  conventional baseline (dense Ewald matrix + Cholesky),
* :class:`~repro.core.integrators.MatrixFreeBD` — Algorithm 2, the
  paper's contribution (PME operator + block Krylov, here on the
  real-space half of a positively split Ewald sum, the wave-space half
  carried by each step's drift apply),

plus the force models of Section V.A and the
:class:`~repro.core.simulation.Simulation` driver that records
trajectories for analysis.
"""

from .forces import (
    ForceField,
    RepulsiveHarmonic,
    HarmonicBonds,
    ConstantForce,
    CompositeForce,
)
from .brownian import (
    CholeskyBrownianGenerator,
    KrylovBrownianGenerator,
)
from .integrators import EwaldBD, MatrixFreeBD, BDStepStats
from .simulation import Simulation, Trajectory
from .trajectory_io import save_trajectory, load_trajectory
from .checkpoint import (
    save_checkpoint,
    load_checkpoint,
    run_checkpointed,
)
from .observables import (
    Monitor,
    MSDMonitor,
    MinSeparationMonitor,
    EnergyMonitor,
    compose,
)

__all__ = [
    "ForceField",
    "RepulsiveHarmonic",
    "HarmonicBonds",
    "ConstantForce",
    "CompositeForce",
    "CholeskyBrownianGenerator",
    "KrylovBrownianGenerator",
    "EwaldBD",
    "MatrixFreeBD",
    "BDStepStats",
    "Simulation",
    "Trajectory",
    "save_trajectory",
    "load_trajectory",
    "save_checkpoint",
    "load_checkpoint",
    "run_checkpointed",
    "Monitor",
    "MSDMonitor",
    "MinSeparationMonitor",
    "EnergyMonitor",
    "compose",
]
