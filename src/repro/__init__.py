"""repro — matrix-free hydrodynamic Brownian dynamics.

A complete, from-scratch Python implementation of

    Xing Liu and Edmond Chow,
    "Large-Scale Hydrodynamic Brownian Simulations on Multicore and
    Manycore Architectures", IPDPS 2014.

The package provides Brownian dynamics with Rotne-Prager-Yamakawa
hydrodynamic interactions in periodic boxes, in two flavors:

* the conventional **Ewald BD** algorithm (dense mobility matrix +
  Cholesky; paper Algorithm 1), and
* the paper's **matrix-free BD** algorithm (particle-mesh Ewald
  operator + block Krylov Brownian displacements; Algorithm 2), which
  scales to hundreds of thousands of particles in O(n log n) time and
  O(n) memory.

Quickstart::

    from repro import make_suspension, Simulation, diffusion_coefficient

    susp = make_suspension(n=1000, volume_fraction=0.2)
    sim = Simulation(susp, algorithm="matrix-free", dt=1e-3)
    traj, stats = sim.run(n_steps=200, record_interval=10)
    print(diffusion_coefficient(traj))

See DESIGN.md for the architecture and EXPERIMENTS.md for the
reproduction of every table and figure in the paper.
"""

from .units import FluidParams, REDUCED
from .geometry.box import Box
from .errors import (
    ReproError,
    ConfigurationError,
    ConvergenceError,
    NotPositiveDefiniteError,
    CheckpointCorruptionError,
)
from .resilience import (
    FailureKind,
    StepFailure,
    RecoveryLog,
)
from .systems import (
    Suspension,
    make_suspension,
    random_suspension,
    lattice_suspension,
    bead_spring_chain,
)
from .rpy import (
    mobility_matrix_free,
    ewald_mobility_matrix,
    EwaldSummation,
)
from .pme import (
    MobilityCache,
    PMEOperator,
    PMEParams,
    tune_parameters,
    pme_relative_error,
)
from .krylov import block_lanczos_sqrt
from .core import (
    Simulation,
    Trajectory,
    EwaldBD,
    MatrixFreeBD,
    RepulsiveHarmonic,
    HarmonicBonds,
    ConstantForce,
    CompositeForce,
    save_trajectory,
    load_trajectory,
    Monitor,
    MSDMonitor,
    MinSeparationMonitor,
    EnergyMonitor,
    compose,
)
from .analysis import (
    diffusion_coefficient,
    mean_squared_displacement,
    short_time_self_diffusion,
    finite_size_correction,
    radial_distribution,
)
from .perfmodel import PMECostModel, WESTMERE_EP, XEON_PHI_KNC

__version__ = "1.0.0"

__all__ = [
    "FluidParams",
    "REDUCED",
    "Box",
    "ReproError",
    "ConfigurationError",
    "ConvergenceError",
    "NotPositiveDefiniteError",
    "CheckpointCorruptionError",
    "FailureKind",
    "StepFailure",
    "RecoveryLog",
    "Suspension",
    "make_suspension",
    "random_suspension",
    "lattice_suspension",
    "bead_spring_chain",
    "mobility_matrix_free",
    "ewald_mobility_matrix",
    "EwaldSummation",
    "MobilityCache",
    "PMEOperator",
    "PMEParams",
    "tune_parameters",
    "pme_relative_error",
    "block_lanczos_sqrt",
    "Simulation",
    "Trajectory",
    "EwaldBD",
    "MatrixFreeBD",
    "RepulsiveHarmonic",
    "HarmonicBonds",
    "ConstantForce",
    "CompositeForce",
    "save_trajectory",
    "load_trajectory",
    "Monitor",
    "MSDMonitor",
    "MinSeparationMonitor",
    "EnergyMonitor",
    "compose",
    "diffusion_coefficient",
    "mean_squared_displacement",
    "short_time_self_diffusion",
    "finite_size_correction",
    "radial_distribution",
    "PMECostModel",
    "WESTMERE_EP",
    "XEON_PHI_KNC",
    "__version__",
]
