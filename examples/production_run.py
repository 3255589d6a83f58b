"""Production-run workflow: monitors, checkpoints, saved trajectories.

The pattern a long study (like the paper's 500,000-step Fig. 3 runs)
actually needs, end to end:

1. run matrix-free BD with run-time monitors (MSD, overlap watchdog,
   potential energy),
2. write block-aligned checkpoints so the run continues bit-exactly
   after an interruption (re-running the same call continues it),
3. persist the trajectory and re-load it for analysis.

Every file is written to a temporary directory removed at the end.

Run:  python examples/production_run.py
"""

import pathlib
import tempfile

import numpy as np

from repro import (
    EnergyMonitor,
    MinSeparationMonitor,
    MSDMonitor,
    RepulsiveHarmonic,
    Simulation,
    compose,
    diffusion_coefficient,
    make_suspension,
)
from repro.core.checkpoint import run_checkpointed
from repro.core.integrators import MatrixFreeBD
from repro.core.trajectory_io import load_trajectory, save_trajectory


def main():
    with tempfile.TemporaryDirectory(prefix="repro_run_") as tmp:
        run(pathlib.Path(tmp))


def run(workdir: pathlib.Path):
    susp = make_suspension(n=200, volume_fraction=0.25, seed=8)
    forces = RepulsiveHarmonic(susp.box, susp.fluid)
    lambda_rpy = 8

    def integrator():
        return MatrixFreeBD(box=susp.box, fluid=susp.fluid,
                            force_field=forces, dt=1e-3,
                            lambda_rpy=lambda_rpy, seed=3,
                            target_ep=1e-3, e_k=1e-2)

    # --- 1. simulate with monitors and checkpoints -------------------
    msd = MSDMonitor(reference=susp.positions, interval=4)
    watchdog = MinSeparationMonitor(susp.box, interval=8)
    energy = EnergyMonitor(forces, interval=8)
    ckpt = workdir / "run.ckpt.npz"
    frames, times = [susp.positions.copy()], [0.0]

    def record(step, wrapped, unwrapped):
        if step % 4 == 0:
            frames.append(unwrapped.copy())
            times.append(step * 1e-3)

    run_checkpointed(ckpt, integrator(), susp.positions, 48,
                     interval=2 * lambda_rpy,
                     callback=compose(msd, watchdog, energy, record))
    print(f"48 steps done; min separation seen: {min(watchdog.values):.3f}a,"
          f" peak contact energy: {max(energy.values):.2f} kT")

    # --- 2. continue the checkpoint (the same noise stream) ----------
    # a fresh integrator, as in a requeued job: the checkpoint carries
    # the positions, the unwrapped frame and the RNG state
    _, _, step0, _ = run_checkpointed(ckpt, integrator(), susp.positions,
                                      64, interval=2 * lambda_rpy,
                                      callback=record)
    print(f"continued the step-{step0} checkpoint and ran to step 64")

    # --- 3. persist and re-load the trajectory -----------------------
    from repro import FluidParams, Trajectory
    traj = Trajectory(np.array(times), np.array(frames),
                      susp.box.length, susp.fluid)
    traj_file = workdir / "trajectory.npz"
    save_trajectory(traj_file, traj)
    loaded = load_trajectory(traj_file)
    d = diffusion_coefficient(loaded, lag_frames=1)
    print(f"trajectory saved/loaded ({loaded.n_frames} frames); "
          f"D(tau->0) = {d:.3f} D0")


if __name__ == "__main__":
    main()
