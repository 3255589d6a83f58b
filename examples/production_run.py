"""Production-run workflow: monitors, checkpoints, saved trajectories.

The pattern a long study (like the paper's 500,000-step Fig. 3 runs)
actually needs, end to end:

1. run matrix-free BD with run-time monitors (MSD, overlap watchdog,
   potential energy),
2. write block-aligned checkpoints so the run can resume bit-exactly
   after an interruption,
3. persist the trajectory and re-load it for analysis.

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
from repro.core.checkpoint import checkpoint_callback, resume
from repro.core.integrators import MatrixFreeBD
from repro.core.trajectory_io import load_trajectory, save_trajectory


def main():
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_run_"))
    susp = make_suspension(n=200, volume_fraction=0.25, seed=8)
    forces = RepulsiveHarmonic(susp.box, susp.fluid)
    lambda_rpy = 8

    # --- 1. simulate with monitors and checkpoints -------------------
    bd = MatrixFreeBD(box=susp.box, fluid=susp.fluid, force_field=forces,
                      dt=1e-3, lambda_rpy=lambda_rpy, seed=3,
                      target_ep=1e-3, e_k=1e-2)
    msd = MSDMonitor(reference=susp.positions, interval=4)
    watchdog = MinSeparationMonitor(susp.box, interval=8)
    energy = EnergyMonitor(forces, interval=8)
    ckpt = workdir / "run.ckpt.npz"
    frames, times = [susp.positions.copy()], [0.0]

    def record(step, wrapped, unwrapped):
        if step % 4 == 0:
            frames.append(unwrapped.copy())
            times.append(step * 1e-3)

    bd.run(susp.positions, 48,
           callback=compose(msd, watchdog, energy, record,
                            checkpoint_callback(ckpt, bd, 2 * lambda_rpy)))
    print(f"48 steps done; min separation seen: {min(watchdog.values):.3f}a,"
          f" peak contact energy: {max(energy.values):.2f} kT")

    # --- 2. resume from the checkpoint (continues the same stream) ---
    final, _ = resume(ckpt, bd, 16,
                      callback=lambda s, w, u: record(s, w, u))
    print(f"resumed from step 48 checkpoint and ran to step 64")

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
    print(f"\nartifacts in {workdir}")


if __name__ == "__main__":
    main()
