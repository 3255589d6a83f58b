"""Table II — diffusion-coefficient error and cost vs (e_k, e_p).

The paper's accuracy/cost trade-off study: matrix-free BD simulations
of 1,000-particle suspensions at volume fractions 0.1-0.4, run with
four (Krylov tolerance, PME accuracy) combinations.  Loose tolerances
(e_k = 1e-2, e_p ~ 1e-3) keep the diffusion-coefficient error below a
few percent while running ~8x faster than tight ones.

Here the reference diffusion coefficient for each volume fraction
comes from the tightest setting (the paper's "known, separately
validated simulation"), and errors of the looser settings are measured
against it with a shared Brownian-noise seed so the comparison isolates
algorithmic error from statistics.

Run ``python benchmarks/bench_table2_accuracy.py`` for the table.
"""

import numpy as np

from repro import Simulation, diffusion_coefficient
from common import bench_scale, print_table, record_benchmark
from repro.systems import make_suspension

SETTINGS = [  # (e_k, target e_p) — Table II columns
    (1e-6, 1e-6),
    (1e-2, 1e-6),
    (1e-6, 1e-3),
    (1e-2, 1e-3),
]


def _run(susp, e_k, e_p, n_steps, lambda_rpy, seed=11):
    sim = Simulation(susp, algorithm="matrix-free", dt=1e-3,
                     lambda_rpy=lambda_rpy, seed=seed, e_k=e_k,
                     target_ep=e_p)
    traj, stats = sim.run(n_steps=n_steps, record_interval=1)
    d = diffusion_coefficient(traj, lag_frames=1)
    return d, stats.seconds_per_step


def experiment_rows(phis=None, n=None, n_steps=None):
    """One row per volume fraction: error (%) and s/step per setting."""
    paper = bench_scale() == "paper"
    phis = phis or [0.1, 0.2, 0.3, 0.4]
    n = n or (1000 if paper else 150)
    n_steps = n_steps or (200 if paper else 40)
    lambda_rpy = 10
    rows = []
    for phi in phis:
        susp = make_suspension(n, phi, seed=1)
        d_ref, t_ref = _run(susp, *SETTINGS[0], n_steps, lambda_rpy)
        row = [phi, 0.0, t_ref]
        for e_k, e_p in SETTINGS[1:]:
            d, t = _run(susp, e_k, e_p, n_steps, lambda_rpy)
            row += [abs(d - d_ref) / d_ref * 100.0, t]
        rows.append(row)
    return rows


def main():
    rows = experiment_rows()
    headers = ["Phi"]
    for e_k, e_p in SETTINGS:
        headers += [f"err% (ek={e_k:.0e},ep={e_p:.0e})", "s/step"]
    print_table("Table II: diffusion-coefficient error and time per step "
                "vs (e_k, e_p)", headers, rows)
    loose_over_tight = np.mean([r[2] / r[-1] for r in rows])
    print(f"tight/loose cost ratio: {loose_over_tight:.1f}x "
          "(paper: > 8x on 24 threads)")
    record_benchmark("table2_accuracy", headers, rows,
                     meta={"settings": SETTINGS,
                           "tight_loose_ratio": float(loose_over_tight)})


def test_loose_tolerance_step(benchmark):
    """BD step at the production setting (e_k=1e-2, e_p~1e-3)."""
    susp = make_suspension(150, 0.2, seed=1)
    sim = Simulation(susp, dt=1e-3, lambda_rpy=10, seed=0, e_k=1e-2,
                     target_ep=1e-3)
    benchmark.pedantic(sim.run, kwargs=dict(n_steps=10), rounds=2,
                       iterations=1)


def test_tight_tolerance_step(benchmark):
    """BD step at the accuracy-study setting (e_k=1e-6, e_p~1e-6)."""
    susp = make_suspension(150, 0.2, seed=1)
    sim = Simulation(susp, dt=1e-3, lambda_rpy=10, seed=0, e_k=1e-6,
                     target_ep=1e-6)
    benchmark.pedantic(sim.run, kwargs=dict(n_steps=10), rounds=2,
                       iterations=1)


def test_table2_shape(benchmark):
    """Loose tolerances stay accurate (<5% here; paper <3%) and are
    substantially cheaper than tight ones."""
    rows = benchmark.pedantic(experiment_rows,
                              kwargs=dict(phis=[0.2], n=120, n_steps=30),
                              rounds=1, iterations=1)
    row = rows[0]
    errors = row[3::2]
    t_tight, t_loose = row[2], row[-1]
    assert all(e < 5.0 for e in errors)
    assert t_loose < t_tight


if __name__ == "__main__":
    main()
