"""End-to-end integration tests spanning the whole stack.

These exercise the workflows the paper's evaluation runs: build a
suspension, simulate with both algorithms, measure diffusion, check the
physics — at miniature scale so they stay fast.
"""

import numpy as np
import pytest

from repro import (
    PMEOperator,
    Simulation,
    diffusion_coefficient,
    make_suspension,
    pme_relative_error,
    short_time_self_diffusion,
    tune_parameters,
)
from repro.krylov import block_lanczos_sqrt
from repro.rpy.ewald import EwaldSummation


def test_full_matrix_free_workflow():
    susp = make_suspension(60, 0.2, seed=0)
    sim = Simulation(susp, algorithm="matrix-free", dt=1e-3, lambda_rpy=8,
                     seed=1, e_k=1e-2, target_ep=1e-2)
    traj, stats = sim.run(n_steps=24, record_interval=4)
    assert traj.n_frames == 7
    assert stats.mobility_updates == 3
    d = diffusion_coefficient(traj, lag_frames=1)
    assert 0.1 < d < 1.2        # physical range: crowded but diffusing
    assert np.all(np.isfinite(traj.positions))


def test_ewald_and_matrix_free_same_statistics():
    # same system, both algorithms: short-time diffusion must agree
    # within the (loose) statistics of a short run
    susp = make_suspension(50, 0.2, seed=5)
    d = {}
    for alg, kwargs in (("ewald", dict(ewald_tol=1e-6)),
                        ("matrix-free", dict(target_ep=1e-3, e_k=1e-4))):
        sim = Simulation(susp, algorithm=alg, dt=1e-3, lambda_rpy=10,
                         seed=7, **kwargs)
        traj, _ = sim.run(n_steps=30, record_interval=1)
        d[alg] = diffusion_coefficient(traj, lag_frames=1)
    assert d["matrix-free"] == pytest.approx(d["ewald"], rel=0.25)


def test_crowding_slows_diffusion():
    # the paper's Fig. 3 physics at miniature scale
    results = {}
    for phi in (0.05, 0.35):
        susp = make_suspension(40, phi, seed=2)
        sim = Simulation(susp, dt=1e-3, lambda_rpy=10, seed=3,
                         target_ep=1e-2, e_k=1e-2)
        traj, _ = sim.run(n_steps=40, record_interval=1)
        results[phi] = diffusion_coefficient(traj, lag_frames=2)
    assert results[0.35] < results[0.05]
    assert short_time_self_diffusion(0.35) < short_time_self_diffusion(0.05)


def test_tuned_operator_with_krylov_displacements():
    # Algorithm 2's two pillars composed directly
    susp = make_suspension(45, 0.2, seed=4)
    params = tune_parameters(susp.n, susp.box, target_ep=1e-3)
    op = PMEOperator(susp.positions, susp.box, params)
    assert pme_relative_error(op, n_probe=2) < 1e-3
    z = np.random.default_rng(0).standard_normal((3 * susp.n, 6))
    y, info = block_lanczos_sqrt(op, z, tol=1e-3)
    assert info.converged
    # compare against the dense reference square root
    from repro.krylov import dense_sqrt_apply
    m = EwaldSummation(box=susp.box, tol=1e-10).matrix(susp.positions)
    ref = dense_sqrt_apply(m, z)
    err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    assert err < 5e-3


def test_trajectory_bytes_match_cell_list_lexsort_build(kernel_mode,
                                                        monkeypatch):
    # The real-space build (the integrator's pair list over the cell
    # list, and bcsr_assemble_dyads, compiled or fallback) leaves the
    # trajectory of the reference build — brute-force pair search, the
    # table's NumPy gather and tensors, concatenate + lexsort assembly —
    # bit for bit, in both kernel modes (the id names the cell-list
    # build this pinned before that search left src/).  The reference is
    # rebuilt here instead of pinned so the test does not depend on the
    # CPU's libm/SIMD paths.
    import repro.neighbor.verlet as verlet
    import repro.pme.realspace as realspace
    from repro.neighbor.pairs import brute_force_pairs
    from repro.rpy.tensor import pair_dyads
    from repro.runtime import positions_digest
    from repro.sparse.kernels import _assemble_lexsort

    def run():
        sim = Simulation(make_suspension(100, 0.2, seed=0), "matrix-free",
                         dt=1e-3, lambda_rpy=8, seed=0, target_ep=1e-3,
                         e_k=1e-2)
        traj, stats = sim.run(n_steps=16)
        assert stats.mobility_updates == 2
        return positions_digest(traj.positions[-1])

    digest = run()
    monkeypatch.setattr(realspace, "find_pairs", brute_force_pairs)
    monkeypatch.setattr(verlet, "find_pairs", brute_force_pairs)
    monkeypatch.setattr(
        realspace, "bcsr_assemble_dyads",
        lambda n, i, j, table, rij, dist: _assemble_lexsort(
            n, i.astype(np.int64), j.astype(np.int64),
            pair_dyads(rij, *table.gather(dist)),
            np.broadcast_to(table.values[0, 0] * np.eye(3), (n, 3, 3))))
    assert run() == digest
