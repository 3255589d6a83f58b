"""Fig. 7 — conventional Ewald BD vs matrix-free BD: memory and time.

The paper's headline comparison: at n = 10,000 (the 32 GB limit of the
conventional algorithm) the matrix-free algorithm is 35x faster, and
its O(n) memory replaces the O(n^2) dense matrix.  The crossover in
*time* already happens near n ~ 1000 ("faster ... on as few as 1000
particles").

Both algorithms run a full BD step cycle (mobility update + lambda_RPY
Brownian vectors + propagation) at matched accuracy; memory is the
resident mobility representation (dense matrix + factor vs PME
operator).

Run ``python benchmarks/bench_fig7_ewald_vs_matrixfree.py`` for the table.
"""

import numpy as np

from common import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.core.integrators import EwaldBD, MatrixFreeBD

CI_COUNTS = [100, 200, 400, 800, 1600]
PAPER_COUNTS = [500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 10000]
LAMBDA_RPY = 10
N_STEPS = LAMBDA_RPY          # one full mobility-update cycle


def _integrators(n):
    susp = cached_suspension(n)
    common = dict(box=susp.box, fluid=susp.fluid, force_field=None,
                  dt=1e-3, lambda_rpy=LAMBDA_RPY, seed=0)
    ewald = EwaldBD(**common, ewald_tol=1e-4)
    mfree = MatrixFreeBD(**common, target_ep=1e-3, e_k=1e-2)
    return susp, ewald, mfree


def experiment_rows(counts=None):
    """(n, ewald s/step, matrix-free s/step, speedup, memories)."""
    counts = counts or (PAPER_COUNTS if bench_scale() == "paper"
                        else CI_COUNTS)
    rows = []
    for n in counts:
        susp, ewald, mfree = _integrators(n)
        t_ewald = measure_seconds(
            lambda: ewald.run(susp.positions, N_STEPS)).best / N_STEPS
        t_mfree = measure_seconds(
            lambda: mfree.run(susp.positions, N_STEPS)).best / N_STEPS
        rows.append([n, t_ewald, t_mfree, t_ewald / t_mfree,
                     ewald.mobility_memory_bytes() / 1e6,
                     mfree.mobility_memory_bytes() / 1e6])
    return rows


def main():
    rows = experiment_rows()
    headers = ["n", "Ewald s/step", "mat-free s/step", "speedup",
               "Ewald MB", "mat-free MB"]
    print_table(
        "Fig. 7: Ewald BD (Algorithm 1) vs matrix-free BD (Algorithm 2)",
        headers, rows)
    record_benchmark("fig7_ewald_vs_matrixfree", headers, rows,
                     meta={"lambda_rpy": LAMBDA_RPY, "n_steps": N_STEPS})
    # the paper's memory statement: dense is O(n^2), matrix-free O(n)
    n_big = rows[-1][0]
    print(f"dense mobility at n={n_big}: {rows[-1][4]:.1f} MB "
          f"(O(n^2)); matrix-free: {rows[-1][5]:.1f} MB (O(n))")


def test_ewald_bd_step(benchmark):
    """One conventional Ewald BD cycle (the baseline cost)."""
    susp, ewald, _ = _integrators(200)
    benchmark.pedantic(ewald.run, args=(susp.positions, N_STEPS),
                       rounds=2, iterations=1)


def test_matrix_free_bd_step(benchmark):
    """One matrix-free BD cycle (the paper's algorithm)."""
    susp, _, mfree = _integrators(200)
    benchmark.pedantic(mfree.run, args=(susp.positions, N_STEPS),
                       rounds=2, iterations=1)


def test_fig7_shape(benchmark):
    """Shape claims: the matrix-free advantage grows with n and crosses
    1x near n ~ 1000 (the paper: "faster ... on as few as 1000
    particles"); memory scales O(n^2) vs ~O(n)."""
    rows = benchmark.pedantic(experiment_rows, args=([200, 800, 1600],),
                              rounds=1, iterations=1)
    speedups = [r[3] for r in rows]
    assert speedups == sorted(speedups)   # gap widens monotonically
    assert speedups[-1] > 1.0             # crossover passed by n=1600
    # dense memory grows as n^2 (64x for 8x particles); matrix-free
    # grows far slower
    assert rows[-1][4] / rows[0][4] == 64.0
    assert rows[-1][5] / rows[0][5] < 32.0


if __name__ == "__main__":
    main()
