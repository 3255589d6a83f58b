"""Fig. 8 — matrix-free BD wall-clock per step up to very large n.

The paper demonstrates the matrix-free algorithm on systems the
conventional algorithm cannot touch, up to 500,000 particles, with the
expected O(n log n) growth of the time per step.

At the default CI scale this sweep stops at a few thousand particles;
``REPRO_BENCH_SCALE=paper`` runs the full range (hours on one core, as
it is a single-core NumPy substrate — the *scaling shape*, which is
the figure's content, is identical).

Run ``python benchmarks/bench_fig8_large_scale.py`` for the table.
"""

import math

import numpy as np

from common import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.core.integrators import MatrixFreeBD

CI_COUNTS = [500, 1000, 2000, 5000]
PAPER_COUNTS = [10000, 20000, 50000, 100000, 200000, 300000, 500000]
LAMBDA_RPY = 16


def experiment_rows(counts=None):
    """(n, K, s/step, s/step / (n log n) x 1e6) per size."""
    counts = counts or (PAPER_COUNTS if bench_scale() == "paper"
                        else CI_COUNTS)
    rows = []
    for n in counts:
        susp = cached_suspension(n)
        bd = MatrixFreeBD(box=susp.box, fluid=susp.fluid, force_field=None,
                          dt=1e-3, lambda_rpy=LAMBDA_RPY, seed=0,
                          target_ep=1e-3, e_k=1e-2)
        t = measure_seconds(
            lambda: bd.run(susp.positions, LAMBDA_RPY)).best / LAMBDA_RPY
        normalized = t / (n * math.log(n)) * 1e6
        rows.append([n, bd.operator.params.K, t, normalized])
    return rows


def main():
    rows = experiment_rows()
    headers = ["n", "K", "s/step", "s/step/(n ln n) x1e6"]
    print_table(
        "Fig. 8: matrix-free BD seconds per step vs n (lambda_RPY="
        f"{LAMBDA_RPY})",
        headers, rows)
    record_benchmark("fig8_large_scale", headers, rows,
                     meta={"lambda_rpy": LAMBDA_RPY})
    norms = [r[3] for r in rows]
    print("near-constant normalized column confirms O(n log n): "
          f"spread {max(norms) / min(norms):.2f}x across "
          f"{rows[-1][0] / rows[0][0]:.0f}x particle range")


def test_large_system_pme_apply(benchmark):
    """One PME mobility product at the largest CI size."""
    n = 5000
    susp = cached_suspension(n)
    bd = MatrixFreeBD(box=susp.box, force_field=None, dt=1e-3,
                      lambda_rpy=LAMBDA_RPY, seed=0, target_ep=1e-3)
    bd.run(susp.positions, 1)       # builds the operator
    op = bd.operator
    f = np.random.default_rng(0).standard_normal(3 * n)
    benchmark.pedantic(op.apply, args=(f,), rounds=2, iterations=1)


def test_scaling_shape(benchmark):
    """s/step grows sub-quadratically (the figure's content)."""
    rows = benchmark.pedantic(experiment_rows, args=([500, 2000],),
                              rounds=1, iterations=1)
    t_ratio = rows[1][2] / rows[0][2]
    n_ratio = rows[1][0] / rows[0][0]
    assert t_ratio < n_ratio ** 1.7    # far below the dense O(n^2)


if __name__ == "__main__":
    main()
