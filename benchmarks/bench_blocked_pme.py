"""Batched multi-RHS PME pipeline vs sequential per-vector application.

The block Krylov method of Algorithm 2 applies the PME operator to
``s`` right-hand sides per iteration.  The batched
:meth:`~repro.pme.operator.PMEOperator.apply_block` pipeline amortizes
the spread product, stacks all ``3s`` FFTs, slab-fuses the influence
function and streams the real-space BCSR blocks once against all
lanes; this benchmark measures that against the sequential arm: ``s``
one-column passes of the *same* pipeline
(:meth:`~repro.pme.operator.PMEOperator.apply` is ``apply_block``), so
the ratio is the amortization alone.

The FFTs themselves gain nothing from batching (each lane is a full
``K^3`` transform either way — the observation behind the paper's
Section IV.E hybrid partitioning), so the achievable block speedup
depends on the Ewald split: pushing work from the mesh into the
real-space sum (smaller ``xi`` -> larger ``r_max``, smaller ``K`` at
matched accuracy) raises the fraction of the pipeline that *does*
batch.  Three parameter points along that trade-off are measured, all
tuned to hold the truncation errors fixed (``xi r_max ~ 3.95``,
``k_max / 2 xi ~ 4.68``).

A block-Lanczos end-to-end comparison (one batched operator per
iteration vs a per-column callable) closes the loop at the solver
level.

Run ``python benchmarks/bench_blocked_pme.py`` for the table;
``BENCH_blocked_pme.json`` is written via ``repro.bench.record``.
"""

import time

import numpy as np

from repro.bench import (
    bench_scale,
    cached_suspension,
    print_table,
    record_benchmark,
)
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.pme.operator import PMEOperator, PMEParams
from repro.sparse import kernel_available

N = 1000
PHI = 0.2
S = 8

#: (label, xi, r_max, K): matched-accuracy points along the Ewald
#: split, from mesh-heavy (tuned for single-vector apply) to
#: real-space-heavy (tuned for blocked apply).
POINTS = [
    ("tuned", 0.658, 6.0, 54),
    ("shift", 0.50, 7.9, 42),
    ("block", 0.30, 13.0, 24),
]


def _interleaved_best(fn_a, fn_b, repeats):
    """Best-of-``repeats`` for two thunks, interleaved (fair vs drift)."""
    fn_a()
    fn_b()                       # warmup both (allocations, FFT plans)
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def pipeline_rows(n=N, s=S, repeats=None):
    """Sequential-vs-blocked wall clock for each parameter point."""
    repeats = repeats or (7 if bench_scale() == "paper" else 3)
    susp = cached_suspension(n, volume_fraction=PHI)
    f = np.random.default_rng(0).standard_normal((3 * n, s))
    rows = []
    for label, xi, r_max, K in POINTS:
        r_max = min(r_max, susp.box.length / 2)
        op = PMEOperator(susp.positions, susp.box,
                         PMEParams(xi=xi, r_max=r_max, K=K, p=6))

        def sequential():
            return np.column_stack([op.apply(f[:, c])
                                    for c in range(s)])

        def blocked():
            return op.apply_block(f)

        # equivalence guard: the fast path must be the same operator
        err = (np.linalg.norm(blocked() - sequential())
               / np.linalg.norm(sequential()))
        assert err < 1e-12, f"block path diverged at {label}: {err:.2e}"

        t_seq, t_blk = _interleaved_best(sequential, blocked, repeats)
        rows.append([label, xi, r_max, K, op.real.n_pairs,
                     t_seq, t_blk, t_seq / t_blk])
    return rows


def lanczos_rows(n=N, s=S, tol=1e-2):
    """Block-Lanczos step: batched operator vs per-column callable."""
    susp = cached_suspension(n, volume_fraction=PHI)
    label, xi, r_max, K = POINTS[-1]
    op = PMEOperator(susp.positions, susp.box,
                     PMEParams(xi=xi, r_max=min(r_max, susp.box.length / 2),
                               K=K, p=6))
    z = np.random.default_rng(1).standard_normal((3 * n, s))
    repeats = 3 if bench_scale() == "paper" else 2

    def batched():
        return block_lanczos_sqrt(op, z, tol=tol)

    def column_wise(v):
        if v.ndim == 1:
            return op.apply(v)
        return np.column_stack([op.apply(v[:, c])
                                for c in range(v.shape[1])])

    def per_column():
        return block_lanczos_sqrt(column_wise, z, tol=tol)

    t_batched, t_columns = _interleaved_best(batched, per_column, repeats)
    _, info = batched()
    return [[label, s, info.iterations, t_columns, t_batched,
             t_columns / t_batched]]


def main():
    rows = pipeline_rows()
    lrows = lanczos_rows()
    headers = ["point", "xi", "r_max", "K", "pairs",
               "t seq x8 (s)", "t block (s)", "speedup"]
    print_table(f"Batched multi-RHS PME apply (n={N}, s={S}, "
                f"native SpMM kernel: {kernel_available()})",
                headers, rows)
    lheaders = ["point", "s", "iterations", "t per-column (s)",
                "t batched (s)", "speedup"]
    print_table("Block-Lanczos step: batched operator vs per-column callable",
                lheaders, lrows)
    best = max(r[-1] for r in rows)
    record_benchmark("blocked_pme", headers, rows,
                     meta={"n": N, "s": S, "phi": PHI,
                           "kernel_available": kernel_available(),
                           "speedup_s8": best,
                           "lanczos_rows": lrows,
                           "lanczos_speedup": lrows[0][-1]})
    print(f"\nbest apply_block speedup at s={S}: {best:.2f}x "
          f"(block-Lanczos step: {lrows[0][-1]:.2f}x)")


if __name__ == "__main__":
    main()
