"""Ablation — distributed (slab) construction of the real-space operator.

The MPI-shaped counterpart of the paper's shared-memory build: the box
is cut into slabs, each worker builds its share of the pair blocks
from owned + halo particles only, and the merged matrix must equal the
global build exactly.  Reported per domain count:

* halo fraction (replication overhead a distributed run would pay),
* per-domain work balance (pairs per domain),
* end-to-end equivalence with the global construction.

Run ``python benchmarks/bench_ablation_decomposition.py`` for the table.
"""

import numpy as np

from repro.bench import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.parallel.decomposition import SlabDecomposition, distributed_real_space_matrix
from repro.pme.realspace import RealSpaceOperator

XI, R_MAX = 0.9, 3.5


def experiment_rows(n=None):
    n = n or (20000 if bench_scale() == "paper" else 2000)
    susp = cached_suspension(n)
    r, box = susp.positions, susp.box
    max_domains = max(1, int(box.length / R_MAX))
    rows = []
    for d in sorted({1, 2, max_domains // 2, max_domains} - {0}):
        decomp = SlabDecomposition(box, d, R_MAX)
        halo = sum(decomp.halo_indices(r, k).size for k in range(d))
        pair_counts = [decomp.local_pair_blocks(r, k, XI)[0].size
                       for k in range(d)]
        t = measure_seconds(
            lambda: distributed_real_space_matrix(r, box, XI, R_MAX, d),
            repeats=2).best
        balance = (max(pair_counts) / (sum(pair_counts) / d)
                   if sum(pair_counts) else 1.0)
        rows.append([d, t, halo / n, round(balance, 2)])
    return rows


def main():
    rows = experiment_rows()
    headers = ["domains", "t build (s)", "halo fraction", "load imbalance"]
    print_table(
        "Ablation: slab-decomposed real-space build "
        f"(r_max={R_MAX}, serial execution of the distributed schedule)",
        headers, rows)
    print("halo fraction = replicated particles per owned particle; "
          "imbalance = max/mean pairs.")
    record_benchmark("ablation_decomposition", headers, rows,
                     meta={"xi": XI, "r_max": R_MAX})


def test_distributed_build(benchmark):
    susp = cached_suspension(2000)
    benchmark.pedantic(
        distributed_real_space_matrix,
        args=(susp.positions, susp.box, XI, R_MAX, 3),
        rounds=2, iterations=1)


def test_distributed_equals_global(benchmark):
    susp = cached_suspension(1000)
    r, box = susp.positions, susp.box

    def run():
        dist = distributed_real_space_matrix(r, box, XI, R_MAX, 3)
        ref = RealSpaceOperator(r, box, XI, R_MAX)
        return dist, ref

    dist, ref = benchmark.pedantic(run, rounds=1, iterations=1)
    f = np.random.default_rng(0).standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(dist.matvec(f), ref.apply(f), rtol=1e-12)


if __name__ == "__main__":
    main()
