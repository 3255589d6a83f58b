"""Fig. 4 — precomputing the interpolation matrix P vs on-the-fly.

The paper's optimization: because the matrix-free BD algorithm applies
the same PME operator to many vectors (19-25 Krylov iterations times
``lambda_RPY = 16`` vectors), precomputing ``P`` once and reusing it
beats recomputing the spline weights on every application — on average
1.5x in the paper, largest where ``p^3 n / K^3`` is large.

This benchmark times the reciprocal-space application both ways across
configurations and reports the speedup; the paper's shape claim
(speedup > 1, growing with ``p^3 n / K^3``) is asserted.  The stored
side is :meth:`repro.PMEOperator.apply_reciprocal`; the on-the-fly side
is the reference pass of ``benchmarks/reference/pme_variants.py``
(weights recomputed on every call, same mathematics).

Run ``python benchmarks/bench_fig4_precompute_p.py`` for the table.
"""

import numpy as np
from reference.pme_variants import reciprocal_pass

from repro import PMEOperator, tune_parameters
from repro.bench import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)

CI_COUNTS = [500, 1000, 2000, 4000]
PAPER_COUNTS = [1000, 5000, 10000, 50000, 80000, 200000, 500000]


def _operators(n):
    """The stored-``P`` apply and its on-the-fly reference, both
    ``f -> M_recip f`` in ``mu0`` units."""
    susp = cached_suspension(n)
    params = tune_parameters(n, susp.box, target_ep=1e-3)
    stored = PMEOperator(susp.positions, susp.box, params,
                         fluid=susp.fluid).apply_reciprocal

    def fly(f):
        return reciprocal_pass(susp.positions, susp.box, params, f,
                               radius=susp.fluid.radius)
    return susp, params, stored, fly


def experiment_rows(counts=None):
    """(n, K, p, t_stored, t_fly, speedup) per configuration."""
    counts = counts or (PAPER_COUNTS if bench_scale() == "paper"
                        else CI_COUNTS)
    rows = []
    for n in counts:
        susp, params, stored, fly = _operators(n)
        f = np.random.default_rng(0).standard_normal(3 * n)
        t_stored = measure_seconds(lambda: stored(f),
                                   repeats=3, warmup=1).best
        t_fly = measure_seconds(lambda: fly(f),
                                repeats=3, warmup=1).best
        ratio = params.p ** 3 * n / params.K ** 3
        rows.append([n, params.K, params.p, round(ratio, 2),
                     t_stored, t_fly, t_fly / t_stored])
    return rows


def main():
    rows = experiment_rows()
    headers = ["n", "K", "p", "p^3 n/K^3", "t stored (s)",
               "t on-the-fly (s)", "speedup"]
    print_table(
        "Fig. 4: reciprocal-space PME, precomputed P vs on-the-fly",
        headers, rows)
    speedups = [r[-1] for r in rows]
    print(f"mean speedup from precomputing P: {np.mean(speedups):.2f}x")
    record_benchmark("fig4_precompute_p", headers, rows,
                     meta={"mean_speedup": float(np.mean(speedups))})


def test_precomputed_p_application(benchmark):
    """Reciprocal application with stored P (the optimized path)."""
    n = 1000
    _, _, stored, _ = _operators(n)
    f = np.random.default_rng(0).standard_normal(3 * n)
    benchmark(stored, f)


def test_on_the_fly_application(benchmark):
    """Reciprocal application recomputing spline weights every call."""
    n = 1000
    _, _, _, fly = _operators(n)
    f = np.random.default_rng(0).standard_normal(3 * n)
    benchmark(fly, f)


def test_precompute_speedup_shape(benchmark):
    """The paper's claim: storing P is faster, increasingly so at large
    p^3 n / K^3."""
    rows = benchmark.pedantic(experiment_rows, args=([500, 2000],),
                              rounds=1, iterations=1)
    speedups = [r[-1] for r in rows]
    assert all(s > 1.0 for s in speedups)


if __name__ == "__main__":
    main()
