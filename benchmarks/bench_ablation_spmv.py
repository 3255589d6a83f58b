"""Ablation — real-space SpMV: products, multiple right-hand sides, backends.

Three implementation choices the paper motivates for the real-space
operator (Section IV.C, reference [24]):

1. **blocked storage + multi-RHS SpMV** — applying the BCSR matrix to a
   block of vectors amortizes the matrix traffic; the per-vector cost
   must drop substantially versus one-vector-at-a-time,
2. **product** — the operator's one product (``BlockCSR.matmat``: the
   native SpMM kernel, each 3x3 block streamed once against all lanes)
   against the two references it replaced as selectable engines: the
   NumPy ``BlockCSR.matvec`` and the ``scipy.sparse`` CSR export,
3. **construction** — the three steps of the build (pair search and
   separations, the split's coefficient table, the symmetric assembly
   with the table gather and tensor fill fused in) read off the
   operator's own obs spans, with the compiled assembly and with its
   ``lexsort`` fallback; and the search alone, ``find_pairs`` against
   its O(n^2) brute-force reference (at a small n only).

Run ``python benchmarks/bench_ablation_spmv.py`` for the tables.
"""

import os

import numpy as np

from repro import obs
from repro.bench import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.neighbor.pairs import brute_force_pairs, find_pairs
from repro.pme.realspace import RealSpaceOperator
from repro.sparse.kernels import reset_kernel_cache

R_MAX = 4.0
XI = 1.0


def _operator(n):
    susp = cached_suspension(n)
    return RealSpaceOperator(susp.positions, susp.box, XI,
                             min(R_MAX, susp.box.length / 2))


def _products(op):
    """The operator's product and the two reference products."""
    csr = op.bcsr.to_scipy()
    return {"matmat": op.apply, "matvec": op.bcsr.matvec,
            "scipy-csr": lambda f: csr @ f}


def multi_rhs_rows(n=None):
    """Per-vector SpMV cost vs block width, every product."""
    n = n or (20000 if bench_scale() == "paper" else 3000)
    rows = []
    for name, product in _products(_operator(n)).items():
        for s in (1, 4, 8, 10, 16, 32):
            f = np.random.default_rng(0).standard_normal((3 * n, s))
            t = measure_seconds(lambda: product(f), repeats=3,
                                warmup=1).best
            rows.append([name, s, t, t / s])
    return rows


#: The passes of ``RealSpaceOperator.__init__``, by obs span.
BUILD_PASSES = {"search": "pme.find_pairs", "table": "pme.real_table",
                "assembly": "pme.real_assemble"}


def _build_pass_seconds(susp, r_max, repeats=3):
    """Best-of-``repeats`` seconds per build pass, from the obs spans."""
    previous = obs.get_tracer()
    best = dict.fromkeys(BUILD_PASSES, float("inf"))
    try:
        for _ in range(repeats + 1):        # first build warms the kernels
            tracer = obs.Tracer()
            obs.set_tracer(tracer)
            RealSpaceOperator(susp.positions, susp.box, XI, r_max)
            totals = tracer.totals()
            best = {name: min(best[name], totals[span])
                    for name, span in BUILD_PASSES.items()}
    finally:
        obs.set_tracer(previous)
    return best


def construction_rows(n=None):
    """Rows ``[what, kernel mode, n, seconds]``: the three build passes
    per kernel mode, then the pair search alone: the engine at ``n``,
    and engine vs brute-force reference at ``min(n, 1000)`` (the
    reference holds all ``n (n - 1) / 2`` candidates at once)."""
    n = n or (20000 if bench_scale() == "paper" else 3000)
    susp = cached_suspension(n)
    r_max = min(R_MAX, susp.box.length / 2)
    rows = []
    saved = os.environ.get("REPRO_NO_CKERNEL")
    try:
        for mode, flag in (("ckernel", "0"), ("fallback", "1")):
            os.environ["REPRO_NO_CKERNEL"] = flag
            reset_kernel_cache()
            for name, t in _build_pass_seconds(susp, r_max).items():
                rows.append([name, mode, n, t])
    finally:
        if saved is None:
            del os.environ["REPRO_NO_CKERNEL"]
        else:
            os.environ["REPRO_NO_CKERNEL"] = saved
        reset_kernel_cache()
    small = cached_suspension(min(n, 1000))
    small_r_max = min(R_MAX, small.box.length / 2)
    for search, s, cutoff in ((find_pairs, susp, r_max),
                              (find_pairs, small, small_r_max),
                              (brute_force_pairs, small, small_r_max)):
        t = measure_seconds(lambda: search(s.positions, s.box, cutoff),
                            repeats=3).best
        rows.append([search.__name__, "-", s.n, t])
    return rows


def main():
    rhs_rows = multi_rhs_rows()
    build_rows = construction_rows()
    print_table("Ablation: real-space SpMV, per-vector cost vs block width",
                ["product", "block width s", "t block (s)",
                 "t per vector (s)"],
                rhs_rows)
    print_table("Ablation: real-space operator construction, pass by pass",
                ["pass", "kernel mode", "n", "t (s)"],
                build_rows)
    record_benchmark("ablation_spmv",
                     ["product", "block width s", "t block (s)",
                      "t per vector (s)"],
                     rhs_rows,
                     meta={"construction_rows": build_rows})


def test_matmat_block_spmv(benchmark):
    n = 3000
    f = np.random.default_rng(0).standard_normal((3 * n, 16))
    benchmark(_operator(n).apply, f)


def test_scipy_csr_block_spmv(benchmark):
    n = 3000
    f = np.random.default_rng(0).standard_normal((3 * n, 16))
    benchmark(_products(_operator(n))["scipy-csr"], f)


def test_multi_rhs_amortization(benchmark):
    """The reference-[24] claim: per-vector cost drops with block width."""
    rows = benchmark.pedantic(multi_rhs_rows, kwargs=dict(n=2000),
                              rounds=1, iterations=1)
    for name in ("matmat", "matvec", "scipy-csr"):
        per_vector = [r[3] for r in rows if r[0] == name]
        assert min(per_vector[1:]) < per_vector[0]  # a block beats s=1


if __name__ == "__main__":
    main()
