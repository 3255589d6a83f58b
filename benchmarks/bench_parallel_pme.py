"""Blocked-PME apply under execution contexts: serial vs threads.

An ExecutionContext splits the mesh rows of the spreading gather, the
particle rows of the interpolation, the FFT lanes of both directions
and the block rows of the real-space BCSR SpMM across its workers
(GIL-releasing C kernels; paper Sections IV.A, IV.C, IV.E).  This benchmark times the same ``(3n, s)`` blocked apply

* without an explicit context (``no-context``: the process default, a
  one-worker ``serial`` context — the reference arm),
* on an explicit ``serial`` context (the same pipeline, one worker), and
* on ``threads`` contexts at increasing worker counts,

and asserts the headline invariant along the way: every arm, the
no-context one included, produces **bit-identical** velocities.

The speedup column is honest about the machine it ran on: on a
single-CPU host the thread rows measure dispatch overhead, not
parallel gain, and the recorded ``cpus`` field lets the CI comparison
interpret the numbers.  Run ``python benchmarks/bench_parallel_pme.py``
for the table; ``BENCH_parallel_pme.json`` is written via
``common.record_benchmark``, with the mean seconds per apply of each pipeline
phase at 1 and 2 threads in ``meta["phase_seconds"]`` (how each stage,
the inverse FFT included, scales on the context's pool).
"""

import hashlib
import time

import numpy as np

from common import (
    bench_scale,
    cached_suspension,
    print_table,
    record_benchmark,
)
from repro.config import available_cpus
from repro.exec import ExecutionContext
from repro.pme.operator import PMEOperator, PMEParams
from repro.sparse import kernel_available

N = 1000
PHI = 0.2
S = 8

#: Real-space-heavy split (most of the pipeline parallelizes): matched
#: truncation accuracy with the committed blocked-PME points.
XI, R_MAX, K, P = 0.30, 13.0, 24, 6

#: Worker counts measured under the threads backend.
THREAD_WORKERS = (1, 2, 4)

#: Pipeline phases (Fig. 5 names) whose seconds per apply are recorded
#: for the 1- and 2-worker threads arms.
PHASES = ("spread", "fft", "influence", "ifft", "interpolate", "real")


def _best_of(fn, repeats):
    fn()                                  # warmup (plans, workspaces)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def parallel_rows(n=N, s=S, repeats=None):
    repeats = repeats or (7 if bench_scale() == "paper" else 3)
    susp = cached_suspension(n, volume_fraction=PHI)
    params = PMEParams(xi=XI, r_max=min(R_MAX, susp.box.length / 2),
                       K=K, p=P)
    f = np.random.default_rng(0).standard_normal((3 * n, s))

    plain_op = PMEOperator(susp.positions, susp.box, params)
    u_plain = plain_op.apply_block(f)
    t_plain = _best_of(lambda: plain_op.apply_block(f), repeats)
    rows = [["no-context", "-", t_plain, 1.0]]

    configs = [("serial", 1)] + [("threads", w) for w in THREAD_WORKERS]
    digests = {_digest(u_plain)}
    phase_seconds = {}
    for backend, workers in configs:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            op = PMEOperator(susp.positions, susp.box, params, context=ctx)
            digests.add(_digest(op.apply_block(f)))
            t = _best_of(lambda: op.apply_block(f), repeats)
            rows.append([backend, workers, t, t_plain / t])
            if backend == "threads" and workers <= 2:
                applies = op.n_applications // s
                phase_seconds[workers] = {
                    name: seconds / applies
                    for name, seconds in op.phase_breakdown().items()
                    if name in PHASES}
    assert len(digests) == 1, "contexts disagree bitwise"
    return rows, phase_seconds


def main():
    rows, phase_seconds = parallel_rows()
    headers = ["backend", "workers", "t block (s)",
               "speedup vs no-context"]
    print_table(f"Blocked-PME apply under execution contexts "
                f"(n={N}, s={S}, cpus={available_cpus()}, "
                f"native kernel: {kernel_available()})",
                headers, rows)
    threads = {r[1]: r[-1] for r in rows if r[0] == "threads"}
    # one worker runs inline: only the 2+ rows measure the pool (the CI
    # step gating on this is titled "threads, 2+ workers")
    best_threads = max(v for w, v in threads.items() if w >= 2)
    record_benchmark("parallel_pme", headers, rows,
                     meta={"n": N, "s": S, "phi": PHI,
                           "xi": XI, "r_max": R_MAX, "K": K, "p": P,
                           "cpus": available_cpus(),
                           "kernel_available": kernel_available(),
                           "threads_speedups": threads,
                           "best_threads_speedup": best_threads,
                           "phase_seconds": phase_seconds,
                           "bit_identical": True})
    print(f"\nbest threads speedup (2+ workers) vs no-context: "
          f"{best_threads:.2f}x on {available_cpus()} cpu(s)")


if __name__ == "__main__":
    main()
