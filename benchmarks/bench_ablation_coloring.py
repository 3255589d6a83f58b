"""Ablation — spreading strategies: the shipped spreader vs 8-color schedule.

Section IV.B.2's independent-set schedule exists to make a *scatter*
over particles parallel-safe.  The shipped spreader scatters only on
one worker; on several it reads ``P'`` (``P^T`` stored by mesh row),
which makes spreading a gather that needs no colouring.  This ablation
puts them side by side on the host:

* the operator's spreader (``InterpolationMatrix.spread_batch`` on a
  one-column operand: the particle scatter inline, the ``P'`` row
  gather on a 2-thread context) and the paper-faithful coloured engine
  (serial and 2-thread contexts) produce the same mesh to rounding,
* the per-color block write footprints are disjoint (the race-freedom
  invariant, re-verified here at benchmark scale),
* relative costs on this host are reported.

Run ``python benchmarks/bench_ablation_coloring.py`` for the table.
"""

import numpy as np

from repro.bench import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.exec import ExecutionContext
from repro.parallel.engine import ColoredPMEEngine
from repro.pme.spread import InterpolationMatrix
from repro.pme.tuning import tune_parameters


def _setup(n):
    susp = cached_suspension(n)
    params = tune_parameters(n, susp.box, target_ep=1e-3)
    return susp, params


def _engine(susp, interp, context):
    return ColoredPMEEngine(susp.positions, susp.box, interp.K, interp.p,
                            weights=interp.weights, columns=interp.columns,
                            context=context)


def experiment_rows(n=None):
    n = n or (20000 if bench_scale() == "paper" else 3000)
    susp, params = _setup(n)
    f = np.random.default_rng(0).standard_normal((n, 1))
    interp = InterpolationMatrix(susp.positions, susp.box, params.K,
                                 params.p)
    reference = interp.spread_batch(f)
    mesh = np.empty_like(reference)
    rows = []
    with ExecutionContext("serial") as serial, \
            ExecutionContext("threads", workers=2) as threads:
        for name, context in (("particle scatter, inline", None),
                              ("P' row gather, 2 threads", threads)):
            t = measure_seconds(
                lambda: interp.spread_batch(f, out=mesh, context=context),
                repeats=3, warmup=1).best
            max_dev = float(np.abs(mesh - reference).max())
            rows.append([name, t, f"{max_dev:.1e}"])
        for name, context in (("8-color engine, serial", serial),
                              ("8-color engine, 2 threads", threads)):
            engine = _engine(susp, interp, context)
            t = measure_seconds(lambda: engine.spread_batch(f, out=mesh),
                                repeats=3, warmup=1).best
            max_dev = float(np.abs(mesh - reference).max())
            rows.append([name, t, f"{max_dev:.1e}"])
    return rows, engine


def main():
    rows, engine = experiment_rows()
    headers = ["strategy", "t (s)", "max deviation"]
    print_table("Ablation: spreading strategies (identical results "
                "required)",
                headers, rows)
    disjoint = all(
        not np.intersect1d(a, b).size
        for c in range(engine.coloring.n_colors)
        for idx, a in enumerate(engine.block_footprints(c))
        for b in engine.block_footprints(c)[idx + 1:])
    print(f"per-color block write footprints disjoint: {disjoint} "
          "(the schedule's race-freedom invariant)")
    record_benchmark("ablation_coloring", headers, rows,
                     meta={"footprints_disjoint": bool(disjoint)})


def test_sparse_spreading(benchmark):
    susp, params = _setup(2000)
    interp = InterpolationMatrix(susp.positions, susp.box, params.K,
                                 params.p)
    f = np.random.default_rng(0).standard_normal(2000)
    benchmark(interp.spread, f)


def test_colored_spreading(benchmark):
    susp, params = _setup(2000)
    interp = InterpolationMatrix(susp.positions, susp.box, params.K,
                                 params.p)
    f = np.random.default_rng(0).standard_normal((2000, 1))
    mesh = np.empty((1, params.K ** 3))
    with ExecutionContext("serial") as context:
        engine = _engine(susp, interp, context)
        benchmark(engine.spread_batch, f, mesh)


def test_strategies_identical(benchmark):
    rows, _ = benchmark.pedantic(experiment_rows, kwargs=dict(n=1500),
                                 rounds=1, iterations=1)
    for row in rows:
        assert float(row[2]) < 1e-12


if __name__ == "__main__":
    main()
