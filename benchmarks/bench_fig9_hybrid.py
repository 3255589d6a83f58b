"""Fig. 9 — hybrid (CPU + 2 Xeon Phi) vs CPU-only BD step.

The paper's hybrid implementation averages 2.5x over CPU-only and
exceeds 3.5x for the largest configurations, with only marginal gains
for small ones (offload overhead plus inefficient small-mesh FFTs on
KNC).

The schedule (Section IV.E static partitioning balanced by the
Section IV.D model) is executed for real on the host — its numerical
output is verified identical to the plain operator — while the
per-device durations come from the Table I machine models (DESIGN.md,
"Substitutions").

The scheduler is ``benchmarks/reference/hybrid.py``.

Run ``python benchmarks/bench_fig9_hybrid.py`` for the table, followed
by a walk-through of one configuration: the per-phase model on both
machines, the load-balancing cutoff, each device's share of a block,
and the host execution checked against the plain operator.
"""

import numpy as np
from reference.hybrid import HybridScheduler

from repro import Box, PMEOperator, make_suspension, tune_parameters
from common import bench_scale, cached_suspension, print_table, record_benchmark
from repro.perfmodel import WESTMERE_EP, XEON_PHI_KNC, PMECostModel

CI_COUNTS = [1000, 5000, 20000, 100000, 500000]
PAPER_COUNTS = [1000, 5000, 10000, 50000, 100000, 200000, 500000]
LAMBDA_RPY = 16


def experiment_rows(counts=None):
    """(n, K, vectors per device, cpu-only s, hybrid s, speedup)."""
    counts = counts or (PAPER_COUNTS if bench_scale() == "paper"
                        else CI_COUNTS)
    scheduler = HybridScheduler()
    rows = []
    for n in counts:
        box = Box.for_volume_fraction(n, 0.2)
        params = tune_parameters(n, box, target_ep=1e-3)
        density = n * (4.0 / 3.0) * np.pi * params.r_max ** 3 / box.volume
        plan = scheduler.plan_block(n, params.K, params.p, density,
                                    LAMBDA_RPY)
        rows.append([n, params.K,
                     "/".join(str(c) for c in plan.assignments),
                     plan.cpu_only_time, plan.hybrid_time, plan.speedup])
    return rows


def main():
    rows = experiment_rows()
    headers = ["n", "K", "vectors cpu/knc0/knc1", "cpu-only (s)",
               "hybrid (s)", "speedup"]
    print_table(
        f"Fig. 9: hybrid CPU+2xKNC vs CPU-only, block of {LAMBDA_RPY} PME "
        "vectors (modeled schedule)",
        headers, rows)
    speedups = [r[-1] for r in rows]
    print(f"mean speedup {np.mean(speedups):.2f}x, "
          f"max {max(speedups):.2f}x")
    record_benchmark("fig9_hybrid", headers, rows,
                     meta={"lambda_rpy": LAMBDA_RPY,
                           "mean_speedup": float(np.mean(speedups))})
    walkthrough()


def walkthrough(n=400):
    """One configuration through every step of the Section IV.E plan."""
    susp = make_suspension(n, 0.2, seed=0)
    params = tune_parameters(n, susp.box, target_ep=1e-3)
    print(f"\nwalk-through at n={n}: K={params.K}, p={params.p}, "
          f"r_max={params.r_max:.2f}, alpha={params.xi:.3f}")
    for machine in (WESTMERE_EP, XEON_PHI_KNC):
        breakdown = PMECostModel(machine).breakdown(n, params.K, params.p)
        phases = ", ".join(f"{k}={v * 1e3:.2f}ms"
                           for k, v in breakdown.items())
        print(f"  {machine.name}: {phases}")

    scheduler = HybridScheduler()
    # alpha tuning: the cutoff balancing CPU real-space work against
    # one coprocessor reciprocal evaluation
    balanced_r = scheduler.balance_alpha_cutoff(
        n, susp.box.volume, params.K, params.p,
        r_max_grid=np.linspace(2.5, susp.box.length / 2, 16))
    print(f"load-balancing cutoff r_max = {balanced_r:.2f}a "
          "(larger cutoff -> more work on the CPU)")

    density = n * (4 / 3) * np.pi * params.r_max ** 3 / susp.box.volume
    plan = scheduler.plan_block(n, params.K, params.p, density, LAMBDA_RPY)
    for name, count, t in zip(plan.device_names, plan.assignments,
                              plan.device_times):
        print(f"  {name}: {count} vectors, busy {t * 1e3:.2f} ms")
    print(f"predicted hybrid speedup over CPU-only: {plan.speedup:.2f}x")

    op = PMEOperator(susp.positions, susp.box, params)
    f = np.random.default_rng(1).standard_normal((3 * n, LAMBDA_RPY))
    u_hybrid, _ = scheduler.execute(op, f)
    err = np.abs(u_hybrid - op.apply(f)).max()
    print(f"hybrid execution matches the plain operator to {err:.2e}")


def test_hybrid_execution_correct_and_timed(benchmark):
    """Host execution of the hybrid schedule equals the plain operator."""
    n = 1000
    susp = cached_suspension(n)
    params = tune_parameters(n, susp.box, target_ep=1e-2)
    op = PMEOperator(susp.positions, susp.box, params)
    scheduler = HybridScheduler()
    f = np.random.default_rng(0).standard_normal((3 * n, 8))
    u, plan = benchmark.pedantic(scheduler.execute, args=(op, f),
                                 rounds=2, iterations=1)
    np.testing.assert_allclose(u, op.apply(f), rtol=1e-12)
    assert plan.speedup > 0


def test_fig9_speedup_shape(benchmark):
    """The paper's shape: marginal gains small, >3x for the largest."""
    rows = benchmark.pedantic(experiment_rows,
                              args=([1000, 100000, 500000],),
                              rounds=1, iterations=1)
    assert rows[0][-1] < rows[-1][-1]
    assert rows[-1][-1] > 2.5


if __name__ == "__main__":
    main()
