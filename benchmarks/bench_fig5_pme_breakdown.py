"""Fig. 5 — reciprocal-space PME time breakdown, measured vs modeled.

The paper's Fig. 5 shows per-phase timings of the reciprocal pipeline
(a) as a function of the number of particles at fixed mesh and (b) as a
function of the mesh dimension at fixed particle count, overlaid with
the Section IV.D performance model.  This benchmark reproduces both
sweeps on the host and reports the measured phase breakdown alongside
the model evaluated with the host machine description.

The paper's shape claims checked here:

* the FFTs dominate for small particle counts,
* spreading + interpolation grow with ``n`` and eventually rival the
  FFT cost,
* applying the influence function grows with ``K^3``.

Run ``python benchmarks/bench_fig5_pme_breakdown.py`` for the tables.
"""

import numpy as np

from repro import PMEOperator, PMEParams
from common import bench_scale, cached_suspension, print_table, record_benchmark
from repro.perfmodel import HOST, PMECostModel

PHASES = ["spread", "fft", "influence", "ifft", "interpolate"]


def _measure_breakdown(n, K, p, r_max=4.0, xi=1.0, repeats=3):
    susp = cached_suspension(n)
    params = PMEParams(xi=xi, r_max=min(r_max, susp.box.length / 2), K=K, p=p)
    op = PMEOperator(susp.positions, susp.box, params)
    f = np.random.default_rng(0).standard_normal(3 * n)
    op.apply_reciprocal(f)          # warm up
    op.timers.reset()
    for _ in range(repeats):
        op.apply_reciprocal(f)
    return {ph: op.timers.elapsed(ph) / repeats for ph in PHASES}


def sweep_particles(K=None, p=6, counts=None):
    """Fig. 5a analog: fixed mesh, varying particle count."""
    paper = bench_scale() == "paper"
    K = K or (256 if paper else 64)
    counts = counts or ([5000, 20000, 80000, 200000, 500000] if paper
                        else [500, 2000, 8000])
    rows = []
    for n in counts:
        b = _measure_breakdown(n, K, p)
        rows.append([n] + [b[ph] for ph in PHASES] + [sum(b.values())])
    return K, rows


def sweep_mesh(n=None, p=6, dims=None):
    """Fig. 5b analog: fixed particle count, varying mesh dimension."""
    paper = bench_scale() == "paper"
    n = n or 5000
    dims = dims or ([64, 96, 128, 192, 256] if paper else [32, 48, 64, 96])
    rows = []
    for K in dims:
        b = _measure_breakdown(n, K, p)
        rows.append([K] + [b[ph] for ph in PHASES] + [sum(b.values())])
    return n, rows


def model_rows(n_list, K_list, p=6):
    """Eq. 10 per-phase predictions with the host machine description."""
    model = PMECostModel(HOST)
    rows = []
    for n, K in zip(n_list, K_list):
        b = model.breakdown(n, K, p)
        rows.append([n, K] + [b[ph] for ph in PHASES] + [sum(b.values())])
    return rows


def main():
    K, rows_a = sweep_particles()
    print_table(f"Fig. 5a: reciprocal PME breakdown vs n (K={K}, p=6), "
                "measured seconds",
                ["n"] + PHASES + ["total"], rows_a)
    n, rows_b = sweep_mesh()
    print_table(f"Fig. 5b: reciprocal PME breakdown vs K (n={n}, p=6), "
                "measured seconds",
                ["K"] + PHASES + ["total"], rows_b)
    ns = [r[0] for r in rows_a]
    overlay = model_rows(ns, [K] * len(ns))
    print_table("Fig. 5 overlay: Section IV.D model with the host "
                "machine description (seconds)",
                ["n", "K"] + PHASES + ["total"], overlay)
    record_benchmark("fig5_pme_breakdown",
                     ["sweep", "n_or_K"] + PHASES + ["total"],
                     [["particles"] + r for r in rows_a]
                     + [["mesh"] + r for r in rows_b],
                     meta={"K_fixed": K, "n_fixed": n, "p": 6,
                           "model_overlay_rows": overlay})


def test_reciprocal_application(benchmark):
    """One reciprocal-space PME application (the Fig. 5 unit of work)."""
    n = 2000
    susp = cached_suspension(n)
    params = PMEParams(xi=1.0, r_max=4.0, K=64, p=6)
    op = PMEOperator(susp.positions, susp.box, params)
    f = np.random.default_rng(0).standard_normal(3 * n)
    benchmark(op.apply_reciprocal, f)


def test_breakdown_shapes(benchmark):
    """Paper shape claims: FFT-dominated at small n; spreading and
    interpolation grow with n; influence grows with K^3."""
    def run():
        small = _measure_breakdown(500, 64, 6, repeats=2)
        large = _measure_breakdown(8000, 64, 6, repeats=2)
        coarse = _measure_breakdown(1000, 32, 6, repeats=2)
        fine = _measure_breakdown(1000, 96, 6, repeats=2)
        return small, large, coarse, fine

    small, large, coarse, fine = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    assert small["fft"] + small["ifft"] > small["spread"] + small["interpolate"]
    assert large["spread"] + large["interpolate"] > \
        small["spread"] + small["interpolate"]
    assert fine["influence"] > coarse["influence"]


if __name__ == "__main__":
    main()
