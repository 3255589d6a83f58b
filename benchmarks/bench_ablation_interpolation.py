"""Ablation — smooth PME (B-splines) vs original PME (Lagrange).

Reproduces the paper's design-choice statement (Section III.A): "We
found the SPME approach to be more accurate than the original PME
approach [6] with Lagrangian interpolation, while negligibly
increasing computational cost."

At matched ``(xi, r_max, K, p)`` the two schemes are timed and their
``e_p`` against the dense Ewald reference measured.  Both run through
the one reference reciprocal pass of
``benchmarks/reference/pme_variants.py`` (weights on the fly, the
``|b|^2`` deconvolution for B-splines only), so the cost columns
compare like with like; the real-space half is the production
operator's and is the same for both.

Run ``python benchmarks/bench_ablation_interpolation.py`` for the table.
"""

import numpy as np
from reference.pme_variants import KINDS, mobility_apply, reciprocal_pass

from repro import Box, PMEOperator, PMEParams
from common import measure_seconds, print_table, record_benchmark
from repro.rpy.ewald import EwaldSummation

CONFIGS = [(32, 4), (48, 6), (64, 6), (64, 8)]
#: Ewald splitting parameter.  The positively split real half decays
#: like ``exp(-xi^2 (r - 2a)^2)``: at ``xi = 1`` and ``r_max = 4`` its
#: truncation (~1e-4), not the interpolation, decides both columns, so
#: the split is moved towards the mesh.
XI = 1.5


def experiment_rows(n=45):
    box = Box.for_volume_fraction(n, 0.2)
    rng = np.random.default_rng(12)
    r = rng.uniform(0, box.length, size=(n, 3))
    ref = EwaldSummation(box=box, tol=1e-12).matrix(r)
    f = rng.standard_normal(3 * n)
    u_ref = ref @ f

    rows = []
    for K, p in CONFIGS:
        params = PMEParams(xi=XI, r_max=min(4.0, box.length / 2), K=K, p=p)
        op = PMEOperator(r, box, params)
        row = [K, p]
        for kind in KINDS:
            u = mobility_apply(op, f, kind)
            err = np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)
            t = measure_seconds(
                lambda: reciprocal_pass(r, box, params, f, kind),
                repeats=3, warmup=1).best
            row += [f"{err:.1e}", t]
        rows.append(row)
    return rows


def _pass_args(n=45):
    box = Box.for_volume_fraction(n, 0.2)
    r = np.random.default_rng(12).uniform(0, box.length, size=(n, 3))
    f = np.random.default_rng(0).standard_normal(3 * n)
    return r, box, PMEParams(xi=XI, r_max=4.0, K=48, p=6), f


def main():
    rows = experiment_rows()
    headers = ["K", "p", "e_p SPME", "t SPME (s)", "e_p Lagrange",
               "t Lagrange (s)"]
    print_table(
        "Ablation: SPME (B-spline) vs original PME (Lagrange) at matched "
        "parameters",
        headers, rows)
    record_benchmark("ablation_interpolation", headers, rows,
                     meta={"configs": CONFIGS, "xi": XI})
    print("SPME is more accurate on every row at essentially equal cost\n"
          "(the paper's Section III.A finding).")


def test_spme_apply(benchmark):
    benchmark(reciprocal_pass, *_pass_args(), "bspline")


def test_lagrange_apply(benchmark):
    benchmark(reciprocal_pass, *_pass_args(), "lagrange")


def test_spme_wins_at_matched_cost(benchmark):
    rows = benchmark.pedantic(experiment_rows, kwargs=dict(n=40),
                              rounds=1, iterations=1)
    for row in rows:
        e_spme, t_spme = float(row[2]), row[3]
        e_lag, t_lag = float(row[4]), row[5]
        assert e_spme < e_lag
        assert t_spme < 2.0 * t_lag     # "negligibly increasing cost"


if __name__ == "__main__":
    main()
