"""Ablation — Brownian displacement methods: Cholesky vs Krylov vs
Chebyshev vs positively split sampling.

The paper chooses the block Krylov method (Section III.B); the
alternatives are the dense Cholesky factorization (Algorithm 1),
Fixman's Chebyshev polynomials (reference [25], which "require
eigenvalue estimates of M"; here the ``eigenvalue_bounds`` +
``chebyshev_sqrt`` pair of ``reference/chebyshev.py``) and the
positively split Ewald sampler that ``MatrixFreeBD`` runs (Fiore et al.,
PAPERS.md): block Lanczos on the sparse real-space half per block, the
wave-space half drawn on the half spectrum each step and carried by the
step's drift apply (here, force-free, the noise-only pass).  This
ablation quantifies the trade on a real periodic mobility:

* operator applications (the dominant cost in the matrix-free setting;
  for PSE: separate wave-space passes of the block sampler, none, and
  real-space SpMM columns, no apply of the whole operator),
* wall-clock,
* accuracy against the dense principal square root (Cholesky and PSE
  sample other, equally valid roots: n/a),
* a covariance check for every method: ``g^T M^-1 g / (2 kT dt d)``
  averaged over ``COV_COLUMNS`` samples is 1 within four standard
  deviations (``sqrt(2 / (d COV_COLUMNS))`` each).

Run ``python benchmarks/bench_ablation_brownian.py`` for the table; the
record's ``meta`` carries the PSE row's pass counts and covariance
verdict, which CI asserts.  The PSE row's covariance check and wall
clock are of the per-step force-free displacement: a column of the
block's real half plus the step's noise-only wave pass.
"""

import math

import numpy as np
from reference.chebyshev import chebyshev_sqrt, eigenvalue_bounds

from repro import tune_parameters
from common import (
    bench_scale,
    cached_suspension,
    measure_seconds,
    print_table,
    record_benchmark,
)
from repro.core.brownian import (
    CholeskyBrownianGenerator,
    KrylovBrownianGenerator,
)
from repro.core.integrators import BDStepStats, MatrixFreeBD
from repro.krylov import dense_sqrt_apply
from repro.rpy.ewald import EwaldSummation

TOL = 1e-4
N_VECTORS = 10
COV_COLUMNS = 400
KT, DT = 1.0, 1e-3


def _covariance_check(sample, minv, d):
    """``(deviation, bound)`` of the mean ``g^T M^-1 g / (2 kT dt d)``
    from 1 over ``COV_COLUMNS`` columns of ``sample(m)``."""
    g = np.concatenate([sample(N_VECTORS)
                        for _ in range(COV_COLUMNS // N_VECTORS)], axis=1)
    q = np.einsum("is,ij,js->s", g, minv, g) / (2 * KT * DT * d)
    return abs(float(q.mean()) - 1.0), 4 * math.sqrt(2 / (d * g.shape[1]))


class _Counted:
    """Counts the calls of ``names`` on ``obj`` (instance attributes)."""

    def __init__(self, obj, names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            inner = getattr(obj, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                self.calls[_name] += 1
                return _inner(*args, **kwargs)
            setattr(obj, name, counted)


def experiment_rows(n=None):
    """One row per method: matvecs, wall-clock, relative error,
    covariance check; and the PSE row's pass counts."""
    n = n or (400 if bench_scale() == "paper" else 120)
    susp = cached_suspension(n)
    mobility = EwaldSummation(box=susp.box, tol=1e-8).matrix(susp.positions)
    minv = np.linalg.inv(mobility)
    d = 3 * n
    rng = np.random.default_rng(0)
    z = rng.standard_normal((d, N_VECTORS))
    ref = dense_sqrt_apply(mobility, z)
    scale = np.sqrt(2 * KT * DT)

    def normal(m):
        return rng.standard_normal((d, m))

    def cov(sample):
        dev, bound = _covariance_check(sample, minv, d)
        return f"{dev:.1e} (< {bound:.1e})", dev < bound

    rows, verdicts = [], {}

    chol = CholeskyBrownianGenerator(kT=KT, dt=DT)
    t = measure_seconds(lambda: chol.generate(mobility, z)).best
    cell, verdicts["cholesky"] = cov(lambda m: chol.generate(mobility,
                                                             normal(m)))
    # Cholesky samples a different (equally valid) square root; its
    # "error" column is not comparable and is reported as n/a
    rows.append(["Cholesky (dense)", "n/a (needs matrix)", t, "n/a", cell])

    kry = KrylovBrownianGenerator(kT=KT, dt=DT, tol=TOL)
    t = measure_seconds(lambda: kry.generate(mobility, z)).best
    y = kry.generate(mobility, z)
    err = np.linalg.norm(y / scale - ref) / np.linalg.norm(ref)
    cell, verdicts["krylov"] = cov(lambda m: kry.generate(mobility,
                                                          normal(m)))
    rows.append(["block Krylov (paper)", kry.last_info.n_matvecs, t,
                 f"{err:.1e}", cell])

    def chebyshev(zz):
        l_min, l_max = eigenvalue_bounds(mobility, d)
        return chebyshev_sqrt(mobility, zz, l_min, l_max, tol=TOL)

    t = measure_seconds(lambda: chebyshev(z)).best
    y, info = chebyshev(z)
    err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    cell, verdicts["chebyshev"] = cov(lambda m: scale * chebyshev(normal(m))[0])
    # + the Lanczos steps of the eigenvalue bounds (25, capped at d)
    rows.append(["Chebyshev (Fixman)", info.n_matvecs + min(25, d), t,
                 f"{err:.1e}", cell])

    # the shipped sampler, on the tuned split of this system
    bd = MatrixFreeBD(susp.box, dt=DT, lambda_rpy=N_VECTORS, seed=0,
                      e_k=TOL, pme_params=tune_parameters(n, susp.box))
    bd._prepare(susp.positions)
    op = bd.operator
    counts = _Counted(op, ("apply", "apply_block", "apply_reciprocal"))
    stats = BDStepStats()
    bd._generate_displacements(N_VECTORS, stats)
    # mesh passes the block sampler issues besides the steps' own
    passes = counts.calls["apply_reciprocal"]
    applies = counts.calls["apply"] + counts.calls["apply_block"]
    iters = stats.krylov_iterations[-1]

    def steps(m):
        # m force-free steps: real-half columns + noise-only wave passes
        real = bd._generate_displacements(m, BDStepStats())
        return np.stack([bd._displacement(None, real[:, j],
                                          bd._step_noise(), DT)
                         for j in range(m)], axis=1)

    t = measure_seconds(lambda: steps(N_VECTORS)).best
    cell, verdicts["pse"] = cov(steps)
    rows.append(["PSE (real-space Lanczos + wave noise per step)",
                 f"{passes:g} separate wave passes + "
                 f"{iters * N_VECTORS} real columns", t, "n/a", cell])
    pse = {"reciprocal_passes_per_block": passes,
           "operator_applies_per_block": applies,
           "real_lanczos_iterations": iters,
           "covariance_ok": verdicts["pse"]}
    return rows, pse, verdicts


def main():
    rows, pse, verdicts = experiment_rows()
    headers = ["method", "operator applications", "wall (s)",
               "rel error vs principal sqrt", "covariance check"]
    print_table(
        f"Ablation: Brownian displacement methods ({N_VECTORS} vectors, "
        f"tol={TOL})",
        headers, rows)
    record_benchmark("ablation_brownian", headers, rows,
                     meta={"tol": TOL, "n_vectors": N_VECTORS,
                           "cov_columns": COV_COLUMNS, "pse": pse,
                           "covariance_ok": verdicts})


def test_krylov_generator(benchmark):
    n = 120
    susp = cached_suspension(n)
    mobility = EwaldSummation(box=susp.box, tol=1e-8).matrix(susp.positions)
    z = np.random.default_rng(0).standard_normal((3 * n, N_VECTORS))
    gen = KrylovBrownianGenerator(kT=1.0, dt=1e-3, tol=TOL)
    benchmark(gen.generate, mobility, z)


def test_chebyshev_generator(benchmark):
    n = 120
    susp = cached_suspension(n)
    mobility = EwaldSummation(box=susp.box, tol=1e-8).matrix(susp.positions)
    z = np.random.default_rng(0).standard_normal((3 * n, N_VECTORS))
    l_min, l_max = eigenvalue_bounds(mobility, 3 * n)
    benchmark(chebyshev_sqrt, mobility, z, l_min, l_max, tol=TOL)


def test_both_matrix_free_methods_accurate(benchmark):
    rows, pse, verdicts = benchmark.pedantic(
        experiment_rows, kwargs=dict(n=90), rounds=1, iterations=1)
    for row in rows[1:3]:
        assert float(row[3]) < 10 * TOL
    assert pse["reciprocal_passes_per_block"] == 0
    assert pse["operator_applies_per_block"] == 0
    assert all(verdicts.values()), verdicts


if __name__ == "__main__":
    main()
