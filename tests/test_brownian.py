"""Tests for the Brownian displacement generators.

The physics requirement (fluctuation-dissipation): the displacement
block must have covariance ``2 kT dt M``.  Verified statistically for
every sampler (Cholesky, block Lanczos and the positively split sampler
of ``MatrixFreeBD``) against a real dense Ewald mobility.
"""

import numpy as np
import pytest

from repro import Box, tune_parameters
from repro.core.brownian import (
    CholeskyBrownianGenerator,
    KrylovBrownianGenerator,
)
from repro.core.integrators import BDStepStats, MatrixFreeBD
from repro.errors import ConvergenceError
from repro.resilience import RecoveryLog, krylov_displacements_resilient
from repro.rpy.ewald import EwaldSummation


@pytest.fixture(scope="module")
def system():
    """Positions, box and dense Ewald mobility of 8 particles."""
    box = Box(15.0)
    rng = np.random.default_rng(6)
    r = rng.uniform(0, box.length, size=(8, 3))
    return r, box, EwaldSummation(box=box, tol=1e-10).matrix(r)


@pytest.fixture(scope="module")
def mobility(system):
    return system[2]


def _empirical_covariance(sample, d, n_samples, seed, batch=500):
    """Covariance of ``n_samples`` columns of ``sample(rng, m)``."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((d, d))
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        g = sample(rng, m)
        acc += g @ g.T
        done += m
    return acc / n_samples


def _generator(make):
    """A sampler drawing ``z`` and calling ``make().generate(M, z)``."""
    def build(system):
        gen, matrix = make(), system[2]
        return lambda rng, m: gen.generate(
            matrix, rng.standard_normal((matrix.shape[0], m)))
    return build


def _pse(system):
    """``MatrixFreeBD``'s own force-free steps, on the tuned split: a
    column of the block's block Lanczos on the real-space half plus the
    step's noise-only wave-space pass."""
    r, box, _ = system
    bd = MatrixFreeBD(box, dt=1e-3, seed=2,
                      pme_params=tune_parameters(r.shape[0], box))
    bd._prepare(r)

    def sample(rng, m):
        bd.rng = rng
        real = bd._generate_displacements(m, BDStepStats())
        return np.stack([bd._displacement(None, real[:, j],
                                          bd._step_noise(), bd.dt)
                         for j in range(m)], axis=1)
    return sample


@pytest.mark.parametrize("make, seed, batch", [
    pytest.param(_generator(lambda: CholeskyBrownianGenerator(kT=1.0,
                                                              dt=1e-3)),
                 0, 500, id="cholesky"),
    # block size must not exceed the dimension (24 here)
    pytest.param(_generator(lambda: KrylovBrownianGenerator(kT=1.0, dt=1e-3,
                                                            tol=1e-6)),
                 1, 8, id="block_lanczos"),
    pytest.param(_pse, 3, 500, id="pse"),
])
def test_fluctuation_dissipation(system, make, seed, batch):
    """Every sampler's displacements have covariance ``2 kT dt M``."""
    mobility = system[2]
    cov = _empirical_covariance(make(system), mobility.shape[0], 30_000,
                                seed=seed, batch=batch)
    target = 2 * 1.0 * 1e-3 * mobility
    assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()


class _FailsOnce(KrylovBrownianGenerator):
    """Block Lanczos whose first solve does not converge: the ladder's
    Lanczos retry answers instead."""

    def generate(self, mobility, z):
        if not getattr(self, "failed", False):
            self.failed = True
            raise ConvergenceError("first solve fails", iterations=1,
                                   residual=0.5, n_matvecs=1)
        return super().generate(mobility, z)


class _NeverConverges(KrylovBrownianGenerator):
    """Block Lanczos that never converges: every retry fails and the
    dense rung answers."""

    def generate(self, mobility, z):
        raise ConvergenceError("solve fails", iterations=1, residual=0.5,
                               n_matvecs=1)


#: rung -> the generator whose failures reach it
_RUNGS = {
    "retry-lanczos": _FailsOnce,
    "fallback-cholesky": _NeverConverges,
}


@pytest.mark.parametrize("sampler", ["cholesky", "block_lanczos",
                                     *_RUNGS])
def test_one_dimensional_z_comes_back_one_dimensional(mobility, sampler):
    # the same call must not change shape with the rung that answers it
    z = np.random.default_rng(11).standard_normal(mobility.shape[0])
    if sampler == "cholesky":
        d = CholeskyBrownianGenerator(kT=1.0, dt=1e-3).generate(mobility, z)
    elif sampler == "block_lanczos":
        d = KrylovBrownianGenerator(kT=1.0, dt=1e-3).generate(mobility, z)
    else:
        log = RecoveryLog()
        d, _ = krylov_displacements_resilient(
            _RUNGS[sampler](kT=1.0, dt=1e-3), mobility, z, log, step=0)
        assert log.count(action=sampler) == 1
    assert d.shape == z.shape


def test_generators_agree_on_sqrt_action(mobility):
    # both apply a square root of M; the principal sqrt (Krylov) and the
    # Cholesky factor differ by an orthogonal transform, so compare
    # through the quadratic form g^T M^{-1} g which is invariant
    kT, dt = 1.0, 2e-3
    z = np.random.default_rng(2).standard_normal((mobility.shape[0], 4))
    g_chol = CholeskyBrownianGenerator(kT=kT, dt=dt).generate(mobility, z)
    g_kry = KrylovBrownianGenerator(kT=kT, dt=dt, tol=1e-9).generate(
        mobility, z)
    minv = np.linalg.inv(mobility)
    q_chol = np.einsum("is,ij,js->s", g_chol, minv, g_chol)
    q_kry = np.einsum("is,ij,js->s", g_kry, minv, g_kry)
    np.testing.assert_allclose(q_kry, q_chol, rtol=1e-6)


def test_scale_factor(mobility):
    # displacements scale as sqrt(2 kT dt)
    z = np.random.default_rng(3).standard_normal((mobility.shape[0], 2))
    g1 = CholeskyBrownianGenerator(kT=1.0, dt=1e-3).generate(mobility, z)
    g4 = CholeskyBrownianGenerator(kT=4.0, dt=1e-3).generate(mobility, z)
    np.testing.assert_allclose(g4, 2.0 * g1, rtol=1e-12)


def test_krylov_reports_info(mobility):
    gen = KrylovBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-4)
    z = np.random.default_rng(4).standard_normal((mobility.shape[0], 3))
    gen.generate(mobility, z)
    assert gen.last_info is not None
    assert gen.last_info.converged
    assert gen.last_info.iterations >= 1
