"""Tests for the Brownian displacement generators.

The physics requirement (fluctuation-dissipation): the displacement
block must have covariance ``2 kT dt M``.  Verified statistically for
every sampler (Cholesky, block Lanczos, Chebyshev) on a real Ewald
mobility.
"""

import numpy as np
import pytest

from repro import Box
from repro.core.brownian import (
    ChebyshevBrownianGenerator,
    CholeskyBrownianGenerator,
    KrylovBrownianGenerator,
)
from repro.rpy.ewald import EwaldSummation


@pytest.fixture(scope="module")
def mobility():
    box = Box(15.0)
    rng = np.random.default_rng(6)
    r = rng.uniform(0, box.length, size=(8, 3))
    return EwaldSummation(box=box, tol=1e-10).matrix(r)


def _empirical_covariance(generate, d, n_samples, seed, batch=500):
    rng = np.random.default_rng(seed)
    acc = np.zeros((d, d))
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        z = rng.standard_normal((d, m))
        g = generate(z)
        acc += g @ g.T
        done += m
    return acc / n_samples


@pytest.mark.parametrize("make, seed, batch", [
    pytest.param(lambda: CholeskyBrownianGenerator(kT=1.0, dt=1e-3),
                 0, 500, id="cholesky"),
    # block size must not exceed the dimension (24 here)
    pytest.param(lambda: KrylovBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-6),
                 1, 8, id="block_lanczos"),
    pytest.param(lambda: ChebyshevBrownianGenerator(kT=1.0, dt=1e-3,
                                                    tol=1e-5),
                 8, 500, id="chebyshev"),
])
def test_fluctuation_dissipation(mobility, make, seed, batch):
    """Every sampler's displacements have covariance ``2 kT dt M``."""
    gen = make()
    cov = _empirical_covariance(lambda z: gen.generate(mobility, z),
                                mobility.shape[0], 30_000, seed=seed,
                                batch=batch)
    target = 2 * 1.0 * 1e-3 * mobility
    assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()


def test_generators_agree_on_sqrt_action(mobility):
    # both apply a square root of M; the principal sqrt (Krylov) and the
    # Cholesky factor differ by an orthogonal transform, so compare
    # through the quadratic form g^T M^{-1} g which is invariant
    kT, dt = 1.0, 2e-3
    z = np.random.default_rng(2).standard_normal((mobility.shape[0], 4))
    g_chol = CholeskyBrownianGenerator(kT=kT, dt=dt).generate(mobility, z)
    g_kry = KrylovBrownianGenerator(kT=kT, dt=dt, tol=1e-9).generate(
        lambda v: mobility @ v, z)
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
    gen.generate(lambda v: mobility @ v, z)
    assert gen.last_info is not None
    assert gen.last_info.converged
    assert gen.last_info.iterations >= 1
