"""Tests for the Chebyshev (Fixman) Brownian displacement method."""

import numpy as np
import pytest

from repro import Box
from repro.core.brownian import ChebyshevBrownianGenerator
from repro.errors import ConvergenceError
from repro.krylov import dense_sqrt_apply
from repro.krylov.chebyshev import (
    chebyshev_coefficients,
    chebyshev_sqrt,
    eigenvalue_bounds,
)
from repro.rpy.ewald import EwaldSummation


def _random_spd(d, seed, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.geomspace(lo, hi, d)
    return (q * eigs) @ q.T, lo, hi


class TestEigenvalueBounds:
    def test_brackets_spectrum(self):
        m, lo, hi = _random_spd(60, 0)
        l_min, l_max = eigenvalue_bounds(lambda v: m @ v, 60)
        assert l_min <= lo + 1e-9
        assert l_max >= hi - 1e-9

    def test_tightness(self):
        m, lo, hi = _random_spd(80, 1)
        l_min, l_max = eigenvalue_bounds(lambda v: m @ v, 80, n_iter=40)
        assert l_min > 0.5 * lo
        assert l_max < 2.0 * hi

    def test_small_dimension(self):
        m = np.diag([1.0, 2.0, 3.0])
        l_min, l_max = eigenvalue_bounds(lambda v: m @ v, 3, n_iter=10)
        assert l_min <= 1.0 + 1e-9
        assert l_max >= 3.0 - 1e-9

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -2.0, 3.0, 0.5])
        with pytest.raises(ConvergenceError):
            eigenvalue_bounds(lambda v: m @ v, 4)


class TestCoefficients:
    def test_scalar_accuracy(self):
        c = chebyshev_coefficients(0.5, 4.0, tol=1e-6)
        x = np.linspace(0.5, 4.0, 200)
        t = (2 * x - 4.5) / 3.5
        b1 = np.zeros_like(t)
        b2 = np.zeros_like(t)
        for ck in c[:0:-1]:
            b1, b2 = 2 * t * b1 - b2 + ck, b1
        approx = t * b1 - b2 + 0.5 * c[0]
        assert np.max(np.abs(approx - np.sqrt(x)) / np.sqrt(x)) < 1e-6

    def test_degree_grows_with_condition(self):
        c_easy = chebyshev_coefficients(1.0, 2.0, tol=1e-4)
        c_hard = chebyshev_coefficients(0.01, 2.0, tol=1e-4)
        assert c_hard.size > c_easy.size

    def test_raises_on_cap(self):
        with pytest.raises(ConvergenceError):
            chebyshev_coefficients(1e-9, 1.0, tol=1e-10, max_degree=16)

    def test_validates_interval(self):
        with pytest.raises(ValueError):
            chebyshev_coefficients(2.0, 1.0)
        with pytest.raises(ValueError):
            chebyshev_coefficients(0.0, 1.0)


class TestChebyshevSqrt:
    def test_matches_dense_reference(self):
        m, lo, hi = _random_spd(50, 2)
        z = np.random.default_rng(3).standard_normal(50)
        y, info = chebyshev_sqrt(lambda v: m @ v, z, lo * 0.99, hi * 1.01,
                                 tol=1e-6)
        ref = dense_sqrt_apply(m, z)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-5
        assert info.converged

    def test_block_matches_columns(self):
        m, lo, hi = _random_spd(40, 4)
        z = np.random.default_rng(5).standard_normal((40, 6))
        y, info = chebyshev_sqrt(lambda v: m @ v, z, lo, hi, tol=1e-5)
        for c in range(6):
            yc, _ = chebyshev_sqrt(lambda v: m @ v, z[:, c], lo, hi,
                                   tol=1e-5)
            np.testing.assert_allclose(y[:, c], yc, rtol=1e-12)
        # Clenshaw needs degree + 1 operator applications per column
        assert info.n_matvecs == 6 * (info.iterations + 1)

    def test_polynomial_amortized_over_block(self):
        # same polynomial degree regardless of block width
        m, lo, hi = _random_spd(40, 6)
        _, info1 = chebyshev_sqrt(lambda v: m @ v,
                                  np.ones(40), lo, hi, tol=1e-4)
        _, info8 = chebyshev_sqrt(lambda v: m @ v,
                                  np.ones((40, 8)), lo, hi, tol=1e-4)
        assert info8.iterations == info1.iterations


class TestGeneratorOnRealMobility:
    @pytest.fixture(scope="class")
    def mobility(self):
        box = Box(15.0)
        rng = np.random.default_rng(7)
        r = rng.uniform(0, box.length, size=(8, 3))
        return EwaldSummation(box=box, tol=1e-10).matrix(r)

    def test_quadratic_form_matches_krylov(self, mobility):
        from repro.core.brownian import KrylovBrownianGenerator
        z = np.random.default_rng(9).standard_normal((mobility.shape[0], 4))
        g_cheb = ChebyshevBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-8).generate(
            lambda v: mobility @ v, z)
        g_kry = KrylovBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-9).generate(
            lambda v: mobility @ v, z)
        # both approximate the same principal square root action
        np.testing.assert_allclose(g_cheb, g_kry, rtol=1e-4, atol=1e-8)

    def test_reports_bounds_and_info(self, mobility):
        gen = ChebyshevBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-3)
        z = np.random.default_rng(10).standard_normal(mobility.shape[0])
        gen.generate(lambda v: mobility @ v, z)
        assert gen.last_bounds is not None
        assert gen.last_bounds[0] > 0
        assert gen.last_info.n_matvecs > gen.last_info.iterations
