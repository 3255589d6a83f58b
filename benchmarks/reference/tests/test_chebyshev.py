"""The Chebyshev (Fixman) square root of ``reference/chebyshev.py``.

The polynomial, its eigenvalue bounds and its block evaluation against
the dense reference; its covariance on a real Ewald mobility; and the
case that took it out of the program's recovery ladder: on a widely
spread spectrum the short-Lanczos bound misses ``l_min`` and the rung
reports success on a sample far outside its ``tol``.
"""

import math

import numpy as np
import pytest
from reference.chebyshev import (
    chebyshev_coefficients,
    chebyshev_sqrt,
    eigenvalue_bounds,
)

from repro import Box
from repro.core.brownian import KrylovBrownianGenerator
from repro.errors import ConvergenceError
from repro.krylov import dense_sqrt_apply
from repro.rpy.ewald import EwaldSummation


def _random_spd(d, seed, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.geomspace(lo, hi, d)
    return (q * eigs) @ q.T, lo, hi


class TestEigenvalueBounds:
    def test_brackets_spectrum(self):
        m, lo, hi = _random_spd(60, 0)
        l_min, l_max = eigenvalue_bounds(m, 60)
        assert l_min <= lo + 1e-9
        assert l_max >= hi - 1e-9

    def test_tightness(self):
        m, lo, hi = _random_spd(80, 1)
        l_min, l_max = eigenvalue_bounds(m, 80, n_iter=40)
        assert l_min > 0.5 * lo
        assert l_max < 2.0 * hi

    def test_small_dimension(self):
        m = np.diag([1.0, 2.0, 3.0])
        l_min, l_max = eigenvalue_bounds(m, 3, n_iter=10)
        assert l_min <= 1.0 + 1e-9
        assert l_max >= 3.0 - 1e-9

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -2.0, 3.0, 0.5])
        with pytest.raises(ConvergenceError):
            eigenvalue_bounds(m, 4)


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
        y, info = chebyshev_sqrt(m, z, lo * 0.99, hi * 1.01, tol=1e-6)
        ref = dense_sqrt_apply(m, z)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-5
        assert info.converged

    def test_block_matches_columns(self):
        m, lo, hi = _random_spd(40, 4)
        z = np.random.default_rng(5).standard_normal((40, 6))
        y, info = chebyshev_sqrt(m, z, lo, hi, tol=1e-5)
        for c in range(6):
            yc, _ = chebyshev_sqrt(m, z[:, c], lo, hi, tol=1e-5)
            np.testing.assert_allclose(y[:, c], yc, rtol=1e-12)
        # Clenshaw needs degree + 1 operator applications per column
        assert info.n_matvecs == 6 * (info.iterations + 1)

    def test_polynomial_amortized_over_block(self):
        # same polynomial degree regardless of block width
        m, lo, hi = _random_spd(40, 6)
        _, info1 = chebyshev_sqrt(m, np.ones(40), lo, hi, tol=1e-4)
        _, info8 = chebyshev_sqrt(m, np.ones((40, 8)), lo, hi, tol=1e-4)
        assert info8.iterations == info1.iterations


class TestGeneratorOnRealMobility:
    """``eigenvalue_bounds`` + ``chebyshev_sqrt`` on a real Ewald
    mobility, as Ablation A calls them."""

    @pytest.fixture(scope="class")
    def mobility(self):
        box = Box(15.0)
        rng = np.random.default_rng(7)
        r = rng.uniform(0, box.length, size=(8, 3))
        return EwaldSummation(box=box, tol=1e-10).matrix(r)

    def test_quadratic_form_matches_krylov(self, mobility):
        z = np.random.default_rng(9).standard_normal((mobility.shape[0], 4))
        l_min, l_max = eigenvalue_bounds(mobility, mobility.shape[0])
        g_cheb, _ = chebyshev_sqrt(mobility, z, l_min, l_max, tol=1e-8)
        g_cheb *= np.sqrt(2.0 * 1.0 * 1e-3)
        g_kry = KrylovBrownianGenerator(kT=1.0, dt=1e-3, tol=1e-9).generate(
            mobility, z)
        # both approximate the same principal square root action
        np.testing.assert_allclose(g_cheb, g_kry, rtol=1e-4, atol=1e-8)

    def test_reports_bounds_and_info(self, mobility):
        z = np.random.default_rng(10).standard_normal(mobility.shape[0])
        l_min, l_max = eigenvalue_bounds(mobility, mobility.shape[0])
        eigs = np.linalg.eigvalsh(mobility)
        assert 0 < l_min <= eigs[0] and l_max >= eigs[-1]
        _, info = chebyshev_sqrt(mobility, z, l_min, l_max, tol=1e-3)
        assert info.converged
        assert info.n_matvecs > info.iterations


def test_fluctuation_dissipation():
    """The polynomial's displacements have covariance ``2 kT dt M``."""
    box = Box(15.0)
    r = np.random.default_rng(6).uniform(0, box.length, size=(8, 3))
    mobility = EwaldSummation(box=box, tol=1e-10).matrix(r)
    d = mobility.shape[0]
    l_min, l_max = eigenvalue_bounds(mobility, d)
    scale = math.sqrt(2.0 * 1.0 * 1e-3)
    rng = np.random.default_rng(8)
    cov = np.zeros((d, d))
    for _ in range(60):
        z = rng.standard_normal((d, 500))
        g = scale * chebyshev_sqrt(mobility, z, l_min, l_max, tol=1e-5)[0]
        cov += g @ g.T
    cov /= 30_000
    target = 2 * 1.0 * 1e-3 * mobility
    assert np.abs(cov - target).max() < 0.05 * np.abs(target).max()


def test_error_carries_diagnostics():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    m = a @ a.T + 0.5 * np.eye(30)
    z = rng.standard_normal((30, 2))
    # condition number too large for a degree-8 cap at tight tolerance
    with pytest.raises(ConvergenceError) as exc_info:
        chebyshev_sqrt(m, z, 1e-9, 1e3, tol=1e-12, max_degree=8)
    err = exc_info.value
    assert err.iterations == 8
    assert err.residual > 1e-12
    assert err.n_matvecs > 0


def test_rejects_a_bare_callable():
    m = np.diag(np.arange(1.0, 31.0))
    z = np.random.default_rng(12).standard_normal((30, 2))

    def matvec(v):
        return m @ v

    for call in (lambda: eigenvalue_bounds(matvec, 30),
                 lambda: chebyshev_sqrt(matvec, z, 1.0, 2.0)):
        with pytest.raises(TypeError, match="apply_block or a 2-D ndarray"):
            call()


# ---------------------------------------------------------------------------
# the Ritz-bound miss: why the rung left the recovery ladder
# ---------------------------------------------------------------------------

#: Bound steps the ladder's rung ran before the polynomial (its former
#: ``CHEBYSHEV_BOUND_ITERATIONS``).
BOUND_STEPS = 25
#: The rung's matvecs per column on the matrix below, by ``tol``
#: (``BOUND_STEPS`` + degree + 1).  ``tests/test_resilience.py`` keeps
#: the same figures for the Lanczos retry to beat.
RUNG_MATVECS = {1e-2: 154, 1e-6: 538}


@pytest.fixture(scope="module")
def wide_spectrum():
    """Dense SPD matrix, eigenvalues log-spaced on ``[1e-6, 1]``."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((600, 600)))
    return (q * np.geomspace(1e-6, 1.0, 600)) @ q.T


@pytest.mark.parametrize("s", [1, 8])
@pytest.mark.parametrize("tol", [1e-2, 1e-6])
def test_ritz_bound_miss(wide_spectrum, s, tol):
    m = wide_spectrum
    d = m.shape[0]
    z = np.random.default_rng(1).standard_normal((d, s))
    l_min, l_max = eigenvalue_bounds(m, d, n_iter=BOUND_STEPS)
    # the bound sits two orders of magnitude above the true l_min = 1e-6
    assert l_min > 100 * 1e-6
    y, info = chebyshev_sqrt(m, z, l_min, l_max, tol=tol)  # no error
    assert info.converged
    assert info.n_matvecs / s + BOUND_STEPS == RUNG_MATVECS[tol]
    if tol == 1e-6:
        # ... yet the sample is far outside the tolerance it reported
        ref = dense_sqrt_apply(m, z)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) > 100 * tol
