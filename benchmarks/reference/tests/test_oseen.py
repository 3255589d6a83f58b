"""The Oseen (Stokeslet) tensor of ``reference/oseen.py``.

The related-work kernel the paper contrasts with its RPY-PME
(Section I: Stokesian PME codes "use the PME summation of the Stokeslet
or Oseen tensor, rather than the Rotne-Prager-Yamakawa tensor"): its
dense periodic sum, the PSE closed forms against the 1-D quadrature
that defines them, and the reference PME built from those forms against
the dense sum.
"""

import math

import numpy as np
import pytest
from reference import oseen
from scipy.integrate import quad
from scipy.special import spherical_jn

from repro import Box, PMEParams
from repro.rpy import beenakker
from repro.rpy.ewald import EwaldSummation


@pytest.fixture(scope="module")
def system():
    box = Box(18.0)
    rng = np.random.default_rng(44)
    return box, rng.uniform(0, box.length, size=(6, 3))


# ----------------------------------------------------------------------
# the dense periodic sum (Beenakker's split)
# ----------------------------------------------------------------------

def test_dense_sum_is_xi_invariant(system):
    box, r = system
    mats = [oseen.dense_matrix(r, box, xi=xi, tol=1e-10)
            for xi in (0.3, 0.5, 0.8)]
    scale = np.abs(mats[0]).max()
    for m in mats[1:]:
        np.testing.assert_allclose(m, mats[0], atol=5e-7 * scale)


def test_dense_sum_differs_from_rpy(system):
    box, r = system
    m_rpy = EwaldSummation(box=box, tol=1e-8).matrix(r)
    assert np.abs(m_rpy - oseen.dense_matrix(r, box)).max() > 1e-5


def test_kernels_agree_far_field():
    # the a^3 terms decay as 1/r^3 vs the Stokeslet's 1/r: at large
    # separation in a large box the two tensors coincide
    box = Box(300.0)
    r = np.array([[0.0, 0.0, 0.0], [60.0, 0.0, 0.0]])
    pair_rpy = EwaldSummation(box=box, tol=1e-10).matrix(r)[0:3, 3:6]
    pair_oseen = oseen.dense_matrix(r, box, tol=1e-10)[0:3, 3:6]
    np.testing.assert_allclose(pair_oseen, pair_rpy, atol=1e-5)


def test_ewald_split_is_the_a3_free_limit_of_beenakker():
    # per unit radius, Beenakker's RPY split tends to the Oseen one as
    # a -> 0: the a^3 terms are the only difference
    a, xi = 1e-4, 0.7
    r = np.array([0.5, 3.0, 5.0])
    k2 = np.array([0.3, 2.0, 9.0])
    for got, want in (
            (oseen.ewald_coefficients(r, xi, a),
             beenakker.real_space_coefficients(r, xi, a)),
            (oseen.ewald_reciprocal_scalar(k2, xi, a),
             beenakker.reciprocal_scalar(k2, xi, a)),
            (oseen.ewald_self_scalar(xi, a),
             beenakker.self_mobility_scalar(xi, a))):
        np.testing.assert_allclose(np.divide(got, a), np.divide(want, a),
                                   rtol=1e-6)


def test_not_positive_definite_at_close_range():
    # the classical failure RPY fixes: the Oseen mobility loses positive
    # definiteness for close particles, RPY never does
    box = Box(20.0)
    r = np.array([[5.0, 5.0, 5.0], [6.2, 5.0, 5.0]])   # r = 1.2 < 2a
    assert np.linalg.eigvalsh(oseen.dense_matrix(r, box)).min() < 0
    m_rpy = EwaldSummation(box=box, tol=1e-8).matrix(r)
    assert np.linalg.eigvalsh(m_rpy).min() > 0


# ----------------------------------------------------------------------
# the positively split closed forms
# ----------------------------------------------------------------------

def _quadrature(r, xi, a):
    """``(f, g)`` of the PSE real-space half by 1-D quadrature of the
    wave half's image, subtracted from the Oseen tensor."""
    def h(k):
        q2 = k * k / (4 * xi * xi)
        return (1 + q2) * math.exp(-q2)

    def radial(k):
        x = k * r
        return spherical_jn(0, x) - (spherical_jn(1, x) / x if x > 1e-8
                                     else 1 / 3)

    kmax = 2 * xi * math.sqrt(60)
    opts = dict(limit=2000, epsabs=1e-15, epsrel=1e-13)
    wave_f = quad(lambda k: h(k) * radial(k), 0, kmax, **opts)[0]
    wave_g = quad(lambda k: h(k) * spherical_jn(2, k * r), 0, kmax,
                  **opts)[0]
    c = 3 * a / math.pi
    return 0.75 * a / r - c * wave_f, 0.75 * a / r - c * wave_g


@pytest.mark.parametrize("xi", [0.35, 0.6, 0.9])
def test_real_space_coefficients_match_quadrature(xi):
    r = np.array([0.3, 1.0, 1.9, 2.0, 2.5, 4.0, 7.0])
    f, g = oseen.real_space_coefficients(r, xi)
    for k, dist in enumerate(r):
        fq, gq = _quadrature(dist, xi, 1.0)
        assert abs(f[k] - fq) < 1e-10 and abs(g[k] - gq) < 1e-10, dist


@pytest.mark.parametrize("xi", [0.35, 0.6, 0.9])
def test_self_term_matches_quadrature(xi):
    # 1 - (2a/pi) int H dk: the Stokes self mobility less the wave
    # half's (the Oseen tensor itself diverges at r -> 0)
    quadrature = 1 - 2 / math.pi * quad(
        lambda k: (1 + k * k / (4 * xi * xi))
        * math.exp(-k * k / (4 * xi * xi)), 0, 80, limit=500)[0]
    assert oseen.self_mobility_scalar(xi) == pytest.approx(quadrature,
                                                           abs=1e-12)


def test_split_is_divergence_free():
    r = np.linspace(0.5, 8.0, 40)
    eps = 1e-5
    fp, gp = oseen.real_space_coefficients(r + eps, 0.5)
    fm, gm = oseen.real_space_coefficients(r - eps, 0.5)
    _, g = oseen.real_space_coefficients(r, 0.5)
    div = (fp - fm + gp - gm) / (2 * eps) + 2 * g / r
    assert np.abs(div).max() < 1e-8


# ----------------------------------------------------------------------
# the reference PME against the dense sum
# ----------------------------------------------------------------------

def _random_system(seed, n):
    box = Box.for_volume_fraction(n, 0.2)
    rng = np.random.default_rng(seed)
    return box, rng.uniform(0, box.length, size=(n, 3)), rng


def test_pme_matches_dense():
    box, r, rng = _random_system(9, 40)
    ref = oseen.dense_matrix(r, box, tol=1e-12)
    params = PMEParams(xi=1.0, r_max=4.0, K=48, p=6)
    f = rng.standard_normal(3 * r.shape[0])
    u = oseen.pme_apply(r, box, params, f)
    err = np.linalg.norm(u - ref @ f) / np.linalg.norm(ref @ f)
    assert err < 1e-3


def test_pme_is_symmetric_and_blockwise():
    box, r, rng = _random_system(10, 30)
    params = PMEParams(xi=1.0, r_max=4.0, K=32, p=4)
    x, y = rng.standard_normal((2, 3 * r.shape[0]))
    ux, uy = (oseen.pme_apply(r, box, params, v) for v in (x, y))
    assert np.dot(y, ux) == pytest.approx(np.dot(x, uy), rel=1e-8)
    both = oseen.pme_apply(r, box, params, np.stack((x, y), axis=1))
    np.testing.assert_allclose(both, np.stack((ux, uy), axis=1),
                               rtol=1e-12, atol=1e-14)
