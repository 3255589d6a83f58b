"""The positively split Ewald (PSE) decomposition and its sampler.

The closed forms of :mod:`repro.rpy.pse` against the 1-D quadrature
that defines them, the positivity that makes the wave-space half
sampleable inside the drift apply, the exact covariance of the
half-spectrum noise draw (``InfluenceFunction.white_noise`` through the
noise-only pass of ``PMEOperator.apply_reciprocal``), and the split's
total against the independent dense Ewald sum (Beenakker's split).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from repro import Box, PMEOperator, PMEParams, make_suspension, \
    pme_relative_error, tune_parameters
from repro.pme.influence import InfluenceFunction
from repro.pme.mesh import Mesh
from repro.rpy import pse
from repro.rpy.ewald import EwaldSummation


def _quadrature(r, xi, a):
    """``(f, g)`` of the real-space half by 1-D quadrature of the wave
    half's image, subtracted from the regularized RPY tensor."""
    def h(k):
        q2 = k * k / (4 * xi * xi)
        return (1 + q2) * math.exp(-q2)

    def sinc2(k):
        x = k * a
        return 1.0 if x < 1e-8 else (math.sin(x) / x) ** 2

    def radial(k):
        x = k * r
        return spherical_jn(0, x) - (spherical_jn(1, x) / x if x > 1e-8
                                     else 1 / 3)

    kmax = 2 * xi * math.sqrt(60)
    opts = dict(limit=2000, epsabs=1e-15, epsrel=1e-13)
    wave_f = quad(lambda k: sinc2(k) * h(k) * radial(k), 0, kmax, **opts)[0]
    wave_g = quad(lambda k: sinc2(k) * h(k) * spherical_jn(2, k * r),
                  0, kmax, **opts)[0]
    if r >= 2 * a:
        f0, g0 = 0.75 * a / r + 0.5 * a ** 3 / r ** 3, \
            0.75 * a / r - 1.5 * a ** 3 / r ** 3
    else:
        f0, g0 = 1 - 9 * r / (32 * a), 3 * r / (32 * a)
    c = 3 * a / math.pi
    return f0 - c * wave_f, g0 - c * wave_g


@pytest.mark.parametrize("xi", [0.35, 0.6, 0.9])
def test_real_space_coefficients_match_quadrature(xi):
    # on both sides of contact, at contact, and in the tail
    r = np.array([0.3, 1.0, 1.9, 1.999, 2.0, 2.001, 2.5, 4.0, 7.0])
    f, g = pse.real_space_coefficients(r, xi, 1.0)
    for k, dist in enumerate(r):
        fq, gq = _quadrature(dist, xi, 1.0)
        assert abs(f[k] - fq) < 1e-10 and abs(g[k] - gq) < 1e-10, dist


@pytest.mark.parametrize("xi", [0.35, 0.6, 0.9])
def test_self_term_is_the_limit_at_zero_separation(xi):
    # f(0) = 1 - (2a/pi) int sinc^2 H dk, and f(r) -> f(0), g(r) -> 0
    # linearly (the overlap form 1 - 9r/32a, 3r/32a): a Richardson step
    # removes the slopes
    quadrature = 1 - 2 / math.pi * quad(
        lambda k: (math.sin(k) / k) ** 2 * (1 + k * k / (4 * xi * xi))
        * math.exp(-k * k / (4 * xi * xi)), 1e-12, 80, limit=500)[0]
    assert pse.self_mobility_scalar(xi) == pytest.approx(quadrature,
                                                         abs=1e-12)
    h = 1e-3
    f, g = pse.real_space_coefficients(np.array([h, 2 * h]), xi)
    # (round-off of the closed forms grows like 1/r^3 below r ~ 1e-2)
    assert 2 * f[0] - f[1] == pytest.approx(pse.self_mobility_scalar(xi),
                                            abs=1e-5)
    assert abs(2 * g[0] - g[1]) < 1e-5


def test_split_is_divergence_free():
    # f' + g' + 2g/r = 0 for each half (the projector I - khat khat^T)
    r = np.linspace(0.5, 8.0, 40)
    eps = 1e-5
    fp, gp = pse.real_space_coefficients(r + eps, 0.5)
    fm, gm = pse.real_space_coefficients(r - eps, 0.5)
    _, g = pse.real_space_coefficients(r, 0.5)
    div = (fp - fm + gp - gm) / (2 * eps) + 2 * g / r
    assert np.abs(div).max() < 1e-8


def test_chunked_coefficients_are_the_whole_array_bytes(monkeypatch):
    # three chunks and a ragged tail, overlapping pairs and contact
    # included: every operation is elementwise, so the chunk boundaries
    # (and any other split) leave the bytes alone
    chunk = pse.COEFFICIENT_CHUNK
    rng = np.random.default_rng(12)
    dist = rng.uniform(0.05, 10.0, 3 * chunk + 17)
    dist[chunk - 2:chunk + 2] = [2.0, 1.0, 4.0, 2.0]
    f, g = pse.real_space_coefficients(dist, 0.45)
    pieces = [pse.real_space_coefficients(dist[lo:lo + 1000], 0.45)
              for lo in range(0, dist.size, 1000)]
    monkeypatch.setattr(pse, "COEFFICIENT_CHUNK", dist.size)
    whole = pse.real_space_coefficients(dist, 0.45)
    for got, want, part in zip((f, g), whole, zip(*pieces)):
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.concatenate(part).tobytes()


@pytest.mark.parametrize("n", [100, 200, 1000, 2000, 4000])
def test_wave_scalar_non_negative_on_every_tuned_mesh(n):
    # what makes the wave half sampleable: sqrt of the influence exists
    box = Box.for_volume_fraction(n, 0.2)
    params = tune_parameters(n, box)
    infl = InfluenceFunction(Mesh(box, params.K), params.xi, params.p)
    assert np.all(infl.scalar >= 0.0)
    np.testing.assert_allclose(infl.sqrt_scalar ** 2, infl.scalar,
                               rtol=1e-14)


def test_half_spectrum_draw_covariance_is_exact():
    # the noise-only pass fed the spectral unit basis, each vector
    # scaled by the standard deviation of its draw (Re and Im: K^3/2,
    # K^3 on the kz = 0 plane; only modes of non-zero weight): the sum
    # of the outer products is the reciprocal half P C P^T, to
    # round-off, at an even and an odd mesh
    susp = make_suspension(30, 0.2, seed=1)
    for K in (8, 9):
        op = PMEOperator(susp.positions, susp.box,
                         PMEParams(xi=0.6, r_max=3.0, K=K, p=4))
        infl, rshape = op.influence, op.mesh.rshape
        modes = np.flatnonzero(infl.scalar)
        assert modes.size == (K - 1 + K % 2) ** 2 * ((K + 1) // 2) - 1
        std = np.sqrt(np.where(modes % rshape[2] == 0, K ** 3,
                               K ** 3 / 2))
        cols = []
        for u in range(3):
            for part in (1.0, 1j):
                basis = np.zeros((3, modes.size, infl.scalar.size),
                                 dtype=complex)
                basis[u, np.arange(modes.size), modes] = part * std
                cols.append(op.apply_reciprocal(
                    None, basis.reshape((3, -1) + rshape)))
        a = np.concatenate(cols, axis=1)
        recip = op.apply_reciprocal(np.eye(3 * op.n))
        assert np.abs(a @ a.T - recip).max() < 1e-12 * np.abs(recip).max()
        # and white_noise draws exactly that basis' coefficients: normal,
        # on those modes only
        draws = np.stack([infl.white_noise(np.random.default_rng(seed))
                          for seed in range(400)]).reshape(400, 3, -1)
        assert not draws[:, :, np.setdiff1d(np.arange(infl.scalar.size),
                                            modes)].any()
        for part in (draws.real, draws.imag):
            ratio = part[:, :, modes].var(axis=(0, 1)) / std ** 2
            assert abs(ratio.mean() - 1.0) < 0.02


def test_split_total_is_independent_of_xi():
    # a mesh and cutoff that resolve both halves: the PSE sum is the
    # periodic RPY mobility of dense Ewald (Beenakker's split) at any xi
    susp = make_suspension(100, 0.2, seed=4)
    box, r = susp.box, susp.positions
    dense = EwaldSummation(box=box, tol=1e-12).matrix(r)
    f = np.random.default_rng(3).standard_normal((3 * r.shape[0], 2))
    results = []
    for xi in (0.8, 0.9, 1.0):
        op = PMEOperator(r, box, PMEParams(xi=xi, r_max=box.length / 2,
                                           K=48, p=8))
        results.append(op.apply_block(f))
        err = np.linalg.norm(results[-1] - dense @ f) / np.linalg.norm(
            dense @ f)
        assert err < 1e-4, xi
    assert np.abs(results[0] - results[2]).max() < 1e-4 * np.abs(
        results[0]).max()


@pytest.mark.parametrize("n", [100, 300, 600])
def test_tuned_split_meets_the_target_against_dense_ewald(n):
    # below DENSE_REFERENCE_LIMIT the reference is dense Ewald
    susp = make_suspension(n, 0.2, seed=0)
    op = PMEOperator(susp.positions, susp.box,
                     tune_parameters(n, susp.box, target_ep=1e-3))
    assert pme_relative_error(op, n_probe=2) < 1e-3
