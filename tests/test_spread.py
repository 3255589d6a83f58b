"""Tests for PME spreading/interpolation and the P matrix."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.pme.spread import (
    InterpolationMatrix,
    interpolate_on_the_fly,
    spread_on_the_fly,
)


@pytest.fixture
def setup():
    box = Box(12.0)
    rng = np.random.default_rng(5)
    r = rng.uniform(0, box.length, size=(25, 3))
    return box, r, rng


def test_p_has_p3_nonzeros_per_row(setup):
    box, r, _ = setup
    p = 4
    interp = InterpolationMatrix(r, box, K=16, p=p)
    counts = np.diff(interp.matrix.indptr)
    assert np.all(counts == p ** 3)


def test_row_sums_are_one(setup):
    # spreading a unit "charge" deposits exactly one unit on the mesh
    box, r, _ = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    row_sums = np.asarray(interp.matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)


def test_spread_conserves_total(setup):
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    f = rng.standard_normal(r.shape[0])
    mesh = interp.spread(f)
    assert mesh.sum() == pytest.approx(f.sum(), rel=1e-10)


def test_spread_interpolate_adjoint(setup):
    # <P^T f, U> == <f, P U> for all f, U
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=12, p=4)
    f = rng.standard_normal(r.shape[0])
    u = rng.standard_normal(12 ** 3)
    assert np.dot(interp.spread(f), u) == pytest.approx(
        np.dot(f, interp.interpolate(u)), rel=1e-10)


def test_interpolation_of_constant_field_is_exact(setup):
    # partition of unity: a constant mesh field interpolates exactly
    box, r, _ = setup
    interp = InterpolationMatrix(r, box, K=16, p=6)
    values = interp.interpolate(np.full(16 ** 3, 2.5))
    np.testing.assert_allclose(values, 2.5, atol=1e-12)


def test_b_corrected_interpolation_reproduces_smooth_field(setup):
    # the smooth-PME identity: deconvolving the mesh field with the
    # Euler spline coefficients b(k) before P-interpolation reproduces
    # a band-limited field at the particles to spline accuracy
    from repro.pme.bspline import euler_spline_coefficients
    box, r, _ = setup
    K, p = 32, 6
    interp = InterpolationMatrix(r, box, K=K, p=p)
    grid = np.arange(K) * (box.length / K)
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    k0 = 2 * np.pi / box.length
    field = np.sin(k0 * x) * np.cos(2 * k0 * y) * np.sin(k0 * z)
    b = euler_spline_coefficients(K, p)
    bz = b[: K // 2 + 1]
    spec = np.fft.rfftn(field) * (b[:, None, None] * b[None, :, None]
                                  * bz[None, None, :])
    corrected = np.fft.irfftn(spec, s=(K, K, K), axes=(0, 1, 2))
    values = interp.interpolate(corrected.ravel())
    exact = (np.sin(k0 * r[:, 0]) * np.cos(2 * k0 * r[:, 1])
             * np.sin(k0 * r[:, 2]))
    np.testing.assert_allclose(values, exact, atol=1e-5)


def test_on_the_fly_matches_matrix(setup):
    box, r, rng = setup
    K, p = 16, 6
    interp = InterpolationMatrix(r, box, K=K, p=p)
    f = rng.standard_normal((r.shape[0], 3))
    np.testing.assert_allclose(spread_on_the_fly(r, box, K, p, f),
                               interp.spread(f), atol=1e-12)
    u = rng.standard_normal((K ** 3, 3))
    np.testing.assert_allclose(interpolate_on_the_fly(r, box, K, p, u),
                               interp.interpolate(u), atol=1e-12)


def test_on_the_fly_chunking(setup):
    box, r, rng = setup
    f = rng.standard_normal(r.shape[0])
    full = spread_on_the_fly(r, box, 16, 4, f)
    chunked = spread_on_the_fly(r, box, 16, 4, f, chunk=7)
    np.testing.assert_allclose(chunked, full, atol=1e-12)


def test_particle_on_mesh_point():
    # a particle exactly on a mesh point with p=2 deposits its whole
    # weight on a single point.  Note the SPME convention: the weight of
    # mesh point k is M_p(u - k), whose maximum for p=2 sits at
    # u - k = 1, i.e. one mesh unit *below* the particle; the phase
    # factor in b(k) compensates this shift in Fourier space.
    box = Box(8.0)
    r = np.array([[2.0, 4.0, 6.0]])  # mesh coords (4, 8, 12) for K=16
    interp = InterpolationMatrix(r, box, K=16, p=2)
    mesh = interp.spread(np.array([1.0])).reshape(16, 16, 16)
    assert mesh[3, 7, 11] == pytest.approx(1.0)
    assert mesh.sum() == pytest.approx(1.0)


def test_periodic_wraparound_spreading():
    # a particle near the origin spreads onto high-index mesh points
    box = Box(8.0)
    r = np.array([[0.05, 0.05, 0.05]])
    interp = InterpolationMatrix(r, box, K=16, p=4)
    mesh = interp.spread(np.array([1.0])).reshape(16, 16, 16)
    assert mesh[15, 15, 15] > 0  # wrapped contribution
    assert mesh.sum() == pytest.approx(1.0)


def test_multivector_spread(setup):
    box, r, rng = setup
    interp = InterpolationMatrix(r, box, K=12, p=4)
    f = rng.standard_normal((r.shape[0], 5))
    block = interp.spread(f)
    for c in range(5):
        np.testing.assert_allclose(block[:, c], interp.spread(f[:, c]),
                                   atol=1e-12)


def test_spread_batch_any_row_partition_same_bytes(setup, kernel_mode):
    # the gather contract: every row of a range is written (zero rows
    # included) in stored order, so the bytes do not depend on how
    # [0, K^3) is cut — tile-aligned or not, one row or many
    from repro.sparse import kernels

    box, r, rng = setup
    K = 12
    interp = InterpolationMatrix(r, box, K=K, p=4)
    vals = rng.standard_normal((r.shape[0], 5))
    one = interp.spread_batch(vals, out=np.full((5, K ** 3), np.nan))
    assert np.all(np.isfinite(one))              # every row written
    for cuts in ([0, 1, 17, 800, K ** 3], [0, 16, 64, 65, 1000, K ** 3],
                 sorted({0, K ** 3, *rng.integers(0, K ** 3, 9).tolist()})):
        cut = np.full((5, K ** 3), np.nan)
        for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))):
            kernels.spread_rows(*interp._pt, vals, cut, [(lo, hi)])
        assert cut.tobytes() == one.tobytes()
    np.testing.assert_allclose(one, interp.spread(vals).T, atol=1e-13)


def test_spread_batch_empty_rows_and_particle_on_mesh_point(kernel_mode):
    # one particle exactly on a mesh point next to one that is not, on a
    # mesh most of whose rows are empty; 40 lanes is more than the
    # compiled gather sweeps at once
    box = Box(8.0)
    r = np.array([[2.0, 4.0, 6.0], [2.2, 4.1, 5.7]])
    interp = InterpolationMatrix(r, box, K=16, p=2)
    vals = np.random.default_rng(1).standard_normal((2, 40))
    mesh = interp.spread_batch(vals, out=np.full((40, 16 ** 3), np.nan))
    # (not bytewise: the compiled gather may contract to fused multiply-adds)
    np.testing.assert_allclose(mesh, interp.spread(vals).T, rtol=0,
                               atol=1e-15)
    assert np.count_nonzero(mesh[0]) <= 2 * 2 ** 3
    np.testing.assert_allclose(mesh.sum(axis=1), vals.sum(axis=0),
                               atol=1e-13)


def test_memory_accounting(setup):
    # P and the resident P^T: values of both, plus P^T's K^3 + 1 pointer
    box, r, _ = setup
    interp = InterpolationMatrix(r, box, K=16, p=4)
    assert interp.memory_bytes >= 8 * r.shape[0] * 4 ** 3
    assert interp.memory_bytes >= 2 * 8 * r.shape[0] * 4 ** 3 + 8 * 16 ** 3


def test_validation():
    box = Box(8.0)
    r = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        InterpolationMatrix(r, box, K=4, p=6)   # K < p
    with pytest.raises(ConfigurationError):
        InterpolationMatrix(r, box, K=16, p=1)  # bad order
