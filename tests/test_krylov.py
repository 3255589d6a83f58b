"""Tests for the block Lanczos square-root solver and its dense references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, NotPositiveDefiniteError
from repro.krylov import (
    block_lanczos_sqrt,
    cholesky_displacements,
    dense_sqrt_apply,
    dense_sqrtm,
)


def _random_spd(d, seed, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.geomspace(1.0, cond, d)
    return (q * eigs) @ q.T


class TestDenseReference:
    def test_sqrtm_squares_back(self):
        m = _random_spd(20, 0)
        s = dense_sqrtm(m)
        np.testing.assert_allclose(s @ s, m, rtol=1e-9)

    def test_sqrtm_symmetric(self):
        s = dense_sqrtm(_random_spd(15, 1))
        np.testing.assert_allclose(s, s.T, rtol=1e-12)

    def test_sqrtm_rejects_indefinite(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            dense_sqrtm(m)

    def test_cholesky_covariance(self):
        m = _random_spd(6, 2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 200_000))
        d = cholesky_displacements(m, z, scale=1.0)
        cov = d @ d.T / z.shape[1]
        np.testing.assert_allclose(cov, m, atol=0.15 * np.abs(m).max())

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_displacements(np.diag([1.0, -1.0]), np.ones(2))


class TestSingleVector:
    """One-column blocks: the single-vector Lanczos square root."""

    def test_tolerance_controls_error(self):
        m = _random_spd(80, 6, cond=1000.0)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(80)
        ref = dense_sqrt_apply(m, z)
        errs = []
        for tol in (1e-1, 1e-3, 1e-6):
            y, _ = block_lanczos_sqrt(m, z[:, None], tol=tol)
            errs.append(np.linalg.norm(y[:, 0] - ref) / np.linalg.norm(ref))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-4

    def test_exact_on_identity(self):
        z = np.arange(1.0, 11.0)
        y, info = block_lanczos_sqrt(np.eye(10), z[:, None], tol=1e-10)
        np.testing.assert_allclose(y[:, 0], z, rtol=1e-10)
        assert info.iterations <= 3

    def test_diagonal_matrix(self):
        d = np.array([1.0, 4.0, 9.0, 16.0])
        z = np.ones(4)
        y, _ = block_lanczos_sqrt(np.diag(d), z[:, None], tol=1e-12)
        np.testing.assert_allclose(y[:, 0], np.sqrt(d), rtol=1e-8)

    def test_raises_on_no_convergence(self):
        m = _random_spd(50, 8, cond=1e8)
        z = np.random.default_rng(9).standard_normal(50)
        with pytest.raises(ConvergenceError):
            block_lanczos_sqrt(m, z[:, None], tol=1e-14, max_iter=3)


class TestBlock:
    def test_converges_to_reference(self):
        m = _random_spd(60, 12)
        rng = np.random.default_rng(13)
        z = rng.standard_normal((60, 6))
        ref = dense_sqrt_apply(m, z)
        y, info = block_lanczos_sqrt(m, z, tol=1e-8)
        assert info.converged
        np.testing.assert_allclose(y, ref, rtol=1e-5)

    def test_fewer_iterations_than_single(self):
        # the paper's motivation (a): block converges in fewer iterations
        m = _random_spd(120, 14, cond=5000.0)
        rng = np.random.default_rng(15)
        z = rng.standard_normal((120, 10))
        _, info_block = block_lanczos_sqrt(m, z, tol=1e-6)
        _, info_single = block_lanczos_sqrt(m, z[:, :1], tol=1e-6)
        assert info_block.iterations < info_single.iterations

    def test_block_size_one_matches_single(self):
        m = _random_spd(40, 16)
        z = np.random.default_rng(17).standard_normal(40)
        yb, _ = block_lanczos_sqrt(m, z[:, None], tol=1e-9)
        np.testing.assert_allclose(yb[:, 0], dense_sqrt_apply(m, z),
                                   rtol=1e-6)

    def test_rank_deficient_start(self):
        # duplicated columns create an invariant subspace; solver must
        # terminate gracefully and still be correct
        m = _random_spd(30, 18)
        rng = np.random.default_rng(19)
        col = rng.standard_normal(30)
        z = np.stack([col, col, rng.standard_normal(30)], axis=1)
        y, info = block_lanczos_sqrt(m, z, tol=1e-7)
        ref = dense_sqrt_apply(m, z)
        np.testing.assert_allclose(y, ref, rtol=1e-4)
        np.testing.assert_allclose(y[:, 0], y[:, 1], rtol=1e-10)

    def test_zero_block(self):
        y, info = block_lanczos_sqrt(np.eye(10), np.zeros((10, 3)),
                                  tol=1e-6)
        np.testing.assert_allclose(y, 0.0)

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            block_lanczos_sqrt(np.eye(5), np.ones(5))

    def test_rejects_wide_block(self):
        with pytest.raises(ValueError):
            block_lanczos_sqrt(np.eye(3), np.ones((3, 5)))

    def test_matvec_count_is_per_column(self):
        m = _random_spd(40, 20)
        z = np.random.default_rng(21).standard_normal((40, 4))
        _, info = block_lanczos_sqrt(m, z, tol=1e-6)
        assert info.n_matvecs == 4 * info.iterations


@given(st.integers(5, 25), st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_lanczos_property_accuracy(d, seed):
    m = _random_spd(d, seed, cond=50.0)
    z = np.random.default_rng(seed + 1).standard_normal(d)
    ref = dense_sqrt_apply(m, z)
    y, _ = block_lanczos_sqrt(m, z[:, None], tol=1e-9, max_iter=d)
    assert np.linalg.norm(y[:, 0] - ref) / np.linalg.norm(ref) < 1e-6
