"""Tests for Lagrangian-interpolation (original) PME (paper Section III.A)."""

import numpy as np
import pytest
import scipy.sparse as sp

from reference.pme_variants import (
    interpolate_on_the_fly,
    lagrange_weights,
    lagrange_window_offsets,
    mobility_apply,
    reciprocal_pass,
    spread_on_the_fly,
    weights_and_columns,
)
from repro import Box, PMEOperator, PMEParams
from repro.errors import ConfigurationError
from repro.rpy.ewald import EwaldSummation


class TestWeights:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_partition_of_unity(self, p):
        w = lagrange_weights(np.linspace(0, 1, 17, endpoint=False), p)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_exact_at_nodes(self, p):
        # at frac = 0 the weight is 1 on the node at offset 0
        w = lagrange_weights(np.array([0.0]), p)[0]
        offsets = lagrange_window_offsets(p)
        np.testing.assert_allclose(w[offsets == 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(w[offsets != 0], 0.0, atol=1e-12)

    def test_reproduces_polynomials(self):
        # order-p Lagrange interpolation is exact for degree < p
        p = 4
        offsets = lagrange_window_offsets(p).astype(float)
        frac = np.array([0.3, 0.77])
        w = lagrange_weights(frac, p)
        for degree in range(p):
            exact = frac ** degree
            interp = (w * offsets[None, :] ** degree).sum(axis=1)
            np.testing.assert_allclose(interp, exact, atol=1e-10)

    def test_window_centered(self):
        np.testing.assert_array_equal(lagrange_window_offsets(4),
                                      [-1, 0, 1, 2])
        np.testing.assert_array_equal(lagrange_window_offsets(6),
                                      [-2, -1, 0, 1, 2, 3])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lagrange_weights(np.array([0.5]), 1)
        with pytest.raises(ConfigurationError):
            lagrange_weights(np.ones((2, 2)), 4)


def _lagrange_matrix(r, box, K, p):
    """The stored Lagrange ``P`` (``n x K^3`` CSR)."""
    data, cols = weights_and_columns(r, box, K, p, kind="lagrange")
    n = r.shape[0]
    indptr = np.arange(0, n * p ** 3 + 1, p ** 3)
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr),
                         shape=(n, K ** 3))


class TestLagrangePME:
    @pytest.fixture(scope="class")
    def system(self):
        box = Box.for_volume_fraction(40, 0.2)
        rng = np.random.default_rng(11)
        r = rng.uniform(0, box.length, size=(40, 3))
        ref = EwaldSummation(box=box, tol=1e-12).matrix(r)
        return box, r, ref

    def test_interpolation_matrix_kind(self, system):
        box, r, _ = system
        P = _lagrange_matrix(r, box, K=32, p=4)
        assert np.all(np.diff(P.indptr) == 4 ** 3)
        row_sums = np.asarray(P.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)

    def test_operator_accuracy(self, system):
        box, r, ref = system
        op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=48, p=6))
        f = np.random.default_rng(0).standard_normal(3 * r.shape[0])
        u = mobility_apply(op, f, kind="lagrange")
        err = np.linalg.norm(u - ref @ f) / np.linalg.norm(ref @ f)
        assert err < 2e-2    # works, but coarser than SPME

    def test_spme_more_accurate_than_lagrange(self, system):
        # the paper's explicit claim (Section III.A).  The positively
        # split real half decays like exp(-xi^2 (r - 2a)^2): at xi = 1
        # and r_max = 4 its truncation, not the interpolation, would
        # decide both errors, so the split moves the error to the mesh
        box, r, ref = system
        f = np.random.default_rng(1).standard_normal(3 * r.shape[0])
        op = PMEOperator(r, box, PMEParams(xi=1.5, r_max=4.0, K=48, p=6))
        errs = {}
        for kind in ("bspline", "lagrange"):
            u = mobility_apply(op, f, kind=kind)
            errs[kind] = np.linalg.norm(u - ref @ f) / np.linalg.norm(ref @ f)
        assert errs["bspline"] < 0.2 * errs["lagrange"]

    def test_operator_symmetric(self, system):
        box, r, _ = system
        op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=4.0, K=32, p=4))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3 * r.shape[0])
        y = rng.standard_normal(3 * r.shape[0])
        assert np.dot(y, mobility_apply(op, x, "lagrange")) == pytest.approx(
            np.dot(x, mobility_apply(op, y, "lagrange")), rel=1e-8)

    def test_on_the_fly_matches_stored(self, system):
        # the on-the-fly Lagrange spread/interpolate are P^T and P of
        # the stored Lagrange matrix, chunked or not
        box, r, _ = system
        K, p = 32, 4
        P = _lagrange_matrix(r, box, K, p)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((r.shape[0], 3))
        g = rng.standard_normal((K ** 3, 3))
        np.testing.assert_allclose(
            spread_on_the_fly(r, box, K, p, f, chunk=7, kind="lagrange"),
            P.T @ f, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            interpolate_on_the_fly(r, box, K, p, g, chunk=7,
                                   kind="lagrange"),
            P @ g, rtol=1e-10, atol=1e-13)

    def test_unknown_kind_rejected(self, system):
        box, r, _ = system
        params = PMEParams(xi=1.0, r_max=4.0, K=32, p=4)
        f = np.zeros(3 * r.shape[0])
        with pytest.raises(ConfigurationError):
            reciprocal_pass(r, box, params, f, kind="sinc")
        with pytest.raises(ConfigurationError):
            weights_and_columns(r, box, 32, 4, kind="sinc")
        # the production parameters carry no interpolation choice
        with pytest.raises(TypeError):
            PMEParams(xi=1.0, r_max=4.0, K=32, p=4, interpolation="lagrange")
