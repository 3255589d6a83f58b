"""The on-the-fly reference pass against the production PME operator.

The B-spline form of :func:`reference.pme_variants.reciprocal_pass`
recomputes the weights, runs its own FFTs and builds its own influence
scalar, so agreeing with :meth:`repro.PMEOperator.apply_reciprocal` to
rounding checks the production pipeline and its Fig. 4 baseline
against each other.
"""

import numpy as np
import pytest

from reference.pme_variants import (
    interpolate_on_the_fly,
    mobility_apply,
    reciprocal_pass,
    spread_on_the_fly,
)
from repro import Box, FluidParams, PMEOperator, PMEParams
from repro.pme import InterpolationMatrix


@pytest.fixture
def setup():
    box = Box(12.0)
    rng = np.random.default_rng(5)
    r = rng.uniform(0, box.length, size=(25, 3))
    return box, r, rng


@pytest.fixture(scope="module")
def system():
    box = Box.for_volume_fraction(45, 0.2)
    r = np.random.default_rng(12).uniform(0, box.length, size=(45, 3))
    return box, r, PMEParams(xi=1.0, r_max=4.0, K=48, p=6)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


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


@pytest.mark.parametrize("params, columns", [
    (PMEParams(xi=1.0, r_max=4.0, K=48, p=6), None),
    (PMEParams(xi=1.0, r_max=4.0, K=48, p=6), 5),
    (PMEParams(xi=1.1, r_max=3.5, K=21, p=4), 3),
], ids=["flat", "block", "odd-mesh"])
def test_bspline_reference_pass_matches_apply_reciprocal(system, params,
                                                         columns):
    box, r, _ = system
    fluid = FluidParams(radius=0.9)
    op = PMEOperator(r, box, params, fluid=fluid)
    shape = (3 * r.shape[0],) + (() if columns is None else (columns,))
    f = np.random.default_rng(4).standard_normal(shape)
    want = op.apply_reciprocal(f)
    got = reciprocal_pass(r, box, params, f, radius=fluid.radius)
    assert got.shape == want.shape
    assert _rel(got, want) <= 1e-12


def test_store_p_false_matches(system):
    # the whole mobility with an on-the-fly reciprocal half equals the
    # production operator, whose P is stored
    box, r, params = system
    op = PMEOperator(r, box, params)
    f = np.random.default_rng(4).standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(mobility_apply(op, f), op.apply(f),
                               rtol=1e-10, atol=1e-13)


def test_apply_block_matches_per_column_apply():
    # the on-the-fly pass over a block equals it column by column
    n = 20
    box = Box.for_volume_fraction(n, 0.2)
    r = np.random.default_rng(7).uniform(0, box.length, size=(n, 3))
    op = PMEOperator(r, box, PMEParams(xi=1.0, r_max=3.0, K=24, p=4))
    f = np.random.default_rng(0).standard_normal((3 * n, 8))
    block = mobility_apply(op, f)
    for c in range(f.shape[1]):
        ref = mobility_apply(op, f[:, c])
        assert _rel(block[:, c], ref) <= 1e-13
