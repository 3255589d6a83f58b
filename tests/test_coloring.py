"""Tests for the independent-set (8-color) spreading schedule."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.exec import ExecutionContext
from repro.parallel.coloring import IndependentSetColoring
from repro.parallel.engine import ColoredPMEEngine
from repro.pme.spread import InterpolationMatrix


@pytest.fixture
def setup():
    box = Box(16.0)
    rng = np.random.default_rng(21)
    r = rng.uniform(0, box.length, size=(120, 3))
    return box, r


def _engine(r, box, K, p, context):
    interp = InterpolationMatrix(r, box, K, p)
    engine = ColoredPMEEngine(r, box, K, p, weights=interp.weights,
                              columns=interp.columns, context=context)
    return engine, interp


def _spread(engine, values):
    """Engine spread of ``(n, lanes)`` values, lane-last like ``P^T f``."""
    out = np.empty((values.shape[1], engine.K ** 3))
    return engine.spread_batch(values, out=out).T


def test_colored_spread_matches_matrix(setup, set_kernel_mode):
    box, r = setup
    f = np.random.default_rng(0).standard_normal(r.shape[0])
    for no_ckernel in (False, True):
        set_kernel_mode(no_ckernel)
        with ExecutionContext("serial") as ctx:
            engine, interp = _engine(r, box, 32, 4, ctx)
            np.testing.assert_allclose(_spread(engine, f[:, None])[:, 0],
                                       interp.spread(f), atol=1e-13)


def test_colored_spread_multivector(setup, set_kernel_mode):
    box, r = setup
    f = np.random.default_rng(1).standard_normal((r.shape[0], 3))
    for no_ckernel in (False, True):
        set_kernel_mode(no_ckernel)
        with ExecutionContext("serial") as ctx:
            engine, interp = _engine(r, box, 32, 4, ctx)
            np.testing.assert_allclose(_spread(engine, f), interp.spread(f),
                                       atol=1e-13)


def test_eight_colors_in_3d(setup):
    box, r = setup
    with ExecutionContext("serial") as ctx:
        engine, _ = _engine(r, box, 32, 4, ctx)
        assert engine.coloring.n_colors == 8


def test_groups_partition_particles(setup):
    box, r = setup
    coloring = IndependentSetColoring(32, 4)
    groups = coloring.groups(r, box)
    all_indices = np.sort(np.concatenate(groups))
    np.testing.assert_array_equal(all_indices, np.arange(r.shape[0]))


def test_block_footprints_disjoint_within_color(setup):
    # the race-freedom property: within a color, different blocks write
    # disjoint sets of mesh points
    box, r = setup
    with ExecutionContext("serial") as ctx:
        engine, _ = _engine(r, box, 32, 4, ctx)
        written = 0
        for color in range(engine.coloring.n_colors):
            footprints = engine.block_footprints(color)
            written += sum(fp.size for fp in footprints)
            for a in range(len(footprints)):
                for b in range(a + 1, len(footprints)):
                    overlap = np.intersect1d(footprints[a], footprints[b])
                    assert overlap.size == 0, (
                        f"color {color}: blocks {a} and {b} share mesh "
                        "points")
        assert written >= np.unique(engine.columns).size


def test_even_block_count_per_dim():
    for K, p in ((32, 4), (48, 6), (40, 4), (36, 6)):
        coloring = IndependentSetColoring(K, p)
        nb = coloring.blocks_per_dim
        assert nb == 1 or nb % 2 == 0
        # blocks at least p wide
        assert np.all(np.diff(coloring.block_edges) >= p)


def test_tiny_mesh_single_color(set_kernel_mode):
    coloring = IndependentSetColoring(8, 6)
    assert coloring.n_colors == 1
    box = Box(4.0)
    r = np.random.default_rng(2).uniform(0, 4.0, size=(10, 3))
    f = np.ones(10)
    for no_ckernel in (False, True):
        set_kernel_mode(no_ckernel)
        with ExecutionContext("serial") as ctx:
            engine, interp = _engine(r, box, 8, 6, ctx)
            np.testing.assert_allclose(_spread(engine, f[:, None])[:, 0],
                                       interp.spread(f), atol=1e-13)


def test_rejects_mesh_smaller_than_order():
    with pytest.raises(ConfigurationError):
        IndependentSetColoring(4, 6)
