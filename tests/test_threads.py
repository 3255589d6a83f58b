"""Tests for the colored spread schedule on a ``threads`` context."""

import numpy as np
import pytest

from repro import Box
from repro.exec import ExecutionContext

from .test_coloring import _engine, _spread


@pytest.fixture
def system():
    box = Box(16.0)
    rng = np.random.default_rng(33)
    return box, rng.uniform(0, box.length, size=(200, 3))


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_threaded_matches_matrix(system, n_workers):
    box, r = system
    f = np.random.default_rng(0).standard_normal((200, 1))
    with ExecutionContext("threads", workers=n_workers) as ctx:
        engine, interp = _engine(r, box, 32, 4, ctx)
        np.testing.assert_allclose(_spread(engine, f), interp.spread(f),
                                   atol=1e-13)


def test_threaded_multivector(system):
    box, r = system
    f = np.random.default_rng(1).standard_normal((200, 4))
    with ExecutionContext("threads", workers=3) as ctx:
        engine, interp = _engine(r, box, 32, 4, ctx)
        np.testing.assert_allclose(_spread(engine, f), interp.spread(f),
                                   atol=1e-13)


def test_threaded_deterministic(system):
    # thread scheduling must not change the result (disjoint writes)
    box, r = system
    f = np.random.default_rng(2).standard_normal((200, 1))
    with ExecutionContext("threads", workers=4) as ctx:
        engine, _ = _engine(r, box, 32, 4, ctx)
        first = _spread(engine, f).copy()
        for _ in range(4):
            np.testing.assert_array_equal(_spread(engine, f), first)


def test_block_groups_partition_colors(system):
    # the per-block ranges of a color cover exactly that color's particles
    box, r = system
    with ExecutionContext("serial") as ctx:
        engine, _ = _engine(r, box, 32, 4, ctx)
    groups = engine.coloring.groups(r, box)
    for group, idx, ranges in zip(groups, engine._color_idx,
                                  engine._color_ranges):
        np.testing.assert_array_equal(np.sort(idx), np.sort(group))
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(idx.size))
