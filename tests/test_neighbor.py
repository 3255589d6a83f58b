"""Tests for the neighbor-search backends (cell list, KD-tree, Verlet)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box
from repro.neighbor import CellList, VerletList, brute_force_pairs, kdtree_pairs
from repro.neighbor.pairs import canonicalize_pairs, find_pairs
from repro.errors import ConfigurationError


def _random_positions(n, box, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, box.length, size=(n, 3))


@pytest.mark.parametrize("backend", ["cells", "kdtree"])
@pytest.mark.parametrize("n,L,cutoff", [
    (50, 10.0, 2.5),
    (100, 10.0, 3.0),
    (30, 6.0, 2.9),     # only 2 cells per dim -> brute-force fallback
    (200, 15.0, 1.0),
    (10, 20.0, 9.9),
])
def test_backends_match_brute_force(backend, n, L, cutoff):
    box = Box(L)
    r = _random_positions(n, box, seed=n + int(L))
    i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, cutoff))
    i, j = canonicalize_pairs(*find_pairs(r, box, cutoff, backend=backend))
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(j, j_ref)


@given(st.integers(2, 60), st.floats(0.5, 4.5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cell_list_property_matches_brute(n, cutoff, seed):
    box = Box(9.0)
    r = _random_positions(n, box, seed)
    i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, cutoff))
    i, j = canonicalize_pairs(*CellList(box, cutoff).pairs(r))
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(j, j_ref)


def test_cell_list_pairs_across_periodic_boundary():
    box = Box(10.0)
    r = np.array([[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]])
    i, j = CellList(box, 1.0).pairs(r)
    assert list(zip(i, j)) == [(0, 1)]


def test_cell_list_no_self_pairs():
    box = Box(10.0)
    r = _random_positions(50, box, 0)
    i, j = CellList(box, 3.0).pairs(r)
    assert np.all(i < j)


def test_cell_list_empty_and_single():
    box = Box(10.0)
    i, j = CellList(box, 2.0).pairs(np.empty((0, 3)))
    assert i.size == 0
    i, j = CellList(box, 2.0).pairs(np.array([[1.0, 1.0, 1.0]]))
    assert i.size == 0


def test_cell_list_rejects_bad_cutoff():
    with pytest.raises(ConfigurationError):
        CellList(Box(10.0), 0.0)


def test_cell_edge_at_least_cutoff():
    cl = CellList(Box(10.0), 2.7)
    assert cl.cell_edge >= cl.cutoff


def test_kdtree_strict_inequality_convention():
    box = Box(10.0)
    r = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    i, _ = kdtree_pairs(r, box, 2.0)     # distance == cutoff excluded
    assert i.size == 0
    i, _ = kdtree_pairs(r, box, 2.0 + 1e-9)
    assert i.size == 1


@pytest.mark.parametrize("direction", ["axis", "oblique"])
def test_kdtree_keeps_pairs_within_an_ulp_of_the_cutoff(direction):
    # The tree only proposes candidates (queried a hair wide); the strict
    # box.distances filter decides, so pairs at cutoff * (1 - k 2^-52)
    # across a periodic face are the brute-force reference's, and a pair
    # at exactly the cutoff stays out.
    box = Box(12.0)
    cutoff = 3.7
    rng = np.random.default_rng(5)
    m = 60
    if direction == "axis":
        u = np.tile([1.0, 0.0, 0.0], (m, 1))
    else:
        u = rng.standard_normal((m, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
    base = rng.uniform(0, box.length, size=(m, 3))
    base[:, 0] = box.length - rng.uniform(0.0, 0.5, size=m)
    k = np.arange(m) % 6            # k = 0 is the cutoff exactly
    other = base + u * (cutoff * (1 - k * 2.0 ** -52))[:, None]
    r = box.wrap(np.concatenate([base, other]))
    i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, cutoff))
    i, j = canonicalize_pairs(*kdtree_pairs(r, box, cutoff))
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(j, j_ref)
    _, dist = box.distances(r, i, j)
    assert np.all(dist < cutoff)
    assert np.count_nonzero(dist > cutoff * (1 - 1e-14)) >= m // 3


def test_find_pairs_unknown_backend():
    with pytest.raises(ValueError):
        find_pairs(np.zeros((2, 3)), Box(5.0), 1.0, backend="quantum")


class TestVerletList:
    def test_matches_direct_search(self):
        box = Box(10.0)
        r = _random_positions(80, box, 1)
        vl = VerletList(box, 2.5, skin=0.5)
        i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, 2.5))
        i, j = canonicalize_pairs(*vl.pairs(r))
        np.testing.assert_array_equal(i, i_ref)
        np.testing.assert_array_equal(j, j_ref)

    def test_no_rebuild_for_small_moves(self):
        box = Box(10.0)
        r = _random_positions(60, box, 2)
        vl = VerletList(box, 2.0, skin=1.0)
        vl.pairs(r)
        assert vl.n_rebuilds == 1
        r2 = r + 0.05  # well within skin/2
        i, j = canonicalize_pairs(*vl.pairs(r2))
        assert vl.n_rebuilds == 1
        i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r2, box, 2.0))
        np.testing.assert_array_equal(i, i_ref)
        np.testing.assert_array_equal(j, j_ref)

    def test_rebuild_triggered_by_large_move(self):
        box = Box(10.0)
        r = _random_positions(60, box, 3)
        vl = VerletList(box, 2.0, skin=0.4)
        vl.pairs(r)
        r2 = r.copy()
        r2[0] += 1.0  # exceeds skin/2
        i, j = canonicalize_pairs(*vl.pairs(r2))
        assert vl.n_rebuilds == 2
        i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r2, box, 2.0))
        np.testing.assert_array_equal(i, i_ref)
        np.testing.assert_array_equal(j, j_ref)

    def test_correct_even_without_rebuild_sequence(self):
        # drift a configuration gradually; result must always equal brute
        box = Box(8.0)
        r = _random_positions(40, box, 4)
        vl = VerletList(box, 2.2, skin=0.6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            r = box.wrap(r + 0.05 * rng.standard_normal(r.shape))
            i, j = canonicalize_pairs(*vl.pairs(r))
            i_ref, j_ref = canonicalize_pairs(
                *brute_force_pairs(r, box, 2.2))
            np.testing.assert_array_equal(i, i_ref)
            np.testing.assert_array_equal(j, j_ref)

    def test_invalidate_forces_rebuild(self):
        box = Box(10.0)
        r = _random_positions(20, box, 5)
        vl = VerletList(box, 2.0)
        vl.pairs(r)
        vl.invalidate()
        vl.pairs(r)
        assert vl.n_rebuilds == 2
