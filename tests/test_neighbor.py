"""Tests for the pair search (``find_pairs``), its reference, the Verlet list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box
from repro.neighbor import VerletList, brute_force_pairs
from repro.neighbor.pairs import canonicalize_pairs, find_pairs
from repro.errors import ConfigurationError


def _random_positions(n, box, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, box.length, size=(n, 3))


def _assert_matches_brute_force(r, box, cutoff):
    i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, cutoff))
    i, j = canonicalize_pairs(*find_pairs(r, box, cutoff))
    np.testing.assert_array_equal(i, i_ref)
    np.testing.assert_array_equal(j, j_ref)
    return i, j


# The second axis keeps the ids of the two former backends; it now
# selects how the configuration reaches the one engine: as generated
# (inside the box) or rigidly shifted outside it, which the periodic
# tree only accepts because find_pairs wraps first.
@pytest.mark.parametrize("shifted", [pytest.param(False, id="cells"),
                                     pytest.param(True, id="kdtree")])
@pytest.mark.parametrize("n,L,cutoff", [
    (50, 10.0, 2.5),
    (100, 10.0, 3.0),
    (30, 6.0, 2.9),     # fewer than 3 cutoffs per box edge
    (200, 15.0, 1.0),
    (10, 20.0, 9.9),
    (40, 8.0, 4.0),             # cutoff == L/2: still the tree
    (40, 8.0, 4.0 + 1e-9),      # just above: brute-force fallback
    (40, 8.0, 6.5),             # minimum-image truncation, far above L/2
])
def test_backends_match_brute_force(shifted, n, L, cutoff):
    box = Box(L)
    r = _random_positions(n, box, seed=n + int(L))
    if shifted:
        r = r + np.array([3.7 * L, -1.2 * L, 0.4 * L])
    i, _ = _assert_matches_brute_force(r, box, cutoff)
    assert i.size > 0


@given(st.integers(2, 60), st.floats(0.5, 4.5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cell_list_property_matches_brute(n, cutoff, seed):
    box = Box(9.0)
    _assert_matches_brute_force(_random_positions(n, box, seed), box, cutoff)


def test_cell_list_pairs_across_periodic_boundary():
    box = Box(10.0)
    r = np.array([[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]])
    i, j = find_pairs(r, box, 1.0)
    assert list(zip(i, j)) == [(0, 1)]


def test_cell_list_no_self_pairs():
    box = Box(10.0)
    r = _random_positions(50, box, 0)
    r[7] = r[3]                 # coincident particles are a pair, not a self pair
    i, j = find_pairs(r, box, 3.0)
    assert np.all(i < j)
    assert (3, 7) in set(zip(i.tolist(), j.tolist()))


def test_cell_list_empty_and_single():
    box = Box(10.0)
    for search in (find_pairs, brute_force_pairs):
        for r in (np.empty((0, 3)), np.array([[1.0, 1.0, 1.0]])):
            for cutoff in (2.0, 7.0):       # tree and > L/2 fallback
                i, j = search(r, box, cutoff)
                assert i.size == 0 and j.size == 0
                assert i.dtype.kind == "i" and j.dtype.kind == "i"


def test_cell_list_rejects_bad_cutoff():
    for search in (find_pairs, brute_force_pairs):
        for cutoff in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                search(np.zeros((2, 3)), Box(10.0), cutoff)


def test_kdtree_strict_inequality_convention():
    box = Box(10.0)
    r = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    i, _ = find_pairs(r, box, 2.0)     # distance == cutoff excluded
    assert i.size == 0
    i, _ = find_pairs(r, box, 2.0 + 1e-9)
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
    i, j = _assert_matches_brute_force(r, box, cutoff)
    _, dist = box.distances(r, i, j)
    assert np.all(dist < cutoff)
    assert np.count_nonzero(dist > cutoff * (1 - 1e-14)) >= m // 3


def test_find_pairs_unknown_backend():
    # one engine: the selector is gone from both entry points
    with pytest.raises(TypeError):
        find_pairs(np.zeros((2, 3)), Box(5.0), 1.0, backend="kdtree")
    with pytest.raises(TypeError):
        VerletList(Box(5.0), 1.0, backend="cells")


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

    def test_zero_skin_hands_out_copies(self):
        # skin == 0 filters like the skinned path: the caller never gets
        # the cached arrays themselves
        box = Box(10.0)
        r = _random_positions(40, box, 6)
        vl = VerletList(box, 2.5, skin=0.0)
        i, j = vl.pairs(r)
        assert i.size > 0
        i[:] = -1
        j[:] = -1
        i2, j2 = canonicalize_pairs(*vl.pairs(r))
        assert vl.n_rebuilds == 1
        i_ref, j_ref = canonicalize_pairs(*brute_force_pairs(r, box, 2.5))
        np.testing.assert_array_equal(i2, i_ref)
        np.testing.assert_array_equal(j2, j_ref)
