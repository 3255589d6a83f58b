"""The real-space rebuild, pinned byte for byte.

``RealSpaceOperator`` builds its matrix in compiled passes (strict
minimum-image filter, separations, the ``f I + g rhat rhat^T`` fill
fused into the counting-sort assembly) or, without a compiler, from
NumPy tensors.  Both must store exactly the matrix of the slow
definition below — brute-force pairs, NumPy separations and tensors,
the ``lexsort`` assembly — so every trajectory digest is independent of
which route built the operator.
"""

import numpy as np
import pytest

from repro import Box
from repro.neighbor.pairs import brute_force_pairs, find_pairs
from repro.pme.realspace import RealSpaceOperator
from repro.rpy import pse
from repro.sparse.kernels import _assemble_lexsort
from repro.systems import fcc_positions, make_suspension


def _separations(r, i, j, length):
    """``Box.distances`` as the NumPy expressions it is defined by."""
    d = r[i] - r[j]
    rij = d - length * np.round(d / length)
    return rij, np.linalg.norm(rij, axis=1)


def _reference(r, box, xi, r_max):
    """``(indptr, indices, blocks)`` the slow way: all pairs, membership
    on the wrapped positions, tensors on the positions as given."""
    n, length = r.shape[0], box.length
    i, j = np.triu_indices(n, k=1)
    keep = _separations(box.wrap(r), i, j, length)[1] < r_max
    i, j = i[keep].astype(np.int64), j[keep].astype(np.int64)
    rij, dist = _separations(r, i, j, length)
    f, g = pse.real_space_coefficients(dist, xi)
    rhat = rij / dist[:, None]
    blocks = (f[:, None, None] * np.eye(3)
              + g[:, None, None] * (rhat[:, :, None] * rhat[:, None, :]))
    scalar = pse.self_mobility_scalar(xi)
    diag = np.broadcast_to(scalar * np.eye(3), (n, 3, 3))
    return i.size, _assemble_lexsort(n, i, j, blocks, diag)


def _assert_same_bytes(r, box, xi, r_max):
    op = RealSpaceOperator(r, box, xi=xi, r_max=r_max)
    n_pairs, (indptr, indices, blocks) = _reference(r, box, xi, r_max)
    assert op.n_pairs == n_pairs
    assert op.bcsr.indptr.tobytes() == indptr.tobytes()
    assert op.bcsr.indices.tobytes() == indices.tobytes()
    assert op.bcsr.blocks.tobytes() == blocks.tobytes()
    return op


def _far_outside(r, box, seed):
    """The same configuration, each particle moved by its own lattice
    vector and a jitter: up to four boxes away."""
    rng = np.random.default_rng(seed)
    return (r + box.length * rng.integers(-4, 5, size=r.shape)
            + rng.uniform(-1e-3, 1e-3, size=r.shape))


@pytest.mark.parametrize("phi", [0.1, 0.2, 0.4])
def test_random_suspensions(phi, kernel_mode):
    s = make_suspension(150, phi, seed=5)
    op = _assert_same_bytes(s.positions, s.box, 0.45, 5.5)
    assert op.n_pairs > 1000
    _assert_same_bytes(_far_outside(s.positions, s.box, 1), s.box, 0.45, 5.5)


def test_exact_fcc_lattice(kernel_mode):
    # axis-aligned and face-diagonal pairs: rhat has exact zeros, where
    # f * 0.0 + g * (+-0.0 * x) decides the sign of a stored zero
    box = Box(12.0)
    r = fcc_positions(108, box.length)
    op = _assert_same_bytes(r, box, 0.5, 5.9)
    assert np.count_nonzero(op.bcsr.blocks == 0.0) > op.n_pairs


def test_overlapping_pairs(kernel_mode):
    # uniform random points overlap freely; the second system is 60
    # copies of 2 sites, every copy within 0.2 a of its site.  The
    # overlap form of the RPY tensor is part of the split's real half
    box = Box(11.0)
    rng = np.random.default_rng(11)
    r = rng.uniform(0, box.length, size=(120, 3))
    op = _assert_same_bytes(r, box, 0.6, 5.0)
    i, j = find_pairs(r, box, 2.0)
    assert i.size > 20 and op.n_pairs > i.size
    sites = np.array([[2.0, 2.0, 2.0], [2.5, 2.0, 2.0]])
    clumped = np.repeat(sites, 60, axis=0) + rng.uniform(-0.1, 0.1, (120, 3))
    _assert_same_bytes(clumped, box, 0.6, 5.0)


@pytest.mark.parametrize("below", [0.0, 1e-9], ids=["half-box", "just-below"])
def test_cutoff_at_half_the_box(below, kernel_mode):
    s = make_suspension(100, 0.2, seed=2)
    r_max = s.box.length / 2 - below
    _assert_same_bytes(s.positions, s.box, 0.5, r_max)
    _assert_same_bytes(_far_outside(s.positions, s.box, 3), s.box, 0.5, r_max)


def test_one_particle_and_no_pair_in_range(kernel_mode):
    box = Box(20.0)
    op = _assert_same_bytes(np.array([[3.0, 4.0, 5.0]]), box, 0.5, 4.0)
    assert op.n_pairs == 0 and op.nnz_blocks == 1
    apart = np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0], [1.0, 11.0, 17.0]])
    op = _assert_same_bytes(apart, box, 0.5, 4.0)
    assert op.n_pairs == 0 and op.nnz_blocks == 3


@pytest.mark.parametrize("shifted", [False, True], ids=["wrapped", "outside"])
def test_find_pairs_is_brute_force_in_order(shifted, kernel_mode):
    # np.add.at sums the forces in pair order, so the order is part of
    # the trajectory: it is brute force's (lexicographic) in both kernel
    # modes, and so is the pair set, decided on the wrapped positions
    s = make_suspension(300, 0.2, seed=6)
    box = s.box
    r = _far_outside(s.positions, box, 7) if shifted else s.positions
    for cutoff in (5.0, 2.6, box.length / 2):
        i, j = find_pairs(r, box, cutoff)
        i_ref, j_ref = brute_force_pairs(box.wrap(r), box, cutoff)
        assert i.size > 0
        assert i.tobytes() == i_ref.tobytes()
        assert j.tobytes() == j_ref.tobytes()


def test_separations_are_numpy_bytes(kernel_mode):
    # Box.distances and Box.pairs_within on strided, int32 and
    # out-of-order index arrays, wrapped or not
    s = make_suspension(200, 0.2, seed=8)
    box = s.box
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, 200, size=(5000, 2))
    for r in (s.positions, _far_outside(s.positions, box, 10)):
        for i, j in ((pairs[:, 0], pairs[:, 1]),
                     (pairs[:, 0].astype(np.int32), pairs[::-1, 1].copy())):
            want_rij, want = _separations(r, i, j, box.length)
            rij, dist = box.distances(r, i, j)
            assert rij.tobytes() == want_rij.tobytes()
            assert dist.tobytes() == want.tobytes()
            keep = want < 6.0
            ki, kj, krij, kdist = box.pairs_within(r, i, j, 6.0)
            np.testing.assert_array_equal(ki, i[keep])
            np.testing.assert_array_equal(kj, j[keep])
            assert krij.tobytes() == want_rij[keep].tobytes()
            assert kdist.tobytes() == want[keep].tobytes()
    # NumPy's indexing rules still decide what is not a plain pair list
    rij, dist = box.distances(s.positions, np.array([-1]), np.array([0]))
    assert dist.tobytes() == _separations(s.positions, [199], [0],
                                          box.length)[1].tobytes()
    with pytest.raises(IndexError):
        box.distances(s.positions, np.array([200]), np.array([0]))
