"""The real-space rebuild, pinned byte for byte.

``RealSpaceOperator`` builds its matrix in compiled passes (strict
minimum-image filter, separations, the table gather of ``f, g`` and the
``f I + g rhat rhat^T`` fill fused into the counting-sort assembly) or,
without a compiler, from NumPy tensors; its pairs come from a fresh
search or from a pair list kept across rebuilds.  Every route must
store exactly the matrix of the slow definition below — brute-force
pairs, NumPy separations, the table's NumPy gather and tensors, the
``lexsort`` assembly — so every trajectory digest is independent of
which route built the operator.
"""

import numpy as np
import pytest

from repro import Box
from repro.core.checkpoint import run_checkpointed
from repro.core.integrators import PAIR_LIST_SKIN, MatrixFreeBD
from repro.exec import ExecutionContext
from repro.neighbor import VerletList
from repro.neighbor.pairs import brute_force_pairs, find_pairs
from repro.pme.operator import PMEParams
from repro.pme.realspace import RealSpaceOperator
from repro.rpy import pse
from repro.runtime.tasks import positions_digest
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
    f, g = pse.coefficient_table(xi, r_max).gather(dist)
    rhat = rij / dist[:, None]
    blocks = (f[:, None, None] * np.eye(3)
              + g[:, None, None] * (rhat[:, :, None] * rhat[:, None, :]))
    scalar = pse.self_mobility_scalar(xi)
    diag = np.broadcast_to(scalar * np.eye(3), (n, 3, 3))
    return i.size, _assemble_lexsort(n, i, j, blocks, diag)


def _assert_same_bytes(r, box, xi, r_max):
    # a fresh search, and a pair list built at these positions
    n_pairs, (indptr, indices, blocks) = _reference(r, box, xi, r_max)
    for pairs in (None, VerletList(box, r_max, skin=PAIR_LIST_SKIN)):
        op = RealSpaceOperator(r, box, xi=xi, r_max=r_max, pairs=pairs)
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


def test_kept_pairs_own_exactly_their_rows(kernel_mode):
    # the strict filter hands back arrays holding the pairs kept, not
    # views of buffers sized for every candidate
    s = make_suspension(200, 0.2, seed=8)
    i, j = np.triu_indices(200, 1)
    kept = s.box.pairs_within(s.positions, i, j, 4.0)
    n_kept = int((s.box.distances(s.positions, i, j)[1] < 4.0).sum())
    assert 0 < n_kept < i.size
    for a in kept:
        assert a.flags.owndata
        assert a.shape[0] == n_kept and a.nbytes == n_kept * a[:1].nbytes


# ----------------------------------------------------------------------
# the pair list MatrixFreeBD keeps across rebuilds
# ----------------------------------------------------------------------

class _Recorded(MatrixFreeBD):
    """``MatrixFreeBD`` noting its pair list's rebuild count after every
    mobility build; ``fresh`` invalidates the list before each build, so
    every build searches afresh."""

    def __init__(self, *args, fresh=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.fresh, self.rebuilds = fresh, []

    def _prepare(self, positions):
        if self.fresh and self.pair_list is not None:
            self.pair_list.invalidate()
        super()._prepare(positions)
        self.rebuilds.append(self.pair_list.n_rebuilds)


def _integrator(box, context=None, fresh=False, seed=3):
    return _Recorded(box=box, force_field=None, dt=5e-3, lambda_rpy=4,
                     seed=seed, context=context, fresh=fresh,
                     pme_params=PMEParams(xi=0.6, r_max=5.0, K=16, p=4))


def test_kept_pair_list_is_a_fresh_search_by_trajectory(kernel_mode):
    # 40 steps in 10 builds: the kept list is rebuilt only when a
    # particle has moved half the skin, and the trajectory is that of
    # a fresh search at every build, on one worker and on two threads
    s = make_suspension(100, 0.2, seed=4)
    digests = set()
    with ExecutionContext("serial") as serial, \
            ExecutionContext("threads", workers=2) as threads:
        for context in (serial, threads):
            for fresh in (False, True):
                bd = _integrator(s.box, context, fresh)
                final, stats = bd.run(s.positions, 40)
                assert stats.mobility_updates == len(bd.rebuilds) == 10
                if fresh:
                    assert bd.rebuilds == list(range(1, 11))
                else:
                    assert 1 < bd.rebuilds[-1] < 10
                digests.add(positions_digest(final))
    assert len(digests) == 1


def test_checkpoint_resumed_mid_list_is_the_uninterrupted_run(tmp_path):
    # the list is not checkpointed: a run continued at a build where the
    # uninterrupted run's list was still valid starts a new list, and
    # ends on the same bytes
    s = make_suspension(100, 0.2, seed=4)
    bd = _integrator(s.box)
    full, _ = bd.run(s.positions, 40)
    kept = [b for b in range(1, 10) if bd.rebuilds[b] == bd.rebuilds[b - 1]]
    assert kept
    step = 4 * kept[0]
    path = tmp_path / "ckpt.npz"
    run_checkpointed(path, _integrator(s.box), s.positions, step,
                     interval=step)
    resumed, _, step0, _ = run_checkpointed(
        path, _integrator(s.box, seed=99), s.positions, 40)
    assert step0 == step
    assert positions_digest(resumed) == positions_digest(full)
