"""Tests for the slab domain decomposition."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.parallel.decomposition import (
    SlabDecomposition,
    distributed_real_space_matrix,
    merge_pair_blocks,
)
from repro.pme.realspace import RealSpaceOperator
from repro.systems import random_suspension


@pytest.fixture(scope="module")
def system():
    susp = random_suspension(120, 0.2, seed=21)
    return susp.positions, susp.box


XI, R_MAX = 0.9, 3.5


@pytest.mark.parametrize("n_domains", [1, 2, 3])
def test_matches_global_build(system, n_domains):
    r, box = system
    distributed = distributed_real_space_matrix(r, box, XI, R_MAX,
                                                n_domains)
    global_op = RealSpaceOperator(r, box, XI, R_MAX)
    f = np.random.default_rng(0).standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(distributed.matvec(f),
                               global_op.apply(f), rtol=1e-12)


def test_owned_partition_is_complete(system):
    r, box = system
    decomp = SlabDecomposition(box, 3, R_MAX)
    all_owned = np.sort(np.concatenate(
        [decomp.owned_indices(r, d) for d in range(3)]))
    np.testing.assert_array_equal(all_owned, np.arange(r.shape[0]))


def test_halo_excludes_owned(system):
    r, box = system
    decomp = SlabDecomposition(box, 3, R_MAX)
    for d in range(3):
        owned = set(decomp.owned_indices(r, d).tolist())
        halo = set(decomp.halo_indices(r, d).tolist())
        assert not owned & halo


def test_halo_wraps_periodically(system):
    # domain 0's halo must include particles near x = L (wrap-around)
    r, box = system
    decomp = SlabDecomposition(box, 3, R_MAX)
    halo0 = decomp.halo_indices(r, 0)
    x = box.wrap(r)[:, 0]
    near_top = np.flatnonzero(x > box.length - R_MAX / 2)
    if near_top.size:     # suspension is dense; this always holds
        assert np.intersect1d(halo0, near_top).size > 0


def test_each_pair_kept_exactly_once(system):
    r, box = system
    decomp = SlabDecomposition(box, 3, R_MAX)
    seen = set()
    for d in range(3):
        i, j, _ = decomp.local_pair_blocks(r, d, XI)
        for a, b in zip(i, j):
            assert (a, b) not in seen
            seen.add((int(a), int(b)))
    # compare against the global pair count
    from repro.neighbor.pairs import brute_force_pairs
    gi, gj = brute_force_pairs(r, box, R_MAX)
    assert len(seen) == gi.size


def test_too_many_domains_rejected(system):
    _, box = system
    with pytest.raises(ConfigurationError):
        SlabDecomposition(box, int(box.length / R_MAX) + 2, R_MAX)


def test_validation(system):
    _, box = system
    with pytest.raises(ConfigurationError):
        SlabDecomposition(box, 0, R_MAX)
    with pytest.raises(ConfigurationError):
        SlabDecomposition(box, 2, -1.0)


def test_merge_empty_parts():
    box = Box(10.0)
    bcsr = merge_pair_blocks([], 3, xi=1.0)
    # diagonal-only matrix
    assert bcsr.nnz_blocks == 3
