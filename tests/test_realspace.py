"""Tests for the real-space BCSR Ewald operator."""

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.neighbor.pairs import brute_force_pairs, find_pairs
from repro.pme.realspace import RealSpaceOperator
from repro.rpy import pse
from repro.rpy.tensor import pair_dyads
from repro.sparse import BlockCSR
from repro.sparse.kernels import _assemble_lexsort


@pytest.fixture
def setup():
    box = Box(14.0)
    rng = np.random.default_rng(9)
    r = rng.uniform(0, box.length, size=(30, 3))
    return box, r


def _dense_reference(r, box, xi, r_max):
    """Direct dense construction of the real-space operator, its
    coefficients gathered from the split's table (whose error against
    the closed forms ``test_pse`` bounds)."""
    n = r.shape[0]
    out = np.zeros((3 * n, 3 * n))
    i, j = brute_force_pairs(r, box, r_max)
    if i.size:
        rij, dist = box.distances(r, i, j)
        table = pse.coefficient_table(xi, r_max)
        tensors = pair_dyads(rij, *table.gather(dist))
        for k in range(i.size):
            out[3 * i[k]:3 * i[k] + 3, 3 * j[k]:3 * j[k] + 3] = tensors[k]
            out[3 * j[k]:3 * j[k] + 3, 3 * i[k]:3 * i[k] + 3] = tensors[k].T
    diag = pse.self_mobility_scalar(xi)
    out[np.arange(3 * n), np.arange(3 * n)] += diag
    return out


def test_matches_dense_reference(setup):
    box, r = setup
    op = RealSpaceOperator(r, box, xi=0.8, r_max=5.0)
    dense = _dense_reference(r, box, 0.8, 5.0)
    f = np.random.default_rng(0).standard_normal(3 * r.shape[0])
    np.testing.assert_allclose(op.apply(f), dense @ f, rtol=1e-10)


def test_engines_agree(setup):
    # one product: apply is apply_block, a flat vector a one-column block
    box, r = setup
    op = RealSpaceOperator(r, box, xi=0.8, r_max=4.0)
    assert RealSpaceOperator.apply is RealSpaceOperator.apply_block
    f = np.random.default_rng(1).standard_normal((3 * r.shape[0], 4))
    assert op.apply(f).tobytes() == op.apply_block(f).tobytes()
    assert op.apply(f[:, 0]).shape == (3 * r.shape[0],)
    assert op.apply_block(f[:, 0]).tobytes() == op.apply(f[:, :1]).tobytes()


def test_product_matches_references(setup, kernel_mode):
    # with the C kernel and with the SciPy CSR fallback, the product
    # equals the NumPy block SpMV and the exported CSR product
    box, r = setup
    op = RealSpaceOperator(r, box, xi=0.8, r_max=4.0)
    rng = np.random.default_rng(1)
    for f in (rng.standard_normal(3 * r.shape[0]),
              rng.standard_normal((3 * r.shape[0], 4))):
        u = op.apply(f)
        assert u.tobytes() == op.apply_block(f).tobytes()
        np.testing.assert_allclose(u, op.bcsr.matvec(f), rtol=0, atol=1e-13)
        np.testing.assert_allclose(u, op.bcsr.to_scipy() @ f,
                                   rtol=0, atol=1e-13)


def _operator_from_pairs(r, box, xi, r_max, search):
    """The operator's matrix assembled the reference way (concatenate +
    lexsort) from the pair list of ``search``."""
    n = r.shape[0]
    i, j = search(r, box, r_max)
    rij, dist = box.distances(r, i, j)
    f, g = pse.coefficient_table(xi, r_max).gather(dist)
    rhat = rij / dist[:, None]
    blocks = (f[:, None, None] * np.eye(3)
              + g[:, None, None] * (rhat[:, :, None] * rhat[:, None, :]))
    diag = np.broadcast_to(pse.self_mobility_scalar(xi) * np.eye(3),
                           (n, 3, 3)).copy()
    return BlockCSR(n, *_assemble_lexsort(n, i.astype(np.int64),
                                          j.astype(np.int64), blocks, diag))


def test_neighbor_backends_agree(setup):
    # matrices assembled the reference way from the engine's and the
    # brute-force pair lists give the operator's product
    box, r = setup
    f = np.random.default_rng(2).standard_normal(3 * r.shape[0])
    u = RealSpaceOperator(r, box, xi=0.8, r_max=4.0).apply(f)
    for search in (find_pairs, brute_force_pairs):
        ref = _operator_from_pairs(r, box, 0.8, 4.0, search)
        assert u.tobytes() == ref.matmat(f[:, None])[:, 0].tobytes()


@pytest.mark.parametrize("half_box", [False, True], ids=["r4", "half-box"])
def test_matrix_bytes_match_brute_force_assembly(medium_suspension, half_box,
                                                 kernel_mode):
    # find_pairs + compiled (or fallback) assembly == brute-force
    # pairs + lexsort reference, byte for byte, also at r_max = L/2
    box, r = medium_suspension.box, medium_suspension.positions
    r_max = box.length / 2 if half_box else 4.0
    op = RealSpaceOperator(r, box, xi=0.8, r_max=r_max)
    ref = _operator_from_pairs(r, box, 0.8, r_max, brute_force_pairs)
    assert op.n_pairs == (ref.nnz_blocks - r.shape[0]) // 2 > 0
    assert op.bcsr.indptr.tobytes() == ref.indptr.tobytes()
    assert op.bcsr.indices.tobytes() == ref.indices.tobytes()
    assert op.bcsr.blocks.tobytes() == ref.blocks.tobytes()


def test_block_application_matches_columns(setup):
    box, r = setup
    op = RealSpaceOperator(r, box, xi=0.8, r_max=4.0)
    f = np.random.default_rng(3).standard_normal((3 * r.shape[0], 6))
    block = op.apply(f)
    for c in range(6):
        np.testing.assert_allclose(block[:, c], op.apply(f[:, c]),
                                   rtol=1e-12)


def test_self_term_only_for_isolated_particle():
    box = Box(20.0)
    r = np.array([[10.0, 10.0, 10.0]])
    op = RealSpaceOperator(r, box, xi=0.7, r_max=5.0)
    f = np.array([1.0, 0.0, 0.0])
    expect = pse.self_mobility_scalar(0.7)
    np.testing.assert_allclose(op.apply(f), [expect, 0.0, 0.0], rtol=1e-12)


def test_cutoff_validation():
    box = Box(10.0)
    r = np.zeros((2, 3))
    with pytest.raises(ConfigurationError):
        RealSpaceOperator(r, box, xi=1.0, r_max=6.0)   # > L/2
    with pytest.raises(ConfigurationError):
        RealSpaceOperator(r, box, xi=1.0, r_max=0.0)
    with pytest.raises(TypeError):      # the engine option is gone
        RealSpaceOperator(r, box, xi=1.0, r_max=4.0, engine="scipy")
    with pytest.raises(TypeError):      # and so is the choice of search
        RealSpaceOperator(r, box, xi=1.0, r_max=4.0, neighbor_backend="cells")
    with pytest.raises(TypeError):      # the overlap form is in the split
        RealSpaceOperator(r, box, xi=1.0, r_max=4.0, overlap_corrected=True)


def test_pair_count_and_memory(setup):
    box, r = setup
    op = RealSpaceOperator(r, box, xi=0.8, r_max=4.0)
    i, _ = brute_force_pairs(r, box, 4.0)
    assert op.n_pairs == i.size
    assert op.nnz_blocks == 2 * i.size + r.shape[0]
    assert op.memory_bytes > 0
