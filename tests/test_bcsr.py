"""Tests for the BCSR block-sparse matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sparse import BlockCSR
from repro.sparse.kernels import _assemble_lexsort


def _random_symmetric_bcsr(n, density, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    i, j = iu[keep], ju[keep]
    blocks = rng.standard_normal((i.size, 3, 3))
    diag = rng.standard_normal((n, 3, 3))
    diag = 0.5 * (diag + diag.transpose(0, 2, 1))
    return BlockCSR.from_pairs(n, i, j, blocks, diag_blocks=diag), (i, j, blocks, diag)


def _dense_reference(n, i, j, blocks, diag):
    out = np.zeros((3 * n, 3 * n))
    for k in range(i.size):
        out[3 * i[k]:3 * i[k] + 3, 3 * j[k]:3 * j[k] + 3] += blocks[k]
        out[3 * j[k]:3 * j[k] + 3, 3 * i[k]:3 * i[k] + 3] += blocks[k].T
    for b in range(n):
        out[3 * b:3 * b + 3, 3 * b:3 * b + 3] += diag[b]
    return out


@pytest.mark.parametrize("n,density", [(5, 0.5), (12, 0.2), (20, 0.05)])
def test_to_dense_matches_reference(n, density):
    bcsr, (i, j, blocks, diag) = _random_symmetric_bcsr(n, density, seed=n)
    np.testing.assert_allclose(bcsr.to_dense(),
                               _dense_reference(n, i, j, blocks, diag))


@pytest.mark.parametrize("n,density", [(5, 0.5), (15, 0.2)])
def test_matvec_matches_dense(n, density):
    bcsr, refdata = _random_symmetric_bcsr(n, density, seed=n + 100)
    dense = _dense_reference(n, *refdata)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3 * n)
    np.testing.assert_allclose(bcsr.matvec(x), dense @ x, rtol=1e-12)


def test_matvec_multivector_matches_column_loop():
    bcsr, _ = _random_symmetric_bcsr(10, 0.3, seed=42)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 7))
    block = bcsr.matvec(x)
    for c in range(7):
        np.testing.assert_allclose(block[:, c], bcsr.matvec(x[:, c]),
                                   rtol=1e-12)


def test_matmul_operator():
    bcsr, refdata = _random_symmetric_bcsr(6, 0.4, seed=9)
    x = np.ones(18)
    np.testing.assert_allclose(bcsr @ x, bcsr.matvec(x))


def test_scipy_export_matches():
    bcsr, refdata = _random_symmetric_bcsr(14, 0.25, seed=5)
    dense = _dense_reference(14, *refdata)
    np.testing.assert_allclose(bcsr.to_scipy().toarray(), dense, rtol=1e-12)


def test_symmetry_of_from_pairs():
    bcsr, _ = _random_symmetric_bcsr(8, 0.4, seed=2)
    dense = bcsr.to_dense()
    np.testing.assert_allclose(dense, dense.T, rtol=1e-12)


def test_empty_rows_handled():
    # particle 2 interacts with nobody and has no diagonal
    i = np.array([0])
    j = np.array([1])
    blocks = np.ones((1, 3, 3))
    bcsr = BlockCSR.from_pairs(3, i, j, blocks)
    y = bcsr.matvec(np.ones(9))
    np.testing.assert_allclose(y[6:], 0.0)
    np.testing.assert_allclose(y[:3], 3.0)


def test_zero_matrix():
    bcsr = BlockCSR(4, np.zeros(5, dtype=int), np.empty(0, dtype=int),
                    np.empty((0, 3, 3)))
    np.testing.assert_allclose(bcsr.matvec(np.ones(12)), 0.0)


def _half_pair_list(case):
    """``(n, i, j, pair_blocks, diag_blocks)`` of one assembly case; the
    payloads are not symmetric, so the mirror block is a real transpose."""
    rng = np.random.default_rng(31)
    n = 9
    iu, ju = np.triu_indices(n, k=1)
    keep = (rng.random(iu.size) < 0.4) & (iu != 5) & (ju != 5)  # row 5 alone
    i, j = iu[keep], ju[keep]
    diag = rng.standard_normal((n, 3, 3))
    if case == "shuffled":
        order = rng.permutation(i.size)
        i, j = i[order], j[order]
    elif case == "mixed-orientation":
        order = rng.permutation(i.size)
        flip = rng.random(i.size) < 0.5
        i, j = np.where(flip, j, i)[order], np.where(flip, i, j)[order]
    elif case == "empty":
        i = j = np.empty(0, dtype=np.intp)
    elif case == "no-diagonal":
        diag = None
    else:
        assert case == "sorted"
    return n, i, j, rng.standard_normal((i.size, 3, 3)), diag


@pytest.mark.parametrize("case", ["sorted", "shuffled", "mixed-orientation",
                                  "empty", "no-diagonal"])
def test_from_pairs_bytes_match_lexsort_reference(case, kernel_mode):
    # the compiled assembly and its fallback give the bytes of the
    # concatenate + lexsort reference, whatever the order of the list
    n, i, j, blocks, diag = _half_pair_list(case)
    bcsr = BlockCSR.from_pairs(n, i, j, blocks, diag_blocks=diag)
    indptr, indices, payload = _assemble_lexsort(
        n, i.astype(np.int64), j.astype(np.int64), blocks, diag)
    assert bcsr.indptr.tobytes() == indptr.tobytes()
    assert bcsr.indices.tobytes() == indices.tobytes()
    assert bcsr.blocks.tobytes() == payload.tobytes()
    assert bcsr.nnz_blocks == 2 * i.size + (0 if diag is None else n)
    assert np.diff(bcsr.indptr)[5] == (0 if diag is None else 1)
    for r in range(n):      # columns ascending within every row
        assert np.all(np.diff(bcsr.indices[bcsr.indptr[r]:bcsr.indptr[r + 1]]) > 0)
    np.testing.assert_array_equal(
        bcsr.to_dense(),
        _dense_reference(n, i, j, blocks,
                         np.zeros((n, 3, 3)) if diag is None else diag))


def test_rejects_diagonal_pairs():
    with pytest.raises(ConfigurationError):
        BlockCSR.from_pairs(3, np.array([1]), np.array([1]),
                            np.ones((1, 3, 3)))


@pytest.mark.parametrize("i,j", [([0], [3]), ([3], [0]), ([-1], [1]),
                                 ([0, 1], [1, 7]), ([0, 2], [1, 2])])
def test_rejects_out_of_range_and_diagonal_pairs(i, j, kernel_mode):
    with pytest.raises(ConfigurationError):
        BlockCSR.from_pairs(3, np.array(i), np.array(j),
                            np.ones((len(i), 3, 3)))


def test_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        BlockCSR.from_pairs(3, np.array([0]), np.array([1]),
                            np.ones((2, 3, 3)))
    with pytest.raises(ConfigurationError):
        BlockCSR(2, np.array([0, 1, 1]), np.array([0]), np.ones((1, 2, 2)))
    with pytest.raises(ConfigurationError):
        BlockCSR(2, np.array([0, 1]), np.array([0]), np.ones((1, 3, 3)))


def test_rejects_wrong_operand_size():
    bcsr, _ = _random_symmetric_bcsr(4, 0.5, seed=3)
    with pytest.raises(ConfigurationError):
        bcsr.matvec(np.ones(13))


def test_memory_accounting_positive():
    bcsr, _ = _random_symmetric_bcsr(10, 0.3, seed=8)
    assert bcsr.memory_bytes > 0
    assert bcsr.nnz_blocks == bcsr.blocks.shape[0]


@given(st.integers(2, 12), st.floats(0.05, 0.9), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_matvec_linearity_property(n, density, seed):
    bcsr, _ = _random_symmetric_bcsr(n, density, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3 * n)
    y = rng.standard_normal(3 * n)
    a, b = 2.5, -1.25
    np.testing.assert_allclose(bcsr.matvec(a * x + b * y),
                               a * bcsr.matvec(x) + b * bcsr.matvec(y),
                               rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("s", [1, 2, 5, 8])
def test_matmat_matches_matvec_columns(s):
    bcsr, refdata = _random_symmetric_bcsr(12, 0.3, seed=21)
    dense = _dense_reference(12, *refdata)
    rng = np.random.default_rng(s)
    x = rng.standard_normal((36, s))
    y = bcsr.matmat(x)
    np.testing.assert_allclose(y, dense @ x, rtol=1e-12, atol=1e-12)
    for c in range(s):
        np.testing.assert_allclose(y[:, c], bcsr.matvec(x[:, c]),
                                   rtol=1e-12, atol=1e-12)


def test_matmat_scipy_fallback_matches(monkeypatch):
    import repro.sparse.bcsr as bcsr_mod
    monkeypatch.setattr(bcsr_mod, "spmm_kernel", lambda: None)
    bcsr, refdata = _random_symmetric_bcsr(10, 0.3, seed=22)
    dense = _dense_reference(10, *refdata)
    x = np.random.default_rng(2).standard_normal((30, 6))
    np.testing.assert_allclose(bcsr.matmat(x), dense @ x,
                               rtol=1e-12, atol=1e-12)


def test_matmul_dispatches_blocks_to_matmat():
    bcsr, _ = _random_symmetric_bcsr(8, 0.4, seed=23)
    x = np.random.default_rng(3).standard_normal((24, 5))
    np.testing.assert_allclose(bcsr @ x, bcsr.matmat(x))
    single = x[:, :1]
    np.testing.assert_allclose(bcsr @ single, bcsr.matvec(single))


def test_fortran_and_strided_operands_are_normalized_once():
    bcsr, refdata = _random_symmetric_bcsr(9, 0.4, seed=24)
    dense = _dense_reference(9, *refdata)
    rng = np.random.default_rng(4)
    xf = np.asfortranarray(rng.standard_normal((27, 4)))
    np.testing.assert_allclose(bcsr.matvec(xf), dense @ xf, rtol=1e-12)
    np.testing.assert_allclose(bcsr.matmat(xf), dense @ xf, rtol=1e-12)
    wide = rng.standard_normal((27, 8))
    strided = wide[:, ::2]          # non-contiguous column view
    np.testing.assert_allclose(bcsr.matmat(strided), dense @ strided,
                               rtol=1e-12)
    ints = np.ones((27, 3), dtype=np.int64)
    np.testing.assert_allclose(bcsr.matmat(ints), dense @ ints.astype(float),
                               rtol=1e-12)


def test_rejects_complex_operands():
    bcsr, _ = _random_symmetric_bcsr(5, 0.5, seed=25)
    with pytest.raises(ConfigurationError):
        bcsr.matvec(np.ones(15, dtype=np.complex128))
    with pytest.raises(ConfigurationError):
        bcsr.matmat(np.ones((15, 2), dtype=np.complex128))


def test_memory_accounting_includes_spmm_indices():
    bcsr, _ = _random_symmetric_bcsr(10, 0.3, seed=26)
    before = bcsr.memory_bytes
    assert before >= (bcsr.blocks.nbytes + bcsr.indices.nbytes
                      + bcsr.indptr.nbytes)
    bcsr.matmat(np.ones((30, 4)))   # materializes the SpMM index arrays
    after = bcsr.memory_bytes
    # on LP64 the int64 arrays alias intp (no growth); otherwise the
    # copies must be credited
    if bcsr._indptr64 is not None and bcsr._indptr64 is not bcsr.indptr \
            and bcsr._indptr64.base is not bcsr.indptr:
        assert after > before
    else:
        assert after == before


@given(st.integers(2, 10), st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_symmetric_bcsr_is_self_adjoint(n, seed):
    bcsr, _ = _random_symmetric_bcsr(n, 0.4, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(3 * n)
    y = rng.standard_normal(3 * n)
    assert np.dot(y, bcsr.matvec(x)) == pytest.approx(
        np.dot(x, bcsr.matvec(y)), rel=1e-9, abs=1e-9)
