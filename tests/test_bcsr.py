"""Tests for the BCSR block-sparse matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exec import ExecutionContext
from repro.rpy.pse import CoefficientTable
from repro.rpy.tensor import pair_dyads
from repro.sparse import BlockCSR
from repro.sparse.kernels import (_assemble_lexsort, bcsr_assemble,
                                  bcsr_assemble_dyads, spmm_kernel)


def _symmetric(blocks):
    """``blocks + blocks^T``: symmetric byte for byte (``+`` commutes)."""
    return blocks + blocks.transpose(0, 2, 1)


def _random_symmetric_bcsr(n, density, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    i, j = iu[keep], ju[keep]
    blocks = _symmetric(rng.standard_normal((i.size, 3, 3)))
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
    """``(n, i, j, pair_blocks, diag_blocks)`` of one assembly case, every
    payload symmetric byte for byte (the only blocks BCSR stores)."""
    rng = np.random.default_rng(31)
    n = 9
    iu, ju = np.triu_indices(n, k=1)
    keep = (rng.random(iu.size) < 0.4) & (iu != 5) & (ju != 5)  # row 5 alone
    i, j = iu[keep], ju[keep]
    diag = _symmetric(rng.standard_normal((n, 3, 3)))
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
    return n, i, j, _symmetric(rng.standard_normal((i.size, 3, 3))), diag


@pytest.mark.parametrize("case", ["sorted", "shuffled", "mixed-orientation",
                                  "empty", "no-diagonal"])
def test_from_pairs_bytes_match_lexsort_reference(case, kernel_mode):
    # from_pairs is the concatenate + lexsort reference, packed; the
    # real-space build's fused assembly (the compiled counting sort, or
    # its fallback) gives its bytes whatever the order of the list
    n, i, j, blocks, diag = _half_pair_list(case)
    rng = np.random.default_rng(32)
    table = CoefficientTable(rng.standard_normal((50, 2)), 7.0)
    rij = rng.standard_normal((i.size, 3))
    dist = np.linalg.norm(rij, axis=1)
    fused = bcsr_assemble_dyads(n, i, j, table, rij, dist)
    want = bcsr_assemble(n, i, j, pair_dyads(rij, *table.gather(dist)),
                         np.broadcast_to(table.values[0, 0] * np.eye(3),
                                         (n, 3, 3)))
    for got, ref in zip(fused, want):
        assert got.tobytes() == ref.tobytes()
    assert np.diff(fused[0])[5] == 1

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


def test_fused_assembly_rejects_what_the_table_cannot_gather(kernel_mode):
    # separations outside (0, top] and malformed tables never reach C
    table = CoefficientTable(np.ones((5, 2)), 2.0)       # top = 2.0
    i, j, rij = np.array([0]), np.array([1]), np.ones((1, 3))
    bcsr_assemble_dyads(2, i, j, table, rij, np.array([2.0]))
    for dist in (0.0, -1.0, np.nextafter(2.0, 3.0), np.nan):
        with pytest.raises(ConfigurationError):
            bcsr_assemble_dyads(2, i, j, table, rij, np.array([dist]))
    for values in (np.ones(5), np.ones((5, 3)), np.ones((1, 2))):
        with pytest.raises(ConfigurationError):
            bcsr_assemble_dyads(2, i, j, CoefficientTable(values, 2.0), rij,
                                np.array([0.5]))


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
    assert before >= (bcsr.packed.nbytes + bcsr.indices.nbytes
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


def _ragged_bcsr(n):
    """A symmetric BCSR matrix on ``n`` block rows of unequal lengths, a
    dense first one, and empty ones (no diagonal, no pair in rows 3, 8)."""
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(n, k=1)
    keep = (rng.random(iu.size) < 0.35) | (iu == 0)
    keep &= (iu % 5 != 3) & (ju % 5 != 3)
    i, j = iu[keep], ju[keep]
    return BlockCSR.from_pairs(n, i, j, _symmetric(
        rng.standard_normal((i.size, 3, 3))))


def _one_row_at_a_time(bcsr, x):
    """The compiled product one block row per call: the one-row order."""
    n, s = bcsr.n_block_rows, x.shape[1]
    indptr, indices = bcsr._spmm_arrays()
    y = np.empty((n, 3, s))
    for r in range(n):
        spmm_kernel()(r, r + 1, indptr, indices, bcsr.packed,
                      x.reshape(n, 3, s), y, s)
    return y.reshape(3 * n, s)


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("s", range(1, 10))
def test_packed_matmat_bytes(n, s, kernel_mode):
    # widths 1-9 cover each of the 8/4/2/1 chunk bodies; an even and an
    # odd row count, empty rows.  Compiled: the two-row walk is the
    # one-row order, and column j is the 1-wide product of column j.
    # Fallback: the SciPy export's product
    fallback = kernel_mode
    bcsr = _ragged_bcsr(n)
    assert np.diff(bcsr.indptr)[[3, 8]].tolist() == [0, 0]
    x = np.random.default_rng(s).standard_normal((3 * n, s))
    y = bcsr.matmat(x)
    np.testing.assert_allclose(y, bcsr.to_dense() @ x, rtol=1e-12,
                               atol=1e-12)
    if fallback:
        assert y.tobytes() == (bcsr.to_scipy() @ x).tobytes()
        return
    assert y.tobytes() == _one_row_at_a_time(bcsr, x).tobytes()
    for c in range(s):
        assert y[:, c].tobytes() == bcsr.matmat(x[:, c:c + 1]).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_packed_matmat_row_ranges_from_odd_rows(workers, kernel_mode):
    # 13 rows over 2 or 3 threads: ranges that start on an odd row
    # (7; 5 and 9) and have odd lengths give the serial bytes
    bcsr = _ragged_bcsr(13)
    x = np.random.default_rng(workers).standard_normal((39, 5))
    fallback = kernel_mode
    serial = bcsr.matmat(x)
    with ExecutionContext(backend="threads", workers=workers) as ctx:
        assert bcsr.matmat(x, context=ctx).tobytes() == serial.tobytes()
    if not fallback:
        assert serial.tobytes() == _one_row_at_a_time(bcsr, x).tobytes()


def test_from_pairs_rejects_asymmetric_payloads(kernel_mode):
    # only the upper triangle is stored: a block that differs from its
    # transpose in any byte (even 0.0 against -0.0) is refused
    sym = _symmetric(np.random.default_rng(5).standard_normal((2, 3, 3)))
    i, j = np.array([0, 1]), np.array([1, 2])
    BlockCSR.from_pairs(3, i, j, sym, diag_blocks=np.ones((3, 3, 3)))
    for u, v, value in ((0, 1, 1.5), (2, 1, -3.0)):
        bad = sym.copy()
        bad[1, u, v] = value
        with pytest.raises(ConfigurationError):
            BlockCSR.from_pairs(3, i, j, bad)
    signed = np.zeros((3, 3, 3))
    signed[2, 0, 2] = -0.0
    with pytest.raises(ConfigurationError):
        BlockCSR.from_pairs(3, i, j, sym, diag_blocks=signed)
    with pytest.raises(ConfigurationError):
        BlockCSR(2, np.array([0, 1, 1]), np.array([0]),
                 np.arange(9.0).reshape(1, 3, 3))


def test_blocks_is_a_read_only_unpacked_copy():
    bcsr, _ = _random_symmetric_bcsr(6, 0.5, seed=27)
    blocks = bcsr.blocks
    assert blocks.shape == (bcsr.nnz_blocks, 3, 3)
    assert not blocks.flags.writeable
    np.testing.assert_array_equal(blocks, blocks.transpose(0, 2, 1))
    assert blocks.reshape(-1, 9)[:, [0, 1, 2, 4, 5, 8]].tobytes() == \
        bcsr.packed.tobytes()
    assert not np.shares_memory(blocks, bcsr.packed)
    again = BlockCSR(6, bcsr.indptr, bcsr.indices, blocks)
    assert again.packed.tobytes() == bcsr.packed.tobytes()


def test_real_space_memory_is_the_packed_storage():
    # 6 doubles per block, its int64 column index and the row pointer,
    # before and after a product (the SpMM index arrays alias them)
    from repro import make_suspension
    from repro.pme.realspace import RealSpaceOperator

    susp = make_suspension(60, 0.2, seed=3)
    op = RealSpaceOperator(susp.positions, susp.box, xi=0.6, r_max=4.0)
    nnzb, n = op.nnz_blocks, op.n
    want = 48 * nnzb + 8 * nnzb + 8 * (n + 1)
    assert op.memory_bytes == want
    op.apply_block(np.ones((3 * n, 2)))
    assert op.memory_bytes == want
