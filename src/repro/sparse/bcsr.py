"""Block Compressed Sparse Row (BCSR) matrices with 3x3 blocks.

The RPY real-space operator couples particles through 3x3 tensors, so
its natural sparse format is CSR over *block* rows and columns with a
dense 3x3 payload per stored block (paper Section IV.C).  Key
operations:

* construction from a half pair list in any order (symmetric fill-in
  of both triangles; one compiled linear pass,
  :func:`repro.sparse.kernels.bcsr_assemble`),
* the product (:meth:`BlockCSR.matmat`, also behind ``@``): ``Y = A X``
  for a block ``X`` of any width ``s`` — the kernel the block Krylov
  method relies on (paper reference [24]) — through the native kernel of
  :mod:`repro.sparse.kernels` when a C compiler is available (SciPy CSR
  otherwise).  Column ``j`` is, bytewise, the product of column ``j`` alone,
* its NumPy reference (:meth:`BlockCSR.matvec`), kept by name for the
  tests and the SpMV ablation,
* export to ``scipy.sparse`` CSR for a compiled backend,
* densification and memory accounting for the Fig. 7 comparisons.

Operands are normalized **once** at entry (dtype checked, a single
explicit C-contiguity conversion when the input is Fortran-ordered or
strided) — there are no repeated silent copies inside the product
loops.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigurationError
from ..exec import INLINE
from ..lint.contracts import force_block_arg
from .kernels import bcsr_assemble, spmm_kernel

__all__ = ["BlockCSR"]


class BlockCSR:
    """A square ``(3n, 3n)`` sparse matrix of dense 3x3 blocks.

    Parameters
    ----------
    n_block_rows:
        Number of block rows/columns ``n`` (the matrix is ``3n x 3n``).
    indptr:
        Block-row pointer array, shape ``(n + 1,)``.
    indices:
        Block-column indices, shape ``(nnzb,)``; **must** be sorted
        within each row (construction helpers guarantee this).
    blocks:
        Dense payloads, shape ``(nnzb, 3, 3)``.
    """

    def __init__(self, n_block_rows: int, indptr: np.ndarray,
                 indices: np.ndarray, blocks: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        blocks = np.ascontiguousarray(blocks, dtype=np.float64)
        if indptr.shape != (n_block_rows + 1,):
            raise ConfigurationError(
                f"indptr must have shape ({n_block_rows + 1},), got {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ConfigurationError("indptr is inconsistent with indices")
        if np.any(np.diff(indptr) < 0):
            raise ConfigurationError("indptr must be non-decreasing")
        if blocks.shape != (indices.shape[0], 3, 3):
            raise ConfigurationError(
                f"blocks must have shape (nnzb, 3, 3), got {blocks.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= n_block_rows):
            raise ConfigurationError("block column index out of range")
        self.n_block_rows = int(n_block_rows)
        self.indptr = indptr
        self.indices = indices
        self.blocks = blocks
        # SpMM-path caches, materialized on first matmat call: int64
        # index views/copies for the native kernel and a scalar CSR
        # export for the SciPy fallback.
        self._indptr64: np.ndarray | None = None
        self._indices64: np.ndarray | None = None
        self._csr: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray,
                   pair_blocks: np.ndarray,
                   diag_blocks: np.ndarray | None = None) -> "BlockCSR":
        """Build a symmetric BCSR matrix from a half pair list.

        Parameters
        ----------
        n:
            Number of particles (block rows).
        i, j:
            Pair indices with ``i != j``, in any order and either
            orientation (each unordered pair listed once; both
            triangles are filled automatically).
        pair_blocks:
            3x3 tensor for each pair, shape ``(m, 3, 3)``.  The block
            stored at ``(j, i)`` is the transpose of the one at
            ``(i, j)`` (the RPY tensor is symmetric, but transposition
            is applied regardless so general symmetric operators work).
        diag_blocks:
            Optional diagonal 3x3 blocks, shape ``(n, 3, 3)``; omitted
            diagonals are zero.

        Rows come out ascending with columns ascending within a row,
        whatever the input order, from
        :func:`repro.sparse.kernels.bcsr_assemble` (compiled counting
        sort, or its ``lexsort`` fallback — the same bytes).
        """
        return cls(n, *bcsr_assemble(n, i, j, pair_blocks, diag_blocks))

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------

    def _normalized(self, x: np.ndarray) -> np.ndarray:
        """Normalize an operand once: float64 dtype, C-contiguous.

        Returns the input unchanged (no copy) when it already is a
        C-contiguous float64 array; otherwise performs **one** explicit
        conversion here rather than repeated silent copies inside the
        product loops.  Non-real dtypes are rejected.
        """
        x = np.asarray(x)
        if x.dtype != np.float64:
            if not (np.issubdtype(x.dtype, np.floating)
                    or np.issubdtype(x.dtype, np.integer)):
                raise ConfigurationError(
                    f"operand dtype must be real, got {x.dtype}")
            x = x.astype(np.float64)
        if x.shape[0] != 3 * self.n_block_rows:
            raise ConfigurationError(
                f"operand must have 3n = {3 * self.n_block_rows} rows, "
                f"got {x.shape[0]}")
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        return x

    @force_block_arg("x")
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """NumPy reference product ``y = A x`` for ``x`` of shape ``(3n,)``
        or ``(3n, s)``: one gather / 3x3-matmul / segmented-sum pass over
        the blocks.  No operator path uses it (see :meth:`matmat`).
        """
        n = self.n_block_rows
        x = self._normalized(x)
        flat = x.ndim == 1
        if flat:
            x = x[:, None]
        s = x.shape[1]
        xg = x.reshape(n, 3, s)
        y = np.zeros((n, 3, s))
        if self.indices.size:
            # one fused gather / 3x3-matmul / segmented-sum pass
            contrib = np.einsum("euv,evs->eus", self.blocks, xg[self.indices],
                                optimize=True)
            nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
            if nonempty.size:
                sums = np.add.reduceat(contrib, self.indptr[nonempty], axis=0)
                y[nonempty] = sums
        out = y.reshape(3 * n, s)
        return out[:, 0] if flat else out

    def _spmm_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Int64 index arrays for the native kernel (cached; on LP64
        platforms these are the stored ``intp`` arrays, not copies)."""
        if self._indptr64 is None:
            self._indptr64 = np.ascontiguousarray(self.indptr,
                                                  dtype=np.int64)
            self._indices64 = np.ascontiguousarray(self.indices,
                                                   dtype=np.int64)
        return self._indptr64, self._indices64

    @force_block_arg("x")
    def matmat(self, x: np.ndarray,
               context: "object | None" = None) -> np.ndarray:
        """Multi-RHS product ``Y = A X`` with ``X`` of shape ``(3n, s)``.

        The paper's Section IV.C "SpMV on blocks of vectors": unlike
        SciPy's CSR ``matmat``, which loops the RHS columns one by one,
        the native kernel of :mod:`repro.sparse.kernels` multiplies a
        row's 3x3 blocks against the ``s`` lanes in chunks of 8, 4, 2
        and 1 while the row is in L1.  Every chunk width sums a lane in
        the same order, so a column's bytes do not depend on ``s`` or on
        its position in the block.  Without a C compiler the SciPy CSR
        export is used instead (column by column, so the same holds).

        With a parallel :class:`~repro.exec.ExecutionContext` the native
        kernel runs contiguous block-row ranges on the context's workers;
        row results are independent, so every partition is bit-identical.
        """
        n = self.n_block_rows
        x = self._normalized(x)
        if x.ndim != 2:
            raise ConfigurationError(
                f"matmat expects a 2-D (3n, s) block, got shape {x.shape}")
        s = x.shape[1]
        kernel = spmm_kernel()
        if kernel is None:
            if self._csr is None:
                self._csr = self.to_scipy()
            return np.asarray(self._csr @ x)
        indptr64, indices64 = self._spmm_arrays()
        xg = x.reshape(n, 3, s)
        y = np.empty((n, 3, s))
        (context or INLINE).run_ranges(
            lambda lo, hi: kernel(lo, hi, indptr64, indices64, self.blocks,
                                  xg, y, s),
            n, "real_spmm")
        return y.reshape(3 * n, s)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` is :meth:`matmat`; a flat ``x`` is its one column."""
        x = np.asarray(x)
        return self.matmat(x[:, None])[:, 0] if x.ndim == 1 else self.matmat(x)

    # ------------------------------------------------------------------
    # conversions and accounting
    # ------------------------------------------------------------------

    def to_scipy(self) -> sp.csr_matrix:
        """Export as a scalar ``scipy.sparse.csr_matrix`` (compiled SpMV)."""
        n = self.n_block_rows
        return sp.bsr_matrix(
            (self.blocks, self.indices, self.indptr),
            shape=(3 * n, 3 * n)).tocsr()

    def to_dense(self) -> np.ndarray:
        """Densify (small matrices / tests only)."""
        n = self.n_block_rows
        out = np.zeros((3 * n, 3 * n))
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        for e in range(self.indices.size):
            r, c = rows[e], self.indices[e]
            out[3 * r:3 * r + 3, 3 * c:3 * c + 3] += self.blocks[e]
        return out

    @property
    def nnz_blocks(self) -> int:
        """Number of stored 3x3 blocks."""
        return int(self.indices.size)

    @property
    def memory_bytes(self) -> int:
        """Bytes held by payload and index arrays (Fig. 7a accounting).

        Counts, once the SpMM path has materialized them, the kernel's
        int64 index arrays (zero extra on LP64 platforms, where they
        alias the stored ``intp`` arrays) — index overhead is real
        memory and is reported as such.
        """
        total = self.blocks.nbytes + self.indices.nbytes + self.indptr.nbytes
        for extra, base in ((self._indptr64, self.indptr),
                            (self._indices64, self.indices)):
            if extra is not None and extra is not base and extra.base is not base:
                total += extra.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockCSR(n={self.n_block_rows}, nnz_blocks={self.nnz_blocks}, "
                f"{self.memory_bytes / 1e6:.1f} MB)")
