"""Runtime-compiled native kernels for the PME hot path and its rebuild.

``scipy.sparse``'s CSR ``matmat`` walks the right-hand-side *columns*
one at a time (``csr_matvecs``), so it amortizes nothing across the
``s`` vectors of a block — exactly the cost the paper's Section IV.C
("SpMV on blocks of vectors", reference [24]) eliminates.  This module
compiles, at import-on-demand time, a small C library with the five
entry points the mobility pipeline, its rebuild and its reference
schedule need:

``bcsr_matmat_range``
    Multi-RHS BCSR SpMM: block rows ``[lo, hi)`` of ``Y = A X`` for an
    ``s``-lane ``X``, so an execution context can chunk the product
    over workers (any row partition is bit-identical to ``[0, n)``).
    The width is an operand, not a code path: one row body, at chunk
    widths 8, 4, 2 and 1, covers a row's lanes while its 3x3 blocks are
    in L1, and every width sums a lane in the same order — the 1-wide
    product *is* column ``j`` of any wider one (self-tested at load).
``spread_rows``
    The pipeline's spreader, a gather: rows ``[lo, hi)`` of ``P^T``
    (CSR by mesh row) into a batch-first ``(lanes, K^3)`` mesh.  Each
    mesh point has one writer and a fixed summation order, so any row
    partition is bit-identical and needs no colouring.
``spread_idx``
    Scatter-add of a particle subset onto a batch-first ``(lanes,
    K^3)`` mesh (Section IV.B.2; the reference schedule of
    :mod:`repro.parallel.engine`).  The subset is one mesh block of one
    color of the independent-set schedule: within a color, blocks
    write disjoint mesh points, so concurrent calls use *plain stores*
    — no atomics — exactly as the paper promises.
``interp_range``
    Gather (interpolation) of particle rows ``[lo, hi)`` from a
    batch-first mesh; pure reads plus disjoint writes, so row chunks
    parallelize trivially.
``bcsr_assemble``
    The body of :meth:`repro.sparse.bcsr.BlockCSR.from_pairs`: the
    symmetric BCSR matrix of a half pair list in any order, by a stable
    counting sort on the column then on the row — two linear passes, the
    72-byte payload written once (copied, or transposed for the mirror
    triangle).  No floating-point arithmetic, so the bytes are those of
    the ``lexsort`` fallback whatever the compiler flags.

Every entry point is called through ``ctypes``, which releases the GIL
for the duration of the C call — this is what makes the ``threads``
backend of :mod:`repro.exec` genuinely parallel on CPython.

The kernels are strictly optional: compilation requires a C compiler
(``cc``/``gcc``/``clang``) on ``PATH``, and every failure — no
compiler, sandboxed temp dir, exotic platform — degrades silently to
the pure SciPy/NumPy paths.  The ``no_ckernel`` knob of
:class:`repro.config.RuntimeConfig` (``REPRO_NO_CKERNEL=1``) disables
them explicitly (useful to benchmark the fallback or rule the kernels
out when debugging).  Compiled libraries are cached on disk keyed by a
hash of the source and compiler flags (directory overridable via the
``ckernel_cache`` knob), so the cost is one ``cc`` invocation per
machine, not per process.
"""

from __future__ import annotations

import collections
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.ctypeslib import ndpointer

from ..config import get_config
from ..errors import ConfigurationError

__all__ = [
    "spmm_kernel",
    "spread_ranges", "interp_ranges", "spread_rows", "bcsr_assemble",
    "kernel_available", "reset_kernel_cache", "SPMM_CHUNK",
]

#: Right-hand sides one pass of ``bcsr_matmat_range``'s row body covers
#: (the widest ``DEFINE_SPMM_ROW`` below): an ``s``-wide product walks
#: a row's blocks ``ceil(s / SPMM_CHUNK)`` times.  The cost model and
#: its calibration read the width from here.
SPMM_CHUNK = 8

_SOURCE = r"""
#include <stddef.h>
#include <string.h>

typedef double lanes1;
typedef double lanes2 __attribute__((vector_size(16)));
typedef double lanes4 __attribute__((vector_size(32)));
typedef double lanes8 __attribute__((vector_size(64)));

/* One block row of Y = A X against W adjacent lanes of the s-wide
 * operand (x, yr: the chunk's first lane; s: the lane stride), W lanes
 * to a SIMD value: gcc and clang split one wider than the machine's,
 * and `scalar * vector` splats.  A lane is one chain -- blocks in
 * stored order, then u, then v -- whatever W it rides in, and the
 * chain's latency is what bounds a chunk: 8 lanes cost what 1 does. */
#define DEFINE_SPMM_ROW(W)                                               \
static void bcsr_row_##W(const long long k0, const long long k1,         \
                         const long long *restrict indices,              \
                         const double *restrict blocks,                  \
                         const double *restrict x,                       \
                         double *restrict yr, const long long s)         \
{                                                                        \
    lanes##W acc[3], xv[3];                                              \
    memset(acc, 0, sizeof acc);                                          \
    for (long long k = k0; k < k1; ++k) {                                \
        const double *restrict b = blocks + 9 * (size_t)k;               \
        const double *restrict xc = x + (size_t)(3 * s) * indices[k];    \
        for (int v = 0; v < 3; ++v)                                      \
            memcpy(&xv[v], xc + s * v, sizeof xv[v]);                    \
        for (int u = 0; u < 3; ++u)                                      \
            for (int v = 0; v < 3; ++v)                                  \
                acc[u] += b[3 * u + v] * xv[v];                          \
    }                                                                    \
    for (int u = 0; u < 3; ++u)                                          \
        memcpy(yr + s * u, &acc[u], sizeof acc[u]);                      \
}

DEFINE_SPMM_ROW(8)
DEFINE_SPMM_ROW(4)
DEFINE_SPMM_ROW(2)
DEFINE_SPMM_ROW(1)

/* Block rows [lo, hi) of Y = A X, X and Y row-major (n, 3, s).  A row's
 * lanes are covered while its blocks are in L1, by s in binary: s / 8
 * chunks of 8, then the 4, 2 and 1 bits. */
#define SPMM_ROW(W, j) \
    bcsr_row_##W(k0, k1, indices, blocks, x + (j), yr + (j), s)
void bcsr_matmat_range(const long long lo, const long long hi,
                       const long long *indptr, const long long *indices,
                       const double *blocks, const double *x, double *y,
                       const long long s)
{
    for (long long r = lo; r < hi; ++r) {
        const long long k0 = indptr[r], k1 = indptr[r + 1];
        double *yr = y + (size_t)(3 * s) * r;
        for (long long j = 0; j + 8 <= s; j += 8) SPMM_ROW(8, j);
        if (s & 4) SPMM_ROW(4, s & ~7LL);
        if (s & 2) SPMM_ROW(2, s & ~3LL);
        if (s & 1) SPMM_ROW(1, s & ~1LL);
    }
}

/* Scatter-add a particle subset onto a batch-first (lanes, k3) mesh.
 * idx selects rows of the (n, pcube) weight/column tables; vals is the
 * (n, lanes) per-particle operand.  Accumulation order is (particle,
 * lane, element) with particles in idx order — matching the NumPy
 * fallback's np.add.at traversal, and identical for every partition of
 * a color into blocks because block footprints are disjoint. */
void spread_idx(const long long nidx, const long long *restrict idx,
                const double *restrict data, const long long *restrict cols,
                const long long pcube, const double *restrict vals,
                const long long lanes, double *restrict out,
                const long long k3)
{
    for (long long t = 0; t < nidx; ++t) {
        const long long i = idx[t];
        const double *restrict wi = data + (size_t)i * pcube;
        const long long *restrict ci = cols + (size_t)i * pcube;
        const double *restrict vi = vals + (size_t)i * lanes;
        for (long long b = 0; b < lanes; ++b) {
            const double v = vi[b];
            double *restrict ob = out + (size_t)b * k3;
            for (long long e = 0; e < pcube; ++e)
                ob[ci[e]] += wi[e] * v;
        }
    }
}

/* Gather (interpolate) particle rows [lo, hi) from a batch-first
 * (lanes, k3) mesh into a (lanes, n) output.  Row results are
 * independent, so any row partition is bit-identical.  INTERP_LANES
 * lanes per sweep over the particles: few enough that their mesh lanes
 * stay cache-resident, enough independent sums to hide the multiply-add
 * latency that a single chain is bound by. */
#define INTERP_LANES 4
#define MIN(a, b) ((a) < (b) ? (a) : (b))
void interp_range(const long long lo, const long long hi,
                  const double *restrict data, const long long *restrict cols,
                  const long long pcube, const double *restrict mesh,
                  const long long k3, const long long lanes,
                  const long long n, double *restrict out)
{
    for (long long b0 = 0; b0 < lanes; b0 += INTERP_LANES) {
        const long long nb = MIN(lanes - b0, INTERP_LANES);
        const double *restrict mb = mesh + (size_t)b0 * k3;
        for (long long i = lo; i < hi; ++i) {
            const double *restrict wi = data + (size_t)i * pcube;
            const long long *restrict ci = cols + (size_t)i * pcube;
            double acc[INTERP_LANES] = {0.0};
            for (long long e = 0; e < pcube; ++e)
                for (long long b = 0; b < nb; ++b)
                    acc[b] += wi[e] * mb[(size_t)b * k3 + ci[e]];
            for (long long b = 0; b < nb; ++b)
                out[(size_t)(b0 + b) * n + i] = acc[b];
        }
    }
}

/* Spread as a gather: rows [lo, hi) of P^T (CSR by mesh row; particle
 * ids ascending within a row) times vals (n, lanes), into a batch-first
 * (lanes, k3) mesh.  Every row of the range is written, empty ones as
 * zeros, by exactly one call and summed in stored order — so any row
 * partition is bit-identical and nothing needs colouring.  A tile of
 * rows is accumulated lane-contiguous in one pass over its nonzeros
 * (most rows are empty), then stored lane by lane (contiguous runs;
 * strided single stores lose), SPREAD_LANES lanes per sweep (96 store
 * streams at once measured 2x slower than 3 x 32). */
#define SPREAD_TILE 16
#define SPREAD_LANES 32
void spread_rows(const long long lo, const long long hi,
                 const long long *restrict indptr,
                 const long long *restrict indices,
                 const double *restrict data, const double *restrict vals,
                 const long long lanes, double *restrict out,
                 const long long k3)
{
    double acc[SPREAD_TILE * SPREAD_LANES];
    for (long long b0 = 0; b0 < lanes; b0 += SPREAD_LANES) {
        const long long nb = MIN(lanes - b0, SPREAD_LANES);
        for (long long r0 = lo; r0 < hi; r0 += SPREAD_TILE) {
            const long long nr = MIN(hi - r0, SPREAD_TILE);
            for (long long c = 0; c < nr * nb; ++c) acc[c] = 0.0;
            long long t = 0;        /* tile row of nonzero k */
            for (long long k = indptr[r0]; k < indptr[r0 + nr]; ++k) {
                while (k >= indptr[r0 + t + 1]) ++t;
                double *restrict a = acc + t * nb;
                const double w = data[k];
                const double *restrict v =
                    vals + (size_t)indices[k] * lanes + b0;
                for (long long b = 0; b < nb; ++b) a[b] += w * v[b];
            }
            for (long long b = 0; b < nb; ++b) {
                double *restrict ob = out + (size_t)(b0 + b) * k3 + r0;
                for (long long t = 0; t < nr; ++t) ob[t] = acc[t * nb + b];
            }
        }
    }
}

/* Symmetric BCSR assembly from a half pair list (any order, either
 * orientation).  Entry e of the virtual list is (pi[e], pj[e]) with
 * payload e for e < m, its mirror (pj[e-m], pi[e-m]) with the payload
 * transposed for e < 2m, and the diagonal block e - 2m after that.  A
 * stable counting sort by column then one by row (an LSD radix over two
 * keys of n buckets) leaves rows ascending and columns ascending within
 * a row — the order of lexsort((col, row)).  The pattern is symmetric,
 * so the row counts are the column counts: indptr serves both passes.
 * Integer work and copies only, so compiler flags cannot change a byte.
 * work holds n + 1 cursors followed by nnz entry ids. */
void bcsr_assemble(const long long n, const long long m,
                   const long long *restrict pi, const long long *restrict pj,
                   const double *restrict pair_blocks,
                   const long long ndiag, const double *restrict diag_blocks,
                   long long *restrict indptr, long long *restrict indices,
                   double *restrict blocks, long long *restrict work)
{
    const long long nnz = 2 * m + ndiag;
    long long *restrict cursor = work;
    long long *restrict bycol = work + n + 1;

    for (long long r = 0; r <= n; ++r) indptr[r] = 0;
    for (long long k = 0; k < m; ++k) { ++indptr[pi[k] + 1]; ++indptr[pj[k] + 1]; }
    for (long long r = 0; r < ndiag; ++r) ++indptr[r + 1];
    for (long long r = 0; r < n; ++r) indptr[r + 1] += indptr[r];

    for (long long r = 0; r < n; ++r) cursor[r] = indptr[r];
    for (long long k = 0; k < m; ++k) bycol[cursor[pj[k]]++] = k;
    for (long long k = 0; k < m; ++k) bycol[cursor[pi[k]]++] = m + k;
    for (long long r = 0; r < ndiag; ++r) bycol[cursor[r]++] = 2 * m + r;

    for (long long r = 0; r < n; ++r) cursor[r] = indptr[r];
    for (long long p = 0; p < nnz; ++p) {
        const long long e = bycol[p];
        const long long k = e < m ? e : e - m;      /* pair of entry e */
        long long row, col;
        const double *restrict src;
        if (e < m) { row = pi[k]; col = pj[k]; src = pair_blocks + 9 * (size_t)k; }
        else if (e < 2 * m) { row = pj[k]; col = pi[k]; src = pair_blocks + 9 * (size_t)k; }
        else { row = col = e - 2 * m; src = diag_blocks + 9 * (size_t)row; }
        const long long dst = cursor[row]++;
        double *restrict b = blocks + 9 * (size_t)dst;
        indices[dst] = col;
        if (e >= m && e < 2 * m)
            for (int u = 0; u < 3; ++u)
                for (int v = 0; v < 3; ++v) b[3 * u + v] = src[3 * v + u];
        else
            for (int c = 0; c < 9; ++c) b[c] = src[c];
    }
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]

#: Memoized load result: unset / a _Kernels bundle / None (unavailable).
_UNSET = object()
_kernels: object = _UNSET


#: The five loaded entry points of one compiled library.
_Kernels = collections.namedtuple("_Kernels",
                                  "spmm spread interp rows assemble")


def _cache_dir() -> Path:
    """Directory caching compiled kernels (``ckernel_cache`` knob)."""
    override = get_config().ckernel_cache
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-ckernels"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(compiler: str, flags: list[str], out: Path) -> bool:
    """Compile the kernel source to ``out``; True on success."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "repro_kernels.c"
        src.write_text(_SOURCE, encoding="utf-8")
        obj = Path(tmp) / out.name
        try:
            result = subprocess.run(
                [compiler, *flags, str(src), "-o", str(obj)],
                capture_output=True, timeout=120, check=False)
        except (OSError, subprocess.SubprocessError):
            return False
        if result.returncode != 0 or not obj.exists():
            return False
        out.parent.mkdir(parents=True, exist_ok=True)
        # atomic-ish publish so concurrent processes never load a
        # half-written library
        partial = out.with_suffix(f".{os.getpid()}.tmp")
        shutil.copy2(obj, partial)
        os.replace(partial, out)
        return True


def _load(path: Path) -> _Kernels | None:
    try:
        lib = ctypes.CDLL(str(path))
        spmm = lib.bcsr_matmat_range
        spread = lib.spread_idx
        interp = lib.interp_range
        rows = lib.spread_rows
        assemble = lib.bcsr_assemble
    except (OSError, AttributeError):
        return None
    i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    ll = ctypes.c_longlong
    spmm.argtypes = [ll, ll, i64, i64, f64, f64, f64, ll]
    spmm.restype = None
    spread.argtypes = [ll, i64, f64, i64, ll, f64, ll, f64, ll]
    spread.restype = None
    interp.argtypes = [ll, ll, f64, i64, ll, f64, ll, ll, ll, f64]
    interp.restype = None
    rows.argtypes = [ll, ll, i64, i64, f64, f64, ll, f64, ll]
    rows.restype = None
    assemble.argtypes = [ll, ll, i64, i64, f64, ll, f64, i64, i64, f64, i64]
    assemble.restype = None
    return _Kernels(spmm, spread, interp, rows, assemble)


def _selftest(kernels: _Kernels) -> bool:
    """Check every loaded entry point against tiny NumPy references."""
    rng = np.random.default_rng(7)

    # SpMM at a width of every chunk (8 + 4 + 2 + 1), over a split row
    # range: the dense product, each column the bytes of the 1-wide one
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([0, 1, 1], dtype=np.int64)
    blocks = np.ascontiguousarray(rng.standard_normal((3, 3, 3)))
    x = np.ascontiguousarray(rng.standard_normal((2, 3, 15)))
    y = np.empty_like(x)
    kernels.spmm(0, 1, indptr, indices, blocks, x, y, 15)
    kernels.spmm(1, 2, indptr, indices, blocks, x, y, 15)
    dense = np.zeros((6, 6))
    dense[0:3, 0:3] = blocks[0]
    dense[0:3, 3:6] = blocks[1]
    dense[3:6, 3:6] = blocks[2]
    ref = (dense @ x.reshape(6, 15)).reshape(2, 3, 15)
    if not np.allclose(y, ref, rtol=1e-12, atol=1e-12):
        return False
    for j in range(15):
        xj, yj = np.ascontiguousarray(x[:, :, j:j + 1]), np.empty((2, 3, 1))
        kernels.spmm(0, 2, indptr, indices, blocks, xj, yj, 1)
        if yj.tobytes() != y[:, :, j:j + 1].tobytes():
            return False

    # spread: scatter-add must match np.add.at exactly
    n, pcube, k3, lanes = 3, 4, 8, 2
    data = np.ascontiguousarray(rng.standard_normal((n, pcube)))
    cols = np.ascontiguousarray(
        rng.integers(0, k3, size=(n, pcube)), dtype=np.int64)
    vals = np.ascontiguousarray(rng.standard_normal((n, lanes)))
    out = np.zeros((lanes, k3))
    idx = np.arange(n, dtype=np.int64)
    kernels.spread(n, idx, data, cols, pcube, vals, lanes, out, k3)
    expect = np.zeros((k3, lanes))
    np.add.at(expect, cols.ravel(),
              (data[:, :, None] * vals[:, None, :]).reshape(-1, lanes))
    if not np.allclose(out, expect.T, rtol=1e-12, atol=1e-12):
        return False

    # interpolate: gather must match the einsum reference
    mesh = np.ascontiguousarray(rng.standard_normal((lanes, k3)))
    got = np.zeros((lanes, n))
    kernels.interp(0, n, data, cols, pcube, mesh, k3, lanes, n, got)
    want = np.einsum("ie,bie->bi", data, mesh[:, cols])
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        return False

    # spread as a gather: P^T rows (one empty) overwrite a NaN mesh, and
    # a split range gives the same bytes as the full one
    ptr = np.array([0, 2, 2, 5, 6], dtype=np.int64)
    ids = np.array([0, 2, 0, 1, 2, 1], dtype=np.int64)
    w = np.ascontiguousarray(rng.standard_normal(6))
    full, split = np.full((2, lanes, 4), np.nan)
    kernels.rows(0, 4, ptr, ids, w, vals, lanes, full, 4)
    kernels.rows(0, 1, ptr, ids, w, vals, lanes, split, 4)
    kernels.rows(1, 4, ptr, ids, w, vals, lanes, split, 4)
    want = (sp.csr_matrix((w, ids, ptr), shape=(4, n)) @ vals).T
    if not (np.array_equal(full, split)
            and np.allclose(full, want, rtol=1e-12, atol=1e-12)):
        return False

    # assembly: a shuffled, mixed-orientation half pair list with an
    # isolated row (3) gives the bytes of the lexsort reference
    pi = np.array([4, 0, 2, 1, 0], dtype=np.int64)
    pj = np.array([2, 1, 0, 4, 4], dtype=np.int64)
    pair_blocks = rng.standard_normal((5, 3, 3))
    for diag in (rng.standard_normal((5, 3, 3)), None):
        got = _assemble_compiled(kernels.assemble, 5, pi, pj, pair_blocks,
                                 diag)
        want = _assemble_lexsort(5, pi, pj, pair_blocks, diag)
        if not all(g.tobytes() == w.tobytes() for g, w in zip(got, want)):
            return False
    return True


def _bundle() -> _Kernels | None:
    """Compile/load/memoize the kernel library (None when unavailable)."""
    global _kernels
    if _kernels is not _UNSET:
        return None if _kernels is None else _kernels  # type: ignore[return-value]
    if get_config().no_ckernel:
        _kernels = None
        return None
    compiler = _compiler()
    if compiler is None:
        _kernels = None
        return None
    for flags in ([*_BASE_FLAGS, "-march=native"], _BASE_FLAGS):
        tag = hashlib.sha256(
            (_SOURCE + compiler + " ".join(flags)).encode()).hexdigest()[:16]
        lib_path = _cache_dir() / f"repro-kernels-{tag}.so"
        if not lib_path.exists() and not _compile(compiler, flags, lib_path):
            continue
        kernels = _load(lib_path)
        if kernels is not None and _selftest(kernels):
            _kernels = kernels
            return kernels
    _kernels = None
    return None


def reset_kernel_cache() -> None:
    """Forget the memoized load result (test helper).

    The bundle is memoized for the process lifetime, so flipping
    ``REPRO_NO_CKERNEL`` at runtime has no effect until this is called;
    the backend-equivalence tests use it to exercise both paths in one
    process.  The on-disk compilation cache is untouched.
    """
    global _kernels
    _kernels = _UNSET


def spmm_kernel() -> object | None:
    """The compiled SpMM entry point, or ``None`` when unavailable.

    The returned callable has the C signature ``bcsr_matmat_range(lo,
    hi, indptr, indices, blocks, x, y, s)`` — block rows ``[lo, hi)``
    only — with ``x``/``y`` row-major ``(nb, 3, s)`` float64 arrays.
    The result is memoized for the process lifetime.
    """
    return getattr(_bundle(), "spmm", None)


def spread_ranges(weights: np.ndarray, columns: np.ndarray, idx: np.ndarray,
                  values: np.ndarray, out: np.ndarray,
                  ranges: list[tuple[int, int]]) -> None:
    """Scatter-add particles ``idx[lo:hi]`` of every range onto the
    batch-first mesh ``out (lanes, K^3)``: the compiled kernel, or an
    ``np.add.at`` pass with the same accumulation order."""
    kern = getattr(_bundle(), "spread", None)
    pcube, lanes, k3 = weights.shape[1], values.shape[1], out.shape[1]
    for lo, hi in ranges:
        if hi <= lo:
            continue
        if kern is not None:
            kern(hi - lo, idx[lo:hi], weights, columns, pcube, values,
                 lanes, out, k3)
        else:
            sub = idx[lo:hi]
            contrib = weights[sub][:, :, None] * values[sub][:, None, :]
            np.add.at(out.T, columns[sub].ravel(),
                      contrib.reshape(-1, lanes))


def interp_ranges(weights: np.ndarray, columns: np.ndarray, mesh: np.ndarray,
                  out: np.ndarray, ranges: list[tuple[int, int]]) -> None:
    """Gather particle rows ``[lo, hi)`` of every range from the
    batch-first ``mesh (lanes, K^3)`` into ``out (lanes, n)``: the
    compiled kernel, or the same rows of ``P`` through one SciPy SpMV
    per (already contiguous) lane."""
    kern = getattr(_bundle(), "interp", None)
    pcube, (lanes, k3), n = weights.shape[1], mesh.shape, out.shape[1]
    for lo, hi in ranges:
        if hi <= lo:
            continue
        if kern is not None:
            kern(lo, hi, weights, columns, pcube, mesh, k3, lanes, n, out)
            continue
        rows = sp.csr_matrix(
            (weights[lo:hi].ravel(), columns[lo:hi].ravel(),
             np.arange(0, (hi - lo) * pcube + 1, pcube)), shape=(hi - lo, k3))
        for b in range(lanes):
            out[b, lo:hi] = rows @ mesh[b]


def spread_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                values: np.ndarray, out: np.ndarray,
                ranges: list[tuple[int, int]]) -> None:
    """Rows ``[lo, hi)`` of ``P^T`` (int64 CSR by mesh row) times
    ``values (n, lanes)`` into the batch-first mesh ``out (lanes, K^3)``,
    every row written: the compiled gather, or the same rows through
    SciPy's CSR product, a cache-sized run at a time so that the
    lane-last ``(K^3, lanes)`` mesh never exists."""
    kern = getattr(_bundle(), "rows", None)
    (n, lanes), k3 = values.shape, out.shape[1]
    for lo, hi in ranges:
        if kern is not None:
            kern(lo, hi, indptr, indices, data, values, lanes, out, k3)
            continue
        for a in range(lo, hi, 16384):
            b = min(a + 16384, hi)
            k0, k1 = indptr[a], indptr[b]
            rows = sp.csr_matrix((data[k0:k1], indices[k0:k1],
                                  indptr[a:b + 1] - k0), shape=(b - a, n))
            out[:, a:b] = (rows @ values).T


def _assemble_lexsort(n: int, i: np.ndarray, j: np.ndarray,
                      pair_blocks: np.ndarray, diag_blocks: np.ndarray | None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference assembly: concatenate both triangles (and the diagonal),
    ``lexsort`` by (row, column), gather the payload."""
    rows = [i, j]
    cols = [j, i]
    payload = [pair_blocks, pair_blocks.transpose(0, 2, 1)]
    if diag_blocks is not None:
        rng = np.arange(n, dtype=np.int64)
        rows.append(rng)
        cols.append(rng)
        payload.append(diag_blocks)
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    order = np.lexsort((col, row))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, col[order], np.concatenate(payload, axis=0)[order]


def _assemble_compiled(kern, n: int, i: np.ndarray, j: np.ndarray,
                       pair_blocks: np.ndarray, diag_blocks: np.ndarray | None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One call of the C assembly into freshly allocated outputs."""
    ndiag = 0 if diag_blocks is None else n
    nnz = 2 * i.size + ndiag
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int64)
    blocks = np.empty((nnz, 3, 3))
    work = np.empty(n + 1 + nnz, dtype=np.int64)
    kern(n, i.size, i, j, pair_blocks, ndiag,
         pair_blocks if diag_blocks is None else diag_blocks,
         indptr, indices, blocks, work)
    return indptr, indices, blocks


def bcsr_assemble(n: int, i: np.ndarray, j: np.ndarray,
                  pair_blocks: np.ndarray,
                  diag_blocks: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, blocks)`` of the symmetric BCSR matrix with
    ``pair_blocks[k]`` at ``(i[k], j[k])``, its transpose at ``(j[k],
    i[k])`` and ``diag_blocks`` on the diagonal: rows ascending, columns
    ascending within a row.

    The half pair list may come in any order and either orientation
    (each unordered pair once, ``i != j``).  The compiled kernel is two
    counting-sort passes that write the payload once; the fallback is
    the ``lexsort`` reference — the same bytes, since the kernel only
    moves integers and copies blocks.  Shapes, ``i != j`` and the index
    range are checked here, before any pointer reaches C.
    """
    i = np.ascontiguousarray(i, dtype=np.int64)
    j = np.ascontiguousarray(j, dtype=np.int64)
    pair_blocks = np.ascontiguousarray(pair_blocks, dtype=np.float64)
    if (i.ndim != 1 or i.shape != j.shape
            or pair_blocks.shape != (i.size, 3, 3)):
        raise ConfigurationError(
            "pair arrays must have matching shapes (m,), (m,), (m, 3, 3)")
    if np.any(i == j):
        raise ConfigurationError(
            "from_pairs expects off-diagonal pairs only; "
            "pass diagonal blocks via diag_blocks")
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ConfigurationError(
            f"pair index out of range for {n} block rows")
    if diag_blocks is not None:
        diag_blocks = np.ascontiguousarray(diag_blocks, dtype=np.float64)
        if diag_blocks.shape != (n, 3, 3):
            raise ConfigurationError(
                f"diag_blocks must have shape ({n}, 3, 3), "
                f"got {diag_blocks.shape}")
    kern = getattr(_bundle(), "assemble", None)
    if kern is None:
        return _assemble_lexsort(n, i, j, pair_blocks, diag_blocks)
    return _assemble_compiled(kern, n, i, j, pair_blocks, diag_blocks)


def kernel_available() -> bool:
    """True when the native kernels compiled and passed self-test."""
    return _bundle() is not None
