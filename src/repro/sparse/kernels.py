"""Runtime-compiled native kernels for the PME hot path and its rebuild.

``scipy.sparse``'s CSR ``matmat`` walks the right-hand-side *columns*
one at a time (``csr_matvecs``), so it amortizes nothing across the
``s`` vectors of a block — exactly the cost the paper's Section IV.C
("SpMV on blocks of vectors", reference [24]) eliminates.  This module
compiles, at import-on-demand time, a small C library with the seven
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
``min_image_pairs``
    The body of :meth:`repro.geometry.box.Box.distances` and of the
    strict ``< cutoff`` filter of the pair search
    (:func:`pair_separations`, :func:`pairs_within`): minimum-image
    separations of index pairs, optionally compacted to those inside a
    cutoff, in NumPy's operations and order — the same bytes.
``bcsr_assemble_dyads``
    ``bcsr_assemble`` with the real-space tensor fill fused in: block
    ``f I + g rhat rhat^T`` of every pair computed in the slot the
    counting sort assigns it, the self term on the diagonal; what
    :class:`repro.pme.realspace.RealSpaceOperator` is built by.

The last two do floating-point arithmetic whose bytes are pinned to
NumPy's, so they are compiled with multiply-add contraction switched
off *for those functions* (a pragma in the source; the flags, hence the
bytes of the kernels above, are untouched) and a compiler that fuses
anyway fails the load-time self-test and loses the kernels.

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
from ..utils.pbc import minimum_image

__all__ = [
    "spmm_kernel",
    "spread_ranges", "interp_ranges", "spread_rows", "bcsr_assemble",
    "bcsr_assemble_dyads", "pair_separations", "pairs_within",
    "kernel_available", "reset_kernel_cache", "SPMM_CHUNK",
]

#: Right-hand sides one pass of ``bcsr_matmat_range``'s row body covers
#: (the widest ``DEFINE_SPMM_ROW`` below): an ``s``-wide product walks
#: a row's blocks ``ceil(s / SPMM_CHUNK)`` times.  The cost model and
#: its calibration read the width from here.
SPMM_CHUNK = 8

_SOURCE = r"""
#include <math.h>
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

/* Symmetric BCSR pattern of a half pair list (any order, either
 * orientation).  Entry e of the virtual list is (pi[e], pj[e]) for
 * e < m, its mirror (pj[e-m], pi[e-m]) for e < 2m, and the diagonal
 * block e - 2m after that.  A stable counting sort by column then one
 * by row (an LSD radix over two keys of n buckets) leaves rows ascending
 * and columns ascending within a row — the order of lexsort((col, row)).
 * The pattern is symmetric, so the row counts are the column counts:
 * indptr serves both passes.  work holds n + 1 cursors followed by nnz
 * entry ids; on return the ids are in column order and the cursors are
 * reset to the row starts, so the caller's pass over the ids (row pass:
 * dst = cursor[row]++) places each entry.  Integer work only. */
static void bcsr_sort_by_column(const long long n, const long long m,
                                const long long *restrict pi,
                                const long long *restrict pj,
                                const long long ndiag,
                                long long *restrict indptr,
                                long long *restrict work)
{
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
}

/* Symmetric BCSR assembly of general payloads: pair_blocks[k] at
 * (pi[k], pj[k]), its transpose at the mirror, diag_blocks on the
 * diagonal, each 72-byte block written once.  Integer work and copies
 * only, so compiler flags cannot change a byte. */
void bcsr_assemble(const long long n, const long long m,
                   const long long *restrict pi, const long long *restrict pj,
                   const double *restrict pair_blocks,
                   const long long ndiag, const double *restrict diag_blocks,
                   long long *restrict indptr, long long *restrict indices,
                   double *restrict blocks, long long *restrict work)
{
    const long long nnz = 2 * m + ndiag;
    long long *restrict cursor = work;
    const long long *restrict bycol = work + n + 1;

    bcsr_sort_by_column(n, m, pi, pj, ndiag, indptr, work);
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

/* ---- Floating-point entry points whose bytes are NumPy's -------------
 * The two functions below reproduce NumPy expressions operation for
 * operation, so from here to the end of the file a product and a sum
 * stay two roundings: contraction into a fused multiply-add is switched
 * off for these functions only (the flags, and with them the kernels
 * above, are untouched).  Nothing else can reassociate without
 * -ffast-math; the load-time self-test compares bytes, so a compiler
 * that ignores the pragma loses the kernels, not the invariant. */
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize ("fp-contract=off")
#endif

/* Minimum-image separations of m index pairs of an (n, 3) position
 * array, in Box.distances' arithmetic: per component d - L * rint(d / L)
 * (np.round rounds half to even, as rint does in the default mode), then
 * sqrt((x^2 + y^2) + z^2) (np.linalg.norm: add.reduce over three).
 * With strict != 0 only pairs with dist < cutoff are kept, compacted in
 * input order with their indices in (ki, kj).  Returns the number of
 * pairs written, or -1 — before dereferencing it — on an index outside
 * [0, n). */
long long min_image_pairs(const long long n, const long long m,
                          const long long *restrict pi,
                          const long long *restrict pj,
                          const double *restrict pos, const double L,
                          const int strict, const double cutoff,
                          long long *restrict ki, long long *restrict kj,
                          double *restrict rij, double *restrict dist)
{
    long long kept = 0;
    for (long long k = 0; k < m; ++k) {
        const long long a = pi[k], b = pj[k];
        if (a < 0 || a >= n || b < 0 || b >= n) return -1;
        double d[3];
        for (int c = 0; c < 3; ++c) {
            const double dr = pos[3 * a + c] - pos[3 * b + c];
            d[c] = dr - L * rint(dr / L);
        }
        const double r = sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]);
        if (strict) {
            if (!(r < cutoff)) continue;
            ki[kept] = a;
            kj[kept] = b;
        }
        for (int c = 0; c < 3; ++c) rij[3 * kept + c] = d[c];
        dist[kept++] = r;
    }
    return kept;
}

/* The 3x3 block c I + g h h^T, as NumPy evaluates
 * c * eye(3) + g * (h[:, None] * h[None, :]): c * 0.0 is kept (its sign
 * decides the sign of a zero entry). */
static inline void dyad_block(double *restrict b, const double c,
                              const double g, const double *restrict h)
{
    for (int u = 0; u < 3; ++u)
        for (int v = 0; v < 3; ++v)
            b[3 * u + v] = c * (u == v ? 1.0 : 0.0) + g * (h[u] * h[v]);
}

/* Symmetric BCSR assembly with the tensor fill fused in: pair k stores
 * f[k] I + g[k] rhat rhat^T, rhat = rij[k] / dist[k], at (pi[k], pj[k])
 * and at the mirror (the block is bytewise symmetric: rhat_u * rhat_v
 * commutes), and every diagonal block is self_scalar I.  Each block is
 * computed where it is stored; no (m, 3, 3) payload exists. */
void bcsr_assemble_dyads(const long long n, const long long m,
                         const long long *restrict pi,
                         const long long *restrict pj,
                         const double *restrict f, const double *restrict g,
                         const double *restrict rij,
                         const double *restrict dist,
                         const double self_scalar,
                         long long *restrict indptr,
                         long long *restrict indices,
                         double *restrict blocks, long long *restrict work)
{
    const long long nnz = 2 * m + n;
    long long *restrict cursor = work;
    const long long *restrict bycol = work + n + 1;

    bcsr_sort_by_column(n, m, pi, pj, n, indptr, work);
    for (long long p = 0; p < nnz; ++p) {
        const long long e = bycol[p];
        const long long k = e < m ? e : e - m;
        long long row, col;
        if (e < m) { row = pi[k]; col = pj[k]; }
        else if (e < 2 * m) { row = pj[k]; col = pi[k]; }
        else { row = col = e - 2 * m; }
        const long long dst = cursor[row]++;
        double *restrict b = blocks + 9 * (size_t)dst;
        indices[dst] = col;
        if (e < 2 * m) {
            const double *restrict d = rij + 3 * (size_t)k;
            const double h[3] = {d[0] / dist[k], d[1] / dist[k],
                                 d[2] / dist[k]};
            dyad_block(b, f[k], g[k], h);
        } else {        /* self_scalar * eye(3): no dyad term to add */
            for (int u = 0; u < 3; ++u)
                for (int v = 0; v < 3; ++v)
                    b[3 * u + v] = self_scalar * (u == v ? 1.0 : 0.0);
        }
    }
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]

#: Memoized load result: unset / a _Kernels bundle / None (unavailable).
_UNSET = object()
_kernels: object = _UNSET


#: The seven loaded entry points of one compiled library.
_Kernels = collections.namedtuple(
    "_Kernels", "spmm spread interp rows assemble min_image dyads")


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
                [compiler, *flags, str(src), "-o", str(obj), "-lm"],
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
        min_image = lib.min_image_pairs
        dyads = lib.bcsr_assemble_dyads
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
    min_image.argtypes = [ll, ll, i64, i64, f64, ctypes.c_double,
                          ctypes.c_int, ctypes.c_double, i64, i64, f64, f64]
    min_image.restype = ll
    dyads.argtypes = [ll, ll, i64, i64, f64, f64, f64, f64, ctypes.c_double,
                      i64, i64, f64, i64]
    dyads.restype = None
    return _Kernels(spmm, spread, interp, rows, assemble, min_image, dyads)


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

    # separations, strict filter and fused tensor fill against the NumPy
    # bytes, on enough pairs that a contracted multiply-add cannot hide:
    # 40 particles up to five boxes away (L * round(d / L) is inexact),
    # every pair of them, the first an axis-aligned overlapping one
    # (zero components of rhat); the Oseen self term is negative, so are
    # its zeros
    from ..rpy import beenakker
    length, cutoff = 9.0, 4.4
    pos = rng.uniform(0.0, length, (40, 3))
    pos[1] = pos[0] + [0.0, 1.5, 0.0]
    pos += length * rng.integers(-5, 6, (40, 3))
    pi, pj = (np.ascontiguousarray(a, dtype=np.int64)
              for a in np.triu_indices(40, 1))
    rij, dist = _separations_numpy(pos, pi, pj, length)
    sel = dist < cutoff
    want = (pi[sel], pj[sel], rij[sel], dist[sel])
    got = _separations_compiled(kernels.min_image, pos, pi, pj, length,
                                cutoff)
    full = _separations_compiled(kernels.min_image, pos, pi, pj, length, None)
    if (got is None or full is None
            or not all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            or full[2].tobytes() != rij.tobytes()
            or full[3].tobytes() != dist.tobytes()
            or _separations_compiled(kernels.min_image, pos, pi, pj + 1,
                                     length, None) is not None):
        return False
    pi, pj, rij, dist = got
    for kernel, xi in (("rpy", 0.45), ("oseen", 0.6)):
        f, g = beenakker.pair_coefficients(dist, xi, kernel=kernel)
        scalar = beenakker.self_mobility_scalar(xi, kernel=kernel)
        got = _assemble_dyads_compiled(kernels.dyads, 40, pi, pj, f, g, rij,
                                       dist, scalar)
        want = _assemble_lexsort(
            40, pi, pj, beenakker.real_space_tensors(rij, xi, kernel=kernel),
            np.broadcast_to(scalar * np.eye(3), (40, 3, 3)))
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


def _assembly_buffers(n: int, nnz: int) -> tuple[np.ndarray, ...]:
    """Uninitialised ``(indptr, indices, blocks, work)`` of a C assembly
    of ``nnz`` blocks in ``n`` rows."""
    return (np.empty(n + 1, dtype=np.int64), np.empty(nnz, dtype=np.int64),
            np.empty((nnz, 3, 3)), np.empty(n + 1 + nnz, dtype=np.int64))


def _assemble_compiled(kern, n: int, i: np.ndarray, j: np.ndarray,
                       pair_blocks: np.ndarray, diag_blocks: np.ndarray | None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One call of the C assembly into freshly allocated outputs."""
    ndiag = 0 if diag_blocks is None else n
    indptr, indices, blocks, work = _assembly_buffers(n, 2 * i.size + ndiag)
    kern(n, i.size, i, j, pair_blocks, ndiag,
         pair_blocks if diag_blocks is None else diag_blocks,
         indptr, indices, blocks, work)
    return indptr, indices, blocks


def _pair_indices(n: int, i: np.ndarray, j: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The half pair list as C-contiguous int64 ``(m,)`` arrays, checked —
    before any pointer reaches C — to be off-diagonal and inside
    ``[0, n)``."""
    i = np.ascontiguousarray(i, dtype=np.int64)
    j = np.ascontiguousarray(j, dtype=np.int64)
    if i.ndim != 1 or i.shape != j.shape:
        raise ConfigurationError("pair index arrays must both have shape (m,)")
    if np.any(i == j):
        raise ConfigurationError(
            "from_pairs expects off-diagonal pairs only; "
            "pass diagonal blocks via diag_blocks")
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ConfigurationError(
            f"pair index out of range for {n} block rows")
    return i, j


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
    i, j = _pair_indices(n, i, j)
    pair_blocks = np.ascontiguousarray(pair_blocks, dtype=np.float64)
    if pair_blocks.shape != (i.size, 3, 3):
        raise ConfigurationError(
            "pair arrays must have matching shapes (m,), (m,), (m, 3, 3)")
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


def _assemble_dyads_compiled(kern, n: int, i: np.ndarray, j: np.ndarray,
                             f: np.ndarray, g: np.ndarray, rij: np.ndarray,
                             dist: np.ndarray, self_scalar: float
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One call of the fused C assembly into freshly allocated outputs."""
    indptr, indices, blocks, work = _assembly_buffers(n, 2 * i.size + n)
    kern(n, i.size, i, j, f, g, rij, dist, self_scalar,
         indptr, indices, blocks, work)
    return indptr, indices, blocks


def bcsr_assemble_dyads(n: int, i: np.ndarray, j: np.ndarray,
                        f: np.ndarray, g: np.ndarray, rij: np.ndarray,
                        dist: np.ndarray, self_scalar: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bcsr_assemble` with the tensor fill fused in (compiled
    kernels only): block ``f[k] I + g[k] rhat rhat^T``, ``rhat = rij[k] /
    dist[k]``, at ``(i[k], j[k])`` and at its mirror, ``self_scalar I``
    on every diagonal — each block computed in the slot it is stored in.

    The bytes are those of :func:`bcsr_assemble` on the NumPy payload
    ``f[:, None, None] * eye(3) + g[:, None, None] * (rhat[:, :, None] *
    rhat[:, None, :])`` and the diagonal ``self_scalar * eye(3)`` (the
    kernel is built without multiply-add contraction; self-tested at
    load), so a caller without a compiler takes that route —
    :func:`kernel_available` tells which.
    """
    kern = getattr(_bundle(), "dyads", None)
    if kern is None:
        raise ConfigurationError(
            "bcsr_assemble_dyads needs the compiled kernels; assemble the "
            "NumPy tensors with bcsr_assemble instead")
    i, j = _pair_indices(n, i, j)
    f, g, dist = (np.ascontiguousarray(a, dtype=np.float64)
                  for a in (f, g, dist))
    rij = np.ascontiguousarray(rij, dtype=np.float64)
    if not (f.shape == g.shape == dist.shape == i.shape
            and rij.shape == (i.size, 3)):
        raise ConfigurationError(
            "pair arrays must have matching shapes (m,) and (m, 3)")
    return _assemble_dyads_compiled(kern, n, i, j, f, g, rij, dist,
                                    float(self_scalar))


def _separations_numpy(positions: np.ndarray, i: np.ndarray, j: np.ndarray,
                       box_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference minimum-image separations: ``(rij, |rij|)``."""
    rij = minimum_image(positions[i] - positions[j], box_length)
    return rij, np.linalg.norm(rij, axis=1)


def _separations_compiled(kern, positions: np.ndarray, i: np.ndarray,
                          j: np.ndarray, box_length: float,
                          cutoff: float | None
                          ) -> tuple[np.ndarray, ...] | None:
    """One call of ``min_image_pairs``: ``(i, j, rij, dist)`` of the pairs
    kept (all of them for ``cutoff=None``), or ``None`` without the
    kernel (``kern is None``) and for anything but in-range 1-D integer
    pairs on ``(n, 3)`` float64 positions — NumPy's indexing decides
    what that means (or that it is an error)."""
    r, i, j = np.asarray(positions), np.asarray(i), np.asarray(j)
    if not (kern is not None
            and r.ndim == 2 and r.shape[1] == 3 and r.dtype == np.float64
            and i.ndim == 1 and i.shape == j.shape
            and i.dtype.kind in "iu" and j.dtype.kind in "iu"):
        return None
    r = np.ascontiguousarray(r)
    i = np.ascontiguousarray(i, dtype=np.int64)
    j = np.ascontiguousarray(j, dtype=np.int64)
    strict = cutoff is not None
    ki, kj = (np.empty_like(i), np.empty_like(j)) if strict else (i, j)
    rij = np.empty((i.size, 3))
    dist = np.empty(i.size)
    kept = kern(r.shape[0], i.size, i, j, r, box_length, strict,
                cutoff if strict else 0.0, ki, kj, rij, dist)
    if kept < 0:        # an index outside [0, n): nothing was read there
        return None
    return ki[:kept], kj[:kept], rij[:kept], dist[:kept]


def pair_separations(positions: np.ndarray,  # noqa: RPR001 - validated by Box.distances
                     i: np.ndarray, j: np.ndarray,
                     box_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image separation vectors ``rij[k] = min_image(r[i_k] -
    r[j_k])`` and distances ``|rij[k]|`` in a cubic box: the body of
    :meth:`repro.geometry.box.Box.distances`.

    The compiled loop performs NumPy's operations in NumPy's order
    (``d - L * round(d / L)``, ``sqrt((x^2 + y^2) + z^2)``), so both
    routes return the same bytes.
    """
    out = _separations_compiled(getattr(_bundle(), "min_image", None),
                                positions, i, j, box_length, None)
    if out is None:
        return _separations_numpy(positions, i, j, box_length)
    return out[2], out[3]


def pairs_within(positions: np.ndarray,  # noqa: RPR001 - validated by Box.pairs_within
                 i: np.ndarray, j: np.ndarray,
                 box_length: float, cutoff: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The strict membership test of the pair search: ``(i, j, rij,
    dist)`` of the candidate pairs with minimum-image ``dist < cutoff``,
    in input order, with the separations :func:`pair_separations` gives.
    """
    out = _separations_compiled(getattr(_bundle(), "min_image", None),
                                positions, i, j, box_length, float(cutoff))
    if out is None:
        rij, dist = _separations_numpy(positions, i, j, box_length)
        sel = dist < cutoff
        out = np.asarray(i)[sel], np.asarray(j)[sel], rij[sel], dist[sel]
    return out


def kernel_available() -> bool:
    """True when the native kernels compiled and passed self-test."""
    return _bundle() is not None
