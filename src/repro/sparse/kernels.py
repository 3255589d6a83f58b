"""Runtime-compiled native kernels for the PME hot path and its rebuild.

``scipy.sparse``'s CSR ``matmat`` walks the right-hand-side *columns*
one at a time (``csr_matvecs``), so it amortizes nothing across the
``s`` vectors of a block — exactly the cost the paper's Section IV.C
("SpMV on blocks of vectors", reference [24]) eliminates.  This module
compiles, at import-on-demand time, a small C library with the eleven
entry points the mobility pipeline, its rebuild, its reference schedule
and the suspension generator need:

``bcsr_matmat_range``
    Multi-RHS BCSR SpMM: block rows ``[lo, hi)`` of ``Y = A X`` for an
    ``s``-lane ``X``, so an execution context can chunk the product
    over workers (any row partition is bit-identical to ``[0, n)``).
    Every block is symmetric and stored as the 6 doubles of its upper
    triangle (``00 01 02 11 12 22``); the packing changes where an
    entry is loaded from, never the arithmetic.  The width is an
    operand, not a code path: one body, at chunk widths 8, 4, 2 and 1,
    walks two block rows together — six independent sum chains — and
    covers their lanes while their blocks are in L1; every width and
    either row of a pair sums a lane in the same order, so the 1-wide
    product *is* column ``j`` of any wider one and a pair of rows is
    the bytes of two single rows (self-tested at load).
``spread_rows``
    The pipeline's spreader of wide blocks and of every multi-worker
    spread, a gather: rows ``[lo, hi)`` of ``P^T`` (CSR by mesh row)
    into a batch-first ``(lanes, K^3)`` mesh.  Each mesh point has one
    writer and a fixed summation order, so any row partition is
    bit-identical and needs no colouring.
``spread_idx``
    Scatter-add of a particle subset onto a batch-first ``(lanes,
    K^3)`` mesh, in subset order.  In production it is the spreader of
    a one-column block on one worker: every particle in id order into
    a zeroed mesh, which sums each mesh point in the gather's order
    (:meth:`repro.pme.spread.InterpolationMatrix.spread_batch`).  It is
    also the body of the Section IV.B.2 reference schedule of
    :mod:`repro.parallel.engine`, where the subset is one mesh block of
    one color of the independent-set schedule: within a color, blocks
    write disjoint mesh points, so concurrent calls use *plain stores*
    — no atomics — exactly as the paper promises.
``interp_range``
    Gather (interpolation) of particle rows ``[lo, hi)`` from a
    batch-first mesh, a few lanes per sweep over the rows; pure reads
    plus disjoint writes, so row chunks parallelize trivially.  The
    interpolation of a one-column block.
``mesh_interleave``
    Mesh points ``[lo, hi)`` of a batch-first ``(lanes, K^3)`` mesh
    copied lane-interleaved into ``(K^3, lanes)``, a tile of points at a
    time: the operand of ``interp_interleaved``.
``interp_interleaved``
    The interpolation of a wider block: particle rows ``order[lo:hi]``
    from the interleaved mesh, every lane per visit of a row's stencil
    (passes of up to four 8-lane chunks, then one over the 4-, 2- and
    1-lane rest), so ``P`` is read once per block rather than once per
    few lanes.  Each lane is ``interp_range``'s sum chain, so the bytes
    are ``interp_range``'s in any visit order (self-tested at load).
``min_image_pairs``
    The body of :meth:`repro.geometry.box.Box.distances` and of the
    strict ``< cutoff`` filter of the pair search
    (:func:`pair_separations`, :func:`pairs_within`): minimum-image
    separations of index pairs, optionally compacted to those inside a
    cutoff, in NumPy's operations and order — the same bytes.
``cell_list_pairs``
    The body of :func:`repro.neighbor.pairs.find_pairs`, the paper's
    Verlet cell list (Section IV.C): particles binned by a counting
    sort, a half-stencil sweep over neighbouring cells, a cheap
    squared-distance prefilter and then ``min_image_pairs``' exact test,
    pairs ``i < j`` returned in lexicographic order (a stable counting
    sort by ``j``, then by ``i``) — the arrays of
    :func:`~repro.neighbor.pairs.brute_force_pairs`.
``bcsr_assemble_dyads``
    The one assembly of :class:`repro.pme.realspace.RealSpaceOperator`:
    the symmetric BCSR matrix of a half pair list in any order and
    either orientation, by a stable counting sort on the column then on
    the row — two linear passes — with the real-space tensor fill fused
    in: the coefficients ``f, g`` of every pair gathered from a uniform
    table (:class:`repro.rpy.pse.CoefficientTable`, linear
    interpolation) and its block ``f I + g rhat rhat^T`` computed,
    packed to its 48-byte upper triangle, in the slot the sort assigns
    it and its mirror, the table's ``f(0)`` on the diagonal.
``rsa_test_insert``
    The overlap test of random sequential addition
    (:func:`repro.systems.suspension.random_suspension`): the accepted
    set is a cell grid kept across attempts (cells of side at least
    ``2a``, per-cell point lists as ``int64`` head/link arrays, O(n +
    cells) memory), each accepted particle inserted once, and an attempt
    tests only its candidates against the points of the 27 cells around
    each — O(candidates), where a pair search over the accepted set and
    the candidates together is O(n) per attempt.  A point overlaps a
    candidate when ``min_image_pairs``' separation is ``< 2a``, the pair
    search's own test, so the mask is the one that search gives (and
    the one the generator computes by that search without the kernels).
``influence_range``
    The influence stage of the pipeline
    (:meth:`repro.pme.influence.InfluenceFunction.apply_batch`): the
    projector ``I - khat khat^T`` and the stored scalar, with or without
    the wave-space noise, on half-spectrum modes ``[lo, hi)`` of all
    ``s`` columns in place — one bandwidth-bound pass, a tile of modes
    at a time for every column so the tile's ``khat`` and scalars stay
    in L1.  Modes are independent, so any partition is bit-identical.
    It is NumPy's complex arithmetic operation for operation (a real
    operand ``x`` multiplies as ``x + 0i``, its products with ``0.0``
    kept), so the NumPy slab loop it replaces gives the same bytes.

The last five do floating-point arithmetic whose bytes are pinned to
NumPy's, so they are compiled with multiply-add contraction switched
off *for those functions* (a pragma in the source; the flags, hence the
bytes of the kernels above, are untouched) and a compiler that fuses
anyway fails the load-time self-test and loses the kernels.  The two
interleaved entry points sit with ``interp_range`` before that pragma,
in the contracting region: under ``-march=native`` its ``acc += w * m``
is one fused multiply-add, under the base flags two roundings, and
``interp_interleaved`` rounds exactly as ``interp_range`` does under
either (pinned for both builds in the tests).

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
import math
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
from ..utils.pbc import minimum_image, wrap_positions

__all__ = [
    "spmm_kernel", "pack_symmetric", "unpack_symmetric",
    "spread_ranges", "interp_ranges", "mesh_interleave", "interp_interleaved",
    "spread_rows", "bcsr_assemble",
    "bcsr_assemble_dyads", "pair_separations", "pairs_within",
    "cell_list_pairs", "rsa_grid", "influence_kernel", "kernel_available",
    "reset_kernel_cache", "SPMM_CHUNK",
]

#: Right-hand sides one pass of ``bcsr_matmat_range``'s row body covers
#: (the widest ``DEFINE_SPMM_ROWS`` below): an ``s``-wide product walks
#: a row's blocks ``ceil(s / SPMM_CHUNK)`` times.  The cost model and
#: its calibration read the width from here.
SPMM_CHUNK = 8

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

typedef double lanes1;
typedef double lanes2 __attribute__((vector_size(16)));
typedef double lanes4 __attribute__((vector_size(32)));
typedef double lanes8 __attribute__((vector_size(64)));

/* Entry (u, v) of a stored block: a symmetric 3x3 block is packed as
 * its upper triangle, 00 01 02 11 12 22. */
static const int PACKED[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};

/* acc += (block k) times W adjacent lanes of its column's operand (x:
 * the chunk's first lane; s: the lane stride), W lanes to a SIMD value:
 * gcc and clang split one wider than the machine's, and `scalar *
 * vector` splats.  A lane is one chain -- blocks in stored order, then
 * u, then v -- whatever W it rides in. */
#define DEFINE_SPMM_BLOCK(W)                                             \
static inline __attribute__((always_inline)) void                        \
bcsr_block_##W(lanes##W *restrict acc, const long long k,                \
               const long long *restrict indices,                        \
               const double *restrict blocks,                            \
               const double *restrict x, const long long s)              \
{                                                                        \
    lanes##W xv[3];                                                      \
    const double *restrict b = blocks + 6 * (size_t)k;                   \
    const double *restrict xc = x + (size_t)(3 * s) * indices[k];        \
    for (int v = 0; v < 3; ++v)                                          \
        memcpy(&xv[v], xc + s * v, sizeof xv[v]);                        \
    for (int u = 0; u < 3; ++u)                                          \
        for (int v = 0; v < 3; ++v)                                      \
            acc[u] += b[PACKED[u][v]] * xv[v];                           \
}

/* Block rows [k[0], k[1]) and, when two, [k[1], k[2]) of Y = A X against
 * W lanes (ya: the first row's chunk; the second row's follows 3 s
 * later).  The rows' shared length is walked together -- six
 * independent chains instead of three, which hides the add latency a
 * single chain is bound by -- then the longer row's rest; each row
 * still sums in stored order, so pairing changes no byte. */
#define DEFINE_SPMM_ROWS(W)                                              \
DEFINE_SPMM_BLOCK(W)                                                     \
static void bcsr_rows_##W(const long long *restrict k, const int two,    \
                          const long long *restrict indices,             \
                          const double *restrict blocks,                 \
                          const double *restrict x,                      \
                          double *restrict ya, const long long s)        \
{                                                                        \
    lanes##W a[3], b[3];                                                 \
    memset(a, 0, sizeof a);                                              \
    memset(b, 0, sizeof b);                                              \
    const long long na = k[1] - k[0], nb = two ? k[2] - k[1] : 0;        \
    const long long both = na < nb ? na : nb;                            \
    for (long long t = 0; t < both; ++t) {                               \
        bcsr_block_##W(a, k[0] + t, indices, blocks, x, s);              \
        bcsr_block_##W(b, k[1] + t, indices, blocks, x, s);              \
    }                                                                    \
    for (long long t = both; t < na; ++t)                                \
        bcsr_block_##W(a, k[0] + t, indices, blocks, x, s);              \
    for (long long t = both; t < nb; ++t)                                \
        bcsr_block_##W(b, k[1] + t, indices, blocks, x, s);              \
    for (int u = 0; u < 3; ++u)                                          \
        memcpy(ya + s * u, &a[u], sizeof a[u]);                          \
    if (two)                                                             \
        for (int u = 0; u < 3; ++u)                                      \
            memcpy(ya + s * (3 + u), &b[u], sizeof b[u]);                \
}

DEFINE_SPMM_ROWS(8)
DEFINE_SPMM_ROWS(4)
DEFINE_SPMM_ROWS(2)
DEFINE_SPMM_ROWS(1)

/* Block rows [lo, hi) of Y = A X, X and Y row-major (n, 3, s), two rows
 * at a time (the last alone when the count is odd).  A row pair's lanes
 * are covered while its blocks are in L1, by s in binary: s / 8 chunks
 * of 8, then the 4, 2 and 1 bits. */
#define SPMM_ROWS(W, j) \
    bcsr_rows_##W(indptr + r, two, indices, blocks, x + (j), yr + (j), s)
void bcsr_matmat_range(const long long lo, const long long hi,
                       const long long *indptr, const long long *indices,
                       const double *blocks, const double *x, double *y,
                       const long long s)
{
    for (long long r = lo; r < hi; r += 2) {
        const int two = r + 1 < hi;
        double *yr = y + (size_t)(3 * s) * r;
        for (long long j = 0; j + 8 <= s; j += 8) SPMM_ROWS(8, j);
        if (s & 4) SPMM_ROWS(4, s & ~7LL);
        if (s & 2) SPMM_ROWS(2, s & ~3LL);
        if (s & 1) SPMM_ROWS(1, s & ~1LL);
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

/* Copy mesh points [lo, hi) of the batch-first (lanes, k3) mesh into mt,
 * the same mesh lane-interleaved (k3, lanes): a point's lanes adjacent,
 * so that one visit of a particle's stencil reads every lane.  A tile of
 * points at a time: each lane's run of the tile is read contiguously
 * while the tile's rows of mt stay in L1.  A copy; no arithmetic. */
#define INTERLEAVE_TILE 64
void mesh_interleave(const long long lo, const long long hi,
                     const double *restrict mesh, const long long k3,
                     const long long lanes, double *restrict mt)
{
    for (long long c0 = lo; c0 < hi; c0 += INTERLEAVE_TILE) {
        const long long c1 = MIN(hi, c0 + INTERLEAVE_TILE);
        for (long long b = 0; b < lanes; ++b) {
            const double *restrict mb = mesh + (size_t)b * k3;
            for (long long c = c0; c < c1; ++c)
                mt[(size_t)c * lanes + b] = mb[c];
        }
    }
}

/* One pass over particle row i's stencil (weights wi, columns ci) in
 * the interleaved (k3, lanes) mt: c8 chunks of 8 lanes from lane j, then
 * a chunk of 4, one of 2 and a lone lane as h4, h2 and h1 say -- that
 * many independent chains walked together -- stored into out (lanes,
 * n).  Every lane is interp_range's chain (from 0.0, terms in ascending
 * e, one multiply-add each) whatever chunk it rides in, so it has
 * interp_range's bytes under either flag set.  Each call site passes
 * constant counts, so its chains stay in registers.  Not vectorized by
 * the compiler: gcc 12 turns the lone lane's loop into an in-order
 * reduction, which splits each multiply-add. */
#define NO_TREE_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#define INTERP_CHUNKS 4
static inline __attribute__((always_inline)) NO_TREE_VECTORIZE void
interp_pass(const int c8, const int h4, const int h2, const int h1,
            const double *restrict wi, const long long *restrict ci,
            const long long pcube, const double *restrict mt,
            const long long lanes, const long long j, const long long i,
            const long long n, double *restrict out)
{
    lanes8 a8[INTERP_CHUNKS];
    lanes4 a4 = {0.0};
    lanes2 a2 = {0.0};
    lanes1 a1 = 0.0;
    const long long j4 = j + 8 * c8, j2 = j4 + 4 * h4, j1 = j2 + 2 * h2;
    memset(a8, 0, sizeof a8);
    for (long long e = 0; e < pcube; ++e) {
        const double w = wi[e];
        const double *restrict m = mt + (size_t)ci[e] * lanes;
        for (int c = 0; c < c8; ++c) {
            lanes8 v;
            memcpy(&v, m + j + 8 * c, sizeof v);
            a8[c] += w * v;
        }
        if (h4) { lanes4 v; memcpy(&v, m + j4, sizeof v); a4 += w * v; }
        if (h2) { lanes2 v; memcpy(&v, m + j2, sizeof v); a2 += w * v; }
        if (h1) a1 += w * m[j1];
    }
    for (int c = 0; c < c8; ++c)
        for (int b = 0; b < 8; ++b)
            out[(size_t)(j + 8 * c + b) * n + i] = a8[c][b];
    for (int b = 0; b < 4 * h4; ++b) out[(size_t)(j4 + b) * n + i] = a4[b];
    for (int b = 0; b < 2 * h2; ++b) out[(size_t)(j2 + b) * n + i] = a2[b];
    if (h1) out[(size_t)j1 * n + i] = a1;
}

/* Gather particle rows order[lo:hi] from the interleaved (k3, lanes) mt
 * into the (lanes, n) output, every lane per visit of a row's stencil:
 * passes of up to INTERP_CHUNKS chunks of 8 lanes, then one over the 4,
 * 2 and 1 bits of lanes.  Rows are independent, so any order and any
 * partition of it give the same bytes -- those of interp_range. */
#define INTERP_PASS(c8, h4, h2, h1, j) \
    interp_pass(c8, h4, h2, h1, wi, ci, pcube, mt, lanes, j, i, n, out)
#define INTERP_TAIL(t) \
    case t: INTERP_PASS(0, (t) >> 2, ((t) >> 1) & 1, (t) & 1, wide); break
NO_TREE_VECTORIZE
void interp_interleaved(const long long lo, const long long hi,
                        const long long *restrict order,
                        const double *restrict data,
                        const long long *restrict cols,
                        const long long pcube, const double *restrict mt,
                        const long long lanes, const long long n,
                        double *restrict out)
{
    const long long wide = lanes & ~7LL;
    for (long long t = lo; t < hi; ++t) {
        const long long i = order[t];
        const double *restrict wi = data + (size_t)i * pcube;
        const long long *restrict ci = cols + (size_t)i * pcube;
        long long j = 0;
        for (; j + 8 * INTERP_CHUNKS <= wide; j += 8 * INTERP_CHUNKS)
            INTERP_PASS(INTERP_CHUNKS, 0, 0, 0, j);
        switch ((wide - j) / 8) {
        case 3: INTERP_PASS(3, 0, 0, 0, j); break;
        case 2: INTERP_PASS(2, 0, 0, 0, j); break;
        case 1: INTERP_PASS(1, 0, 0, 0, j); break;
        }
        switch (lanes & 7) {
        INTERP_TAIL(1); INTERP_TAIL(2); INTERP_TAIL(3); INTERP_TAIL(4);
        INTERP_TAIL(5); INTERP_TAIL(6); INTERP_TAIL(7);
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
 * orientation) and the full diagonal.  Entry e of the virtual list is
 * (pi[e], pj[e]) for e < m, its mirror (pj[e-m], pi[e-m]) for e < 2m,
 * and the diagonal block e - 2m after that.  A stable counting sort by column then one
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
                                long long *restrict indptr,
                                long long *restrict work)
{
    long long *restrict cursor = work;
    long long *restrict bycol = work + n + 1;

    for (long long r = 0; r <= n; ++r) indptr[r] = 0;
    for (long long k = 0; k < m; ++k) { ++indptr[pi[k] + 1]; ++indptr[pj[k] + 1]; }
    for (long long r = 0; r < n; ++r) ++indptr[r + 1];
    for (long long r = 0; r < n; ++r) indptr[r + 1] += indptr[r];

    for (long long r = 0; r < n; ++r) cursor[r] = indptr[r];
    for (long long k = 0; k < m; ++k) bycol[cursor[pj[k]]++] = k;
    for (long long k = 0; k < m; ++k) bycol[cursor[pi[k]]++] = m + k;
    for (long long r = 0; r < n; ++r) bycol[cursor[r]++] = 2 * m + r;

    for (long long r = 0; r < n; ++r) cursor[r] = indptr[r];
}

/* ---- Floating-point entry points whose bytes are NumPy's -------------
 * The functions below reproduce NumPy expressions operation for
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

/* The minimum-image separation d = pa - pb and its length, in
 * Box.distances' arithmetic: per component d - L * rint(d / L) (np.round
 * rounds half to even, as rint does in the default mode), then
 * sqrt((x^2 + y^2) + z^2) (np.linalg.norm: add.reduce over three). */
static inline double min_image_sep(const double *restrict pa,
                                   const double *restrict pb, const double L,
                                   double *restrict d)
{
    for (int c = 0; c < 3; ++c) {
        const double dr = pa[c] - pb[c];
        d[c] = dr - L * rint(dr / L);
    }
    return sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]);
}

/* Minimum-image separations of m index pairs of an (n, 3) position
 * array (min_image_sep).  With strict != 0 only pairs with dist < cutoff
 * are kept, compacted in input order with their indices in (ki, kj).
 * Returns the number of pairs written, or -1 — before dereferencing it —
 * on an index outside [0, n). */
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
        const double r = min_image_sep(pos + 3 * a, pos + 3 * b, L, d);
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

/* Stable counting sort of m pairs by one key (n buckets): (si, sj) ->
 * (di, dj), ordered by key[k] (si or sj).  cnt holds n + 1 cursors.
 * Always inlined: a static function of its own is emitted ahead of the
 * SpMM and gather kernels and moves their code (measured 2-3 % slower
 * applies). */
static inline __attribute__((always_inline)) void pairs_sort_by(const long long n, const long long m,
                          const long long *restrict key,
                          const long long *restrict si,
                          const long long *restrict sj,
                          long long *restrict di, long long *restrict dj,
                          long long *restrict cnt)
{
    for (long long r = 0; r <= n; ++r) cnt[r] = 0;
    for (long long k = 0; k < m; ++k) ++cnt[key[k] + 1];
    for (long long r = 0; r < n; ++r) cnt[r + 1] += cnt[r];
    for (long long k = 0; k < m; ++k) {
        const long long dst = cnt[key[k]]++;
        di[dst] = si[k];
        dj[dst] = sj[k];
    }
}

/* The pair search (find_pairs): every i < j of n positions wrapped into
 * [0, L) with minimum-image distance < cutoff, in lexicographic order.
 * m cells per edge of side L / m >= cutoff / reach (reach <= 2; chosen by
 * the caller).  The particles are binned by a counting sort (ids
 * ascending within a cell) and their positions copied cell-contiguous
 * into spos (3n).  Every cell meets the distinct cells within reach of
 * it along each axis — fewer than 2 reach + 1 when m is small — whose
 * linear index is not below its own, so each unordered cell pair is
 * swept once.  A candidate passes a squared-distance prefilter on a
 * branch-folded image (loose by far more than its rounding), then
 * min_image_sep's exact test decides, on the ids' own positions in the
 * orientation (min id, max id) — brute_force_pairs' arithmetic.  Up to
 * cap pairs are stored; the return value is the number found, or -1 for
 * a reach above 2.  When it exceeds cap nothing is sorted and the caller
 * retries with cap >= the count; otherwise a stable counting sort by j,
 * then one by i (ti, tj: cap-sized scratch), leaves (ki, kj)
 * lexicographic.  iwork: m^3 + 1 + 3n + 1 int64. */
long long cell_list_pairs(const long long n, const double *restrict pos,
                          const double L, const double cutoff,
                          const long long m, const long long reach,
                          const long long cap,
                          long long *restrict ki, long long *restrict kj,
                          long long *restrict ti, long long *restrict tj,
                          long long *restrict iwork, double *restrict spos)
{
    if (reach < 0 || reach > 2) return -1;
    const long long ncell = m * m * m;
    long long *restrict start = iwork;              /* ncell + 1 */
    long long *restrict ids = start + ncell + 1;    /* n */
    long long *restrict cell = ids + n;             /* n */
    long long *restrict cnt = cell + n;             /* n + 1 */

    const double scale = (double)m / L;
    for (long long c = 0; c <= ncell; ++c) start[c] = 0;
    for (long long p = 0; p < n; ++p) {
        long long q[3];
        for (int c = 0; c < 3; ++c) {
            const double u = pos[3 * p + c] * scale;
            q[c] = u >= (double)m ? m - 1 : (u > 0.0 ? (long long)u : 0);
        }
        cell[p] = q[0] + m * (q[1] + m * q[2]);
        ++start[cell[p]];
    }
    for (long long c = 1; c < ncell; ++c) start[c] += start[c - 1];
    start[ncell] = n;
    for (long long p = n - 1; p >= 0; --p) {    /* start[c]: first of c */
        const long long s = --start[cell[p]];
        ids[s] = p;
        for (int c = 0; c < 3; ++c) spos[3 * s + c] = pos[3 * p + c];
    }

    long long off[5];
    int noff = 0;
    for (long long d = -reach; d <= reach; ++d) {
        const long long v = ((d % m) + m) % m;
        int seen = 0;
        for (int t = 0; t < noff; ++t) seen |= off[t] == v;
        if (!seen) off[noff++] = v;
    }

    const double half = 0.5 * L;
    const double lim = cutoff * (1.0 + 1e-8) + 8.0 * L * DBL_EPSILON;
    const double thr = lim * lim;
    long long count = 0;
    for (long long cz = 0; cz < m; ++cz)
    for (long long cy = 0; cy < m; ++cy)
    for (long long cx = 0; cx < m; ++cx) {
        const long long c = cx + m * (cy + m * cz);
        const long long p0 = start[c], p1 = start[c + 1];
        if (p0 == p1) continue;
        for (int a = 0; a < noff; ++a)
        for (int b = 0; b < noff; ++b)
        for (int e = 0; e < noff; ++e) {
            const long long c2 = (cx + off[e]) % m
                + m * ((cy + off[b]) % m + m * ((cz + off[a]) % m));
            if (c2 < c) continue;
            const long long q1 = start[c2 + 1];
            for (long long s = p0; s < p1; ++s) {
                const double *restrict ps = spos + 3 * s;
                for (long long t = c2 == c ? s + 1 : start[c2]; t < q1; ++t) {
                    const double *restrict pt = spos + 3 * t;
                    double r2 = 0.0;
                    for (int k = 0; k < 3; ++k) {
                        double dr = ps[k] - pt[k];
                        dr = dr > half ? dr - L : (dr < -half ? dr + L : dr);
                        r2 += dr * dr;
                    }
                    if (!(r2 < thr)) continue;
                    const long long u = ids[s] < ids[t] ? ids[s] : ids[t];
                    const long long v = ids[s] < ids[t] ? ids[t] : ids[s];
                    double d[3];
                    if (!(min_image_sep(pos + 3 * u, pos + 3 * v, L, d) < cutoff))
                        continue;
                    if (count < cap) { ki[count] = u; kj[count] = v; }
                    ++count;
                }
            }
        }
    }
    if (count > cap) return count;
    pairs_sort_by(n, count, kj, ki, kj, ti, tj, cnt);
    pairs_sort_by(n, count, ti, ti, tj, ki, kj, cnt);
    return count;
}

/* The packed 3x3 block c I + g h h^T, as NumPy evaluates
 * c * eye(3) + g * (h[:, None] * h[None, :]): c * 0.0 is kept (its sign
 * decides the sign of a zero entry).  h_u h_v commutes, so the block is
 * symmetric byte for byte and its upper triangle is all of it. */
static inline void dyad_block(double *restrict b, const double c,
                              const double g, const double *restrict h)
{
    for (int u = 0; u < 3; ++u)
        for (int v = u; v < 3; ++v)
            b[PACKED[u][v]] = c * (u == v ? 1.0 : 0.0) + g * (h[u] * h[v]);
}

/* f, g at separation d from the table t of (f, g) at the nodes k h, as
 * repro.rpy.pse.CoefficientTable.gather evaluates them. */
static inline void table_gather(const double *restrict t,
                                const long long nodes, const double inv_h,
                                const double d, double *restrict fg)
{
    const double x = d * inv_h;
    long long k = (long long)x;
    if (k > nodes - 2) k = nodes - 2;
    const double w = x - (double)k;
    const double *restrict lo = t + 2 * (size_t)k;
    fg[0] = lo[0] + (lo[2] - lo[0]) * w;
    fg[1] = lo[1] + (lo[3] - lo[1]) * w;
}

/* Symmetric BCSR assembly with the tensor fill fused in: pair k stores
 * f I + g rhat rhat^T, rhat = rij[k] / dist[k] and (f, g) gathered from
 * the table at dist[k], at (pi[k], pj[k]) and at the mirror (the block
 * is its own transpose), and every diagonal block is t[0] I, f(0), all
 * packed.  Each block is computed where it is stored; no (m, 3, 3)
 * payload and no f, g arrays exist. */
void bcsr_assemble_dyads(const long long n, const long long m,
                         const long long *restrict pi,
                         const long long *restrict pj,
                         const double *restrict table, const long long nodes,
                         const double inv_h, const double *restrict rij,
                         const double *restrict dist,
                         long long *restrict indptr,
                         long long *restrict indices,
                         double *restrict blocks, long long *restrict work)
{
    const long long nnz = 2 * m + n;
    long long *restrict cursor = work;
    const long long *restrict bycol = work + n + 1;

    bcsr_sort_by_column(n, m, pi, pj, indptr, work);
    for (long long p = 0; p < nnz; ++p) {
        const long long e = bycol[p];
        const long long k = e < m ? e : e - m;
        long long row, col;
        if (e < m) { row = pi[k]; col = pj[k]; }
        else if (e < 2 * m) { row = pj[k]; col = pi[k]; }
        else { row = col = e - 2 * m; }
        const long long dst = cursor[row]++;
        double *restrict b = blocks + 6 * (size_t)dst;
        indices[dst] = col;
        if (e < 2 * m) {
            const double *restrict d = rij + 3 * (size_t)k;
            const double h[3] = {d[0] / dist[k], d[1] / dist[k],
                                 d[2] / dist[k]};
            double fg[2];
            table_gather(table, nodes, inv_h, dist[k], fg);
            dyad_block(b, fg[0], fg[1], h);
        } else {        /* f(0) * eye(3): no dyad term to add */
            for (int u = 0; u < 3; ++u)
                for (int v = u; v < 3; ++v)
                    b[PACKED[u][v]] = table[0] * (u == v ? 1.0 : 0.0);
        }
    }
}

/* Cell (x + m (y + m z)) of a point wrapped into [0, L), binned as
 * cell_list_pairs bins: its coordinates (q[3]) clamped into [0, m). */
static inline __attribute__((always_inline)) long long
grid_cell(const double *restrict p, const long long m, const double scale,
          long long *restrict q)
{
    for (int c = 0; c < 3; ++c) {
        const double u = p[c] * scale;
        q[c] = u >= (double)m ? m - 1 : (u > 0.0 ? (long long)u : 0);
    }
    return q[0] + m * (q[1] + m * q[2]);
}

/* The accepted set of random sequential addition as a kept cell grid: m
 * cells per edge of side L / m >= cutoff (chosen by the caller), so every
 * point within cutoff of a candidate lies in one of the distinct cells
 * within one of the candidate's along each axis (27, fewer when m < 3),
 * and a point list per cell, head (m^3) and link (n), -1 terminated.
 * Points [lo, hi) of the (n, 3) positions are inserted, then ok[k] = 0
 * when an inserted point lies within cutoff of candidate k and 1
 * otherwise: min_image_sep(point, candidate) < cutoff, the pair search's
 * test in the orientation its sweep over accepted + candidates gives
 * such a pair.  Positions and candidates are wrapped into [0, L).  Time
 * O(hi - lo + ncand) at a uniform density, whatever the set's size. */
void rsa_test_insert(const long long m, long long *restrict head,
                     long long *restrict link, const double *restrict pos,
                     const long long lo, const long long hi,
                     const long long ncand, const double *restrict cand,
                     const double L, const double cutoff,
                     unsigned char *restrict ok)
{
    const double scale = (double)m / L;
    long long q[3];
    for (long long p = lo; p < hi; ++p) {
        const long long c = grid_cell(pos + 3 * p, m, scale, q);
        link[p] = head[c];
        head[c] = p;
    }

    long long off[3];
    int noff = 0;
    for (long long d = -1; d <= 1; ++d) {
        const long long v = ((d % m) + m) % m;
        int seen = 0;
        for (int t = 0; t < noff; ++t) seen |= off[t] == v;
        if (!seen) off[noff++] = v;
    }

    for (long long k = 0; k < ncand; ++k) {
        const double *restrict pk = cand + 3 * k;
        grid_cell(pk, m, scale, q);
        int clear = 1;
        for (int a = 0; a < noff && clear; ++a)
        for (int b = 0; b < noff && clear; ++b)
        for (int e = 0; e < noff && clear; ++e) {
            const long long c = (q[0] + off[e]) % m
                + m * ((q[1] + off[b]) % m + m * ((q[2] + off[a]) % m));
            for (long long p = head[c]; p >= 0; p = link[p]) {
                double d[3];
                if (min_image_sep(pos + 3 * p, pk, L, d) < cutoff) {
                    clear = 0;
                    break;
                }
            }
        }
        ok[k] = (unsigned char)clear;
    }
}

/* z = (ar + ai i)(br + bi i) as NumPy's complex multiply evaluates it: a
 * real operand x enters as x + 0i and its products with 0.0 are kept
 * (they decide the signs of zeros). */
static inline __attribute__((always_inline)) void
cmul(const double ar, const double ai, const double br, const double bi,
     double *restrict z)
{
    z[0] = ar * br - ai * bi;
    z[1] = ar * bi + ai * br;
}

/* Modes [t0, t1) of InfluenceFunction.apply_batch on one column: its
 * components c[u] (interleaved complex) in place, h[u] the unit
 * wavevector components, sc the scalar, rt its root, w[u] the noise
 * (noisy only).  The slab loop's ufuncs in order: with noise c *= sc;
 * c += rt * w, then the projection; without, the projection, then
 * c *= sc. */
static inline __attribute__((always_inline)) void
influence_tile(const long long t0, const long long t1,
               double *restrict cx, double *restrict cy,
               double *restrict cz, const double *restrict hx,
               const double *restrict hy, const double *restrict hz,
               const double *restrict sc, const double *restrict rt,
               const double *restrict wx, const double *restrict wy,
               const double *restrict wz, const int noisy)
{
    for (long long m = t0; m < t1; ++m) {
        double *const c[3] = {cx + 2 * m, cy + 2 * m, cz + 2 * m};
        const double h[3] = {hx[m], hy[m], hz[m]};
        double a[3][2], t[2], dot[2];
        for (int u = 0; u < 3; ++u) {
            a[u][0] = c[u][0];
            a[u][1] = c[u][1];
        }
        if (noisy) {
            const double *const w[3] = {wx + 2 * m, wy + 2 * m, wz + 2 * m};
            for (int u = 0; u < 3; ++u) {
                double z[2];
                cmul(a[u][0], a[u][1], sc[m], 0.0, z);
                cmul(rt[m], 0.0, w[u][0], w[u][1], t);
                a[u][0] = z[0] + t[0];
                a[u][1] = z[1] + t[1];
            }
        }
        cmul(a[0][0], a[0][1], h[0], 0.0, dot);
        for (int u = 1; u < 3; ++u) {
            cmul(a[u][0], a[u][1], h[u], 0.0, t);
            dot[0] = dot[0] + t[0];
            dot[1] = dot[1] + t[1];
        }
        for (int u = 0; u < 3; ++u) {
            cmul(h[u], 0.0, dot[0], dot[1], t);
            a[u][0] = a[u][0] - t[0];
            a[u][1] = a[u][1] - t[1];
        }
        if (!noisy)
            for (int u = 0; u < 3; ++u) {
                double z[2];
                cmul(a[u][0], a[u][1], sc[m], 0.0, z);
                a[u][0] = z[0];
                a[u][1] = z[1];
            }
        for (int u = 0; u < 3; ++u) {
            c[u][0] = a[u][0];
            c[u][1] = a[u][1];
        }
    }
}

/* InfluenceFunction.apply_batch over the half-spectrum modes [lo, hi) of
 * all s columns: spec (3, s, modes) complex in place, khat (3, modes) the
 * unit wavevectors, scalar and root = sqrt(scalar) (modes), noise NULL or
 * shaped like spec (and apart from it).  Modes are independent, so any
 * partition of [0, modes) gives the same bytes.  INFLUENCE_TILE modes at
 * a time for every column, so a tile's khat and scalars stay in L1
 * across the columns. */
#define INFLUENCE_TILE 256
void influence_range(const long long lo, const long long hi,
                     const long long s, const long long modes,
                     const double *restrict khat,
                     const double *restrict scalar,
                     const double *restrict root, double *restrict spec,
                     const double *restrict noise)
{
    const double *restrict hx = khat, *restrict hy = khat + modes,
                 *restrict hz = khat + 2 * modes;
    const size_t lane = 2 * (size_t)modes, comp = (size_t)s * lane;
    for (long long t0 = lo; t0 < hi; t0 += INFLUENCE_TILE) {
        const long long t1 = MIN(hi, t0 + INFLUENCE_TILE);
        for (long long v = 0; v < s; ++v) {
            double *const c = spec + (size_t)v * lane;
            if (noise != NULL) {
                const double *const w = noise + (size_t)v * lane;
                influence_tile(t0, t1, c, c + comp, c + 2 * comp, hx, hy,
                               hz, scalar, root, w, w + comp, w + 2 * comp,
                               1);
            } else {
                influence_tile(t0, t1, c, c + comp, c + 2 * comp, hx, hy,
                               hz, scalar, root, NULL, NULL, NULL, 0);
            }
        }
    }
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]

#: Memoized load result: unset / a _Kernels bundle / None (unavailable).
_UNSET = object()
_kernels: object = _UNSET


#: The loaded entry points of one compiled library.
_Kernels = collections.namedtuple(
    "_Kernels",
    "spmm spread interp interleave gather rows min_image cells dyads rsa "
    "influence")


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
        interleave = lib.mesh_interleave
        gather = lib.interp_interleaved
        rows = lib.spread_rows
        min_image = lib.min_image_pairs
        cells = lib.cell_list_pairs
        dyads = lib.bcsr_assemble_dyads
        rsa = lib.rsa_test_insert
        influence = lib.influence_range
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
    interleave.argtypes = [ll, ll, f64, ll, ll, f64]
    interleave.restype = None
    gather.argtypes = [ll, ll, i64, f64, i64, ll, f64, ll, ll, f64]
    gather.restype = None
    rows.argtypes = [ll, ll, i64, i64, f64, f64, ll, f64, ll]
    rows.restype = None
    min_image.argtypes = [ll, ll, i64, i64, f64, ctypes.c_double,
                          ctypes.c_int, ctypes.c_double, i64, i64, f64, f64]
    min_image.restype = ll
    cells.argtypes = [ll, f64, ctypes.c_double, ctypes.c_double, ll, ll, ll,
                      i64, i64, i64, i64, i64, f64]
    cells.restype = ll
    dyads.argtypes = [ll, ll, i64, i64, f64, ll, ctypes.c_double, f64, f64,
                      i64, i64, f64, i64]
    dyads.restype = None
    rsa.argtypes = [ll, i64, i64, f64, ll, ll, ll, f64, ctypes.c_double,
                    ctypes.c_double, ndpointer(dtype=np.bool_,
                                               flags="C_CONTIGUOUS")]
    rsa.restype = None
    c128 = ndpointer(dtype=np.complex128, flags="C_CONTIGUOUS")
    influence.argtypes = [ll, ll, ll, ll, f64, f64, f64, c128,
                          ctypes.c_void_p]
    influence.restype = None
    return _Kernels(spmm, spread, interp, interleave, gather, rows, min_image,
                    cells, dyads, rsa, influence)


def _selftest(kernels: _Kernels) -> bool:
    """Check every loaded entry point against tiny NumPy references."""
    rng = np.random.default_rng(7)

    # SpMM at a width of every chunk (8 + 4 + 2 + 1) on five packed block
    # rows of unequal lengths, one empty, whole and over ranges of odd
    # length that start on an odd row: the dense product, the same bytes
    # from every partition, each column the bytes of the 1-wide product
    indptr = np.array([0, 2, 3, 3, 6, 7], dtype=np.int64)
    indices = np.array([0, 3, 1, 0, 3, 4, 4], dtype=np.int64)
    packed = np.ascontiguousarray(rng.standard_normal((7, 6)))
    x = np.ascontiguousarray(rng.standard_normal((5, 3, 15)))
    y, split = np.empty_like(x), np.empty_like(x)
    kernels.spmm(0, 5, indptr, indices, packed, x, y, 15)
    for lo, hi in ((0, 1), (1, 4), (4, 5)):
        kernels.spmm(lo, hi, indptr, indices, packed, x, split, 15)
    dense, full = np.zeros((15, 15)), unpack_symmetric(packed)
    for r, (k0, k1) in enumerate(zip(indptr[:-1], indptr[1:])):
        for k in range(k0, k1):
            c = indices[k]
            dense[3 * r:3 * r + 3, 3 * c:3 * c + 3] = full[k]
    ref = (dense @ x.reshape(15, 15)).reshape(5, 3, 15)
    if (y.tobytes() != split.tobytes()
            or not np.allclose(y, ref, rtol=1e-12, atol=1e-12)):
        return False
    for j in range(15):
        xj, yj = np.ascontiguousarray(x[:, :, j:j + 1]), np.empty((5, 3, 1))
        kernels.spmm(0, 5, indptr, indices, packed, xj, yj, 1)
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

    # the lane-interleaved gather must be interp_range's bytes at widths
    # covering every pass (chunks of 8, the 4, 2 and 1 bits) whatever the
    # visit order: a split multiply-add, or a fused one the other lacks,
    # shows over 16 rows of 27 terms
    rows16 = np.ascontiguousarray(rng.standard_normal((16, 27)))
    cols16 = np.ascontiguousarray(rng.integers(0, 64, size=(16, 27)),
                                  dtype=np.int64)
    order = np.ascontiguousarray(rng.permutation(16), dtype=np.int64)
    for width in (1, 3, 5, 8, 13, 24):
        mesh = np.ascontiguousarray(rng.standard_normal((width, 64)))
        want, got = np.empty((2, width, 16))
        kernels.interp(0, 16, rows16, cols16, 27, mesh, 64, width, 16, want)
        mt = np.empty((64, width))
        kernels.interleave(0, 64, mesh, 64, width, mt)
        kernels.gather(0, 16, order, rows16, cols16, 27, mt, width, 16, got)
        if not np.array_equal(mt, mesh.T) or got.tobytes() != want.tobytes():
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

    # separations, strict filter and fused tensor fill against the NumPy
    # bytes, on enough pairs that a contracted multiply-add cannot hide:
    # 40 particles up to five boxes away (L * round(d / L) is inexact),
    # every pair of them, the first an axis-aligned overlapping one
    # (zero components of rhat); the negated coefficients give a negative
    # self term, whose zeros are -0.0
    from ..rpy import pse
    from ..rpy.tensor import pair_dyads
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
    # the cell list against every pair, in every grid regime: one cell
    # (L/2 < cutoff and just below), half-width cells at reach 2 (and,
    # capped by n = 30, fewer cells than the stencil), whole cells, capped
    # and not; particles at 0 and a hair below L, pairs at exactly 2.8 and
    # 1.5 (the second across a face) and an ulp inside, and a clump that
    # overflows the first buffer
    cloud = rng.uniform(0.0, length, (250, 3))
    below = np.nextafter(2.8, 0.0)
    cloud[:9] = [[0.0, 0.0, 0.0], [np.nextafter(length, 0.0), 0.0, 4.5],
                 [4.5, np.nextafter(length, 0.0), 0.0], [1.0, 2.0, 2.0],
                 [3.8, 2.0, 2.0], [0.5, 6.0, 6.0], [8.0, 6.0, 6.0],
                 [2.0, 7.0, 1.0], [2.0 + below, 7.0, 1.0]]
    cloud[200:] = cloud[200] + rng.uniform(-0.2, 0.2, (50, 3))
    for pts, cutoffs in ((cloud, (5.0, 4.4, 2.8, 1.5, 0.6)),
                         (cloud[:30], (2.8, 1.5))):
        ci, cj = (np.ascontiguousarray(a, dtype=np.int64)
                  for a in np.triu_indices(len(pts), 1))
        cdist = _separations_numpy(pts, ci, cj, length)[1]
        for c in cutoffs:
            ki, kj = _cell_pairs_compiled(kernels.cells, pts, length, c)
            keep = cdist < c
            if (ki.tobytes() != ci[keep].tobytes()
                    or kj.tobytes() != cj[keep].tobytes()):
                return False

    # the fused assembly on those pairs shuffled, every other one reversed,
    # from a table and its negation (a negative f(0), whose zeros are
    # -0.0); one separation is a table node and one its last
    order = rng.permutation(got[0].size)
    pi, pj, rij, dist = (a[order] for a in got)
    pi[1::2], pj[1::2] = pj[1::2], pi[1::2].copy()
    for xi, sign in ((0.45, 1.0), (0.6, -1.0)):
        table = pse.coefficient_table(xi, cutoff)
        table = table._replace(values=sign * table.values)
        dist[:2] = 3.0, (len(table.values) - 1) / table.inv_h
        rij[:2] = 0.0
        rij[:2, 0] = dist[:2]
        got = _assemble_dyads_compiled(kernels.dyads, 40, pi, pj, table,
                                       rij, dist)
        want = bcsr_assemble(
            40, pi, pj, pair_dyads(rij, *table.gather(dist)),
            np.broadcast_to(table.values[0, 0] * np.eye(3), (40, 3, 3)))
        if not all(g.tobytes() == w.tobytes() for g, w in zip(got, want)):
            return False

    # the kept grid against every (point, candidate) pair: the cloud's even
    # rows inserted in two steps, its odd rows the candidates (the pairs at
    # exactly 2.8 and an ulp inside straddle the two), on one, two, three
    # and a capped five cells per edge
    pts, cand = cloud[::2], cloud[1::2]
    both = wrap_positions(np.concatenate([pts, cand]), length)
    pi = np.repeat(np.arange(len(pts), dtype=np.int64), len(cand))
    pj = len(pts) + np.tile(np.arange(len(cand), dtype=np.int64), len(pts))
    cdist = _separations_numpy(both, pi, pj, length)[1].reshape(len(pts), -1)
    for c in (5.0, 4.4, 2.8, 1.5, 0.6):
        grid = RsaGrid(kernels.rsa, len(pts), length, c)
        for lo, hi in ((0, 60), (60, len(pts))):
            grid.add(pts[lo:hi])
            if not np.array_equal(grid.clear_of(cand),
                                  ~np.any(cdist[:hi] < c, axis=0)):
                return False

    # the influence against the NumPy slab loop, at an even K (zero
    # Nyquist planes) and an odd one, with and without noise, whole and
    # over a split that cuts a tile: spectra with exact zeros of both
    # signs, so a dropped product with 0.0 shows as well as a contracted
    # multiply-add
    from ..geometry.box import Box
    from ..pme.influence import InfluenceFunction
    from ..pme.mesh import Mesh
    for K in (8, 9):
        infl = InfluenceFunction(Mesh(Box(7.0), K), xi=0.8, p=4)
        modes = infl.scalar.size
        spec, noise = (rng.standard_normal((3, 3) + infl.mesh.rshape + (2,))
                       .view(np.complex128)[..., 0] for _ in range(2))
        flat = spec.reshape(-1)
        flat[::7] = 0.0
        flat[::11] = -0.0
        flat.real[::5] = -0.0
        flat.imag[::13] = -0.0
        for w in (None, noise):
            want = infl._apply_slabs(spec.copy(), w)
            at = None if w is None else w.ctypes.data
            for cuts in ((0, modes), (0, 300, modes)):
                got = spec.copy()
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    kernels.influence(lo, hi, 3, modes, infl._khat,
                                      infl.scalar, infl.sqrt_scalar, got, at)
                if got.tobytes() != want.tobytes():
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
    hi, indptr, indices, packed, x, y, s)`` — block rows ``[lo, hi)``
    only, ``packed`` the ``(nnzb, 6)`` upper triangles — with ``x``/``y``
    row-major ``(nb, 3, s)`` float64 arrays.  The result is memoized for
    the process lifetime.
    """
    return getattr(_bundle(), "spmm", None)


def influence_kernel() -> object | None:
    """The compiled influence entry point, or ``None`` when unavailable.

    The callable has the C signature ``influence_range(lo, hi, s, modes,
    khat, scalar, root, spec, noise)``: half-spectrum modes ``[lo, hi)``
    of :meth:`repro.pme.influence.InfluenceFunction.apply_batch` over the
    C-contiguous ``spec (3, s, modes)`` complex128, in place; ``khat (3,
    modes)``, ``scalar`` and ``root (modes,)`` float64; ``noise`` the
    address of a C-contiguous array shaped like ``spec``, or ``None``.
    """
    return getattr(_bundle(), "influence", None)


def spread_ranges(weights: np.ndarray, columns: np.ndarray, idx: np.ndarray,
                  values: np.ndarray, out: np.ndarray,
                  ranges: list[tuple[int, int]]) -> None:
    """Scatter-add particles ``idx[lo:hi]`` of every range onto the
    batch-first mesh ``out (lanes, K^3)``: the compiled kernel, or an
    ``np.add.at`` pass with the same accumulation order (which only the
    colored reference schedule takes: the pipeline's one-column scatter
    uses SciPy's ``P^T`` product when the kernel is unavailable)."""
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


def _compiled(name: str):
    """The loaded entry point ``name``; ``ConfigurationError`` without
    the kernels."""
    kern = getattr(_bundle(), name, None)
    if kern is None:
        raise ConfigurationError(f"the {name} kernel needs the compiled "
                                 "kernels, which are unavailable")
    return kern


def mesh_interleave(mesh: np.ndarray, mt: np.ndarray,
                    ranges: list[tuple[int, int]]) -> None:
    """Copy mesh points ``[lo, hi)`` of every range of the batch-first
    ``mesh (lanes, K^3)`` into ``mt``, the same mesh lane-interleaved
    ``(K^3, lanes)`` (any C-contiguous float64 array of that size):
    compiled kernels only."""
    kern = _compiled("interleave")
    lanes, k3 = mesh.shape
    for lo, hi in ranges:
        kern(lo, hi, mesh, k3, lanes, mt)


def interp_interleaved(order: np.ndarray, weights: np.ndarray,
                       columns: np.ndarray, mt: np.ndarray, out: np.ndarray,
                       ranges: list[tuple[int, int]]) -> None:
    """Gather particle rows ``order[lo:hi]`` of every range from the
    lane-interleaved ``mt (K^3, lanes)`` into ``out (lanes, n)``, every
    lane per visit of a row: the bytes of :func:`interp_ranges` on the
    batch-first mesh, in any visit order.  Compiled kernels only."""
    kern = _compiled("gather")
    pcube, (lanes, n) = weights.shape[1], out.shape
    for lo, hi in ranges:
        kern(lo, hi, order, weights, columns, pcube, mt, lanes, n, out)


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


#: Where the 6 stored doubles of a symmetric block (00 01 02 11 12 22)
#: sit in its flattened 3x3 form, and where the 9 entries of that form
#: sit among the 6.
_UPPER = [0, 1, 2, 4, 5, 8]
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def pack_symmetric(blocks: np.ndarray) -> np.ndarray:
    """The packed ``(m, 6)`` upper triangles of ``(m, 3, 3)`` blocks,
    which must be symmetric byte for byte (``ConfigurationError``
    otherwise: the lower triangle is not stored)."""
    flat = np.ascontiguousarray(blocks, dtype=np.float64).reshape(-1, 9)
    bits = flat.view(np.uint64)
    if not np.array_equal(bits[:, [1, 2, 5]], bits[:, [3, 6, 7]]):
        raise ConfigurationError(
            "BCSR blocks must be symmetric byte for byte: only the upper "
            "triangle of a block is stored")
    return flat.take(_UPPER, axis=1)


def unpack_symmetric(packed: np.ndarray) -> np.ndarray:
    """The ``(m, 3, 3)`` blocks of packed ``(m, 6)`` upper triangles."""
    return packed.take(_FULL, axis=1).reshape(-1, 3, 3)


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
            "a half pair list holds off-diagonal pairs only (i != j); "
            "the diagonal is passed separately")
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ConfigurationError(
            f"pair index out of range for {n} block rows")
    return i, j


def bcsr_assemble(n: int, i: np.ndarray, j: np.ndarray,
                  pair_blocks: np.ndarray,
                  diag_blocks: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, packed)`` of the symmetric BCSR matrix with
    ``pair_blocks[k]`` at ``(i[k], j[k])`` and at ``(j[k], i[k])`` (it is
    its own transpose) and ``diag_blocks`` on the diagonal: rows
    ascending, columns ascending within a row, every block packed to the
    ``(6,)`` upper triangle of :func:`pack_symmetric`.

    The half pair list may come in any order and either orientation
    (each unordered pair once, ``i != j``).  The body is the ``lexsort``
    reference, packed — the bytes :func:`bcsr_assemble_dyads` is pinned
    to.  Shapes, ``i != j``, the index range and the symmetry of every
    payload are checked.
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
    indptr, indices, blocks = _assemble_lexsort(n, i, j, pair_blocks,
                                                diag_blocks)
    return indptr, indices, pack_symmetric(blocks)


def _assemble_dyads_compiled(kern, n: int, i: np.ndarray, j: np.ndarray,
                             table, rij: np.ndarray, dist: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One call of the fused C assembly into freshly allocated outputs."""
    nnz = 2 * i.size + n
    out = (np.empty(n + 1, dtype=np.int64), np.empty(nnz, dtype=np.int64),
           np.empty((nnz, 6)))
    values = np.ascontiguousarray(table.values, dtype=np.float64)
    kern(n, i.size, i, j, values, len(values), float(table.inv_h), rij, dist,
         *out, np.empty(n + 1 + nnz, dtype=np.int64))
    return out


def bcsr_assemble_dyads(n: int, i: np.ndarray, j: np.ndarray, table,
                        rij: np.ndarray, dist: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, packed)`` of the real-space matrix: block ``f
    I + g rhat rhat^T``, ``rhat = rij[k] / dist[k]`` and ``(f, g)`` the
    :class:`~repro.rpy.pse.CoefficientTable` ``table`` gathered at
    ``dist[k]`` (in ``(0, top]``), at ``(i[k], j[k])`` and at its mirror,
    the table's ``f(0) I`` on every diagonal, laid out as
    :func:`bcsr_assemble` lays out a half pair list in any order.

    The compiled kernel computes each block in the slot it is stored in
    (no multiply-add contraction; self-tested at load).  The fallback is
    :func:`bcsr_assemble` of :func:`~repro.rpy.tensor.pair_dyads` on
    :meth:`~repro.rpy.pse.CoefficientTable.gather` — the same bytes.
    """
    i, j = _pair_indices(n, i, j)
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    rij = np.ascontiguousarray(rij, dtype=np.float64)
    if not (dist.shape == i.shape and rij.shape == (i.size, 3)
            and np.shape(table.values)[1:] == (2,) and len(table.values) > 1):
        raise ConfigurationError("pair arrays must have matching shapes (m,) "
                                 "and (m, 3), the table (nodes > 1, 2)")
    top = (len(table.values) - 1) / table.inv_h
    if not np.all((dist > 0) & (dist <= top)):
        raise ConfigurationError(
            f"pair separations must lie in (0, {top}], the table's range")
    kern = getattr(_bundle(), "dyads", None)
    if kern is None:
        from ..rpy.tensor import pair_dyads  # lazy: an import cycle via rpy
        return bcsr_assemble(
            n, i, j, pair_dyads(rij, *table.gather(dist)),
            np.broadcast_to(table.values[0, 0] * np.eye(3), (n, 3, 3)))
    return _assemble_dyads_compiled(kern, n, i, j, table, rij, dist)


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
    what that means (or that it is an error).  The outputs are sized
    for every candidate and shrunk in place to the pairs kept, so the
    arrays returned own exactly their rows."""
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
    if strict:          # shrink the outputs to the pairs kept, in place
        for out in (ki, kj, rij, dist):
            out.resize((kept,) + out.shape[1:], refcheck=False)
    return ki, kj, rij, dist


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


def _cell_grid(n: int, box_length: float, cutoff: float) -> tuple[int, int]:
    """``(m, reach)`` of the cell list: ``m`` cells per edge of side ``L /
    m >= cutoff / reach``, from ``(L, cutoff, n)`` alone.

    Reach 2 (half-width cells) while ``L / cutoff < 5``, where whole-cutoff
    cells would sweep most of the box; reach 1 beyond.  Below ``L /
    cutoff = 3`` one cell holds everything and every pair is tested —
    minimum-image truncation included.  ``m^3 <= n``, so a dilute box
    allocates nothing of order ``(L / cutoff)^3``; the side keeps a
    ``1e-9`` margin over ``cutoff / reach`` that binning round-off cannot
    eat.
    """
    ratio = box_length / cutoff
    if ratio < 3.0:
        return 1, 0
    reach = 2 if ratio < 5.0 else 1
    most = int(round(n ** (1.0 / 3.0)))
    while most ** 3 > n:
        most -= 1
    return max(1, int(min(reach * ratio / (1.0 + 1e-9), most))), reach


def _cell_pairs_compiled(kern, positions: np.ndarray, box_length: float,
                         cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """``cell_list_pairs`` on wrapped ``(n, 3)`` float64 positions: the
    buffers sized for a uniform density (half again, plus ``n``), and
    one retry at the exact count when a clustered configuration has
    more pairs."""
    r = np.ascontiguousarray(positions, dtype=np.float64)
    n = r.shape[0]
    m, reach = _cell_grid(n, box_length, cutoff)
    total = n * (n - 1) // 2
    ball = 4.0 / 3.0 * math.pi * min(cutoff / box_length, 1.0) ** 3
    cap = min(total, int(1.5 * ball * total) + n)
    iwork = np.empty(m ** 3 + 3 * n + 2, dtype=np.int64)
    spos = np.empty_like(r)
    while True:
        ki, kj, ti, tj = (np.empty(cap, dtype=np.int64) for _ in range(4))
        found = kern(n, r, box_length, cutoff, m, reach, cap,
                     ki, kj, ti, tj, iwork, spos)
        if found <= cap:
            return ki[:found], kj[:found]
        cap = found


def cell_list_pairs(positions: np.ndarray,  # noqa: RPR001 - validated by find_pairs
                    box_length: float, cutoff: float
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """The compiled body of :func:`repro.neighbor.pairs.find_pairs`:
    pairs ``(i, j)``, ``i < j``, of positions wrapped into ``[0, L)^3``
    with minimum-image distance ``< cutoff`` (``min_image_pairs``'
    arithmetic), in lexicographic order — or ``None`` without the
    kernels.  Time O(n + pairs) at a uniform density (below ``L / cutoff
    = 3``, one cell: every pair is tested), memory O(n + pairs): no
    O(n^2) buffer.
    """
    kern = getattr(_bundle(), "cells", None)
    if kern is None:
        return None
    r = np.ascontiguousarray(positions, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ConfigurationError(
            f"positions must have shape (n, 3), got {r.shape}")
    if not (box_length > 0 and cutoff > 0):
        raise ConfigurationError("box length and cutoff must be positive")
    return _cell_pairs_compiled(kern, r, float(box_length), float(cutoff))


class RsaGrid:
    """The accepted set of random sequential addition as a kept cell grid
    (``rsa_test_insert``): up to ``n`` points, wrapped into ``[0, L)^3``,
    in ``m`` cells per edge of side ``L / m >= cutoff`` (with
    :func:`_cell_grid`'s ``1e-9`` margin; ``m`` at most the nearest
    integer to ``n^(1/3)``, so O(n) memory at any density).

    :meth:`add` inserts each point once; :meth:`clear_of` tests only its
    candidates, in O(candidates) however many points the grid holds.
    Membership is the pair search's minimum-image ``dist < cutoff`` of
    (point, candidate), so the mask is the one a
    :func:`~repro.neighbor.pairs.find_pairs` over the points and the
    candidates together gives.
    """

    def __init__(self, kern, n: int, box_length: float, cutoff: float):
        m = max(1, min(int(box_length / cutoff / (1.0 + 1e-9)),
                       round(n ** (1.0 / 3.0))))
        self._kern, self._m = kern, m
        self._length, self._cutoff = float(box_length), float(cutoff)
        self._head = np.full(m ** 3, -1, dtype=np.int64)
        self._link = np.full(n, -1, dtype=np.int64)
        self._points = np.empty((n, 3))
        self.count = 0

    def _call(self, hi: int, candidates: np.ndarray) -> np.ndarray:
        ok = np.empty(candidates.shape[0], dtype=bool)
        self._kern(self._m, self._head, self._link, self._points,
                   self.count, hi, candidates.shape[0], candidates,
                   self._length, self._cutoff, ok)
        self.count = hi
        return ok

    def add(self, rows: np.ndarray) -> None:
        """Insert ``rows`` ``(k, 3)`` after the points inserted so far."""
        rows = np.asarray(rows, dtype=np.float64)
        room = self._link.size - self.count
        if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] > room:
            raise ConfigurationError(
                f"RsaGrid.add: rows must be (k, 3) with k <= {room}, "
                f"got {rows.shape}")
        hi = self.count + rows.shape[0]
        self._points[self.count:hi] = wrap_positions(rows, self._length)
        self._call(hi, np.empty((0, 3)))

    def clear_of(self, candidates: np.ndarray) -> np.ndarray:
        """Mask of the ``(m, 3)`` candidates no point lies within
        ``cutoff`` of."""
        cand = wrap_positions(candidates, self._length)
        if cand.ndim != 2 or cand.shape[1] != 3:
            raise ConfigurationError(
                f"RsaGrid.clear_of: candidates must be (m, 3), "
                f"got {cand.shape}")
        return self._call(self.count, cand)


def rsa_grid(n: int, box_length: float, cutoff: float) -> RsaGrid | None:
    """An empty :class:`RsaGrid` for up to ``n`` points, or ``None``
    without the kernels."""
    kern = getattr(_bundle(), "rsa", None)
    return None if kern is None else RsaGrid(kern, n, box_length, cutoff)


def kernel_available() -> bool:
    """True when the native kernels compiled and passed self-test."""
    return _bundle() is not None
