"""Spreading and interpolation as sparse-matrix products (paper Section IV.A).

The key reformulation of the paper: the B-spline spreading of forces
onto the mesh is ``F = P^T f`` and the interpolation of mesh velocities
back to the particles is ``u = P U``, with ``P`` the ``n x K^3``
interpolation matrix of Eq. 7 (``p^3`` nonzeros per row).  Because the
Krylov method applies the same PME operator to many vectors, ``P`` is
precomputed once per mobility update and reused — the optimization
measured in Fig. 4 (the on-the-fly baseline it is measured against
lives in ``benchmarks/reference/``).

``P`` is stored as a ``scipy.sparse.csr_matrix``: as the paper notes,
row pointers are redundant (every row has exactly ``p^3`` nonzeros) but
CSR keeps the compiled SpMV available; the redundancy is one ``intp``
per particle.

:class:`InterpolationMatrix` is the one stored-``P`` spreader of the
mobility pipeline, whatever the execution backend.  It spreads a
block two ways, with the same bytes wherever both apply:

* a one-column block (3 lanes) on one worker is *scattered by
  particle*, the paper's own order: a zeroed mesh, every particle
  added in id order (:func:`repro.sparse.kernels.spread_ranges`, or
  SciPy's ``P^T`` product without the compiled kernels);
* anything wider, and every block on several workers, is *gathered
  by mesh row* over ``P'`` (``P^T`` in CSR by mesh row), which has one
  writer and a fixed summation order per mesh point — the race the
  paper's Section IV.B.2 colours away does not arise.

Both sum a mesh point's terms from zero in ascending particle id, so
serial and threaded spreads agree bit for bit.  ``P'`` is built where
the gather runs: by a multi-worker operator at construction, else on
the first wide spread.  A serial Brownian run, whose every apply has
one column, never builds it.

Interpolation is a gather by particle row either way.  A one-column
block reads the batch-first mesh a few lanes per sweep over the
particles; a wider one reads ``P`` once, as the paper's cost model
charges it: the mesh is copied lane-interleaved, ``(K^3, lanes)``,
and each particle row gathers every lane per visit of its stencil,
the particles in a spatial visit order (built on the first wide
interpolation and kept).  Every lane sums the same terms in the same
order on both routes, so they give the same bytes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..errors import ConfigurationError
from ..exec import INLINE
from ..geometry.box import Box
from ..sparse import kernels
from ..utils.validation import as_positions, require, require_buffer
from .bspline import bspline_weights

__all__ = ["InterpolationMatrix"]


#: Widest block (one column: 3 lanes) that a one-worker spread scatters
#: by particle; wider blocks gather.  Measured crossover: the scatter
#: wins at 3 lanes at every n and K tried, is mixed at 6 and loses
#: from 9 on (EXPERIMENTS.md).
SCATTER_LANES = 3


def _weights_and_columns(positions, box: Box, K: int, p: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle B-spline weights and flattened mesh indices.

    Returns ``(data, cols)`` with shapes ``(n, p^3)``: row ``i`` holds
    the ``p^3`` spreading weights of particle ``i`` and the flat
    (row-major) indices of the mesh points they address.
    """
    if p < 2:
        raise ConfigurationError(f"interpolation order must be >= 2, got {p}")
    if K < p:
        raise ConfigurationError(
            f"mesh dimension K={K} must be at least the order p={p}")
    r = as_positions(positions)
    u = box.fractional(r, K)                     # (n, 3) in [0, K)
    base = np.floor(u).astype(np.intp)
    frac = u - base

    w = [bspline_weights(frac[:, d], p) for d in range(3)]  # 3 x (n, p)
    j = np.arange(p, dtype=np.intp)
    idx = [np.mod(base[:, d][:, None] - j[None, :], K) for d in range(3)]

    data = np.einsum("ia,ib,ic->iabc", w[0], w[1], w[2]).reshape(-1, p ** 3)
    cols = ((idx[0][:, :, None, None] * K + idx[1][:, None, :, None]) * K
            + idx[2][:, None, None, :]).reshape(-1, p ** 3)
    return data, cols


class InterpolationMatrix:
    """Precomputed interpolation matrix ``P`` for one particle configuration.

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    box:
        Periodic box.
    K:
        Mesh dimension.
    p:
        B-spline order.

    Notes
    -----
    Construction is step 1 of the paper's six-step reciprocal-space
    pipeline; :meth:`spread` is step 2 and :meth:`interpolate` step 6.
    """

    def __init__(self, positions, box: Box, K: int, p: int):
        with obs.span("pme.build_p", K=int(K), p=int(p)):
            data, cols = _weights_and_columns(
                as_positions(positions, check_finite=False), box, K, p)
            n = data.shape[0]
            self.n = n
            self.K = int(K)
            self.p = int(p)
            #: Per-particle spreading weights and flat mesh columns,
            #: shape ``(n, p^3)`` — the tables behind the CSR arrays
            #: (shared memory, not copies) and the operands of the
            #: interpolation gather.
            self.weights = data
            self.columns = np.ascontiguousarray(cols, dtype=np.int64)
            indptr = np.arange(0, n * p ** 3 + 1, p ** 3, dtype=np.intp)
            #: The sparse ``n x K^3`` matrix (CSR).
            self.matrix = sp.csr_matrix(
                (data.ravel(), cols.ravel(), indptr), shape=(n, K ** 3))
            #: ``P'`` as the gather's int64 ``(indptr, indices, data)``,
            #: ``None`` until :meth:`build_rows` (the first gather).
            self._pt: tuple[np.ndarray, ...] | None = None
            #: The spatial visit order of a wide interpolation, ``None``
            #: until :meth:`build_order` (the first one).
            self._order: np.ndarray | None = None

    def build_rows(self) -> tuple[np.ndarray, ...]:
        """``P'``, ``P^T`` in CSR by mesh row, built on the first call.

        The conversion leaves each row's particle ids ascending, which
        fixes every mesh point's sum order.  A multi-worker
        :class:`~repro.pme.operator.PMEOperator` calls this at
        construction, so that ``P'`` is allocated beside ``P`` and
        before the pipeline's workspaces.
        """
        if self._pt is None:
            pt = self.matrix.T.tocsr()
            self._pt = (pt.indptr.astype(np.int64),
                        pt.indices.astype(np.int64), pt.data)
        return self._pt

    def build_order(self) -> np.ndarray:
        """The particles' visit order of a wide interpolation, built on
        the first call: a stable argsort of each particle's stencil base
        cell in blocks of ``p`` mesh points per axis, so that particles
        visited one after another share most of their stencils' mesh
        points.  Rows are independent: the order moves no byte.
        """
        if self._order is None:
            K, p = self.K, self.p
            # column 0 of a row is its stencil's base cell
            x, rest = np.divmod(self.columns[:, 0], K * K)
            y, z = np.divmod(rest, K)
            blocks = -(-K // p)
            key = ((x // p) * blocks + y // p) * blocks + z // p
            self._order = np.argsort(key, kind="stable").astype(
                np.int64, copy=False)
        return self._order

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Spread per-particle values onto the mesh: ``P^T values``.

        Parameters
        ----------
        values:
            Shape ``(n,)`` or ``(n, s)`` — one force component for each
            particle (and optionally ``s`` simultaneous vectors).

        Returns
        -------
        Mesh array of shape ``(K^3,)`` or ``(K^3, s)``.
        """
        return self.matrix.T @ values

    def interpolate(self, mesh_values: np.ndarray) -> np.ndarray:
        """Interpolate mesh values at the particle locations: ``P mesh``."""
        return self.matrix @ mesh_values

    def spread_batch(self, values: np.ndarray,
                     out: np.ndarray | None = None,
                     context=None) -> np.ndarray:
        """Spread a lane block to *batch-first* mesh layout.

        Parameters
        ----------
        values:
            Shape ``(n, B)`` — ``B`` lanes (components x vectors) of
            per-particle values.
        out:
            Optional preallocated ``(B, K^3)`` output (the batched
            pipeline reuses one across applications; every element is
            overwritten).
        context:
            Optional :class:`~repro.exec.ExecutionContext` whose workers
            share the mesh rows; ``None`` runs on the calling thread.

        Returns
        -------
        ``(B, K^3)`` array: lane ``b`` is the C-contiguous mesh field
        ``P^T values[:, b]``, ready for a contiguous in-place FFT.

        Notes
        -----
        One rule picks the order.  A one-column block (at most
        :data:`SCATTER_LANES` lanes) on one worker is scattered by
        particle into the zeroed ``out``: the compiled
        :func:`repro.sparse.kernels.spread_ranges` over all particles
        in id order, or SciPy's ``P^T`` product without it.  Anything
        else is a gather over rows of ``P'``
        (:func:`repro.sparse.kernels.spread_rows`): each mesh point is
        written by exactly one task.  Both orders sum a mesh point from
        zero in ascending particle id, so the bytes depend neither on
        the order taken nor on the row partition.  Shapes are checked
        before any kernel runs (``ConfigurationError``).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        require(values.ndim == 2 and values.shape[0] == self.n,
                f"values must have shape ({self.n}, B), got {values.shape}")
        lanes = values.shape[1]
        if out is None:
            out = np.empty((lanes, self.K ** 3))
        require_buffer(out, "out", shape=(lanes, self.K ** 3))
        context = context or INLINE
        if lanes <= SCATTER_LANES and context.workers == 1:
            if not kernels.kernel_available():
                out[...] = self.spread(values).T
            else:
                out.fill(0.0)
                kernels.spread_ranges(self.weights, self.columns,
                                      np.arange(self.n, dtype=np.int64),
                                      values, out, [(0, self.n)])
            return out
        rows = self.build_rows()
        context.run_ranges(
            lambda lo, hi: kernels.spread_rows(*rows, values, out,
                                               [(lo, hi)]),
            self.K ** 3, "spread")
        return out

    def interpolate_batch(self, mesh_values: np.ndarray,
                          out: np.ndarray | None = None,
                          context=None,
                          scratch: np.ndarray | None = None) -> np.ndarray:
        """Interpolate a batch-first mesh block back to the particles.

        Parameters
        ----------
        mesh_values:
            Shape ``(B, K^3)`` — one C-contiguous mesh field per lane.
        out:
            Optional preallocated ``(B, n)`` output.
        context:
            Optional :class:`~repro.exec.ExecutionContext` whose workers
            share the mesh points of the interleave and the particle
            rows of the gather; ``None`` runs on the calling thread.
        scratch:
            Optional C-contiguous float64 array of at least ``B K^3``
            elements that a wide block interleaves its mesh into (the
            pipeline passes its spent spectrum workspace); ``None``
            allocates one when needed.

        Returns
        -------
        ``(B, n)`` array with ``out[b] = P mesh_values[b]``.

        Notes
        -----
        A block of at most :data:`SCATTER_LANES` lanes (one column) is
        gathered from the batch-first mesh, a few lanes per pass over
        the particles (:func:`repro.sparse.kernels.interp_ranges`; SciPy
        SpMVs, one per lane, without the compiled kernels, at any
        width).  A wider one with the kernels runs two stages: the mesh
        is copied lane-interleaved into ``scratch``
        (:func:`repro.sparse.kernels.mesh_interleave`, ranges of mesh
        points), then every lane of a particle row is gathered per
        visit of its stencil, the particles in :meth:`build_order`'s
        spatial order (:func:`repro.sparse.kernels.interp_interleaved`,
        ranges of that order) — so ``P`` is read once, not once per
        few lanes.  Each lane sums the same terms in the same order on
        either route, so the bytes depend neither on the route nor on
        the partition.  Shapes are checked before any kernel runs
        (``ConfigurationError``).
        """
        mesh_values = np.ascontiguousarray(mesh_values, dtype=np.float64)
        k3 = self.K ** 3
        require(mesh_values.ndim == 2 and mesh_values.shape[1] == k3,
                f"mesh_values must have shape (B, {k3}), "
                f"got {mesh_values.shape}")
        lanes = mesh_values.shape[0]
        if out is None:
            out = np.empty((lanes, self.n))
        require_buffer(out, "out", shape=(lanes, self.n))
        if scratch is not None:
            require_buffer(scratch, "scratch", size=lanes * k3)
        context = context or INLINE
        if lanes <= SCATTER_LANES or not kernels.kernel_available():
            context.run_ranges(
                lambda lo, hi: kernels.interp_ranges(
                    self.weights, self.columns, mesh_values, out, [(lo, hi)]),
                self.n, "interpolate")
            return out
        mt = (np.empty(lanes * k3) if scratch is None
              else scratch.reshape(-1)[:lanes * k3])
        order = self.build_order()
        context.run_ranges(
            lambda lo, hi: kernels.mesh_interleave(mesh_values, mt,
                                                   [(lo, hi)]),
            k3, "interleave")
        context.run_ranges(
            lambda lo, hi: kernels.interp_interleaved(
                order, self.weights, self.columns, mt, out, [(lo, hi)]),
            self.n, "interpolate")
        return out

    @property
    def memory_bytes(self) -> int:
        """Bytes held by ``P``, by ``P'`` once built (values, indices
        and row pointers of each) and by the visit order once built.

        The paper's model charges ``12 p^3 n`` bytes for ``P`` (8-byte
        values + 4-byte column indices).  ``P'`` (same nonzeros, 8-byte
        indices, a ``K^3 + 1`` row pointer) is resident only where
        blocks are gathered: on a multi-worker operator, and after the
        first wide spread on one worker; the visit order (``8 n``
        bytes) after the first wide interpolation.  What is actually
        held is reported.
        """
        m = self.matrix
        return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                + sum(a.nbytes for a in self._pt or ())
                + (0 if self._order is None else self._order.nbytes))
