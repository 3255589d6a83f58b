"""Spreading and interpolation as sparse-matrix products (paper Section IV.A).

The key reformulation of the paper: the B-spline spreading of forces
onto the mesh is ``F = P^T f`` and the interpolation of mesh velocities
back to the particles is ``u = P U``, with ``P`` the ``n x K^3``
interpolation matrix of Eq. 7 (``p^3`` nonzeros per row).  Because the
Krylov method applies the same PME operator to many vectors, ``P`` is
precomputed once per mobility update and reused — the optimization
measured in Fig. 4.  On-the-fly variants that never store ``P`` are
provided for that comparison.

``P`` is stored as a ``scipy.sparse.csr_matrix``: as the paper notes,
row pointers are redundant (every row has exactly ``p^3`` nonzeros) but
CSR keeps the compiled SpMV available; the redundancy is one ``intp``
per particle.

:class:`InterpolationMatrix` is the one stored-``P`` spreader of the
mobility pipeline, whatever the execution backend: it also keeps
``P^T`` in CSR *by mesh row*, which turns spreading from a scatter over
particles (racy: hence the paper's Section IV.B.2 colouring) into a
gather with one writer and a fixed summation order per mesh point.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..errors import ConfigurationError
from ..exec import INLINE
from ..geometry.box import Box
from ..lint.contracts import positions_arg
from ..sparse import kernels
from ..utils.validation import as_positions
from .bspline import bspline_weights

__all__ = ["InterpolationMatrix", "spread_on_the_fly", "interpolate_on_the_fly"]


def _weights_and_columns(positions, box: Box, K: int, p: int,
                         kind: str = "bspline"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle interpolation weights and flattened mesh indices.

    Returns ``(data, cols)`` with shapes ``(n, p^3)``: row ``i`` holds
    the ``p^3`` spreading weights of particle ``i`` and the flat
    (row-major) indices of the mesh points they address.

    ``kind`` selects cardinal B-splines (smooth PME, default) or
    Lagrange polynomials (the original PME of Darden et al.; see
    :mod:`repro.pme.lagrange`).
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

    if kind == "bspline":
        w = [bspline_weights(frac[:, d], p) for d in range(3)]  # 3 x (n, p)
        j = np.arange(p, dtype=np.intp)
        idx = [np.mod(base[:, d][:, None] - j[None, :], K) for d in range(3)]
    elif kind == "lagrange":
        from .lagrange import lagrange_weights, lagrange_window_offsets
        w = [lagrange_weights(frac[:, d], p) for d in range(3)]
        j = lagrange_window_offsets(p)
        idx = [np.mod(base[:, d][:, None] + j[None, :], K) for d in range(3)]
    else:
        raise ConfigurationError(f"unknown interpolation kind {kind!r}")

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

    kind:
        ``"bspline"`` (smooth PME, default) or ``"lagrange"`` (original
        PME interpolation).

    Notes
    -----
    Construction is step 1 of the paper's six-step reciprocal-space
    pipeline; :meth:`spread` is step 2 and :meth:`interpolate` step 6.
    """

    @positions_arg()
    def __init__(self, positions, box: Box, K: int, p: int,
                 kind: str = "bspline"):
        with obs.span("pme.build_p", K=int(K), p=int(p), kind=kind):
            data, cols = _weights_and_columns(positions, box, K, p,
                                              kind=kind)
            n = data.shape[0]
            self.n = n
            self.K = int(K)
            self.p = int(p)
            self.kind = kind
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
            # P^T in CSR by mesh row as the gather's int64 (indptr,
            # indices, data); the conversion leaves each row's particle
            # ids ascending, which fixes every mesh point's sum order
            pt = self.matrix.T.tocsr()
            self._pt = (pt.indptr.astype(np.int64),
                        pt.indices.astype(np.int64), pt.data)

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
        A gather over rows of ``P^T``
        (:func:`repro.sparse.kernels.spread_rows`): each mesh point is
        written by exactly one task and summed in ascending particle
        order, so the bytes do not depend on the row partition.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if out is None:
            out = np.empty((values.shape[1], self.K ** 3))
        (context or INLINE).run_ranges(
            lambda lo, hi: kernels.spread_rows(*self._pt, values, out,
                                               [(lo, hi)]),
            self.K ** 3, "spread")
        return out

    def interpolate_batch(self, mesh_values: np.ndarray,
                          out: np.ndarray | None = None,
                          context=None) -> np.ndarray:
        """Interpolate a batch-first mesh block back to the particles.

        Parameters
        ----------
        mesh_values:
            Shape ``(B, K^3)`` — one C-contiguous mesh field per lane.
        out:
            Optional preallocated ``(B, n)`` output.
        context:
            Optional :class:`~repro.exec.ExecutionContext` whose workers
            share the particle rows; ``None`` runs on the calling thread.

        Returns
        -------
        ``(B, n)`` array with ``out[b] = P mesh_values[b]``, gathered
        by :func:`repro.sparse.kernels.interp_ranges` (rows independent:
        any row partition is bit-identical).
        """
        mesh_values = np.ascontiguousarray(mesh_values, dtype=np.float64)
        if out is None:
            out = np.empty((mesh_values.shape[0], self.n))
        (context or INLINE).run_ranges(
            lambda lo, hi: kernels.interp_ranges(
                self.weights, self.columns, mesh_values, out, [(lo, hi)]),
            self.n, "interpolate")
        return out

    @property
    def memory_bytes(self) -> int:
        """Bytes held by ``P`` and ``P^T`` (values, indices and row
        pointers of each).

        The paper's model charges ``12 p^3 n`` bytes for ``P`` (8-byte
        values + 4-byte column indices); the resident ``P^T`` (same
        nonzeros, 8-byte indices, a ``K^3 + 1`` row pointer) is the
        spreading operand here, so what is actually held is reported.
        """
        m = self.matrix
        return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                + sum(a.nbytes for a in self._pt))


def spread_on_the_fly(positions, box: Box, K: int, p: int,
                      values: np.ndarray, chunk: int = 65536,
                      kind: str = "bspline") -> np.ndarray:
    """Spread without storing ``P`` (recomputes weights every call).

    This is the baseline of the Fig. 4 comparison: lower memory traffic
    per application but the ``O(p^3 n)`` weight computation is repeated
    for every vector.  Processes particles in chunks to bound the
    temporary memory.

    Parameters and return as :meth:`InterpolationMatrix.spread`.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.ndim == 1
    vals = values[:, None] if flat else values
    n, s = vals.shape
    out = np.zeros((K ** 3, s))
    r = as_positions(positions, n)
    with obs.span("pme.spread_otf", n=n, s=s):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            data, cols = _weights_and_columns(r[lo:hi], box, K, p, kind=kind)
            # scatter-add: multiple particles hit the same mesh points
            contrib = data[:, :, None] * vals[lo:hi, None, :]
            np.add.at(out, cols.ravel(),
                      contrib.reshape(-1, s))
    return out[:, 0] if flat else out


def interpolate_on_the_fly(positions, box: Box, K: int, p: int,
                           mesh_values: np.ndarray, chunk: int = 65536,
                           kind: str = "bspline") -> np.ndarray:
    """Interpolate without storing ``P`` (counterpart of
    :func:`spread_on_the_fly`)."""
    mesh_values = np.asarray(mesh_values, dtype=np.float64)
    flat = mesh_values.ndim == 1
    mv = mesh_values[:, None] if flat else mesh_values
    r = as_positions(positions)
    n = r.shape[0]
    out = np.empty((n, mv.shape[1]))
    with obs.span("pme.interpolate_otf", n=n, s=int(mv.shape[1])):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            data, cols = _weights_and_columns(r[lo:hi], box, K, p, kind=kind)
            out[lo:hi] = np.einsum("ie,ies->is", data, mv[cols],
                                   optimize=True)
    return out[:, 0] if flat else out
