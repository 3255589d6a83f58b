"""Context-driven execution of the colored spread/interpolate stages.

This is where the paper's Section IV.B.2 schedule finally meets real
workers: :class:`ColoredPMEEngine` takes the per-particle interpolation
tables (the ``(n, p^3)`` weight/column arrays behind ``P``), groups the
particles into the 8 independent sets of
:class:`~repro.parallel.coloring.IndependentSetColoring`, splits every
color into its mesh blocks, and executes

* **spreading** color by color, with the blocks of each color
  dispatched across the workers of an
  :class:`~repro.exec.ExecutionContext` — block write footprints are
  disjoint within a color, so the workers scatter with plain stores
  (no atomics), through :func:`repro.sparse.kernels.spread_ranges`
  (the GIL-releasing C kernel when available, an order-preserving
  ``np.add.at`` fallback otherwise);
* **interpolation** as a row-partitioned gather
  (:func:`~repro.parallel.partition.row_blocks`), trivially disjoint.

Accumulation order is fixed by construction — colors sequential,
within a color each mesh point is written by exactly one block, within
a block particles in a deterministic order — so the results are
**bit-identical** across the ``serial``, ``threads`` and ``processes``
backends for a fixed kernel configuration (the tested headline
invariant of the execution layer).

Mesh layout is batch-first ``(lanes, K^3)``, matching the batched FFT
pipeline of :meth:`repro.pme.operator.PMEOperator.apply_block`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any

import numpy as np

from ..geometry.box import Box
from ..sparse import kernels
from ..utils.validation import as_positions
from .coloring import IndependentSetColoring
from .partition import balance_by_cost, row_blocks

__all__ = ["ColoredPMEEngine"]

#: Engine instance counter (namespaces the shared-memory keys).
_SEQ = itertools.count()


class ColoredPMEEngine:
    """Executes spread/interpolate on an execution context's workers.

    Parameters
    ----------
    positions, box, K, p:
        The particle configuration and mesh the tables belong to.
    weights, columns:
        The ``(n, p^3)`` spreading weights and flat mesh columns (from
        :func:`repro.pme.spread._weights_and_columns`, shared with the
        stored ``P`` so nothing is recomputed).
    context:
        The :class:`~repro.exec.ExecutionContext` owning the workers.
    """

    def __init__(self, positions: Any, box: Box, K: int, p: int, *,
                 weights: np.ndarray, columns: np.ndarray, context: Any):
        self.K = int(K)
        self.p = int(p)
        self.context = context
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.columns = np.ascontiguousarray(columns, dtype=np.int64)
        self.n = self.weights.shape[0]
        self.coloring = IndependentSetColoring(K, p)
        groups = self.coloring.groups(as_positions(positions), box)
        # Per color: particle indices stably ordered by block id, plus
        # the contiguous (lo, hi) range of each block inside that order.
        self._color_idx: list[np.ndarray] = []
        self._color_ranges: list[list[tuple[int, int]]] = []
        for group in groups:
            # column 0 is the window end (base_x, base_y, base_z): it
            # names the particle's block
            bid = self.coloring.block_ids(self.columns[group][:, 0])
            order = np.argsort(bid, kind="stable")
            idx = np.ascontiguousarray(group[order], dtype=np.int64)
            sorted_bid = bid[order]
            bounds = np.flatnonzero(np.diff(sorted_bid)) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [idx.size]))
            self._color_idx.append(idx)
            self._color_ranges.append(
                [(int(lo), int(hi)) for lo, hi in zip(starts, stops)
                 if hi > lo])                # an empty color has no blocks
        # processes-backend shared-memory state (registered lazily)
        self._shm_prefix: str | None = None
        self._shm_static: dict[str, Any] = {}
        self._shm_idx: list[Any] = []

    def block_footprints(self, color: int) -> list[np.ndarray]:
        """Within one color, the mesh points written per block.

        These sets are pairwise disjoint — the race-freedom property.
        """
        idx = self._color_idx[color]
        return [np.unique(self.columns[idx[lo:hi]])
                for lo, hi in self._color_ranges[color]]

    # ------------------------------------------------------------------
    # spreading (scatter-add, 8 color stages)
    # ------------------------------------------------------------------

    def spread_batch(self, values: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """Scatter ``values (n, lanes)`` onto the mesh ``out (lanes, K^3)``.

        Color stages run sequentially; the blocks of each color run on
        the context's workers with plain disjoint stores.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if self.context.backend == "processes":
            return self._spread_processes(values, out)
        out[...] = 0.0
        for idx, ranges in zip(self._color_idx, self._color_ranges):
            if not ranges:
                continue
            self.context.run_tasks(
                [functools.partial(kernels.spread_ranges, self.weights,
                                   self.columns, idx, values, out, share)
                 for share in self._share_ranges(ranges,
                                                 self.context.workers)],
                stage="spread")
        return out

    @staticmethod
    def _share_ranges(ranges: list[tuple[int, int]], workers: int
                      ) -> list[list[tuple[int, int]]]:
        """Cost-balanced assignment of block ranges to workers."""
        if workers <= 1 or len(ranges) <= 1:
            return [ranges]
        sizes = [hi - lo for lo, hi in ranges]
        assignment = balance_by_cost(sizes, min(workers, len(ranges)))
        return [[ranges[i] for i in part] for part in assignment if part]

    # ------------------------------------------------------------------
    # interpolation (row-partitioned gather)
    # ------------------------------------------------------------------

    def interpolate_batch(self, mesh: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        """Gather ``mesh (lanes, K^3)`` to particles ``out (lanes, n)``."""
        mesh = np.ascontiguousarray(mesh, dtype=np.float64)
        if self.context.backend == "processes":
            return self._interp_processes(mesh, out)
        self.context.run_tasks(
            [functools.partial(kernels.interp_ranges, self.weights,
                               self.columns, mesh, out, [(lo, hi)])
             for lo, hi in row_blocks(self.n, self.context.workers)
             if hi > lo],
            stage="interpolate")
        return out

    # ------------------------------------------------------------------
    # processes backend (shared-memory jobs)
    # ------------------------------------------------------------------

    def _proc_setup(self, pool: Any) -> None:
        """Register the static tables once per engine."""
        if self._shm_prefix is not None:
            return
        prefix = f"eng{next(_SEQ)}-"
        self._shm_prefix = prefix
        self._shm_static = {
            "data": pool.share(prefix + "w", self.weights),
            "cols": pool.share(prefix + "c", self.columns)}
        self._shm_idx = [pool.share(f"{prefix}i{c}", idx)
                         for c, idx in enumerate(self._color_idx)]

    def _spread_processes(self, values: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        pool = self.context.proc_pool()
        self._proc_setup(pool)
        prefix = self._shm_prefix
        vals_tok = pool.share(prefix + "vals", values)
        mesh_tok = pool.output(prefix + "mesh", out.shape)
        pool.view(prefix + "mesh")[...] = 0.0
        n_jobs = 0
        for color, ranges in enumerate(self._color_ranges):
            if not ranges:
                continue
            shares = self._share_ranges(ranges, pool.n_workers)
            n_jobs += len(shares)
            pool.run("spread", shares, idx=self._shm_idx[color],
                     vals=vals_tok, out=mesh_tok, **self._shm_static)
        out[...] = pool.view(prefix + "mesh")
        self.context.record_dispatch(n_jobs, 0.0, "spread")
        return out

    def _interp_processes(self, mesh: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        pool = self.context.proc_pool()
        self._proc_setup(pool)
        prefix = self._shm_prefix
        mesh_tok = pool.share(prefix + "mesh_in", mesh)
        out_tok = pool.output(prefix + "part", out.shape)
        shares = [[(lo, hi)] for lo, hi in row_blocks(self.n, pool.n_workers)
                  if hi > lo]
        pool.run("interp", shares, mesh=mesh_tok, out=out_tok,
                 **self._shm_static)
        out[...] = pool.view(prefix + "part")
        self.context.record_dispatch(len(shares), 0.0, "interpolate")
        return out
