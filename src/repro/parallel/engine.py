"""Context-driven execution of the colored spread/interpolate stages.

The paper's Section IV.B.2 schedule on real workers, kept as the
reference for the ablation benchmark and the race-freedom tests (the
pipeline's spreader, :class:`~repro.pme.spread.InterpolationMatrix`,
scatters only on one worker and otherwise gathers over ``P'`` rows, so
it needs no colouring):
:class:`ColoredPMEEngine` takes the per-particle interpolation
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
**bit-identical** across the ``serial`` and ``threads`` backends at any
worker count for a fixed kernel configuration.  The order differs from
the pipeline's (colour by colour, not ascending particle), so the two
agree to rounding, not bytewise.

Mesh layout is batch-first ``(lanes, K^3)``, matching the batched FFT
pipeline of :meth:`repro.pme.operator.PMEOperator.apply_block`.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from ..geometry.box import Box
from ..sparse import kernels
from ..utils.validation import as_positions, require, require_buffer
from .coloring import IndependentSetColoring
from .partition import balance_by_cost, row_blocks

__all__ = ["ColoredPMEEngine"]


class ColoredPMEEngine:
    """Executes spread/interpolate on an execution context's workers.

    Parameters
    ----------
    positions, box, K, p:
        The particle configuration and mesh the tables belong to.
    weights, columns:
        The ``(n, p^3)`` spreading weights and flat mesh columns
        (``InterpolationMatrix.weights`` / ``.columns``, shared with the
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
        the context's workers with plain disjoint stores.  Shapes are
        checked before any kernel runs (``ConfigurationError``).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        require(values.ndim == 2 and values.shape[0] == self.n,
                f"values must have shape ({self.n}, B), got {values.shape}")
        require_buffer(out, "out", shape=(values.shape[1], self.K ** 3))
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
        """Gather ``mesh (lanes, K^3)`` to particles ``out (lanes, n)``;
        shapes checked first (``ConfigurationError``)."""
        mesh = np.ascontiguousarray(mesh, dtype=np.float64)
        require(mesh.ndim == 2 and mesh.shape[1] == self.K ** 3,
                f"mesh must have shape (B, {self.K ** 3}), got {mesh.shape}")
        require_buffer(out, "out", shape=(mesh.shape[0], self.n))
        self.context.run_tasks(
            [functools.partial(kernels.interp_ranges, self.weights,
                               self.columns, mesh, out, [(lo, hi)])
             for lo, hi in row_blocks(self.n, self.context.workers)
             if hi > lo],
            stage="interpolate")
        return out
