"""The pair search of the package and its brute-force reference."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..geometry.box import Box
from ..sparse.kernels import cell_list_pairs
from ..utils.validation import as_positions, require

__all__ = ["brute_force_pairs", "find_pairs"]


def brute_force_pairs(positions, box: Box, cutoff: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)``, ``i < j``, with minimum-image distance < cutoff.

    O(n^2) time and memory, in lexicographic order: the reference
    :func:`find_pairs` is validated against, and the fallback's answer
    for cutoffs larger than ``L/2`` (minimum-image truncation), which the
    periodic kd-tree cannot take.
    """
    require(cutoff > 0, f"cutoff must be positive, got {cutoff}")
    r = as_positions(positions)
    n = r.shape[0]
    if n < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    iu, ju = np.triu_indices(n, k=1)
    _, dist = box.distances(r, iu, ju)
    sel = dist < cutoff
    return iu[sel], ju[sel]


def find_pairs(positions, box: Box, cutoff: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)``, ``i < j``, with minimum-image distance < cutoff.

    The one neighbor search behind the real-space matrix, the forces,
    the system generators and the analysis code: the paper's cell list
    (Section IV.C), one compiled sweep in O(n + pairs)
    (:func:`repro.sparse.kernels.cell_list_pairs`) on the wrapped
    positions, whose membership test is ``box.distances < cutoff``'s
    arithmetic.  The arrays are those of :func:`brute_force_pairs` on
    the wrapped positions, lexicographic order included.  Without the
    kernels a periodic ``scipy.spatial.cKDTree`` proposes the candidates,
    the strict filter (:meth:`Box.pairs_within`) decides and a
    ``lexsort`` restores the order: the same arrays.
    """
    require(cutoff > 0, f"cutoff must be positive, got {cutoff}")
    r = box.wrap(as_positions(positions))
    pairs = cell_list_pairs(r, box.length, cutoff)
    if pairs is not None:
        return pairs
    if cutoff > box.length / 2:
        # beyond what the periodic tree accepts
        return brute_force_pairs(r, box, cutoff)
    tree = cKDTree(r, boxsize=box.length)
    # The tree's distance arithmetic is not box.distances', so it is
    # queried a hair wide and the filter below is the one membership test.
    pairs = tree.query_pairs(cutoff * (1 + 1e-12), output_type="ndarray")
    if pairs.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    i, j = box.pairs_within(r, pairs[:, 0], pairs[:, 1], cutoff)[:2]
    order = np.lexsort((j, i))
    return i[order], j[order]
