"""The pair search of the package and its brute-force reference."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..geometry.box import Box
from ..lint.contracts import positions_arg
from ..utils.validation import as_positions, require

__all__ = ["brute_force_pairs", "find_pairs", "canonicalize_pairs"]


def brute_force_pairs(positions, box: Box, cutoff: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)``, ``i < j``, with minimum-image distance < cutoff.

    O(n^2) time and memory; the reference :func:`find_pairs` is
    validated against, and its fallback for cutoffs larger than ``L/2``
    (minimum-image truncation), which the periodic kd-tree cannot take.
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


def canonicalize_pairs(i: np.ndarray, j: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sort pair lists into the canonical order (i < j, lexicographic).

    Used by tests to compare :func:`find_pairs` with the reference.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


@positions_arg()
def find_pairs(positions, box: Box, cutoff: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)``, ``i < j``, with minimum-image distance < cutoff.

    The one neighbor search behind the real-space matrix, the forces,
    the system generators and the analysis code: a periodic
    ``scipy.spatial.cKDTree`` (a substitution for the paper's Verlet
    cell list: O(n log n), compiled) proposes candidates and the strict
    ``box.distances < cutoff`` filter (:meth:`Box.pairs_within`, on the
    wrapped positions) decides membership, so the pair set is that of
    :func:`brute_force_pairs`.  The pair order is the tree's,
    deterministic for a given input.
    """
    require(cutoff > 0, f"cutoff must be positive, got {cutoff}")
    r = box.wrap(as_positions(positions))
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
    return box.pairs_within(r, pairs[:, 0], pairs[:, 1], cutoff)[:2]
