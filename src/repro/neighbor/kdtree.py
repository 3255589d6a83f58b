"""KD-tree neighbor backend built on :mod:`scipy.spatial`.

``scipy.spatial.cKDTree`` supports periodic boxes natively via the
``boxsize`` argument.  This is the search the real-space operator is
built with (:class:`repro.pme.realspace.RealSpaceOperator`), in place of
the paper's Verlet cell list: O(n log n) compiled work against the
O(n) of a cell list, and faster than the vectorized
:class:`~repro.neighbor.celllist.CellList` at every size in use.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..geometry.box import Box
from ..utils.validation import as_positions, require

__all__ = ["kdtree_pairs"]


def kdtree_pairs(positions, box: Box, cutoff: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``(i, j)``, ``i < j``, within ``cutoff`` (minimum image).

    Equivalent to :meth:`repro.neighbor.celllist.CellList.pairs`.
    ``cKDTree`` requires the cutoff not to exceed half the box length;
    larger cutoffs fall back to the brute-force reference.
    """
    require(cutoff > 0, f"cutoff must be positive, got {cutoff}")
    r = box.wrap(as_positions(positions))
    if cutoff > box.length / 2:
        from .pairs import brute_force_pairs
        return brute_force_pairs(r, box, cutoff)
    tree = cKDTree(r, boxsize=box.length)
    # The tree only proposes candidates: its distance arithmetic is not
    # box.distances', so it is queried a hair wide and the strict filter
    # below is the one membership test (as in the cell list).
    pairs = tree.query_pairs(cutoff * (1 + 1e-12), output_type="ndarray")
    if pairs.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    _, dist = box.distances(r, pairs[:, 0], pairs[:, 1])
    sel = dist < cutoff
    return pairs[sel, 0], pairs[sel, 1]
