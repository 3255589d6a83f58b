"""Neighbor search: one periodic pair search, its reference, a Verlet list.

The paper evaluates short-range interactions (the real-space Ewald sum
and the repulsive force) "efficiently in linear time using Verlet cell
lists" (Sections IV.C and V.A, reference [27]).  This subpackage
provides:

* :func:`~repro.neighbor.pairs.find_pairs` -- the pair search of the
  whole package (real-space matrix, forces, system generators,
  analysis): a periodic ``scipy.spatial`` kd-tree proposes candidates
  and the strict minimum-image ``< cutoff`` filter decides (a
  substitution for the paper's cell list: O(n log n), compiled),
* :func:`~repro.neighbor.pairs.brute_force_pairs` -- the O(n^2)
  reference used in tests, and the fallback for cutoffs above ``L/2``,
* :class:`~repro.neighbor.verlet.VerletList` -- a skin-buffered pair
  list reusable across time steps.
"""

from .pairs import brute_force_pairs, find_pairs
from .verlet import VerletList

__all__ = ["brute_force_pairs", "find_pairs", "VerletList"]
