"""Neighbor search: a Verlet cell list, a periodic kd-tree, a reference.

The paper evaluates short-range interactions (the real-space Ewald sum
and the repulsive force) "efficiently in linear time using Verlet cell
lists" (Sections IV.C and V.A, reference [27]).  This subpackage
provides:

* :class:`~repro.neighbor.celllist.CellList` -- the from-scratch,
  vectorized linked-cell implementation: the search of the force
  fields, the system generators and the analysis code (and the default
  of :func:`~repro.neighbor.pairs.find_pairs`), and the oracle the
  kd-tree is checked against,
* :func:`~repro.neighbor.kdtree.kdtree_pairs` -- the periodic
  ``scipy.spatial`` kd-tree search the real-space matrix is built with
  (a substitution for the paper's cell list there: O(n log n), compiled,
  several times faster than the NumPy cell sweep),
* :func:`~repro.neighbor.pairs.brute_force_pairs` -- the O(n^2)
  reference used in tests,
* :class:`~repro.neighbor.verlet.VerletList` -- a skin-buffered pair
  list reusable across time steps.
"""

from .celllist import CellList
from .kdtree import kdtree_pairs
from .pairs import brute_force_pairs, find_pairs
from .verlet import VerletList

__all__ = ["CellList", "kdtree_pairs", "brute_force_pairs", "find_pairs",
           "VerletList"]
