"""Skin-buffered Verlet pair list reusable across time steps.

The BD integrators rebuild short-range interaction lists every step; a
Verlet list with a skin buffer amortizes the pair search by
caching all pairs within ``cutoff + skin`` and only rebuilding once any
particle has moved more than ``skin / 2`` since the last build (the
standard displacement criterion, Allen & Tildesley Section 5.3).
"""

from __future__ import annotations

import numpy as np

from ..geometry.box import Box
from ..utils.validation import as_positions, require
from .pairs import find_pairs

__all__ = ["VerletList"]


class VerletList:
    """Cached neighbor list with automatic displacement-triggered rebuilds.

    Parameters
    ----------
    box:
        Periodic simulation box.
    cutoff:
        Interaction cutoff actually needed by the force/mobility kernel.
    skin:
        Extra buffer distance; larger skins rebuild less often but
        return more candidate pairs.  Default ``0.3 * cutoff``.
    """

    def __init__(self, box: Box, cutoff: float, skin: float | None = None):
        require(cutoff > 0, f"cutoff must be positive, got {cutoff}")
        self.box = box
        self.cutoff = float(cutoff)
        self.skin = float(skin) if skin is not None else 0.3 * cutoff
        require(self.skin >= 0, f"skin must be non-negative, got {self.skin}")
        self._reference_positions: np.ndarray | None = None
        self._cached: tuple[np.ndarray, np.ndarray] | None = None
        #: Number of full rebuilds performed (for diagnostics/benchmarks).
        self.n_rebuilds = 0

    def _needs_rebuild(self, r: np.ndarray) -> bool:
        if self._cached is None or self._reference_positions is None:
            return True
        if r.shape != self._reference_positions.shape:
            return True
        disp = self.box.minimum_image(r - self._reference_positions)
        max_disp = float(np.sqrt((disp * disp).sum(axis=1).max()))
        return max_disp > self.skin / 2.0

    def pairs(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """Pairs within ``cutoff`` for the given configuration.

        Rebuilds the underlying list (at ``cutoff + skin``) only when
        the displacement criterion requires it; otherwise the cached
        candidates are re-filtered at the true cutoff.
        """
        r = self.box.wrap(as_positions(positions))
        if self._needs_rebuild(r):
            self._cached = find_pairs(r, self.box, self.cutoff + self.skin)
            self._reference_positions = r.copy()
            self.n_rebuilds += 1
        i, j = self._cached
        _, dist = self.box.distances(r, i, j)
        sel = dist < self.cutoff
        return i[sel], j[sel]

    def invalidate(self) -> None:
        """Force a rebuild on the next :meth:`pairs` call."""
        self._cached = None
        self._reference_positions = None
