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
from ..lint.contracts import positions_arg
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

    def separations(self, positions
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pairs within ``cutoff`` with their minimum-image separations:
        ``(i, j, rij, dist)``, ``rij`` and ``dist`` those of
        :meth:`Box.distances` on ``positions`` as given.

        Rebuilds the underlying list (at ``cutoff + skin``) only when
        the displacement criterion requires it; otherwise the cached
        candidates are re-filtered at the true cutoff.  Membership is
        decided on the wrapped positions; for input that is already
        wrapped (the integrators') the filter's separations are the
        ones returned, so each candidate's is computed once.
        """
        given = as_positions(positions)
        r = self.box.wrap(given)
        if self._needs_rebuild(r):
            self._cached = find_pairs(r, self.box, self.cutoff + self.skin)
            self._reference_positions = r.copy()
            self.n_rebuilds += 1
        i, j, rij, dist = self.box.pairs_within(r, *self._cached, self.cutoff)
        if r.tobytes() != given.tobytes():
            rij, dist = self.box.distances(given, i, j)
        return i, j, rij, dist

    @positions_arg()
    def pairs(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(i, j)`` within ``cutoff`` for the given configuration
        (see :meth:`separations`)."""
        return self.separations(positions)[:2]

    def invalidate(self) -> None:
        """Force a rebuild on the next :meth:`pairs` call."""
        self._cached = None
        self._reference_positions = None
