"""Radial distribution function of periodic configurations."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..lint.contracts import positions_arg
from ..neighbor.pairs import find_pairs

__all__ = ["radial_distribution"]


@positions_arg()
def radial_distribution(positions: np.ndarray, box: Box, r_max: float,
                        n_bins: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Pair correlation ``g(r)`` of one configuration.

    Parameters
    ----------
    positions:
        Particle positions ``(n, 3)``.
    box:
        Periodic box; ``r_max`` must not exceed ``L/2``.
    r_max:
        Largest separation binned.
    n_bins:
        Number of equal-width bins in ``(0, r_max]``.

    Returns
    -------
    (r, g):
        Bin centers and the normalized pair correlation (``g -> 1`` for
        an ideal gas).
    """
    r = np.asarray(positions, dtype=np.float64)
    n = r.shape[0]
    if n < 2:
        raise ConfigurationError("g(r) needs at least 2 particles")
    if r_max > box.length / 2:
        raise ConfigurationError(
            f"r_max={r_max} exceeds half the box length {box.length / 2}")
    i, j = find_pairs(r, box, r_max)
    _, dist = box.distances(r, i, j)
    counts, edges = np.histogram(dist, bins=n_bins, range=(0.0, r_max))
    centers = 0.5 * (edges[1:] + edges[:-1])
    shell_volumes = (4.0 / 3.0) * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    density = n / box.volume
    # each unordered pair counted once -> factor 2/n for the per-particle
    # average
    g = 2.0 * counts / (n * density * shell_volumes)
    return centers, g
