"""Cubic periodic simulation box.

The box is the geometric context shared by every operator in the
package: Ewald sums, PME meshes, neighbor searches and integrators all take a
:class:`Box`.  Only cubic boxes are supported, matching the paper
(``L x L x L``, Section III.A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..sparse.kernels import pair_separations, pairs_within
from ..utils.pbc import fractional_coordinates, minimum_image, wrap_positions
from ..utils.validation import as_positions

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """A cubic ``L x L x L`` periodic simulation box.

    Parameters
    ----------
    length:
        Edge length ``L`` (must be positive).
    """

    length: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0):
            raise ConfigurationError(
                f"box length must be positive and finite, got {self.length}")

    @property
    def volume(self) -> float:
        """Box volume ``L^3``."""
        return self.length ** 3

    @classmethod
    def for_volume_fraction(cls, n: int, volume_fraction: float,
                            radius: float = 1.0) -> "Box":
        """Box sized so ``n`` spheres of ``radius`` occupy ``volume_fraction``.

        The paper's suspensions are characterized by the volume fraction
        ``Phi = n * (4/3) pi a^3 / L^3`` (Section V.A); this solves for L.
        """
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        if not (0 < volume_fraction < 0.74):
            raise ConfigurationError(
                "volume_fraction must be in (0, 0.74) "
                f"(sphere close packing), got {volume_fraction}")
        particle_volume = (4.0 / 3.0) * math.pi * radius ** 3
        return cls((n * particle_volume / volume_fraction) ** (1.0 / 3.0))

    def volume_fraction(self, n: int, radius: float = 1.0) -> float:
        """Volume fraction of ``n`` spheres of ``radius`` in this box."""
        return n * (4.0 / 3.0) * math.pi * radius ** 3 / self.volume

    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Minimum-image displacement vectors (see :func:`repro.utils.pbc.minimum_image`)."""
        return minimum_image(dr, self.length)

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Wrap positions into ``[0, L)^3``."""
        return wrap_positions(as_positions(positions, check_finite=False),
                              self.length)

    def fractional(self, positions: np.ndarray, mesh_dim: int) -> np.ndarray:
        """Scaled fractional coordinates ``u = r K / L`` in ``[0, K)``."""
        return fractional_coordinates(
            as_positions(positions, check_finite=False), self.length, mesh_dim)

    def distances(self, positions: np.ndarray, pairs_i: np.ndarray,
                  pairs_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-image separation vectors and distances for index pairs.

        Returns ``(rij, dist)`` where ``rij[k] = min_image(r[i_k] - r[j_k])``
        (the vector pointing from particle ``j`` to particle ``i``) and
        ``dist[k] = |rij[k]|``: one compiled pass, or the NumPy
        expressions it reproduces byte for byte
        (:func:`repro.sparse.kernels.pair_separations`).
        """
        return pair_separations(as_positions(positions, check_finite=False),
                                pairs_i, pairs_j, self.length)

    def pairs_within(self, positions: np.ndarray, pairs_i: np.ndarray,
                     pairs_j: np.ndarray, cutoff: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The candidate pairs strictly inside ``cutoff``, with their
        separations: ``(i, j, rij, dist)`` of those with ``dist <
        cutoff`` in input order, ``rij`` and ``dist`` as :meth:`distances`
        gives them — the membership test of every pair list, in the same
        pass that computes what it tests.
        """
        return pairs_within(as_positions(positions, check_finite=False),
                            pairs_i, pairs_j, self.length, cutoff)
