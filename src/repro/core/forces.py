"""Force models for BD simulations.

The paper's evaluation uses a single deterministic force: a repulsive
harmonic contact force preventing particle overlap (Section V.A)::

    f_ij = -125 (|r_ij| - 2a) rhat_ij     if |r_ij| <= 2a, else 0

evaluated with Verlet cell lists (here a :class:`VerletList` over the
package's one pair search).  This module provides that force plus
the small set of extras the example applications need (harmonic bonds
for polymers, constant body forces for sedimentation) behind one
``ForceField`` interface so integrators are agnostic to the model.

All forces return an ``(n, 3)`` array; energies are available for
testing (forces are validated as the negative energy gradient).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..neighbor.verlet import VerletList
from ..units import FluidParams, REDUCED
from ..utils.validation import as_positions

__all__ = ["ForceField", "RepulsiveHarmonic", "HarmonicBonds",
           "ConstantForce", "CompositeForce"]


class ForceField(ABC):
    """Interface of a deterministic force model."""

    @abstractmethod
    def forces(self, positions: np.ndarray) -> np.ndarray:
        """Forces on all particles, shape ``(n, 3)``."""

    @abstractmethod
    def energy(self, positions: np.ndarray) -> float:
        """Total potential energy of the configuration."""


class RepulsiveHarmonic(ForceField):
    """The paper's contact repulsion (Section V.A).

    Parameters
    ----------
    box:
        Periodic simulation box.
    fluid:
        Supplies the particle radius ``a`` (contact distance ``2a``).
    stiffness:
        Spring constant ``k`` in units of ``kT / a^2`` scaled into the
        simulation units; the paper uses 125.
    skin:
        Verlet-list skin (see :class:`repro.neighbor.verlet.VerletList`).

    Notes
    -----
    ``E = (k/2) (r - 2a)^2`` for ``r <= 2a``;
    ``f_i = -k (r_ij - 2a) rhat_ij`` with ``rhat_ij`` pointing from
    ``j`` to ``i`` — positive (separating) when the pair overlaps.
    """

    def __init__(self, box: Box, fluid: FluidParams = REDUCED,
                 stiffness: float = 125.0, skin: float | None = None):
        if stiffness <= 0:
            raise ConfigurationError(
                f"stiffness must be positive, got {stiffness}")
        self.box = box
        self.fluid = fluid
        self.stiffness = float(stiffness)
        self.contact = 2.0 * fluid.radius
        self._verlet = VerletList(box, self.contact, skin=skin)

    def _overlapping(self, r: np.ndarray):
        i, j, rij, dist = self._verlet.separations(r)
        sel = dist <= self.contact
        return i[sel], j[sel], rij[sel], dist[sel]

    def forces(self, positions: np.ndarray) -> np.ndarray:
        r = as_positions(positions)
        out = np.zeros_like(r)
        i, j, rij, dist = self._overlapping(r)
        if i.size == 0:
            return out
        mag = -self.stiffness * (dist - self.contact)   # > 0 when overlapping
        fij = (mag / dist)[:, None] * rij               # force on i
        np.add.at(out, i, fij)
        np.add.at(out, j, -fij)
        return out

    def energy(self, positions: np.ndarray) -> float:
        r = as_positions(positions)
        i, _, _, dist = self._overlapping(r)
        if i.size == 0:
            return 0.0
        return float(0.5 * self.stiffness
                     * np.sum((dist - self.contact) ** 2))


class HarmonicBonds(ForceField):
    """Harmonic springs between bonded bead pairs (polymer chains).

    ``E = (k/2) sum_b (|r_b| - r0)^2`` over bonds ``b`` with
    minimum-image bond vectors.
    """

    def __init__(self, box: Box, bonds: np.ndarray, stiffness: float,
                 rest_length: float):
        bonds = np.asarray(bonds, dtype=np.intp)
        if bonds.ndim != 2 or bonds.shape[1] != 2:
            raise ConfigurationError(
                f"bonds must have shape (m, 2), got {bonds.shape}")
        if stiffness <= 0 or rest_length <= 0:
            raise ConfigurationError(
                "stiffness and rest_length must be positive")
        self.box = box
        self.bonds = bonds
        self.stiffness = float(stiffness)
        self.rest_length = float(rest_length)

    def forces(self, positions: np.ndarray) -> np.ndarray:
        r = as_positions(positions)
        out = np.zeros_like(r)
        i, j = self.bonds[:, 0], self.bonds[:, 1]
        rij, dist = self.box.distances(r, i, j)
        mag = -self.stiffness * (dist - self.rest_length)
        fij = (mag / dist)[:, None] * rij
        np.add.at(out, i, fij)
        np.add.at(out, j, -fij)
        return out

    def energy(self, positions: np.ndarray) -> float:
        r = as_positions(positions)
        _, dist = self.box.distances(r, self.bonds[:, 0], self.bonds[:, 1])
        return float(0.5 * self.stiffness
                     * np.sum((dist - self.rest_length) ** 2))


class ConstantForce(ForceField):
    """A uniform body force on every particle (gravity/sedimentation)."""

    def __init__(self, force: np.ndarray):
        force = np.asarray(force, dtype=np.float64)
        if force.shape != (3,):
            raise ConfigurationError(
                f"force must have shape (3,), got {force.shape}")
        self.force = force

    def forces(self, positions: np.ndarray) -> np.ndarray:
        r = as_positions(positions)
        return np.broadcast_to(self.force, r.shape).copy()

    def energy(self, positions: np.ndarray) -> float:
        as_positions(positions, check_finite=False)
        # potential of a constant force in a periodic box is gauge
        # dependent; report 0 by convention
        return 0.0


class CompositeForce(ForceField):
    """Sum of several force fields."""

    def __init__(self, *fields: ForceField):
        if not fields:
            raise ConfigurationError("CompositeForce needs at least one field")
        self.fields = fields

    def forces(self, positions: np.ndarray) -> np.ndarray:
        r = as_positions(positions, check_finite=False)
        out = self.fields[0].forces(r)
        for field in self.fields[1:]:
            out = out + field.forces(r)
        return out

    def energy(self, positions: np.ndarray) -> float:
        r = as_positions(positions, check_finite=False)
        return float(sum(field.energy(r) for field in self.fields))
