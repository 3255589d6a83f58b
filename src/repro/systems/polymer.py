"""Bead-spring polymer chains.

Not part of the paper's evaluation, but the natural "large biological
system" workload its conclusion targets; used by the polymer example
application to exercise bonded forces through the public API.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..units import FluidParams, REDUCED
from .suspension import Suspension

__all__ = ["bead_spring_chain"]

#: Random directions tried per bead before the growth gives up.
REGROW_ATTEMPTS = 10000


def bead_spring_chain(n_beads: int, bond_length: float, box: Box,
                      fluid: FluidParams = REDUCED,
                      seed: int | np.random.Generator | None = 0
                      ) -> tuple[Suspension, np.ndarray]:
    """A self-avoiding random-walk chain of ``n_beads`` in a periodic box.

    Each step extends the chain by ``bond_length`` in a uniformly random
    direction, rejecting steps that bring the new bead within ``2a`` of
    any earlier bead (checked with minimum-image distances).

    Returns
    -------
    (suspension, bonds):
        The chain as a :class:`~repro.systems.suspension.Suspension`
        and the ``(n_beads - 1, 2)`` bond index array for
        :class:`repro.core.forces.HarmonicBonds`.
    """
    if n_beads < 2:
        raise ConfigurationError(f"need at least 2 beads, got {n_beads}")
    if bond_length < 2.0 * fluid.radius:
        raise ConfigurationError(
            f"bond_length {bond_length} would overlap beads of radius "
            f"{fluid.radius}")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    positions = np.empty((n_beads, 3))
    positions[0] = rng.uniform(0, box.length, size=3)
    for b in range(1, n_beads):
        for _ in range(REGROW_ATTEMPTS):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            cand = positions[b - 1] + bond_length * direction
            dr = box.minimum_image(cand - positions[:b])
            if np.all((dr * dr).sum(axis=1) >= (2.0 * fluid.radius) ** 2):
                positions[b] = cand
                break
        else:
            raise ConfigurationError(
                f"could not grow bead {b} without overlap; "
                "increase bond_length or the box")
    bonds = np.stack([np.arange(n_beads - 1), np.arange(1, n_beads)], axis=1)
    return Suspension(box.wrap(positions), box, fluid), bonds
