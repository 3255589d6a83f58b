"""Run-time observation of BD simulations.

Monitors are lightweight callbacks attached to
:meth:`repro.core.integrators.BrownianDynamicsBase.run` that accumulate
observables *during* propagation — the way long production runs (the
paper's 500,000-step Fig. 3 trajectories) collect statistics without
storing every frame.

Use :func:`compose` to attach several monitors (and/or a recording
callback) at once::

    msd = MSDMonitor(reference=susp.positions, interval=10)
    sep = MinSeparationMonitor(box, interval=50)
    bd.run(susp.positions, 1000, callback=compose(msd, sep))
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..neighbor.pairs import find_pairs
from .forces import ForceField

__all__ = ["Monitor", "MSDMonitor", "MinSeparationMonitor",
           "EnergyMonitor", "compose"]


class Monitor:
    """Base monitor: samples every ``interval`` steps.

    Subclasses implement :meth:`sample`; the accumulated series is in
    :attr:`steps` and :attr:`values`.
    """

    def __init__(self, interval: int = 1):
        if interval < 1:
            raise ConfigurationError(
                f"interval must be >= 1, got {interval}")
        self.interval = int(interval)
        #: Step indices at which samples were taken.
        self.steps: list[int] = []
        #: Sampled values (scalar per sample).
        self.values: list[float] = []

    def sample(self, wrapped: np.ndarray, unwrapped: np.ndarray) -> float:
        """Compute one observable sample (override)."""
        raise NotImplementedError

    def __call__(self, step: int, wrapped: np.ndarray,
                 unwrapped: np.ndarray) -> None:
        if step % self.interval == 0:
            self.steps.append(step)
            self.values.append(float(self.sample(wrapped, unwrapped)))

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(steps, values)`` as arrays."""
        return np.asarray(self.steps), np.asarray(self.values)


class MSDMonitor(Monitor):
    """Mean squared displacement from a fixed reference configuration."""

    def __init__(self, reference: np.ndarray, interval: int = 1):
        super().__init__(interval)
        self.reference = np.asarray(reference, dtype=np.float64).copy()

    def sample(self, wrapped, unwrapped) -> float:
        diff = unwrapped - self.reference
        return float((diff * diff).sum(axis=1).mean())


class MinSeparationMonitor(Monitor):
    """Smallest pair separation (overlap watchdog).

    A value persistently below ``2a`` indicates the time step is too
    large for the repulsive force to resolve contacts.
    """

    def __init__(self, box: Box, cutoff: float = 4.0, interval: int = 1):
        super().__init__(interval)
        self.box = box
        self.cutoff = min(cutoff, box.length / 2)

    def sample(self, wrapped, unwrapped) -> float:
        i, j = find_pairs(wrapped, self.box, self.cutoff)
        if i.size == 0:
            return float("inf")
        _, dist = self.box.distances(wrapped, i, j)
        return float(dist.min())


class EnergyMonitor(Monitor):
    """Potential energy of a force field along the trajectory."""

    def __init__(self, force_field: ForceField, interval: int = 1):
        super().__init__(interval)
        self.force_field = force_field

    def sample(self, wrapped, unwrapped) -> float:
        return self.force_field.energy(wrapped)


def compose(*callbacks):
    """Combine several ``(step, wrapped, unwrapped)`` callbacks into one."""
    if not callbacks:
        raise ConfigurationError("compose needs at least one callback")

    def combined(step, wrapped, unwrapped):
        for cb in callbacks:
            cb(step, wrapped, unwrapped)

    return combined
