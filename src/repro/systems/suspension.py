"""Monodisperse suspension generation (paper Section V.A).

The paper's test systems are monodisperse suspensions of spheres at
volume fractions ``Phi`` from 0.1 to 0.4.  Two generators are provided:

* random sequential addition (RSA) with pair-search overlap checks —
  genuinely random, but RSA saturates near ``Phi ~ 0.30`` for
  non-overlapping spheres,
* a jittered FCC lattice — reaches any ``Phi`` up to close packing and
  decorrelates quickly under BD with the repulsive potential.

:func:`make_suspension` chooses automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from ..geometry.box import Box
from ..neighbor.pairs import find_pairs
from ..units import FluidParams, REDUCED
from .lattice import fcc_positions

__all__ = ["Suspension", "random_suspension", "lattice_suspension",
           "make_suspension"]

#: Volume fraction above which RSA becomes impractically slow.
RSA_LIMIT = 0.30


@dataclass(frozen=True)
class Suspension:
    """A generated suspension: positions plus the defining parameters.

    Attributes
    ----------
    positions:
        Particle centers, shape ``(n, 3)``, wrapped into the box.
    box:
        The periodic box sized for the requested volume fraction.
    fluid:
        Fluid parameters used for the particle radius.
    """

    positions: np.ndarray
    box: Box
    fluid: FluidParams

    @property
    def n(self) -> int:
        """Number of particles."""
        return self.positions.shape[0]

    @property
    def volume_fraction(self) -> float:
        """Actual volume fraction of the configuration."""
        return self.box.volume_fraction(self.n, self.fluid.radius)

    def min_separation(self) -> float:
        """Smallest minimum-image pair distance (overlap diagnostics)."""
        cutoff = min(4.0 * self.fluid.radius, self.box.length / 2)
        i, j = find_pairs(self.positions, self.box, cutoff)
        if i.size == 0:
            return float("inf")
        _, dist = self.box.distances(self.positions, i, j)
        return float(dist.min())


def random_suspension(n: int, volume_fraction: float,
                      fluid: FluidParams = REDUCED,
                      seed: int | np.random.Generator | None = 0,
                      max_attempts_per_particle: int = 2000) -> Suspension:
    """Non-overlapping random suspension via random sequential addition.

    Particles are inserted one at a time at uniform positions, rejecting
    any insertion closer than ``2a`` to an existing particle (checked
    through a pair search over the accepted set).

    Raises
    ------
    ConvergenceError
        If an insertion cannot be placed within the attempt budget
        (use :func:`lattice_suspension` for dense packings).
    """
    if not (0 < volume_fraction < 0.74):
        raise ConfigurationError(
            f"volume_fraction must be in (0, 0.74), got {volume_fraction}")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    box = Box.for_volume_fraction(n, volume_fraction, fluid.radius)
    two_a = 2.0 * fluid.radius
    if box.length < 2 * two_a:
        raise ConfigurationError(
            f"box ({box.length:.3g}) too small for non-overlapping spheres")

    accepted = np.empty((n, 3))
    count = 0
    while count < n:
        batch = max(64, count)  # insert in batches to amortize the searches
        for _ in range(max_attempts_per_particle):
            m = min(batch, n - count)
            cand = rng.uniform(0.0, box.length, size=(m, 3))
            ok = np.ones(m, dtype=bool)
            if count:
                # distance of each candidate to accepted set via one
                # combined pair search over the union
                union = np.concatenate([accepted[:count], cand])
                i, j = find_pairs(union, box, two_a)
                bad_pairs = (i < count) != (j < count)  # accepted-candidate
                bad = np.unique(np.where(j[bad_pairs] >= count,
                                         j[bad_pairs], i[bad_pairs]) - count)
                ok[bad] = False
            # candidates must also not overlap each other
            cand_ok = cand[ok]
            if cand_ok.shape[0] > 1:
                i, j = find_pairs(cand_ok, box, two_a)
                mask = np.ones(cand_ok.shape[0], dtype=bool)
                mask[j] = False  # keep the first of each overlapping pair
                cand_ok = cand_ok[mask]
            take = min(cand_ok.shape[0], n - count)
            if take:
                accepted[count:count + take] = cand_ok[:take]
                count += take
                break
        else:
            raise ConvergenceError(
                f"RSA failed to place particle {count + 1}/{n} at "
                f"Phi={volume_fraction}; use lattice_suspension")
    return Suspension(accepted, box, fluid)


def _resolve_overlaps(positions: np.ndarray, box: Box, radius: float,
                      rng: np.random.Generator, max_sweeps: int = 500
                      ) -> np.ndarray:
    """Project overlapping pairs apart until all separations are >= 2a.

    A Gauss-Seidel-style contact solver: every overlapping pair is
    pushed apart symmetrically along its axis by half the overlap (plus
    a small safety margin) per sweep.  Converges quickly for the mild
    overlaps left by lattice granularity at volume fractions well below
    random close packing.
    """
    contact = 2.0 * radius
    target = contact * 1.0001
    r = box.wrap(positions.copy())
    for _ in range(max_sweeps):
        i, j = find_pairs(r, box, contact)
        if i.size == 0:
            return r
        rij, dist = box.distances(r, i, j)
        bad = dist < contact
        if not np.any(bad):
            return r
        i, j, rij, dist = i[bad], j[bad], rij[bad], dist[bad]
        # degenerate coincident pairs get a random separation axis
        zero = dist < 1e-12
        if np.any(zero):
            rij[zero] = rng.standard_normal((int(zero.sum()), 3))
            dist[zero] = np.linalg.norm(rij[zero], axis=1)
        push = 0.5 * (target - dist) / dist
        delta = np.zeros_like(r)
        np.add.at(delta, i, push[:, None] * rij)
        np.add.at(delta, j, -push[:, None] * rij)
        r = box.wrap(r + delta)
    raise ConvergenceError(
        "could not resolve particle overlaps; volume fraction too high "
        "for the lattice generator")


def lattice_suspension(n: int, volume_fraction: float,
                       fluid: FluidParams = REDUCED,
                       seed: int | np.random.Generator | None = 0,
                       jitter: float = 0.3) -> Suspension:
    """Jittered-FCC suspension for any achievable volume fraction.

    Sites of an FCC lattice are displaced by uniform random jitter.
    Because the smallest FCC lattice holding ``n`` sites can be denser
    than the target packing (integer granularity of ``4 m^3``), any
    residual overlaps are removed with a contact-projection pass, so
    the returned configuration always satisfies ``min_separation >= 2a``.
    """
    if not (0 < volume_fraction < 0.74):
        raise ConfigurationError(
            f"volume_fraction must be in (0, 0.74), got {volume_fraction}")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    box = Box.for_volume_fraction(n, volume_fraction, fluid.radius)
    sites = fcc_positions(n, box.length)
    # nearest-neighbor spacing of the conventional FCC cell used
    m = 1
    while 4 * m ** 3 < n:
        m += 1
    nn_dist = box.length / m / np.sqrt(2.0)
    gap = max(nn_dist - 2.0 * fluid.radius, 0.0)
    amplitude = jitter * max(gap, 0.1 * fluid.radius) / np.sqrt(3.0)
    positions = box.wrap(sites + rng.uniform(-amplitude, amplitude,
                                             size=sites.shape))
    positions = _resolve_overlaps(positions, box, fluid.radius, rng)
    return Suspension(positions, box, fluid)


def make_suspension(n: int, volume_fraction: float,
                    fluid: FluidParams = REDUCED,
                    seed: int | np.random.Generator | None = 0) -> Suspension:
    """Generate a suspension, picking RSA or jittered FCC by density."""
    if volume_fraction <= RSA_LIMIT:
        return random_suspension(n, volume_fraction, fluid, seed)
    return lattice_suspension(n, volume_fraction, fluid, seed)
