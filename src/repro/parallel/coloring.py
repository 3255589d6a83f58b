"""Independent-set (8-color) scheduling of the spreading scatter-add.

Spreading is ``F = P^T f``: many particles accumulate into shared mesh
points, so naive parallelization races.  The paper's solution
(Section IV.B.2, Fig. 2): partition the mesh into cubic blocks of edge
at least ``p`` points, then group blocks into *independent sets* such
that no two blocks in a set are adjacent — 8 sets in 3D (one per
parity class of the block coordinates).  A particle writes only into
its own block and the preceding block per dimension, so particles from
distinct blocks of the same set can never touch the same mesh point,
and each of the 8 stages is embarrassingly parallel.

The requirement for correctness under periodic wrap-around is an
*even* number of blocks per dimension (else the first and last blocks
are adjacent but share parity); the constructor enforces it by merging
blocks when needed.

:class:`~repro.parallel.engine.ColoredPMEEngine` executes the schedule
on real data; the test suite verifies it reproduces the sparse-matrix
spreading and that the per-block write footprints within a set are
disjoint — the property that makes the schedule race-free on actual
parallel hardware.

This is the paper's schedule, kept as the reference: the pipeline's
:meth:`repro.pme.spread.InterpolationMatrix.spread_batch` gathers over
``P^T`` rows (one writer per mesh point) and needs no colouring.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..utils.validation import as_positions

__all__ = ["IndependentSetColoring"]


class IndependentSetColoring:
    """Partition of a ``K^3`` mesh into blocks and 8 independent sets.

    Parameters
    ----------
    K:
        Mesh dimension.
    p:
        B-spline order; blocks have edge >= ``p`` mesh points.
    """

    def __init__(self, K: int, p: int):
        if K < p:
            raise ConfigurationError(f"K={K} must be >= p={p}")
        self.K = int(K)
        self.p = int(p)
        nb = max(1, K // p)
        if nb > 1 and nb % 2 == 1:
            nb -= 1          # even block count per dim (periodic parity)
        self.blocks_per_dim = nb
        # block boundaries: nearly equal integer splits of [0, K)
        edges = np.linspace(0, K, nb + 1).astype(np.intp)
        self.block_edges = edges
        #: Number of distinct colors actually used (8, or fewer for tiny meshes).
        self.n_colors = 8 if nb >= 2 else 1

    def block_of(self, mesh_coord: np.ndarray) -> np.ndarray:
        """Block index per dimension for integer mesh coordinates."""
        return np.minimum(
            np.searchsorted(self.block_edges, mesh_coord, side="right") - 1,
            self.blocks_per_dim - 1)

    def block_ids(self, mesh_points: np.ndarray) -> np.ndarray:
        """Flat block id of flat mesh points ``(x K + y) K + z``."""
        k, nb = self.K, self.blocks_per_dim
        bx = self.block_of(mesh_points // (k * k))
        by = self.block_of((mesh_points // k) % k)
        bz = self.block_of(mesh_points % k)
        return (bx * nb + by) * nb + bz

    def color_of_particles(self, base: np.ndarray) -> np.ndarray:
        """Color (0..7) of particles whose spreading window *ends* at ``base``.

        ``base`` is the integer mesh coordinate ``floor(u)`` per
        dimension, shape ``(n, 3)``; the window covers
        ``base - p + 1 .. base``, which lies in the particle's block
        plus (at most) the preceding block — the containment the
        independence argument relies on.
        """
        base = np.asarray(base, dtype=np.intp)
        if self.n_colors == 1:
            return np.zeros(base.shape[0], dtype=np.intp)
        b = np.stack([self.block_of(base[:, d]) for d in range(3)], axis=1)
        parity = b & 1
        return (parity[:, 0] << 2) | (parity[:, 1] << 1) | parity[:, 2]

    def groups(self, positions, box: Box) -> list[np.ndarray]:
        """Particle index arrays, one per color."""
        r = as_positions(positions)
        u = box.fractional(r, self.K)
        base = np.floor(u).astype(np.intp)
        colors = self.color_of_particles(base)
        return [np.flatnonzero(colors == c) for c in range(self.n_colors)]

