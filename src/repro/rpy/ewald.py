"""Conventional (dense) Ewald summation of the RPY mobility matrix.

This is the substrate of the paper's baseline Algorithm 1 ("Ewald BD"):
the full ``3n x 3n`` mobility matrix of a periodic suspension is built
explicitly by summing Beenakker's real-space and reciprocal-space
series (paper Section II.B, Eq. 2), then used with Cholesky
factorization to generate Brownian displacements.

The reciprocal-space sum over lattice vectors is evaluated with a
rank-2-per-wavevector identity so the whole sum becomes six dense
matrix-matrix products (BLAS) instead of an ``O(n^2 n_k)`` Python loop::

    cos(k . (r_i - r_j)) = cos(k.r_i) cos(k.r_j) + sin(k.r_i) sin(k.r_j)

The result is exact (to the series truncation ``tol``) and independent
of the splitting parameter ``xi`` — the property the test suite uses to
validate the whole decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..units import FluidParams, REDUCED
from ..utils.validation import as_force_block, as_positions
from . import beenakker

__all__ = ["EwaldSummation", "ewald_mobility_matrix"]


def _default_xi(box: Box, tol: float) -> float:
    """Splitting parameter placing the real-space cutoff at ``L/2``.

    With ``r_cut = L/2`` the real-space sum needs only minimum-image
    pairs (no explicit replica shells), which keeps the dense
    construction simple; the corresponding reciprocal cutoff is
    ``O(log(1/tol)/L)``, independent of ``n``.
    """
    return 2.0 * math.sqrt(-math.log(tol)) / box.length


def _k_lattice_half(box: Box, k_max: float) -> np.ndarray:
    """Integer triples ``m`` (half space, excluding 0) with ``|2 pi m / L| <= k_max``.

    Returns an ``(n_k, 3)`` integer array containing one representative
    of each ``{m, -m}`` pair; callers double the contribution of every
    row.  The half space is ``m_z > 0``, or ``m_z = 0, m_y > 0``, or
    ``m_z = m_y = 0, m_x > 0``.
    """
    m_max = int(math.floor(k_max * box.length / (2.0 * math.pi)))
    if m_max < 1:
        raise ConfigurationError(
            "reciprocal cutoff admits no lattice vectors; decrease tol or xi")
    rng = np.arange(-m_max, m_max + 1)
    mx, my, mz = np.meshgrid(rng, rng, rng, indexing="ij")
    m = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1)
    k2 = (m * m).sum(axis=1) * (2.0 * math.pi / box.length) ** 2
    inside = (k2 > 0) & (k2 <= k_max * k_max)
    half = (m[:, 2] > 0) | ((m[:, 2] == 0) & (m[:, 1] > 0)) | (
        (m[:, 2] == 0) & (m[:, 1] == 0) & (m[:, 0] > 0))
    return m[inside & half]


@dataclass(frozen=True, kw_only=True)
class EwaldSummation:
    """Dense Ewald-summed RPY mobility for a cubic periodic box.

    Keyword-only; pairs closer than ``2a`` carry the positive-definite
    RPY overlap regularization.

    Parameters
    ----------
    box:
        The periodic simulation box.
    fluid:
        Fluid parameters (radius, viscosity, kT).
    xi:
        Ewald splitting parameter; ``None`` selects a value placing the
        real-space cutoff at ``L/2`` (see :func:`_default_xi`).  The
        computed mobility is independent of ``xi`` up to ``tol``.
    tol:
        Truncation tolerance of both series.
    """

    box: Box
    fluid: FluidParams = REDUCED
    xi: float | None = None
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0 < self.tol < 1):
            raise ConfigurationError(f"tol must be in (0, 1), got {self.tol}")
        if self.xi is not None and self.xi <= 0:
            raise ConfigurationError(f"xi must be positive, got {self.xi}")

    @property
    def xi_value(self) -> float:
        """The splitting parameter actually used."""
        return self.xi if self.xi is not None else _default_xi(self.box, self.tol)

    @property
    def r_cutoff(self) -> float:
        """Real-space truncation radius for this ``(xi, tol)``."""
        return beenakker.real_space_cutoff(self.xi_value, self.tol)

    @property
    def k_cutoff(self) -> float:
        """Reciprocal-space truncation wavenumber for this ``(xi, tol)``."""
        return beenakker.reciprocal_cutoff(self.xi_value, self.tol)

    # ------------------------------------------------------------------
    # dense matrix construction
    # ------------------------------------------------------------------

    def matrix(self, positions) -> np.ndarray:
        """Build the dense ``3n x 3n`` periodic RPY mobility matrix.

        This is line 4 of the paper's Algorithm 1.  Memory and time are
        ``O(n^2)`` (plus the BLAS reciprocal products); it is the
        conventional method the matrix-free algorithm replaces.
        """
        r = as_positions(positions)
        n = r.shape[0]
        r = self.box.wrap(r)
        m = self._reciprocal_matrix(r)
        self._add_real_space(m, r)
        diag = beenakker.self_mobility_scalar(self.xi_value, self.fluid.radius)
        idx = np.arange(3 * n)
        m[idx, idx] += diag
        m *= self.fluid.mobility0
        return m

    def apply(self, positions, forces) -> np.ndarray:
        """Reference ``u = M f`` via the dense matrix (small systems only)."""
        r = as_positions(positions, check_finite=False)
        as_force_block(forces, r.shape[0])  # check only: a vector stays a GEMV
        mat = self.matrix(r)
        return mat @ np.asarray(forces, dtype=np.float64)

    # -- reciprocal space ------------------------------------------------

    def _reciprocal_matrix(self, r: np.ndarray) -> np.ndarray:
        """Reciprocal-space sum for *all* pairs, including the diagonal.

        Returns mobilities in units of ``mu0`` (caller scales).
        """
        n = r.shape[0]
        xi = self.xi_value
        m_int = _k_lattice_half(self.box, self.k_cutoff)
        k = m_int * (2.0 * math.pi / self.box.length)
        k2 = (k * k).sum(axis=1)
        scal = beenakker.reciprocal_scalar(k2, xi, self.fluid.radius)
        scal *= 2.0 / self.box.volume  # factor 2: half k-space
        khat = k / np.sqrt(k2)[:, None]

        phase = r @ k.T            # (n, n_k)
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)

        out = np.zeros((3 * n, 3 * n))
        for u in range(3):
            for v in range(u, 3):
                w = scal * ((1.0 if u == v else 0.0) - khat[:, u] * khat[:, v])
                block = (cos_p * w) @ cos_p.T + (sin_p * w) @ sin_p.T
                out[u::3, v::3] = block
                if u != v:
                    out[v::3, u::3] = block.T
        return out

    # -- real space -------------------------------------------------------

    def _image_offsets(self) -> np.ndarray:
        """Integer box offsets whose images can fall inside ``r_cutoff``.

        Raw wrapped differences lie in ``(-L, L)`` per component, so an
        image at offset ``l`` can be within ``r_cut`` only if
        ``(|l| - 1) L < r_cut``.
        """
        s = int(math.floor(self.r_cutoff / self.box.length)) + 1
        rng = np.arange(-s, s + 1)
        lx, ly, lz = np.meshgrid(rng, rng, rng, indexing="ij")
        return np.stack([lx.ravel(), ly.ravel(), lz.ravel()], axis=1)

    def _add_real_space(self, m: np.ndarray, r: np.ndarray) -> None:
        """Accumulate the real-space sum (units of ``mu0``) into ``m``."""
        n = r.shape[0]
        xi = self.xi_value
        a = self.fluid.radius
        r_cut = self.r_cutoff
        offsets = self._image_offsets() * self.box.length

        if n > 1:
            iu, ju = np.triu_indices(n, k=1)
            rij0 = r[iu] - r[ju]
            bi, bj = 3 * iu, 3 * ju
            for off in offsets:
                d = rij0 + off
                dist = np.linalg.norm(d, axis=1)
                sel = dist < r_cut
                if not np.any(sel):
                    continue
                ds = d[sel]
                dists = dist[sel]
                f, g = beenakker.real_space_coefficients(dists, xi, a)
                df, dg = beenakker.overlap_correction_coefficients(dists, a)
                f = f + df
                g = g + dg
                rhat = ds / dists[:, None]
                bis, bjs = bi[sel], bj[sel]
                for u in range(3):
                    for v in range(3):
                        t = g * rhat[:, u] * rhat[:, v]
                        if u == v:
                            t = t + f
                        # += (not =): several images can hit the same pair
                        np.add.at(m, (bis + u, bjs + v), t)
                        np.add.at(m, (bjs + v, bis + u), t)

        # self-images: i interacting with its own periodic copies
        self_offsets = offsets[np.any(offsets != 0.0, axis=1)]
        dist0 = np.linalg.norm(self_offsets, axis=1)
        sel = dist0 < r_cut
        if np.any(sel):
            tensors = beenakker.real_space_tensors(self_offsets[sel], xi, a)
            total = tensors.sum(axis=0)
            for i in range(n):
                m[3 * i:3 * i + 3, 3 * i:3 * i + 3] += total


def ewald_mobility_matrix(positions, box: Box, fluid: FluidParams = REDUCED,
                          xi: float | None = None, tol: float = 1e-8
                          ) -> np.ndarray:
    """Convenience wrapper: dense periodic RPY mobility matrix.

    Equivalent to
    ``EwaldSummation(box=box, fluid=fluid, xi=xi, tol=tol).matrix(positions)``.
    """
    return EwaldSummation(box=box, fluid=fluid, xi=xi, tol=tol).matrix(
        as_positions(positions, check_finite=False))
