"""The Oseen (Stokeslet) tensor: the kernel of the related-work PME codes.

Section I of the paper sets its PME for the Rotne-Prager-Yamakawa
tensor against the Stokesian PME codes [15]-[17], which sum the Oseen
tensor ``(3a/4r) (I + rhat rhat^T)`` (``mu0`` units) instead.  The
production operator knows one tensor, RPY; Ablation D
(``benchmarks/bench_ablation_kernel.py``) needs the other, and it lives
here, built from public :mod:`repro` names:

* the positively split (PSE, Hasimoto ``H``) closed forms of
  :mod:`repro.rpy.pse` without ``sinc^2``: :func:`real_space_coefficients`,
  :func:`reciprocal_scalar` and :func:`self_mobility_scalar`.  The
  potential is ``psi = 3a W(r) / (pi r)`` with the remainder ``R(s) =
  (pi s^2/4) erfc(xi s) - (sqrt(pi) s / (4 xi)) exp(-xi^2 s^2)``; no
  split of the Oseen tensor has an SPD real half (its total is
  indefinite near contact), so the PSE sampler does not apply to it;
* :func:`pme_apply`, a reference PME ``u = M f`` from those forms: the
  reciprocal half is :func:`reference.pme_variants.reciprocal_pass`
  with the Oseen scalar, the real half a sparse sum within ``r_max``;
* :func:`dense_matrix`, the dense periodic sum with Beenakker's split
  (the exact ``a^3 -> 0`` limit of :mod:`repro.rpy.beenakker`, because
  the splitting is linear in the tensor), independent of ``xi`` up to
  its tolerance: the oracle of the two above, for small ``n``.
"""

from __future__ import annotations

import math

import numpy as np
from reference.pme_variants import reciprocal_pass
from scipy.special import erfc

from repro import Box, PMEParams
from repro.neighbor.pairs import find_pairs
from repro.rpy import beenakker
from repro.rpy.tensor import pair_dyads
from repro.sparse.bcsr import BlockCSR

__all__ = ["real_space_coefficients", "reciprocal_scalar",
           "self_mobility_scalar", "pme_apply", "ewald_coefficients",
           "ewald_reciprocal_scalar", "ewald_self_scalar", "dense_matrix"]

_SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# the positively split (PSE) closed forms
# ----------------------------------------------------------------------

def real_space_coefficients(dist, xi: float, radius: float = 1.0):
    """``(f, g)`` of the PSE real-space half ``f I + g rhat rhat^T``."""
    s = np.asarray(dist, dtype=np.float64)
    gauss = np.exp(-(xi * s) ** 2)
    tail = erfc(xi * s)
    u0 = (math.pi / 4.0) * s * s * tail - _SQRT_PI * s / (4.0 * xi) * gauss
    u1 = (math.pi / 2.0) * s * tail - _SQRT_PI / (4.0 * xi) * gauss
    u2 = (math.pi / 2.0) * tail - _SQRT_PI * xi * s / 2.0 * gauss
    c = 3.0 * radius / math.pi
    s2 = s * s
    f = c * (u2 / s - u1 / s2 + u0 / (s2 * s))
    g = -c * (u2 / s - 3.0 * u1 / s2 + 3.0 * u0 / (s2 * s))
    return f, g


def reciprocal_scalar(k2, xi: float, radius: float = 1.0) -> np.ndarray:
    """PSE wave scalar ``6 pi a H(k) / k^2`` (0 at ``k = 0``)."""
    k2 = np.asarray(k2, dtype=np.float64)
    q2 = k2 / (4.0 * xi * xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 6.0 * math.pi * radius * (1.0 + q2) * np.exp(-q2) / k2
    return np.where(k2 == 0.0, 0.0, val)


def self_mobility_scalar(xi: float, radius: float = 1.0) -> float:
    """PSE self term ``1 - 3 xi a / sqrt(pi)``: negative from ``xi a >
    sqrt(pi) / 3`` on."""
    return 1.0 - 3.0 * xi * radius / _SQRT_PI


def pme_apply(positions, box: Box, params: PMEParams, forces,
              radius: float = 1.0) -> np.ndarray:
    """Reference Oseen PME ``u = M f`` in ``mu0`` units, ``forces`` of
    shape ``(3n,)`` or ``(3n, s)``."""
    r = np.asarray(positions, dtype=np.float64)
    n = r.shape[0]
    f = np.asarray(forces, dtype=np.float64)
    recip = reciprocal_pass(r, box, params, f, radius=radius,
                            wave=reciprocal_scalar)
    i, j = find_pairs(r, box, params.r_max)
    rij, dist = box.distances(r, i, j)
    blocks = pair_dyads(rij, *real_space_coefficients(dist, params.xi,
                                                      radius))
    diag = self_mobility_scalar(params.xi, radius) * np.eye(3)
    real = BlockCSR.from_pairs(n, i, j, blocks,
                               diag_blocks=np.broadcast_to(diag, (n, 3, 3)))
    return recip + real.matmat(f.reshape(3 * n, -1)).reshape(f.shape)


# ----------------------------------------------------------------------
# Beenakker's split and the dense periodic sum
# ----------------------------------------------------------------------

def ewald_coefficients(dist, xi: float, radius: float = 1.0):
    """``(f, g)`` of Beenakker's real-space Oseen tensor."""
    r = np.asarray(dist, dtype=np.float64)
    a = radius
    tail = erfc(xi * r) * 0.75 * a / r
    gauss = np.exp(-(xi * r) ** 2) / _SQRT_PI
    f = tail + gauss * (3.0 * xi ** 3 * a * r * r - 4.5 * xi * a)
    g = tail + gauss * (-3.0 * xi ** 3 * a * r * r + 1.5 * xi * a)
    return f, g


def ewald_reciprocal_scalar(k2, xi: float, radius: float = 1.0
                            ) -> np.ndarray:
    """Beenakker's wave scalar ``a chi(k) 6 pi / k^2`` (0 at ``k = 0``)."""
    k2 = np.asarray(k2, dtype=np.float64)
    q = k2 / (4.0 * xi * xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = radius * (1.0 + q + 2.0 * q * q) * (6.0 * math.pi / k2) \
            * np.exp(-q)
    return np.where(k2 == 0.0, 0.0, val)


def ewald_self_scalar(xi: float, radius: float = 1.0) -> float:
    """Beenakker's self term ``1 - 6 xi a / sqrt(pi)``."""
    return 1.0 - 6.0 * xi * radius / _SQRT_PI


def dense_matrix(positions, box: Box, xi: float | None = None,
                 tol: float = 1e-8, radius: float = 1.0) -> np.ndarray:
    """The dense ``3n x 3n`` periodic Oseen mobility (``mu0`` units).

    Every image within the real-space cutoff, every wavevector within
    the reciprocal one (:func:`repro.rpy.beenakker.real_space_cutoff`,
    :func:`~repro.rpy.beenakker.reciprocal_cutoff` at ``tol``); ``xi``
    defaults to the one placing the real-space cutoff at ``L/2``, as
    :class:`repro.rpy.ewald.EwaldSummation` does.  ``O(n^2)`` per image
    and wavevector: small ``n`` only.
    """
    r = box.wrap(np.asarray(positions, dtype=np.float64))
    n, length = r.shape[0], box.length
    if xi is None:
        xi = 2.0 * math.sqrt(-math.log(tol)) / length
    r_cut = beenakker.real_space_cutoff(xi, tol)
    k_cut = beenakker.reciprocal_cutoff(xi, tol)
    m = np.zeros((n, 3, n, 3))

    def lattice(reach: int, spacing: float) -> np.ndarray:
        ax = np.arange(-reach, reach + 1)
        return spacing * np.stack(np.meshgrid(ax, ax, ax, indexing="ij"),
                                  axis=-1).reshape(-1, 3)

    # real space: every pair and every image, the i == j, zero-offset
    # term excluded (it is the self term)
    sep = r[:, None, :] - r[None, :, :]
    for offset in lattice(int(r_cut // length) + 1, length):
        d = sep + offset
        dist = np.linalg.norm(d, axis=-1)
        ii, jj = np.nonzero((dist < r_cut) & (dist > 0.0))
        if ii.size:
            m[ii, :, jj, :] += pair_dyads(d[ii, jj], *ewald_coefficients(
                dist[ii, jj], xi, radius))

    # reciprocal space: cos(k.(r_i - r_j)) = cos cos + sin sin
    k = lattice(int(k_cut * length / (2.0 * math.pi)),
                2.0 * math.pi / length)
    k2 = (k * k).sum(axis=1)
    keep = (k2 > 0.0) & (k2 <= k_cut * k_cut)
    k, k2 = k[keep], k2[keep]
    weight = ewald_reciprocal_scalar(k2, xi, radius) / box.volume
    khat = k / np.sqrt(k2)[:, None]
    phase = r @ k.T
    cos, sin = np.cos(phase), np.sin(phase)
    for u in range(3):
        for v in range(3):
            w = weight * (float(u == v) - khat[:, u] * khat[:, v])
            m[:, u, :, v] += (cos * w) @ cos.T + (sin * w) @ sin.T

    m = m.reshape(3 * n, 3 * n)
    m[np.diag_indices(3 * n)] += ewald_self_scalar(xi, radius)
    return m
