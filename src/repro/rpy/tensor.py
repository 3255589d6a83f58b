"""The free-space Rotne-Prager-Yamakawa (RPY) tensor.

The RPY tensor is the positive-definite regularization of the Oseen
tensor used throughout Brownian dynamics (paper Section II.A).  For two
equal spheres of radius ``a`` separated by ``r = |r_ij| >= 2a``::

    M_ij = mu0 * [ (3a/4r) (I + rhat rhat^T) + (a^3/2r^3) (I - 3 rhat rhat^T) ]

with ``mu0 = 1/(6 pi eta a)`` and ``M_ii = mu0 I``.  For overlapping
spheres (``r < 2a``) the standard Rotne-Prager regularization keeps the
matrix positive definite::

    M_ij = mu0 * [ (1 - 9r/32a) I + (3r/32a) rhat rhat^T ]

The paper prevents overlaps with a repulsive potential, but transient
overlaps can still occur during a finite time step, so the regularized
branch is always applied (it agrees with the far branch at r = 2a).
"""

from __future__ import annotations

import numpy as np

from ..units import FluidParams, REDUCED
from ..utils.validation import as_positions

__all__ = ["rpy_pair_tensors", "rpy_self_tensor", "mobility_matrix_free",
           "rpy_scalar_coefficients", "pair_dyads"]


def pair_dyads(rij: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The ``(m, 3, 3)`` blocks ``f I + g rhat rhat^T`` of separations
    ``rij`` (``(m, 3)``, each nonzero), for any scalar functions ``f, g``
    — the NumPy bytes of the compiled tensor fill
    (:func:`~repro.sparse.kernels.bcsr_assemble_dyads`)."""
    rij = np.asarray(rij, dtype=np.float64)
    rhat = rij / np.linalg.norm(rij, axis=1)[:, None]
    return (f[:, None, None] * np.eye(3)
            + g[:, None, None] * (rhat[:, :, None] * rhat[:, None, :]))


def rpy_scalar_coefficients(dist: np.ndarray, radius: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Scalar functions ``(f, g)`` of the free-space RPY tensor.

    The pair tensor is ``M_ij / mu0 = f(r) I + g(r) rhat rhat^T``.  The
    overlap-regularized branch is used for ``r < 2a``; both branches are
    continuous at ``r = 2a``.

    Parameters
    ----------
    dist:
        Pair distances, any shape, strictly positive.
    radius:
        Particle radius ``a``.

    Returns
    -------
    (f, g):
        Arrays with the same shape as ``dist``.
    """
    dist = np.asarray(dist, dtype=np.float64)
    a = float(radius)
    f = np.empty_like(dist)
    g = np.empty_like(dist)

    far = dist >= 2.0 * a
    rf = dist[far]
    inv_r = a / rf
    inv_r3 = inv_r ** 3
    f[far] = 0.75 * inv_r + 0.5 * inv_r3
    g[far] = 0.75 * inv_r - 1.5 * inv_r3

    near = ~far
    rn = dist[near]
    f[near] = 1.0 - (9.0 / 32.0) * rn / a
    g[near] = (3.0 / 32.0) * rn / a
    return f, g


def rpy_pair_tensors(rij: np.ndarray, fluid: FluidParams = REDUCED
                     ) -> np.ndarray:
    """RPY pair mobility tensors for an array of separation vectors.

    Parameters
    ----------
    rij:
        Separation vectors, shape ``(m, 3)``; each row is ``r_i - r_j``
        and must be nonzero.
    fluid:
        Fluid parameters supplying ``a`` and ``eta``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(m, 3, 3)``: ``out[k]`` is the 3x3 mobility
        tensor coupling the pair ``k`` (in physical units, including the
        ``mu0`` prefactor).
    """
    rij = np.asarray(rij, dtype=np.float64)
    if rij.ndim != 2 or rij.shape[1] != 3:
        raise ValueError(f"rij must have shape (m, 3), got {rij.shape}")
    dist = np.linalg.norm(rij, axis=1)
    if np.any(dist == 0.0):
        raise ValueError("rpy_pair_tensors requires nonzero separations")
    f, g = rpy_scalar_coefficients(dist, fluid.radius)
    rhat = rij / dist[:, None]
    eye = np.eye(3)
    out = f[:, None, None] * eye + g[:, None, None] * (
        rhat[:, :, None] * rhat[:, None, :])
    out *= fluid.mobility0
    return out


def rpy_self_tensor(fluid: FluidParams = REDUCED) -> np.ndarray:
    """Self-mobility tensor ``mu0 I`` of an isolated particle."""
    return fluid.mobility0 * np.eye(3)


def mobility_matrix_free(positions, fluid: FluidParams = REDUCED
                         ) -> np.ndarray:
    """Dense free-boundary RPY mobility matrix ``M`` (shape ``(3n, 3n)``).

    This is the non-periodic mobility of Section II.A, used as a
    reference and for small free-space problems.  It is symmetric
    positive definite for every particle configuration.

    Parameters
    ----------
    positions:
        Particle positions, shape ``(n, 3)``.
    fluid:
        Fluid parameters.
    """
    r = as_positions(positions)
    n = r.shape[0]
    m = np.zeros((3 * n, 3 * n))
    idx = np.arange(3 * n)
    m[idx, idx] = fluid.mobility0

    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        tensors = rpy_pair_tensors(r[iu] - r[ju], fluid)
        # Scatter the 3x3 blocks into both triangles (M is symmetric and
        # the RPY pair tensor itself is symmetric).
        bi = 3 * iu
        bj = 3 * ju
        for u in range(3):
            for v in range(3):
                m[bi + u, bj + v] = tensors[:, u, v]
                m[bj + v, bi + u] = tensors[:, u, v]
    return m
