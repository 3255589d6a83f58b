"""Beenakker's Ewald decomposition of the Rotne-Prager-Yamakawa tensor.

Beenakker (J. Chem. Phys. 85, 1581 (1986); paper reference [22]) split
the infinite periodic sum of RPY tensors into a rapidly converging
real-space sum, a rapidly converging reciprocal-space sum, and a self
term (paper Eq. 2):

    M = M_real + M_recip + M_self

The splitting function is
``chi_alpha(k) = (1 + k^2/(4 alpha^2) + k^4/(8 alpha^4)) exp(-k^2/(4 alpha^2))``;
its polynomial prefactor is what makes the real-space functions decay as
Gaussians rather than as complementary error functions alone.

All functions in this module return mobilities in units of
``mu0 = 1/(6 pi eta a)``; callers multiply by ``fluid.mobility0``.

Real-space tensor (paper's ``M^(1)_alpha``), for separation ``r`` and
Ewald parameter ``xi`` (the paper's ``alpha``)::

    M1(r) = f(r) I + g(r) rhat rhat^T

    f(r) = erfc(xi r) (3a/4r + a^3/2r^3)
         + exp(-xi^2 r^2)/sqrt(pi) * ( 4 xi^7 a^3 r^4 + 3 xi^3 a r^2
           - 20 xi^5 a^3 r^2 - 4.5 xi a + 14 xi^3 a^3 + xi a^3 / r^2 )

    g(r) = erfc(xi r) (3a/4r - 3a^3/2r^3)
         + exp(-xi^2 r^2)/sqrt(pi) * ( -4 xi^7 a^3 r^4 - 3 xi^3 a r^2
           + 16 xi^5 a^3 r^2 + 1.5 xi a - 2 xi^3 a^3 - 3 xi a^3 / r^2 )

Reciprocal-space scalar (paper Eq. 5)::

    m_alpha(k) = (a - a^3 k^2 / 3) (1 + k^2/4xi^2 + k^4/8xi^4)
                 * (6 pi / k^2) * exp(-k^2 / 4 xi^2)

applied as ``M_recip_ij = (1/V) sum_k (I - khat khat^T) m_alpha(k)
cos(k . r_ij)``.

Self term (paper's ``M^(0)_alpha``)::

    M_self = (1 - 6 xi a / sqrt(pi) + 40 xi^3 a^3 / (3 sqrt(pi))) I

Two nontrivial consistency properties validate the transcription: the
full sum is independent of ``xi`` (tested numerically), and each of
``f, g`` satisfies the divergence-free relation
``f' + g' + 2g/r = 0`` (verified analytically; the incompressible
projector ``I - khat khat^T`` guarantees it).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from .tensor import pair_dyads

__all__ = [
    "real_space_coefficients",
    "real_space_tensors",
    "reciprocal_scalar",
    "self_mobility_scalar",
    "real_space_cutoff",
    "reciprocal_cutoff",
    "overlap_correction_coefficients",
]

_SQRT_PI = math.sqrt(math.pi)


def _check_kernel(kernel: str) -> None:
    if kernel not in ("rpy", "oseen"):
        raise ValueError(f"kernel must be 'rpy' or 'oseen', got {kernel!r}")


def real_space_coefficients(dist: np.ndarray, xi: float, radius: float = 1.0,
                            kernel: str = "rpy"
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Scalar functions ``(f, g)`` of Beenakker's real-space tensor.

    ``M^(1)(r) / mu0 = f(r) I + g(r) rhat rhat^T`` for non-overlapping
    separations ``r >= 2a``.  (Use
    :func:`overlap_correction_coefficients` to correct pairs with
    ``r < 2a``.)

    Parameters
    ----------
    dist:
        Pair distances (any shape, strictly positive).
    xi:
        Ewald splitting parameter (the paper's ``alpha``), units 1/length;
        a scalar, or an array broadcasting against ``dist``.
    radius:
        Particle radius ``a``.
    kernel:
        ``"rpy"`` (default) or ``"oseen"`` — the Stokeslet kernel of the
        related-work codes the paper contrasts with (its Ewald split is
        the exact ``a^3 -> 0`` limit of Beenakker's, because the
        splitting is linear in the kernel).
    """
    _check_kernel(kernel)
    r = np.asarray(dist, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("real_space_coefficients requires positive distances")
    a = float(radius)
    if np.any(np.asarray(xi) <= 0):
        raise ValueError(f"xi must be positive, got {xi}")

    a3 = a ** 3 if kernel == "rpy" else 0.0
    r2 = r * r
    erfc_term = erfc(xi * r)
    gauss = np.exp(-(xi * r) ** 2) / _SQRT_PI

    f = (erfc_term * (0.75 * a / r + 0.5 * a3 / (r2 * r))
         + gauss * (4.0 * xi ** 7 * a3 * r2 * r2
                    + 3.0 * xi ** 3 * a * r2
                    - 20.0 * xi ** 5 * a3 * r2
                    - 4.5 * xi * a
                    + 14.0 * xi ** 3 * a3
                    + xi * a3 / r2))
    g = (erfc_term * (0.75 * a / r - 1.5 * a3 / (r2 * r))
         + gauss * (-4.0 * xi ** 7 * a3 * r2 * r2
                    - 3.0 * xi ** 3 * a * r2
                    + 16.0 * xi ** 5 * a3 * r2
                    + 1.5 * xi * a
                    - 2.0 * xi ** 3 * a3
                    - 3.0 * xi * a3 / r2))
    return f, g


def overlap_correction_coefficients(dist: np.ndarray, radius: float = 1.0
                                    ) -> tuple[np.ndarray, np.ndarray]:
    """Correction ``(df, dg)`` replacing the far-field RPY form with the
    overlap-regularized form for ``r < 2a``.

    The Ewald decomposition is derived for the non-overlapping RPY
    tensor.  When two particles overlap, the physically correct
    (positive-definite) mobility differs from the far-field expression
    by a short-range term that is *not* split by Ewald — it is simply
    added to the real-space sum for the overlapping pair (same device as
    Fiore et al., the "positively split Ewald" construction)::

        M_overlap - M_far = df I + dg rhat rhat^T

    Entries where ``dist >= 2a`` are zero, so this can be applied
    unconditionally to all close pairs.
    """
    r = np.asarray(dist, dtype=np.float64)
    a = float(radius)
    df = np.zeros_like(r)
    dg = np.zeros_like(r)
    near = r < 2.0 * a
    if np.any(near):
        rn = r[near]
        a3 = a ** 3
        rn3 = rn ** 3
        # regularized - far
        df[near] = (1.0 - 9.0 * rn / (32.0 * a)) - (0.75 * a / rn + 0.5 * a3 / rn3)
        dg[near] = (3.0 * rn / (32.0 * a)) - (0.75 * a / rn - 1.5 * a3 / rn3)
    return df, dg


def real_space_tensors(rij: np.ndarray, xi: float, radius: float = 1.0,
                       kernel: str = "rpy") -> np.ndarray:
    """Real-space Ewald tensors ``M^(1)(r_ij) / mu0`` for separation vectors
    (no overlap correction: :func:`overlap_correction_coefficients`).

    Parameters
    ----------
    rij:
        Separation vectors, shape ``(m, 3)``, each nonzero.
    xi:
        Ewald splitting parameter.
    radius:
        Particle radius ``a``.

    Returns
    -------
    numpy.ndarray of shape ``(m, 3, 3)``.
    """
    rij = np.asarray(rij, dtype=np.float64)
    dist = np.linalg.norm(rij, axis=1)
    return pair_dyads(rij, *real_space_coefficients(dist, xi, radius,
                                                    kernel=kernel))


def reciprocal_scalar(k2: np.ndarray, xi: float, radius: float = 1.0,
                      kernel: str = "rpy") -> np.ndarray:
    """Beenakker's reciprocal-space scalar ``m_alpha(k)`` (paper Eq. 5).

    Parameters
    ----------
    k2:
        Squared wavevector magnitudes ``|k|^2`` (any shape).  Entries
        equal to zero yield 0 (the ``k = 0`` mode is excluded from the
        Ewald sum; momentum conservation in a periodic box).
    xi:
        Ewald splitting parameter.
    radius:
        Particle radius ``a``.

    Returns
    -------
    numpy.ndarray
        ``m_alpha`` evaluated at each ``k``; multiply by the projector
        ``(I - khat khat^T)`` and the prefactor ``mu0 / V`` to obtain the
        reciprocal-space mobility contribution.
    """
    _check_kernel(kernel)
    k2 = np.asarray(k2, dtype=np.float64)
    a = float(radius)
    a3 = a ** 3 if kernel == "rpy" else 0.0
    inv_4xi2 = 1.0 / (4.0 * xi * xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = ((a - a3 * k2 / 3.0)
               * (1.0 + k2 * inv_4xi2 + (k2 * inv_4xi2) ** 2 * 2.0)
               * (6.0 * math.pi / k2)
               * np.exp(-k2 * inv_4xi2))
    # (k^2/(4 xi^2))^2 * 2 == k^4 / (8 xi^4): the quartic term of chi.
    return np.where(k2 == 0.0, 0.0, val)


def self_mobility_scalar(xi: float, radius: float = 1.0,
                         kernel: str = "rpy") -> float:
    """Self term ``M^(0)_alpha / mu0`` of the Ewald sum.

    ``1 - 6 xi a / sqrt(pi) + 40 (xi a)^3 / (3 sqrt(pi))`` for the RPY
    kernel; the ``(xi a)^3`` term drops for the Oseen kernel.
    """
    _check_kernel(kernel)
    xa = xi * radius
    cubic = 40.0 * xa ** 3 / (3.0 * _SQRT_PI) if kernel == "rpy" else 0.0
    return 1.0 - 6.0 * xa / _SQRT_PI + cubic


def real_space_cutoff(xi: float, tol: float = 1e-8) -> float:
    """Distance beyond which the real-space functions are below ``tol``.

    The real-space tensor decays like ``exp(-(xi r)^2)``; a cutoff of
    ``sqrt(-log tol)/xi`` bounds the truncation error of the real-space
    sum by roughly ``tol`` relative to the leading term.
    """
    if not (0 < tol < 1):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    return math.sqrt(-math.log(tol)) / xi


def reciprocal_cutoff(xi: float, tol: float = 1e-8) -> float:
    """Wavenumber beyond which ``m_alpha(k)`` is below ``tol``.

    ``m_alpha`` decays like ``exp(-k^2/(4 xi^2))`` (times a polynomial),
    so ``k_max = 2 xi sqrt(-log tol)`` bounds the tail by roughly
    ``tol``.
    """
    if not (0 < tol < 1):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    return 2.0 * xi * math.sqrt(-math.log(tol))
