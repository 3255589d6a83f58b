"""The positively split Ewald (PSE) decomposition of the RPY tensor.

Fiore, Balboa Usabiaga, Donev and Swan (J. Chem. Phys. 146, 124116
(2017); PAPERS.md) split the periodic RPY mobility with Hasimoto's
splitting function

    H(k) = (1 + k^2/(4 xi^2)) exp(-k^2/(4 xi^2)),     0 <= H <= 1,

so that *both* halves are positive definite: the wave-space half carries
``H`` and the real-space half ``1 - H`` of the exact RPY transform
``6 pi a sinc^2(k a) / k^2 (I - khat khat^T)`` (``mu0`` units).  This is
what lets Algorithm 2 sample the two halves separately: the wave half
exactly, half-spectrum white noise weighted by ``sqrt`` of the
influence scalar and carried by each step's drift apply (the ``noise``
of :meth:`~repro.pme.operator.PMEOperator.apply_block`), the real half
by block Lanczos on its sparse matrix alone.  Beenakker's split
(:mod:`repro.rpy.beenakker`) expands ``sinc^2`` to ``1 - a^2 k^2/3``,
whose wave scalar turns negative past ``k = sqrt(3)/a``; it stays the
split of the dense :class:`~repro.rpy.ewald.EwaldSummation`, the
independent oracle.

Wave-space scalar (``mu0`` units, multiply by ``(I - khat khat^T) / V``)::

    m(k) = 6 pi a sinc^2(k a) H(k) / k^2    >= 0

Real-space tensor ``f(r) I + g(r) rhat rhat^T``: the regularized RPY
tensor (overlap form for ``r < 2a``, so no separate overlap correction)
minus the real-space image of the wave half::

    f = f_RPY(r) - (3a/pi) int sinc^2(ka) H(k) (j0(kr) - j1(kr)/kr) dk
    g = g_RPY(r) - (3a/pi) int sinc^2(ka) H(k) j2(kr) dk

Self term, the ``r -> 0`` limit of ``f``::

    f(0) = 1 - (2a/pi) int sinc^2(ka) H(k) dk
         = erfc(2 xi a) + (1 - exp(-4 xi^2 a^2)) / (4 sqrt(pi) xi a)

Closed forms.  The tensor is ``(-nabla^2 I + nabla nabla) psi`` of the
scalar potential ``psi`` whose transform is ``m(k) / k^2``; with
``sinc^2 = (1 - cos 2ka) / (2 k^2 a^2)`` the potential is a second
difference ``u(r) = 2 S(r) - S(r + 2a) - S(r - 2a)`` of one odd function
of a single argument, ``psi = 3 u / (4 pi a r)``, and

    f = -(3 / 4 pi a) (u''/r - u'/r^2 + u/r^3)
    g =  (3 / 4 pi a) (u''/r - 3 u'/r^2 + 3 u/r^3).

``S`` is the five-fold integral of ``int H cos(ks) dk = sqrt(pi) xi (3/2
- xi^2 s^2) exp(-xi^2 s^2)``; its ``erf`` part's unsplit limit
``sign(s) pi s^4 / 48`` gives exactly the RPY tensor (overlap form
included), so the real-space ``f, g`` are the formulas above with ``u``
built from ``-R``, the remainder

    R(s) = (pi/(64 xi^4) - pi s^4/48) erfc(xi s) - pi/(64 xi^4)
           + (sqrt(pi)/xi) (s^3/48 - s/(96 xi^2)) exp(-xi^2 s^2),

extended oddly to ``s < 0`` — Hasimoto-type ``erfc`` / ``exp`` terms at
``r`` and ``r +- 2a`` (Fiore et al. 2017, appendix), decaying like
``exp(-xi^2 (r - 2a)^2)``.  Divergence-free and ``xi``-independent in
total; ``tests/test_pse.py`` checks it against the 1-D quadrature above.
The same split of the Oseen (Stokeslet) tensor, which no split makes
positive definite near contact, is ``benchmarks/reference/oseen.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

__all__ = [
    "real_space_coefficients",
    "reciprocal_scalar",
    "self_mobility_scalar",
]

_SQRT_PI = math.sqrt(math.pi)

#: Separations one pass of :func:`real_space_coefficients` evaluates at a
#: time, so that its ``(3, chunk)`` temporaries stay in cache.  Every
#: operation is elementwise: the bytes do not depend on it.
COEFFICIENT_CHUNK = 8192


def _rpy_remainder(s: np.ndarray, xi) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """``(R + pi/(64 xi^4), R', R'')`` of the RPY remainder at ``s >= 0``
    (the constant is carried by the caller: it cancels beyond contact)."""
    s2 = s * s
    gauss = np.exp(-(xi * s) ** 2)
    tail = erfc(xi * s)
    r0 = ((math.pi / 64.0 / xi ** 4 - (math.pi / 48.0) * s2 * s2) * tail
          + _SQRT_PI / xi * (s2 / 48.0 - 1.0 / (96.0 * xi * xi)) * s * gauss)
    r1 = (-(math.pi / 12.0) * s2 * s * tail
          + _SQRT_PI / (12.0 * xi) * (s2 - 0.5 / (xi * xi)) * gauss)
    r2 = -(math.pi / 4.0) * s2 * tail + _SQRT_PI / (4.0 * xi) * s * gauss
    return r0, r1, r2


def real_space_coefficients(dist: np.ndarray, xi: float, radius: float = 1.0
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Scalar functions ``(f, g)`` of the PSE real-space tensor.

    ``M_real(r) / mu0 = f(r) I + g(r) rhat rhat^T`` at every separation
    ``r > 0``, overlapping pairs included (the overlap form is part of
    ``f_RPY``, not a correction added to it).  The one definition of the
    stored coefficients, shared by the NumPy tensor fill and the compiled
    fill of :class:`~repro.pme.realspace.RealSpaceOperator`.  ``xi`` is a
    scalar or broadcasts against ``dist``.  At a scalar ``xi`` the
    separations are evaluated :data:`COEFFICIENT_CHUNK` at a time (the
    same bytes).
    """
    r = np.asarray(dist, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("real_space_coefficients requires positive distances")
    if np.any(np.asarray(xi) <= 0):
        raise ValueError(f"xi must be positive, got {xi}")
    a = float(radius)
    if np.ndim(xi) or r.size <= COEFFICIENT_CHUNK:
        return _coefficients(r, xi, a)
    flat = r.ravel()
    f, g = np.empty_like(flat), np.empty_like(flat)
    for lo in range(0, flat.size, COEFFICIENT_CHUNK):
        hi = lo + COEFFICIENT_CHUNK
        f[lo:hi], g[lo:hi] = _coefficients(flat[lo:hi], xi, a)
    return f.reshape(r.shape), g.reshape(r.shape)


def _coefficients(r: np.ndarray, xi, a: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The body of :func:`real_space_coefficients` on checked input."""
    c = 3.0 / (4.0 * math.pi * a)
    # u = 2 R(r) - R(r + 2a) - R(r - 2a), R extended oddly (R(-s) =
    # -R(s), R'(-s) = R'(s)): all three arguments in one evaluation
    sign = np.sign(r - 2.0 * a)
    v0, v1, v2 = _rpy_remainder(
        np.stack((r, r + 2.0 * a, np.abs(r - 2.0 * a))), xi)
    # the constant -pi/(64 xi^4) of R, left out of v0, survives the
    # difference only inside contact
    u0 = (2.0 * v0[0] - v0[1] - sign * v0[2]
          - math.pi / 64.0 / xi ** 4 * (1.0 - sign))
    u1 = 2.0 * v1[0] - v1[1] - v1[2]
    u2 = 2.0 * v2[0] - v2[1] - sign * v2[2]
    r2 = r * r
    f = c * (u2 / r - u1 / r2 + u0 / (r2 * r))
    g = -c * (u2 / r - 3.0 * u1 / r2 + 3.0 * u0 / (r2 * r))
    return f, g


def reciprocal_scalar(k2: np.ndarray, xi: float, radius: float = 1.0
                      ) -> np.ndarray:
    """Wave-space scalar ``6 pi a sinc^2(ka) H(k) / k^2`` (``mu0`` units).

    Non-negative everywhere, so its square root scales white noise into
    a sample of the wave-space half.  ``k2`` holds ``|k|^2``; the
    ``k = 0`` mode yields 0.
    """
    k2 = np.asarray(k2, dtype=np.float64)
    a = float(radius)
    q2 = k2 / (4.0 * xi * xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 6.0 * math.pi * a * (1.0 + q2) * np.exp(-q2) / k2
        ka = np.sqrt(k2) * a
        val *= (np.sin(ka) / ka) ** 2
    return np.where(k2 == 0.0, 0.0, val)


def self_mobility_scalar(xi: float, radius: float = 1.0) -> float:
    """Self term ``f(0)`` of the real-space half (``mu0`` units):
    ``erfc(2 xi a) + (1 - exp(-4 xi^2 a^2)) / (4 sqrt(pi) xi a)``."""
    xa = xi * radius
    return (math.erfc(2.0 * xa)
            + (1.0 - math.exp(-4.0 * xa * xa)) / (4.0 * _SQRT_PI * xa))
