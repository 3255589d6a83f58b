"""The PME influence function (paper Section IV.B.4).

At every mesh wavevector the reciprocal-space kernel is the 3x3 tensor
``M^(2)_alpha(k) = (I - khat khat^T) m_alpha(|k|)`` (paper Eq. 5), with
the wave scalar of the positively split Ewald decomposition
(:func:`repro.rpy.pse.reciprocal_scalar`, ``>= 0``) in place of
Beenakker's.
Storing the full tensor would need six floats per mode; the paper's
memory optimization stores only the *scalar* ``m_alpha`` (one float per
mode, on the half spectrum) and reconstructs the projector
``I - khat khat^T`` from the wavevector on the fly — a factor-6 saving
that makes the method fit accelerator memories.

The stored scalar also absorbs the smooth-PME correction
``|b1(k1) b2(k2) b3(k3)|^2`` and the constant ``K^3 / V`` arising from
the inverse-FFT normalization, so applying the influence function is a
single fused multiply over the spectrum.  Because it is non-negative
its square root is stored beside it: the same projector with
``sqrt(scalar)`` is ``C^(1/2)`` of the mesh operator ``C = F^-1 D F``,
so half-spectrum white noise ``W^`` (:meth:`InfluenceFunction.white_noise`)
added as ``sqrt(scalar) W^`` leaves the drift's pass as a sample of the
reciprocal half.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import ConfigurationError
from ..rpy.pse import reciprocal_scalar
from .bspline import euler_spline_modulus
from .mesh import Mesh

__all__ = ["InfluenceFunction"]

#: Slab size of :meth:`InfluenceFunction.apply_batch`: ``max(1,
#: SLAB_POINTS // K)`` rows of the leading mesh axis per pass keep the
#: working set (three slabs of ``khat``, the scalar and the spectra
#: slices) in cache.  The result does not depend on it.
SLAB_POINTS = 324


class InfluenceFunction:
    """Precomputed scalar influence function on the half-spectrum mesh.

    Parameters
    ----------
    mesh:
        The PME mesh (defines ``K`` and the box).
    xi:
        Ewald splitting parameter (the paper's ``alpha``).
    p:
        B-spline order (enters through the ``|b|^2`` correction).
    radius:
        Particle radius ``a``.

    Notes
    -----
    The influence function depends only on ``(L, K, p, xi, a)`` — not on
    the particle configuration — so one instance is reused for the whole
    simulation (paper Section IV.B.4).
    """

    def __init__(self, mesh: Mesh, xi: float, p: int, radius: float = 1.0):
        if xi <= 0:
            raise ConfigurationError(f"xi must be positive, got {xi}")
        self.mesh = mesh
        self.xi = float(xi)
        self.p = int(p)
        self.radius = float(radius)

        K = mesh.K
        k2 = mesh.k2_grid()
        bsq = euler_spline_modulus(K, p)
        bz = bsq[: K // 2 + 1]
        scalar = (reciprocal_scalar(k2, self.xi, self.radius)
                  * (bsq[:, None, None] * bsq[None, :, None]
                     * bz[None, None, :]))
        # fold in the 1/V Ewald prefactor and the K^3 that cancels the
        # irfftn normalization, so apply() needs no further scaling
        scalar *= K ** 3 / mesh.box.volume
        if K % 2 == 0:
            # a Nyquist mode's stored wavevector is not minus that of
            # its conjugate partner, so the projector there is not
            # Hermitian: with no weight on those planes the influence is
            # an exact Hermitian multiplier, and its square root the
            # exact root of the mesh operator
            scalar[K // 2] = 0.0
            scalar[:, K // 2] = 0.0
            scalar[:, :, K // 2] = 0.0
        #: The stored scalar field, shape ``mesh.rshape`` (one float per mode).
        self.scalar = scalar
        #: ``sqrt(scalar)``: the weight of the noise of :meth:`apply_batch`.
        self.sqrt_scalar = np.sqrt(scalar)

        # unit wavevector components, built once; k=0 entry is arbitrary
        # because scalar[0,0,0] == 0.
        gx, gy, gz = mesh.k_grids()
        k2_safe = np.where(k2 == 0.0, 1.0, k2)
        inv_k = 1.0 / np.sqrt(k2_safe)
        self._khat = (gx * inv_k, gy * inv_k, gz * inv_k)

    def apply(self, C: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply ``scalar(k) (I - khat khat^T)`` to a spectral force field.

        Parameters
        ----------
        C:
            Complex array of shape ``(3,) + mesh.rshape`` — the three
            Cartesian components of the transformed mesh forces.
        out:
            Optional preallocated output of the same shape (may alias
            ``C``; the computation is safe in place).

        Returns
        -------
        The projected, scaled spectrum ``D`` with
        ``D_u = scalar * (C_u - khat_u (khat . C))`` — the one-vector
        case of :meth:`apply_batch`, which holds the only projector.
        """
        if C.shape != (3,) + self.mesh.rshape:
            raise ConfigurationError(
                f"expected spectrum of shape {(3,) + self.mesh.rshape}, "
                f"got {C.shape}")
        if out is None:
            out = C.copy()
        elif out is not C:
            out[...] = C
        self.apply_batch(out[:, None])
        return out

    def apply_batch(self, spec: np.ndarray,
                    noise: np.ndarray | None = None) -> np.ndarray:
        """In-place batched influence over ``s`` spectra at once.

        Parameters
        ----------
        spec:
            Complex array of shape ``(3, s) + mesh.rshape`` — component
            ``u`` of vector ``v`` at ``spec[u, v]``.  Modified **in
            place** (and returned): the batched pipeline owns its
            workspace, so the copy :meth:`apply` makes for safety would
            be pure overhead here.
        noise:
            Optional spectra shaped like ``spec`` (scaled draws of
            :meth:`white_noise`): the result is then ``(I - khat
            khat^T) (scalar spec + sqrt(scalar) noise)``.

        Notes
        -----
        The ``scalar(k) (I - khat khat^T)`` projection, fused over
        slabs of the leading axis so the ``khat`` grids and the stored
        scalar are read once per slab for all ``s`` vectors instead of
        once per vector — the reciprocal analogue of the paper's
        block-of-vectors SpMV (Section IV.C).  Vectors are independent:
        ``spec[:, v]`` comes out the same bytes whatever ``s``.
        """
        K = self.mesh.K
        expected = (3,) + (spec.shape[1],) + self.mesh.rshape
        if spec.shape != expected or (noise is not None
                                      and noise.shape != expected):
            raise ConfigurationError(
                f"expected batched spectra of shape (3, s) + "
                f"{self.mesh.rshape}, got {spec.shape}")
        s = spec.shape[1]
        hx, hy, hz = self._khat
        slab = max(1, SLAB_POINTS // K)
        for lo in range(0, K, slab):
            hi = min(lo + slab, K)
            hxs, hys, hzs = hx[lo:hi], hy[lo:hi], hz[lo:hi]
            ss = self.scalar[lo:hi]
            rs = self.sqrt_scalar[lo:hi]
            for v in range(s):
                cx = spec[0, v, lo:hi]
                cy = spec[1, v, lo:hi]
                cz = spec[2, v, lo:hi]
                if noise is not None:
                    # the projector is linear: weight and add the noise
                    # first, then project at unit scale
                    for c, w in zip((cx, cy, cz), noise[:, v, lo:hi]):
                        c *= ss
                        c += rs * w
                dot = cx * hxs
                dot += cy * hys
                dot += cz * hzs
                cx -= hxs * dot
                cy -= hys * dot
                cz -= hzs * dot
                if noise is None:
                    cx *= ss
                    cy *= ss
                    cz *= ss
        return spec

    def white_noise(self, rng: np.random.Generator) -> np.ndarray:
        """Half spectrum ``W^`` (``(3,) + mesh.rshape``) with the law, as
        the c2r sees it, of the r2c of a real white 3-component field:
        drawn on modes of non-zero weight only, Re and Im of variance
        ``K^3 / 2`` (``K^3`` on ``kz = 0``, whose Hermitian part is kept)."""
        modes, std = self._noise_modes
        w = np.zeros((3, self.scalar.size), dtype=np.complex128)
        w[:, modes] = (rng.standard_normal((3, modes.size, 2)).view(
            np.complex128)[..., 0] * std)
        return w.reshape((3,) + self.mesh.rshape)

    @functools.cached_property
    def _noise_modes(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use (an apply never needs them)
        modes = np.flatnonzero(self.scalar)
        kz0 = modes % self.scalar.shape[2] == 0
        return modes, math.sqrt(self.mesh.K ** 3) * np.where(
            kz0, 1.0, math.sqrt(0.5))

    @property
    def memory_bytes(self) -> int:
        """Bytes of the stored scalar (the paper's ``8 K^3 / 2``)."""
        return self.scalar.nbytes

    @property
    def tensor_memory_bytes(self) -> int:
        """Bytes an explicit symmetric 3x3 tensor field would need
        (the ``6 x 8 x K^3/2`` figure the paper's optimization avoids)."""
        return 6 * self.scalar.nbytes
