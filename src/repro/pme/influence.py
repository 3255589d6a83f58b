"""The PME influence function (paper Section IV.B.4).

At every mesh wavevector the reciprocal-space kernel is the 3x3 tensor
``M^(2)_alpha(k) = (I - khat khat^T) m_alpha(|k|)`` (paper Eq. 5).
Storing the full tensor would need six floats per mode; the paper's
memory optimization stores only the *scalar* ``m_alpha`` (one float per
mode, on the half spectrum) and reconstructs the projector
``I - khat khat^T`` from the wavevector on the fly — a factor-6 saving
that makes the method fit accelerator memories.

The stored scalar also absorbs the smooth-PME correction
``|b1(k1) b2(k2) b3(k3)|^2`` and the constant ``K^3 / V`` arising from
the inverse-FFT normalization, so applying the influence function is a
single fused multiply over the spectrum.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..rpy.beenakker import reciprocal_scalar
from .bspline import euler_spline_modulus
from .mesh import Mesh

__all__ = ["InfluenceFunction"]


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
    interpolation:
        ``"bspline"`` applies the smooth-PME ``|b|^2`` deconvolution;
        ``"lagrange"`` (original PME) applies none.

    Notes
    -----
    The influence function depends only on ``(L, K, p, xi, a)`` — not on
    the particle configuration — so one instance is reused for the whole
    simulation (paper Section IV.B.4).
    """

    def __init__(self, mesh: Mesh, xi: float, p: int, radius: float = 1.0,
                 interpolation: str = "bspline", kernel: str = "rpy"):
        if xi <= 0:
            raise ConfigurationError(f"xi must be positive, got {xi}")
        if interpolation not in ("bspline", "lagrange"):
            raise ConfigurationError(
                f"unknown interpolation {interpolation!r}")
        self.mesh = mesh
        self.xi = float(xi)
        self.p = int(p)
        self.radius = float(radius)
        self.interpolation = interpolation
        self.kernel = kernel

        K = mesh.K
        k2 = mesh.k2_grid()
        scalar = reciprocal_scalar(k2, self.xi, self.radius, kernel=kernel)
        if interpolation == "bspline":
            bsq = euler_spline_modulus(K, p)
            bz = bsq[: K // 2 + 1]
            scalar = scalar * (bsq[:, None, None] * bsq[None, :, None]
                               * bz[None, None, :])
        # fold in the 1/V Ewald prefactor and the K^3 that cancels the
        # irfftn normalization, so apply() needs no further scaling
        scalar *= K ** 3 / mesh.box.volume
        #: The stored scalar field, shape ``mesh.rshape`` (one float per mode).
        self.scalar = scalar

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

    def apply_batch(self, spec: np.ndarray, slab: int | None = None
                    ) -> np.ndarray:
        """In-place batched influence over ``s`` spectra at once.

        Parameters
        ----------
        spec:
            Complex array of shape ``(3, s) + mesh.rshape`` — component
            ``u`` of vector ``v`` at ``spec[u, v]``.  Modified **in
            place** (and returned): the batched pipeline owns its
            workspace, so the copy :meth:`apply` makes for safety would
            be pure overhead here.
        slab:
            Rows of the leading mesh axis processed per pass; the
            default keeps the working set (3 slabs of ``khat`` plus the
            scalar and the spectra slices) inside cache.  The result is
            independent of the slab size.

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
        if spec.shape != expected:
            raise ConfigurationError(
                f"expected batched spectrum of shape (3, s) + "
                f"{self.mesh.rshape}, got {spec.shape}")
        s = spec.shape[1]
        hx, hy, hz = self._khat
        if slab is None:
            slab = max(1, 324 // K)
        for lo in range(0, K, slab):
            hi = min(lo + slab, K)
            hxs, hys, hzs = hx[lo:hi], hy[lo:hi], hz[lo:hi]
            ss = self.scalar[lo:hi]
            for v in range(s):
                cx = spec[0, v, lo:hi]
                cy = spec[1, v, lo:hi]
                cz = spec[2, v, lo:hi]
                dot = cx * hxs
                dot += cy * hys
                dot += cz * hzs
                cx -= hxs * dot
                cx *= ss
                cy -= hys * dot
                cy *= ss
                cz -= hzs * dot
                cz *= ss
        return spec

    @property
    def memory_bytes(self) -> int:
        """Bytes of the stored scalar (the paper's ``8 K^3 / 2``)."""
        return self.scalar.nbytes

    @property
    def tensor_memory_bytes(self) -> int:
        """Bytes an explicit symmetric 3x3 tensor field would need
        (the ``6 x 8 x K^3/2`` figure the paper's optimization avoids)."""
        return 6 * self.scalar.nbytes
