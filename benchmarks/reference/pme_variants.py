"""Reference PME variants: on-the-fly ``P`` and Lagrange interpolation.

The production operator (:class:`repro.PMEOperator`) stores the
interpolation matrix ``P`` and its transpose once per configuration and
interpolates with cardinal B-splines (smooth PME).  Two figures of the
paper compare that design against an alternative, and the alternatives
live here, built from public :mod:`repro` names only:

* **on-the-fly ``P``** (Fig. 4): :func:`spread_on_the_fly` and
  :func:`interpolate_on_the_fly` recompute the ``p^3`` weights of every
  particle on every call instead of reading them from ``P``;
* **Lagrange interpolation** (Section III.A): the original PME of
  Darden et al. interpolates with order-``p`` Lagrange polynomials on
  the ``p`` mesh points centered around the particle, with **no**
  ``|b(k)|^2`` deconvolution in the influence function (the
  interpolant is exact at the nodes; its in-between error is what
  limits accuracy).

:func:`reciprocal_pass` is the one reference reciprocal-space pass:
spread on the fly -> r2c FFT -> projector times the influence scalar
-> c2r FFT -> interpolate on the fly, for either interpolation kind.
Its B-spline form is an independent implementation of
:meth:`repro.PMEOperator.apply_reciprocal` (same mathematics, separate
weights, FFT and influence code) and agrees with it to rounding.  Its
``wave`` argument swaps the RPY wave scalar for another tensor's
(:func:`reference.oseen.reciprocal_scalar`).
"""

from __future__ import annotations

import numpy as np

from repro import Box, PMEParams
from repro.errors import ConfigurationError
from repro.pme import Mesh, bspline_weights, euler_spline_modulus
from repro.rpy.pse import reciprocal_scalar

__all__ = ["KINDS", "lagrange_window_offsets", "lagrange_weights",
           "weights_and_columns", "spread_on_the_fly",
           "interpolate_on_the_fly", "influence_scalar", "reciprocal_pass",
           "mobility_apply"]

#: Interpolation kinds: ``"bspline"`` (smooth PME, what
#: :class:`repro.PMEOperator` runs) and ``"lagrange"`` (original PME).
KINDS = ("bspline", "lagrange")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigurationError(f"unknown interpolation kind {kind!r}")


def lagrange_window_offsets(p: int) -> np.ndarray:
    """Node offsets (relative to ``floor(u)``) of the order-``p`` window.

    The window is centered on the containing interval: for example
    ``p = 4`` uses offsets ``(-1, 0, 1, 2)`` so the interpolation point
    ``u - floor(u)`` in ``[0, 1)`` sits in the central subinterval.
    """
    if p < 2:
        raise ConfigurationError(f"Lagrange order must be >= 2, got {p}")
    return np.arange(p) - (p // 2 - 1)


def lagrange_weights(frac: np.ndarray, p: int) -> np.ndarray:
    """Order-``p`` Lagrange basis weights at fractional offsets.

    Parameters
    ----------
    frac:
        Fractional parts ``u - floor(u)`` in ``[0, 1)``, shape ``(n,)``.
    p:
        Number of interpolation nodes.

    Returns
    -------
    numpy.ndarray
        Shape ``(n, p)``; column ``j`` is the weight of the mesh point
        at offset :func:`lagrange_window_offsets`\\ ``(p)[j]``.  Rows sum
        to 1 exactly (constants are reproduced).
    """
    frac = np.asarray(frac, dtype=np.float64)
    if frac.ndim != 1:
        raise ConfigurationError(f"frac must be 1-D, got shape {frac.shape}")
    nodes = lagrange_window_offsets(p).astype(np.float64)
    out = np.ones((frac.shape[0], p))
    for j in range(p):
        for s in range(p):
            if s == j:
                continue
            out[:, j] *= (frac - nodes[s]) / (nodes[j] - nodes[s])
    return out


def weights_and_columns(positions, box: Box, K: int, p: int,
                        kind: str = "bspline"
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle interpolation weights and flat mesh indices.

    Returns ``(data, cols)`` of shape ``(n, p^3)``: row ``i`` holds the
    ``p^3`` weights of particle ``i`` and the row-major indices of the
    mesh points they address.  For ``kind="bspline"`` these are the
    entries of :class:`repro.pme.InterpolationMatrix`'s ``P``.
    """
    _check_kind(kind)
    if p < 2 or K < p:
        raise ConfigurationError(
            f"need 2 <= p <= K, got p={p}, K={K}")
    u = box.fractional(np.asarray(positions, dtype=np.float64), K)
    base = np.floor(u).astype(np.intp)
    frac = u - base
    if kind == "bspline":
        w = [bspline_weights(frac[:, d], p) for d in range(3)]
        j = -np.arange(p, dtype=np.intp)
    else:
        w = [lagrange_weights(frac[:, d], p) for d in range(3)]
        j = lagrange_window_offsets(p)
    idx = [np.mod(base[:, d][:, None] + j[None, :], K) for d in range(3)]
    data = np.einsum("ia,ib,ic->iabc", w[0], w[1], w[2]).reshape(-1, p ** 3)
    cols = ((idx[0][:, :, None, None] * K + idx[1][:, None, :, None]) * K
            + idx[2][:, None, None, :]).reshape(-1, p ** 3)
    return data, cols


def spread_on_the_fly(positions, box: Box, K: int, p: int,
                      values: np.ndarray, chunk: int = 65536,
                      kind: str = "bspline") -> np.ndarray:
    """``P^T values`` without storing ``P`` (weights recomputed per call).

    The baseline of the Fig. 4 comparison: no ``P`` is held, but the
    ``O(p^3 n)`` weight computation is repeated for every application.
    Particles are processed in chunks to bound the temporaries.

    ``values`` has shape ``(n,)`` or ``(n, s)``; the result is
    ``(K^3,)`` or ``(K^3, s)``.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.ndim == 1
    vals = values[:, None] if flat else values
    n, s = vals.shape
    r = np.asarray(positions, dtype=np.float64)
    out = np.zeros((K ** 3, s))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        data, cols = weights_and_columns(r[lo:hi], box, K, p, kind)
        # scatter-add: several particles hit the same mesh points
        contrib = data[:, :, None] * vals[lo:hi, None, :]
        np.add.at(out, cols.ravel(), contrib.reshape(-1, s))
    return out[:, 0] if flat else out


def interpolate_on_the_fly(positions, box: Box, K: int, p: int,
                           mesh_values: np.ndarray, chunk: int = 65536,
                           kind: str = "bspline") -> np.ndarray:
    """``P mesh_values`` without storing ``P`` (the counterpart of
    :func:`spread_on_the_fly`); ``(K^3,)`` or ``(K^3, s)`` in."""
    mesh_values = np.asarray(mesh_values, dtype=np.float64)
    flat = mesh_values.ndim == 1
    mv = mesh_values[:, None] if flat else mesh_values
    r = np.asarray(positions, dtype=np.float64)
    n = r.shape[0]
    out = np.empty((n, mv.shape[1]))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        data, cols = weights_and_columns(r[lo:hi], box, K, p, kind)
        out[lo:hi] = np.einsum("ie,ies->is", data, mv[cols], optimize=True)
    return out[:, 0] if flat else out


def influence_scalar(mesh: Mesh, xi: float, p: int, radius: float = 1.0,
                     kind: str = "bspline", wave=reciprocal_scalar
                     ) -> np.ndarray:
    """The half-spectrum influence scalar of one interpolation kind.

    The wave scalar ``wave(k2, xi, radius)`` (default the positively
    split RPY one, :func:`repro.rpy.pse.reciprocal_scalar`) times ``K^3
    / V``, times
    the smooth-PME ``|b1 b2 b3|^2`` deconvolution for B-splines and
    nothing for Lagrange.  The Nyquist planes of an even mesh carry no
    weight in either kind (their stored wavevector is not minus that of
    the conjugate partner, so the projector there is not Hermitian).
    """
    _check_kind(kind)
    K = mesh.K
    scalar = wave(mesh.k2_grid(), xi, radius)
    if kind == "bspline":
        bsq = euler_spline_modulus(K, p)
        scalar = scalar * (bsq[:, None, None] * bsq[None, :, None]
                           * bsq[None, None, : K // 2 + 1])
    scalar *= K ** 3 / mesh.box.volume
    if K % 2 == 0:
        scalar[K // 2] = 0.0
        scalar[:, K // 2] = 0.0
        scalar[:, :, K // 2] = 0.0
    return scalar


def reciprocal_pass(positions, box: Box, params: PMEParams, forces,
                    kind: str = "bspline", radius: float = 1.0,
                    wave=reciprocal_scalar) -> np.ndarray:
    """Reciprocal-space velocities in ``mu0`` units, all on the fly.

    spread (:func:`spread_on_the_fly`) -> r2c FFT -> ``scalar(k) (I -
    khat khat^T)`` -> c2r FFT -> interpolate
    (:func:`interpolate_on_the_fly`), with the scalar of
    :func:`influence_scalar` for ``kind`` and ``wave``.  ``forces`` is
    ``(3n,)`` or ``(3n, s)`` and the result has its shape, like
    :meth:`repro.PMEOperator.apply_reciprocal`.
    """
    _check_kind(kind)
    r = np.asarray(positions, dtype=np.float64)
    n = r.shape[0]
    f = np.asarray(forces, dtype=np.float64)
    flat = f.ndim == 1
    s = 1 if flat else f.shape[1]
    K, p = params.K, params.p
    mesh = Mesh(box, K)

    # lane b = component * s + column, as in the production pipeline
    grid = spread_on_the_fly(r, box, K, p, f.reshape(n, 3 * s), kind=kind)
    spec = np.fft.rfftn(grid.reshape(K, K, K, 3, s), axes=(0, 1, 2))

    k2 = mesh.k2_grid()
    inv_k = 1.0 / np.sqrt(np.where(k2 == 0.0, 1.0, k2))
    khat = np.stack(np.broadcast_arrays(*(g * inv_k for g in mesh.k_grids())),
                    axis=-1)                                 # rshape + (3,)
    dot = np.einsum("xyzu,xyzus->xyzs", khat, spec)
    spec -= khat[..., None] * dot[..., None, :]
    spec *= influence_scalar(mesh, params.xi, p, radius, kind,
                             wave)[..., None, None]

    vel = np.fft.irfftn(spec, s=(K, K, K), axes=(0, 1, 2))
    u = interpolate_on_the_fly(r, box, K, p, vel.reshape(K ** 3, 3 * s),
                               kind=kind)
    return u.reshape(3 * n) if flat else u.reshape(3 * n, s)


def mobility_apply(operator, forces, kind: str = "bspline") -> np.ndarray:
    """``u = M f`` with the reciprocal half from :func:`reciprocal_pass`.

    The real half and the ``mu0`` prefactor are the production
    operator's (:meth:`repro.PMEOperator.apply_real`), so two kinds
    scored through this function differ only in their interpolation.
    """
    recip = reciprocal_pass(operator.positions, operator.box,
                            operator.params, forces, kind,
                            radius=operator.fluid.radius)
    return (recip + operator.apply_real(forces)) * operator.fluid.mobility0
