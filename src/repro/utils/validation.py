"""Input validation helpers shared by the public API.

Every operator in the package accepts particle positions as an ``(n, 3)``
float array and forces either as a flat ``(3n,)`` vector or an
``(3n, s)`` block of ``s`` vectors (Section IV.C of the paper applies the
real-space SpMV to blocks of vectors).  These helpers normalize and check
those shapes in one place so error messages are uniform.

Hot paths may pass ``check_finite=False`` to skip the ``O(n)`` finiteness
scan; the runtime contracts of :mod:`repro.lint.contracts` re-enable it
under ``REPRO_CHECKS=strict``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["require", "as_positions", "as_force_block", "check_square_box"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def as_positions(positions, n: int | None = None,  # noqa: RPR001 - this *is* the validator
                 check_finite: bool = True) -> np.ndarray:
    """Validate and return positions as a float64 C-contiguous ``(n, 3)`` array.

    Parameters
    ----------
    positions:
        Any array-like of shape ``(n, 3)``.
    n:
        If given, additionally require exactly this number of particles.
    check_finite:
        Scan for NaN/inf entries (default).  Hot paths that revalidate
        the same array every step may disable the ``O(n)`` scan.
    """
    r = np.ascontiguousarray(positions, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ConfigurationError(
            f"positions must have shape (n, 3), got {r.shape}")
    if n is not None and r.shape[0] != n:
        raise ConfigurationError(
            f"expected {n} particles, got {r.shape[0]}")
    if check_finite and not np.all(np.isfinite(r)):
        raise ConfigurationError("positions contain non-finite values")
    return r


def as_force_block(forces, n: int,
                   check_finite: bool = False) -> tuple[np.ndarray, bool]:
    """Validate forces for ``n`` particles; return ``(block, was_flat)``.

    ``block`` always has shape ``(3n, s)`` with ``s >= 1``; ``was_flat``
    records whether the caller passed a flat ``(3n,)`` vector so the
    result can be returned in the same shape.  Empty blocks (``s == 0``)
    are rejected — every operator application must produce at least one
    output column, and an empty block almost always indicates a slicing
    bug upstream.

    ``check_finite`` defaults to *off* here (the force SpMV is the hot
    path of Algorithm 2); pass ``True`` or run under
    ``REPRO_CHECKS=strict`` for the full scan.
    """
    f = np.asarray(forces, dtype=np.float64)
    was_flat = f.ndim == 1
    if was_flat:
        f = f[:, None]
    if f.ndim != 2 or f.shape[0] != 3 * n:
        raise ConfigurationError(
            f"forces must have shape (3n,) or (3n, s) with n={n}, "
            f"got {np.asarray(forces).shape}")
    if f.shape[1] == 0:
        raise ConfigurationError(
            "force block has zero vectors (s == 0); operators require "
            "at least one right-hand side")
    if check_finite and not np.all(np.isfinite(f)):
        raise ConfigurationError("forces contain non-finite values")
    return np.ascontiguousarray(f), was_flat


def check_square_box(box_length: float) -> float:
    """Validate the cubic box edge length and return it as a float."""
    box_length = float(box_length)
    if not np.isfinite(box_length) or box_length <= 0:
        raise ConfigurationError(
            f"box_length must be a positive finite number, got {box_length}")
    return box_length
