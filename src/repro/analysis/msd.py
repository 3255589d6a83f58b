"""Mean squared displacement of recorded trajectories."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["mean_squared_displacement"]


def mean_squared_displacement(positions: np.ndarray,  # noqa: RPR001 - a (T, n, 3) trajectory
                              max_lag: int | None = None) -> np.ndarray:
    """Time- and particle-averaged MSD for all lags up to ``max_lag``.

    Implements the average in the paper's Eq. 12:
    ``MSD(tau) = <(r(t + tau) - r(t))^2>`` with the angle brackets an
    average over time origins ``t`` and over particles.

    Parameters
    ----------
    positions:
        *Unwrapped* positions, shape ``(T, n, 3)``.
    max_lag:
        Largest lag (in frames) to evaluate; default ``T - 1``.

    Returns
    -------
    numpy.ndarray
        ``msd[k]`` for lags ``k = 0 .. max_lag`` (``msd[0] = 0``).
    """
    r = np.asarray(positions, dtype=np.float64)
    if r.ndim != 3 or r.shape[2] != 3:
        raise ConfigurationError(
            f"positions must have shape (T, n, 3), got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ConfigurationError("positions contain non-finite values")
    t = r.shape[0]
    if t < 2:
        raise ConfigurationError("need at least 2 frames for an MSD")
    if max_lag is None:
        max_lag = t - 1
    max_lag = min(max_lag, t - 1)
    out = np.zeros(max_lag + 1)
    for lag in range(1, max_lag + 1):
        diff = r[lag:] - r[:-lag]
        out[lag] = float(np.mean((diff * diff).sum(axis=2)))
    return out
