"""Chebyshev-polynomial Brownian displacements (Fixman's method).

The alternative matrix-free square root the paper mentions
(Section III.B, reference [25], Fixman 1986): approximate ``sqrt(x)``
on the spectral interval ``[l_min, l_max]`` of the SPD mobility by a
Chebyshev polynomial ``p_m`` and evaluate ``p_m(M) z`` with the
three-term recurrence — only matrix-vector products are needed, plus
*eigenvalue estimates*, which is the method's practical drawback
compared with Lanczos (the Krylov iteration adapts to the spectrum
automatically).

Implemented here for the ablation benchmark comparing the two methods
(``benchmarks/bench_ablation_brownian.py``):

* :func:`eigenvalue_bounds` — extremal Ritz values from a short
  Lanczos run, padded by safety factors,
* :func:`chebyshev_coefficients` — expansion of ``sqrt`` on the
  interval (computed at Chebyshev nodes; degree chosen adaptively from
  the *scalar* sup-norm error, which bounds the matrix-function error
  on the spectral interval),
* :func:`chebyshev_sqrt` — the vector evaluation (works on blocks,
  amortizing the polynomial across all ``lambda_RPY`` vectors).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .. import obs
from ..errors import ConvergenceError
from .block_lanczos import LanczosInfo

__all__ = ["eigenvalue_bounds", "chebyshev_coefficients", "chebyshev_sqrt"]


def eigenvalue_bounds(matvec: Callable[[np.ndarray], np.ndarray], dim: int,
                      n_iter: int = 25, safety: float = 1.05,
                      seed: int | np.random.Generator = 0
                      ) -> tuple[float, float]:
    """Estimated spectral interval ``[l_min, l_max]`` of an SPD operator.

    Runs ``n_iter`` Lanczos steps from a random vector and returns the
    extremal Ritz values widened by ``safety`` (Ritz values always lie
    inside the true spectrum).

    Parameters
    ----------
    matvec:
        The operator application.
    dim:
        Operator dimension.
    n_iter:
        Lanczos steps (25 is ample for the RPY spectra of interest).
    safety:
        Multiplicative widening of both ends.
    seed:
        RNG seed or generator for the starting vector.
    """
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    from ..core.mobility import as_mobility  # deferred: import cycle
    operator = as_mobility(matvec, dim=dim)
    n_iter = min(n_iter, dim)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    basis = [v]
    alpha: list[float] = []
    beta: list[float] = []
    with obs.span("krylov.bounds", d=dim, n_iter=n_iter):
        for m in range(n_iter):
            w = np.array(operator.apply(basis[-1]), dtype=np.float64,
                         copy=True)
            a = float(basis[-1] @ w)
            alpha.append(a)
            w -= a * basis[-1]
            if m > 0:
                w -= beta[-1] * basis[-2]
            for vb in basis:                   # full reorthogonalization
                w -= (vb @ w) * vb
            b = float(np.linalg.norm(w))
            if b < 1e-12:
                break
            beta.append(b)
            basis.append(w / b)
    import scipy.linalg
    ritz = scipy.linalg.eigvalsh_tridiagonal(
        np.array(alpha), np.array(beta[: len(alpha) - 1]))
    l_min = float(ritz[0]) / safety
    l_max = float(ritz[-1]) * safety
    if l_min <= 0:
        raise ConvergenceError(
            f"operator does not look positive definite (Ritz min {ritz[0]})")
    return l_min, l_max


def _best_coefficients(l_min: float, l_max: float, tol: float,
                       max_degree: int) -> tuple[np.ndarray, float, bool]:
    """Grow the expansion; return ``(c, err, converged)``.

    When even ``max_degree`` misses ``tol``, the highest-degree
    coefficients are returned with ``converged=False`` so callers can
    degrade to the best available polynomial instead of discarding it.
    """
    if not (0 < l_min < l_max):
        raise ValueError(f"need 0 < l_min < l_max, got [{l_min}, {l_max}]")
    probe = l_min + (l_max - l_min) * 0.5 * (
        1 - np.cos(np.linspace(0, np.pi, 513)))
    sqrt_probe = np.sqrt(probe)
    degree = 8
    c = np.zeros(1)
    err = np.inf
    t = (2 * probe - (l_max + l_min)) / (l_max - l_min)
    while degree <= max_degree:
        nodes = np.cos((np.arange(degree + 1) + 0.5) * np.pi / (degree + 1))
        x = 0.5 * (l_max - l_min) * nodes + 0.5 * (l_max + l_min)
        fx = np.sqrt(x)
        k = np.arange(degree + 1)
        theta = (np.arange(degree + 1) + 0.5) * np.pi / (degree + 1)
        c = (2.0 / (degree + 1)) * (np.cos(np.outer(k, theta)) * fx).sum(axis=1)
        # evaluate on the probe grid via Clenshaw; scalar zero seeds
        # broadcast to the grid on the first recurrence step
        b1, b2 = 0.0, 0.0
        for ck in c[:0:-1]:
            b1, b2 = 2 * t * b1 - b2 + ck, b1
        approx = t * b1 - b2 + 0.5 * c[0]
        err = float(np.max(np.abs(approx - sqrt_probe) / sqrt_probe))
        if err < tol:
            return c, err, True
        degree *= 2
    return c, err, False


def chebyshev_coefficients(l_min: float, l_max: float, tol: float = 1e-3,
                           max_degree: int = 512
                           ) -> np.ndarray:
    """Chebyshev coefficients of ``sqrt`` on ``[l_min, l_max]``.

    The degree is grown (doubling) until the sampled relative sup-norm
    error of the polynomial against ``sqrt`` on the interval is below
    ``tol`` — since ``M`` is SPD with spectrum inside the interval, the
    same bound holds for ``||p(M) - M^(1/2)||_2``.

    Returns the coefficient array ``c`` with
    ``p(x) = c_0/2 + sum_{k>=1} c_k T_k(t(x))``.
    """
    c, err, converged = _best_coefficients(l_min, l_max, tol, max_degree)
    if not converged:
        raise ConvergenceError(
            f"Chebyshev degree {max_degree} insufficient for tol={tol} on "
            f"[{l_min:.3g}, {l_max:.3g}] (condition {l_max / l_min:.3g})",
            iterations=c.size - 1, residual=err)
    return c


def chebyshev_sqrt(matvec: Callable[[np.ndarray], np.ndarray],
                   z: np.ndarray, l_min: float, l_max: float,
                   tol: float = 1e-3, max_degree: int = 512
                   ) -> tuple[np.ndarray, LanczosInfo]:
    """Approximate ``M^(1/2) z`` with a Chebyshev polynomial of ``M``.

    ``z`` may be a vector ``(d,)`` or a block ``(d, s)``; the
    recurrence is applied to the whole block at once (one polynomial
    serves every vector — Fixman's amortization).

    Returns ``(y, info)`` with ``info.iterations`` the polynomial
    degree and ``info.n_matvecs`` counted per column.

    If the ``max_degree`` cap cannot reach ``tol``, the best available
    polynomial is still evaluated and the raised
    :class:`~repro.errors.ConvergenceError` carries that evaluation as
    ``best_iterate`` (plus ``residual`` and ``n_matvecs``) so recovery
    policies can degrade to it instead of discarding the work.
    """
    z = np.asarray(z, dtype=np.float64)
    flat = z.ndim == 1
    zb = z[:, None] if flat else z
    from ..core.mobility import as_mobility  # deferred: import cycle
    operator = as_mobility(matvec, dim=int(zb.shape[0]))
    c, err, converged = _best_coefficients(l_min, l_max, tol, max_degree)
    degree = c.size - 1
    s = zb.shape[1]

    scale = 2.0 / (l_max - l_min)
    shift = (l_max + l_min) / (l_max - l_min)

    def t_apply(v):
        """Application of the scaled operator ``t(M) = scale M - shift``
        — one batched multi-RHS product for the whole block."""
        return scale * np.asarray(operator.apply_block(v)) - shift * v

    # Clenshaw recurrence on the block
    b1 = np.zeros_like(zb)
    b2 = np.zeros_like(zb)
    n_matvecs = 0
    with obs.span("krylov.chebyshev", d=int(zb.shape[0]), s=s,
                  degree=degree):
        for ck in c[:0:-1]:
            b1, b2 = 2.0 * t_apply(b1) - b2 + ck * zb, b1
            n_matvecs += s
        y = t_apply(b1) - b2 + 0.5 * c[0] * zb
        n_matvecs += s
    obs.record_solver("chebyshev", degree, converged, err, n_matvecs)
    if not converged:
        raise ConvergenceError(
            f"Chebyshev degree {max_degree} insufficient for tol={tol} on "
            f"[{l_min:.3g}, {l_max:.3g}] (condition {l_max / l_min:.3g})",
            iterations=degree, residual=err,
            best_iterate=(y[:, 0] if flat else y), n_matvecs=n_matvecs)
    info = LanczosInfo(iterations=degree, converged=converged,
                       rel_change=tol, n_matvecs=n_matvecs)
    return (y[:, 0] if flat else y), info
