"""Brownian displacement generators.

Both BD algorithms draw correlated Gaussian displacements
``g ~ N(0, 2 kT dt M)`` for ``lambda_RPY`` steps at once:

* :class:`CholeskyBrownianGenerator` — Algorithm 1: factor the dense
  mobility once, then ``D = sqrt(2 kT dt) S Z`` (paper Section II.C),
* :class:`KrylovBrownianGenerator` — Algorithm 2: block Lanczos using
  only matrix-free products (paper Section III.B).

Both return a ``(3n, lambda)`` block ``D`` whose columns are consumed
one per inner time step.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..krylov.block_lanczos import LanczosInfo, block_lanczos_sqrt
from ..krylov.chebyshev import chebyshev_sqrt, eigenvalue_bounds
from ..krylov.reference import cholesky_displacements
from ..lint.contracts import array_arg, spd_arg
from ..utils.params import keyword_only

__all__ = ["CholeskyBrownianGenerator", "KrylovBrownianGenerator",
           "ChebyshevBrownianGenerator"]


@keyword_only
class CholeskyBrownianGenerator:
    """Dense-matrix Brownian displacements (Algorithm 1, lines 5-7).

    Construct with keyword arguments (positional construction raises
    :class:`TypeError`; ``replace(**changes)`` returns a reconfigured
    copy).

    Parameters
    ----------
    kT, dt:
        Thermal energy and time step; the scale is ``sqrt(2 kT dt)``.
    """

    def __init__(self, kT: float, dt: float):
        self.scale = math.sqrt(2.0 * kT * dt)

    @spd_arg("mobility")
    @array_arg("z", ndim=(1, 2))
    def generate(self, mobility: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``D = sqrt(2 kT dt) S Z`` with ``mobility = S S^T``."""
        return cholesky_displacements(mobility, z, scale=self.scale)


@keyword_only
class KrylovBrownianGenerator:
    """Matrix-free Brownian displacements (Algorithm 2, line 6).

    Parameters
    ----------
    kT, dt:
        Thermal energy and time step.
    tol:
        Relative-error stopping tolerance ``e_k`` of the block Lanczos
        iteration (paper Table II varies 1e-6 .. 1e-2).
    max_iter:
        Iteration cap forwarded to the solver.

    Construct with keyword arguments (positional construction raises
    :class:`TypeError`; ``replace(**changes)`` returns a reconfigured
    copy).
    """

    def __init__(self, kT: float, dt: float, tol: float = 1e-2,
                 max_iter: int = 200):
        self.scale = math.sqrt(2.0 * kT * dt)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        #: Diagnostics of the last solve (iterations, matvecs, ...).
        self.last_info: LanczosInfo | None = None

    @array_arg("z", ndim=(1, 2))
    def generate(self, matvec: Any, z: np.ndarray) -> np.ndarray:
        """``D = sqrt(2 kT dt) M^(1/2) Z`` via block Lanczos.

        ``matvec`` may be a
        :class:`~repro.core.mobility.MobilityOperator` (each Lanczos
        iteration then issues one batched ``apply_block``), a dense
        matrix, or a legacy ``matvec`` callable.

        Blocks wider than the operator dimension (tiny systems with a
        large ``lambda_RPY``) are processed in chunks of at most ``d``
        columns — the columns are independent samples, so chunking does
        not change the statistics.
        """
        z2 = np.atleast_2d(z.T).T
        d, s = z2.shape
        if s <= d:
            y, info = block_lanczos_sqrt(matvec, z2, tol=self.tol,
                                         max_iter=self.max_iter)
        else:
            y = np.empty_like(z2)
            total_matvecs = 0
            iters = 0
            for lo in range(0, s, d):
                hi = min(lo + d, s)
                y[:, lo:hi], info = block_lanczos_sqrt(
                    matvec, z2[:, lo:hi], tol=self.tol,
                    max_iter=self.max_iter)
                total_matvecs += info.n_matvecs
                iters = max(iters, info.iterations)
            info = LanczosInfo(iters, True, info.rel_change, total_matvecs)
        self.last_info = info
        return self.scale * y


@keyword_only
class ChebyshevBrownianGenerator:
    """Fixman-style Brownian displacements via Chebyshev polynomials.

    The alternative matrix-free method the paper cites (reference
    [25]): a polynomial approximation of ``sqrt`` on the estimated
    spectral interval of ``M``, evaluated with the three-term
    recurrence.  Requires eigenvalue estimates (refreshed whenever the
    mobility changes), which Lanczos does not — the practical advantage
    of the paper's Krylov choice; the ablation benchmark
    ``benchmarks/bench_ablation_brownian.py`` quantifies the trade.

    Parameters
    ----------
    kT, dt:
        Thermal energy and time step.
    tol:
        Sup-norm tolerance of the polynomial on the spectral interval
        (plays the role of ``e_k``).
    bound_iterations:
        Lanczos steps used to estimate the spectral interval.

    Construct with keyword arguments (positional construction raises
    :class:`TypeError`; ``replace(**changes)`` returns a reconfigured
    copy).
    """

    def __init__(self, kT: float, dt: float, tol: float = 1e-2,
                 bound_iterations: int = 25):
        self.scale = math.sqrt(2.0 * kT * dt)
        self.tol = float(tol)
        self.bound_iterations = int(bound_iterations)
        #: Diagnostics of the last solve.
        self.last_info: LanczosInfo | None = None
        #: Spectral interval used by the last solve.
        self.last_bounds: tuple[float, float] | None = None

    @array_arg("z", ndim=(1, 2))
    def generate(self, matvec: Any, z: np.ndarray) -> np.ndarray:
        """``D = sqrt(2 kT dt) M^(1/2) Z`` via a Chebyshev polynomial.

        ``matvec`` accepts the same operator forms as
        :meth:`KrylovBrownianGenerator.generate`.
        """
        z2 = np.atleast_2d(z.T).T
        l_min, l_max = eigenvalue_bounds(matvec, z2.shape[0],
                                         n_iter=self.bound_iterations)
        self.last_bounds = (l_min, l_max)
        y, info = chebyshev_sqrt(matvec, z2, l_min, l_max, tol=self.tol)
        # account for the bound-estimation matvecs in the diagnostics
        info.n_matvecs += min(self.bound_iterations, z2.shape[0])
        self.last_info = info
        return self.scale * y
