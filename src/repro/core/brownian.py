"""Brownian displacement generators.

Both BD algorithms draw correlated Gaussian displacements
``g ~ N(0, 2 kT dt M)`` for ``lambda_RPY`` steps at once:

* :class:`CholeskyBrownianGenerator` — Algorithm 1: factor the dense
  mobility once, then ``D = sqrt(2 kT dt) S Z`` (paper Section II.C),
* :class:`KrylovBrownianGenerator` — Algorithm 2: block Lanczos using
  only matrix-free products (paper Section III.B).

Both return a ``(3n, lambda)`` block ``D`` whose columns are consumed
one per inner time step (a ``(3n,)`` vector for a 1-D ``z``).
:class:`~repro.core.integrators.MatrixFreeBD` runs the Krylov generator
on the real-space half of the positively split mobility only; the
wave-space half rides each step's drift apply.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..krylov.block_lanczos import LanczosInfo, block_lanczos_sqrt
from ..krylov.reference import cholesky_displacements
from ..utils.validation import require_rank

__all__ = ["CholeskyBrownianGenerator", "KrylovBrownianGenerator"]


class CholeskyBrownianGenerator:
    """Dense-matrix Brownian displacements (Algorithm 1, lines 5-7).

    Keyword-only.

    Parameters
    ----------
    kT, dt:
        Thermal energy and time step; the scale is ``sqrt(2 kT dt)``.
    """

    def __init__(self, *, kT: float, dt: float):
        self.scale = math.sqrt(2.0 * kT * dt)

    def generate(self, mobility: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``D = sqrt(2 kT dt) S Z`` with ``mobility = S S^T``; a mobility
        that is not SPD raises
        :class:`~repro.errors.NotPositiveDefiniteError`."""
        require_rank(z, "z", (1, 2))
        return cholesky_displacements(mobility, z, scale=self.scale)


class KrylovBrownianGenerator:
    """Matrix-free Brownian displacements (Algorithm 2, line 6).

    Keyword-only.

    Parameters
    ----------
    kT, dt:
        Thermal energy and time step.
    tol:
        Relative-error stopping tolerance ``e_k`` of the block Lanczos
        iteration (paper Table II varies 1e-6 .. 1e-2).
    max_iter:
        Iteration cap forwarded to the solver.
    """

    def __init__(self, *, kT: float, dt: float, tol: float = 1e-2,
                 max_iter: int = 200):
        self.scale = math.sqrt(2.0 * kT * dt)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        #: Diagnostics of the last solve (iterations, matvecs, ...).
        self.last_info: LanczosInfo | None = None

    def generate(self, mobility: Any, z: np.ndarray) -> np.ndarray:
        """``D = sqrt(2 kT dt) M^(1/2) Z`` via block Lanczos.

        ``mobility`` is an operator with ``apply_block`` (each Lanczos
        iteration issues one batched product) or a dense matrix.

        Blocks wider than the operator dimension (tiny systems with a
        large ``lambda_RPY``) are processed in chunks of at most ``d``
        columns — the columns are independent samples, so chunking does
        not change the statistics.  A 1-D ``z`` gives a 1-D result, as
        from every other generator.
        """
        require_rank(z, "z", (1, 2))
        z2 = np.atleast_2d(z.T).T
        d, s = z2.shape
        if s <= d:
            y, info = block_lanczos_sqrt(mobility, z2, tol=self.tol,
                                         max_iter=self.max_iter)
        else:
            y = np.empty_like(z2)
            total_matvecs = 0
            iters = 0
            for lo in range(0, s, d):
                hi = min(lo + d, s)
                y[:, lo:hi], info = block_lanczos_sqrt(
                    mobility, z2[:, lo:hi], tol=self.tol,
                    max_iter=self.max_iter)
                total_matvecs += info.n_matvecs
                iters = max(iters, info.iterations)
            info = LanczosInfo(iters, True, info.rel_change, total_matvecs)
        self.last_info = info
        y = self.scale * y
        return y[:, 0] if z.ndim == 1 else y
