"""Block Lanczos approximation of ``M^(1/2) Z`` for a block of vectors.

Algorithm 2 needs ``lambda_RPY`` Brownian displacement vectors per
mobility update (line 6: ``D = Krylov(PME, Z)``).  The block Krylov
method computes them together, which (a) converges in fewer iterations
per vector than the single-vector method and (b) turns every operator
application into a block (multi-RHS) product — the efficient kernel of
paper reference [24] (Section III.B).

After ``m`` block steps with ``Z = V_1 R_1`` (thin QR), the band
block-tridiagonal ``T_m = V^T M V`` (blocks ``A_j`` on the diagonal,
``B_j`` below) gives

    M^(1/2) Z  ~  V_m  T_m^(1/2)  E_1 R_1

with ``E_1`` the first block column of the identity.  The stopping
criterion is the Frobenius-norm relative update, matching the paper's
``e_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from .. import obs
from ..errors import ConvergenceError
from ..lint.contracts import array_arg

__all__ = ["block_lanczos_sqrt", "LanczosInfo"]


@dataclass
class LanczosInfo:
    """Diagnostics of a Krylov square-root solve.

    Attributes
    ----------
    iterations:
        Number of (block) Lanczos steps performed.
    converged:
        Whether the relative-update criterion was met.
    rel_change:
        Last relative update of the iterate.
    n_matvecs:
        Number of operator applications, counted per column.
    """

    iterations: int
    converged: bool
    rel_change: float
    n_matvecs: int


def _block_tridiag_sqrt_first(blocks_a: list[np.ndarray],
                              blocks_b: list[np.ndarray],
                              s: int) -> np.ndarray:
    """``T^(1/2) E_1`` for the block tridiagonal ``T`` (first ``s`` columns)."""
    m = len(blocks_a)
    t = np.zeros((m * s, m * s))
    for j, a in enumerate(blocks_a):
        t[j * s:(j + 1) * s, j * s:(j + 1) * s] = a
    for j, b in enumerate(blocks_b):
        t[(j + 1) * s:(j + 2) * s, j * s:(j + 1) * s] = b
        t[j * s:(j + 1) * s, (j + 1) * s:(j + 2) * s] = b.T
    w, q = scipy.linalg.eigh(t)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (q * w) @ q[:s].T  # (m s, s)


@array_arg("z", ndim=(2,))
def block_lanczos_sqrt(matvec: Any, z: np.ndarray, tol: float = 1e-2,
                       max_iter: int = 200
                       ) -> tuple[np.ndarray, LanczosInfo]:
    """Approximate ``M^(1/2) Z`` for a block ``Z`` of shape ``(d, s)``.

    ``matvec`` may be a :class:`~repro.core.mobility.MobilityOperator`
    (preferred — each iteration issues **one** batched
    ``apply_block``), a dense matrix, or a legacy ``matvec`` callable
    (wrapped via :func:`~repro.core.mobility.as_mobility`; callables
    that accept column blocks keep their block behaviour).  Returns
    ``(Y, info)`` with ``Y`` of shape ``(d, s)``; a single vector is
    the block ``z[:, None]``.

    Parameters
    ----------
    tol:
        Frobenius-norm relative-update stopping tolerance (the paper's
        ``e_k``).
    max_iter:
        Maximum block steps (capped at ``d // s``); exceeding it raises
        :class:`~repro.errors.ConvergenceError`.

    Each new block is re-orthogonalized against the full basis.

    Rank deficiency of a new block (an invariant subspace) terminates
    the expansion; the current iterate is then exact on the subspace
    explored and is returned if the tolerance is met, otherwise a
    :class:`~repro.errors.ConvergenceError` is raised.  The error
    carries the full solve diagnostics (``iterations``,
    ``rel_change``/``residual``, ``n_matvecs``) for the recovery log.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"Z must have shape (d, s), got {z.shape}")
    d, s = z.shape
    if s == 0 or not np.any(z):
        return np.zeros_like(z), LanczosInfo(0, True, 0.0, 0)
    if s > d:
        raise ValueError(f"block size {s} exceeds dimension {d}")

    from ..core.mobility import as_mobility  # deferred: import cycle
    operator = as_mobility(matvec, dim=d)
    v1, r1 = np.linalg.qr(z)           # Z = V_1 R_1
    max_iter = min(max_iter, d // s)
    basis = [v1]
    blocks_a: list[np.ndarray] = []
    blocks_b: list[np.ndarray] = []
    y_prev: np.ndarray | None = None
    y_acc = np.empty((d, s))           # per-iteration iterate workspace
    rel_change = np.inf
    n_matvecs = 0

    def _finish(info: LanczosInfo) -> LanczosInfo:
        obs.record_solver("block_lanczos", info.iterations, info.converged,
                          info.rel_change, info.n_matvecs)
        return info

    with obs.span("krylov.block_lanczos", d=d, s=s, tol=tol):
        for m in range(1, max_iter + 1):
            v = basis[-1]
            # one batched multi-RHS application per iteration
            w = np.asarray(operator.apply_block(v), dtype=np.float64)
            n_matvecs += s
            a = v.T @ w
            a = 0.5 * (a + a.T)        # symmetrize against round-off
            blocks_a.append(a)
            w = w - v @ a
            if m > 1:
                w = w - basis[-2] @ blocks_b[-1].T
            for vb in basis:           # full reorthogonalization
                w -= vb @ (vb.T @ w)

            # iterate + convergence check (cheap next to the block matvec)
            coeffs = _block_tridiag_sqrt_first(blocks_a, blocks_b, s)
            y_acc.fill(0.0)
            for j, vb in enumerate(basis):
                y_acc += vb @ coeffs[j * s:(j + 1) * s]
            y = y_acc @ r1
            if y_prev is not None:
                denom = float(np.linalg.norm(y))
                rel_change = (float(np.linalg.norm(y - y_prev)) / denom
                              if denom > 0 else 0.0)
                if rel_change < tol:
                    return y, _finish(
                        LanczosInfo(m, True, rel_change, n_matvecs))
            y_prev = y

            v_next, b = np.linalg.qr(w)
            if np.min(np.abs(np.diag(b))) <= 1e-12 * max(1.0, abs(b[0, 0])):
                # invariant subspace: iterate is exact
                return y, _finish(LanczosInfo(m, True, 0.0, n_matvecs))
            blocks_b.append(b)
            basis.append(v_next)

        _finish(LanczosInfo(max_iter, False, rel_change, n_matvecs))
        raise ConvergenceError(
            f"block Lanczos did not reach tol={tol} in {max_iter} "
            f"iterations",
            iterations=max_iter, residual=rel_change, n_matvecs=n_matvecs)
